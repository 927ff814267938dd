"""Deterministic discrete-event simulation kernel (SimPy-flavoured).

This package is the timing substrate for the whole reproduction: network
transfers, GPU kernels, and synchronization protocols are all simulated
processes scheduled by :class:`Environment`.
"""

from .core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    NORMAL,
    URGENT,
)
from .queues import SlottedQueue
from .resources import Request, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "SlottedQueue",
    "Store",
    "Timeout",
    "NORMAL",
    "URGENT",
]
