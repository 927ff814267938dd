"""Deterministic discrete-event simulation kernel (SimPy-flavoured).

This package is the timing substrate for the whole reproduction: network
transfers, GPU kernels, and synchronization protocols are all events
scheduled by :class:`Environment` -- generator processes, or pooled
callback carriers (:meth:`Environment.call_later`) on the hot paths.
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
from .gcpause import gc_paused
from .queues import SlottedQueue
from .resources import Request, Resource

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
    "Timeout",
    "NORMAL",
    "URGENT",
    "gc_paused",
]
