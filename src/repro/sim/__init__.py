"""Deterministic discrete-event simulation kernel.

This package is the timing substrate for the whole reproduction: network
transfers, GPU kernels, and synchronization protocols are all
``callback(value)`` agenda entries (:meth:`Environment.call_later`),
ordered by :class:`Environment` on one agenda.
"""

from .core import (
    Environment,
    Event,
    SimulationError,
    NORMAL,
    URGENT,
)
from .gcpause import gc_paused
from .queues import SlottedQueue

__all__ = [
    "Environment",
    "Event",
    "SimulationError",
    "SlottedQueue",
    "NORMAL",
    "URGENT",
    "gc_paused",
]
