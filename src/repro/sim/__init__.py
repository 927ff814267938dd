"""Deterministic discrete-event simulation kernel.

This package is the timing substrate for the whole reproduction: network
transfers, GPU kernels, and synchronization protocols are all
``callback(value)`` agenda entries (:meth:`Environment.call_later`, the
kernel's only scheduling mechanism), ordered by :class:`Environment` on
one agenda.  There are no event objects: a signal, such as a gradient
becoming ready, is plain state on the object that owns it.
"""

from .core import (
    Environment,
    SimulationError,
    NORMAL,
    URGENT,
)
from .gcpause import gc_paused
from .queues import SlottedQueue

__all__ = [
    "Environment",
    "SimulationError",
    "SlottedQueue",
    "NORMAL",
    "URGENT",
    "gc_paused",
]
