"""Deterministic discrete-event simulation kernel.

This package is the timing substrate for the whole reproduction: network
transfers, GPU kernels, and synchronization protocols are all
``callback(value)`` agenda entries (:meth:`Environment.call_later`, the
kernel's only scheduling mechanism), ordered by :class:`Environment` on
the one agenda it holds; its clock is the plain attribute ``now``.
There are no event objects: a signal, such as a gradient becoming
ready, is plain state on the object that owns it.
"""

from .core import (
    Environment,
    SimulationError,
    NORMAL,
    URGENT,
)
from .gcpause import gc_paused

__all__ = [
    "Environment",
    "SimulationError",
    "NORMAL",
    "URGENT",
    "gc_paused",
]
