"""Pausing Python's automatic garbage collection for one simulated round.

A round allocates its plan, recipe and task objects and keeps them alive
until it settles.  Every automatic full collection during the round
rescans all of them and frees almost nothing, so the round drivers
(:func:`repro.training.loop.simulate_iteration`,
:func:`repro.training.trace.trace_iteration`) are decorated with
:func:`gc_paused`.  A settled round leaves no reference cycle, so its
state is freed by reference counting when the driver's frame goes,
still inside the pause; a warm round then leaves the collector nothing
to scan (``docs/SIM_CORE.md``).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["gc_paused"]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable automatic collection for the block; restore it after.

    Collection is re-enabled on exit only if it was enabled on entry, so
    pauses nest and a caller's own ``gc.disable()`` survives.  The state
    is restored when the block raises too.  No collection is forced.
    As a decorator (``@gc_paused()``) it pauses each call, and resumes
    only once the call's frame has been freed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
