"""GPU communication-buffer memory accounting.

§5: "CompLL reuses gradients produced by DNN computation and only
allocates buffers for the much smaller compressed gradients to avoid the
GPU memory contention."  This module makes that claim measurable: after a
task graph executes, :func:`peak_buffer_memory` sweeps each node's buffer
lifetimes -- a task that materializes a buffer (``out_nbytes``) holds it
from its completion until the last task depending on it completes -- and
reports the peak simultaneous communication-buffer footprint per node.
Consumers come from the graph's successor CSR, and only the rows of
buffer-producing tasks are walked (on a warm BERT-large CaSync-PS round,
1,715 of 53,854 tasks), so the accounting is cheap enough to run eagerly
after every round.

OSS-style integrations allocate full-size staging copies per gradient
(the ``copy`` tasks), so their peaks sit far above CaSync's
compressed-buffers-only footprint; `tests/test_memory.py` pins this down
and `benchmarks/test_ablations.py`-style comparisons can quantify it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .tasks import TaskGraph

__all__ = ["buffer_lifetimes", "peak_buffer_memory"]


def buffer_lifetimes(graph: TaskGraph) -> List[Tuple[int, float, float, float]]:
    """(node, alloc_time, free_time, nbytes) for every materialized buffer.

    Must be called after the graph has executed (tasks need timestamps).
    A buffer is allocated when its producing task finishes and freed when
    the last consumer finishes (or immediately, if nothing consumes it).
    Only the producers' rows of the graph's successor CSR are walked; a
    join consumer finishes when it releases (``graph.joined_at``).
    """
    csr = graph.csr
    slot, finished_at, joined_at = csr.slot, graph.finished_at, graph.joined_at
    nodes, out_nbytes = graph.nodes, graph.recipe.out_nbytes
    lifetimes = []
    for i in csr.producers:
        k = slot[i]
        alloc = free = finished_at[k]
        if alloc != alloc:
            raise ValueError(f"task {k} ({graph.recipe.labels[k]!r}) has no "
                             f"timestamps; run the graph first")
        for j in csr.successors(i):
            c = slot[j]
            # An unfinished task's or unreleased join's NaN compares False.
            finished = finished_at[c] if c >= 0 else joined_at[j]
            if finished > free:
                free = finished
        lifetimes.append((nodes[k], alloc, free, float(out_nbytes[k])))
    return lifetimes


def peak_buffer_memory(graph: TaskGraph) -> Dict[int, float]:
    """Peak simultaneous communication-buffer bytes per node."""
    by_node: Dict[int, List[Tuple[float, float]]] = {}
    for node, alloc, free, nbytes in buffer_lifetimes(graph):
        deltas = by_node.setdefault(node, [])
        deltas.append((alloc, nbytes))
        deltas.append((free, -nbytes))
    peaks: Dict[int, float] = {}
    for node, deltas in by_node.items():
        # Frees sort before allocations at the same instant (buffer reuse).
        deltas.sort(key=lambda e: (e[0], e[1]))
        current = 0.0
        peak = 0.0
        for _, delta in deltas:
            current += delta
            peak = max(peak, current)
        peaks[node] = peak
    return peaks
