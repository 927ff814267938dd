"""GPU communication-buffer memory accounting.

§5: "CompLL reuses gradients produced by DNN computation and only
allocates buffers for the much smaller compressed gradients to avoid the
GPU memory contention."  This module makes that claim measurable: after a
task graph executes, :func:`peak_buffer_memory` sweeps each node's buffer
lifetimes -- a task that materializes a buffer (``out_nbytes``) holds it
from its completion until the last task depending on it completes -- and
reports the peak simultaneous communication-buffer footprint per node.
Only the successor CSR's rows of buffer-producing tasks are gathered (on
a warm BERT-large CaSync-PS round, 1,715 of 53,854 tasks), in NumPy
passes bit-equal to the scalar sweeps of ``tests/reference_memory.py``,
so the accounting is cheap enough to run eagerly after every round.

OSS-style integrations allocate full-size staging copies per gradient
(the ``copy`` tasks), so their peaks sit far above CaSync's
compressed-buffers-only footprint; `tests/test_memory.py` pins this down
and `benchmarks/test_ablations.py`-style comparisons can quantify it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .ir import gather_rows
from .tasks import TaskGraph

__all__ = ["buffer_lifetimes", "peak_buffer_memory"]


def _buffers(graph: TaskGraph) -> Tuple[List[int], np.ndarray, np.ndarray,
                                         np.ndarray]:
    """Each buffer's node, alloc and free instants and size, in producer
    order: the columns of :func:`buffer_lifetimes`."""
    csr, finished_at = graph.csr, np.asarray(graph.finished_at)
    producers, slot = np.asarray(csr.producers, np.intp), np.asarray(csr.slot)
    tasks = slot[producers]
    alloc = finished_at[tasks]
    tasks, unset = tasks.tolist(), np.flatnonzero(np.isnan(alloc))
    if len(unset):
        k = tasks[unset[0]]
        raise ValueError(f"task {k} ({graph.recipe.labels[k]!r}) has no "
                         f"timestamps; run the graph first")
    positions, counts = gather_rows(np.asarray(csr.succ_ptr), producers)
    consumers = np.asarray(csr.succ_idx)[positions]
    finished = finished_at[slot[consumers]]
    joins = slot[consumers] < 0
    finished[joins] = np.asarray(graph.joined_at)[consumers[joins]]
    # An unfinished task's or unreleased join's NaN never wins an fmax.
    free = alloc.copy()
    np.fmax.at(free, np.repeat(np.arange(len(tasks)), counts), finished)
    nbytes = np.fromiter(map(graph.recipe.out_nbytes.__getitem__, tasks),
                         float, len(tasks))
    return list(map(graph.nodes.__getitem__, tasks)), alloc, free, nbytes


def buffer_lifetimes(graph: TaskGraph) -> List[Tuple[int, float, float, float]]:
    """(node, alloc_time, free_time, nbytes) for every materialized buffer.

    Must be called after the graph has executed (tasks need timestamps).
    A buffer is allocated when its producing task finishes and freed when
    the last consumer finishes (or immediately, if nothing consumes it).
    A join consumer finishes when it releases (``graph.joined_at``).
    """
    nodes, alloc, free, nbytes = _buffers(graph)
    return list(zip(nodes, alloc.tolist(), free.tolist(), nbytes.tolist()))


def peak_buffer_memory(graph: TaskGraph) -> Dict[int, float]:
    """Peak simultaneous communication-buffer bytes per node, keyed in
    the order the nodes first produce a buffer."""
    nodes, alloc, free, nbytes = _buffers(graph)
    keys, first, group = np.unique(nodes, return_index=True,
                                   return_inverse=True)
    # Alloc and free events by node, then time, frees first (buffer reuse).
    times = np.column_stack((alloc, free)).ravel()
    deltas = np.column_stack((nbytes, -nbytes)).ravel()
    group = np.repeat(group, 2)
    deltas = deltas[np.lexsort((deltas, times, group))]
    by_node = np.split(deltas, np.cumsum(np.bincount(group))[:-1])
    # ``cumsum`` adds in order, so each running total is the scalar one.
    return {int(keys[i]): max(0.0, float(np.cumsum(by_node[i]).max()))
            for i in np.argsort(first).tolist()}
