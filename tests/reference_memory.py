"""Test oracle: buffer accounting as one Python step per buffer.

Before buffer accounting ran on NumPy arrays, :func:`buffer_lifetimes`
walked each producer's successor row in Python, keeping the latest
consumer finish with a ``>`` compare, and :func:`peak_buffer_memory`
sorted each node's ``(time, delta)`` events as tuples and summed them
with ``+=``.  The functions below are that code, unchanged;
``tests/test_memory_oracle.py`` checks that the shipped functions
return equal lists and dicts, values and key order both.
"""

from typing import Dict, List, Tuple

from repro.casync.tasks import TaskGraph


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
