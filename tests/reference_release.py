"""Test oracle: task release and completion as one frame per step.

Before release ran in one pass, a completion walked four frames per
released task -- ``_on_complete`` -> ``_release`` -> ``_start`` ->
``NodeEngine.dispatch`` -- and a batch entry called ``_on_complete``
once per task and ``Environment.yield_front`` after every task but the
last.  The methods below are that code, unchanged, with the two push
sites that scheduled it (``complete`` and ``complete_many``) and the two
other callers of ``_release`` (``_on_ready``, the ready-ref entry, and
``_start_rows``, which ``arm`` calls), so a run with the reference
installed releases through the reference ``_release`` alone.
:func:`install` monkeypatches them onto the shipped classes, and
``tests/test_release_oracle.py`` checks that both push the same agenda
entries in the same order and time every task the same.

The namespace classes only give each method its original qualified
name: a pushed callback is recorded by ``__qualname__``.
"""

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.casync.tasks import (BULK_SEND, COMP, CPU, NodeEngine as _Engine,
                                TaskGraph as _Graph)
from repro.sim import SimulationError


class TaskGraph:
    def complete(self, k: int, error: Optional[BaseException] = None) -> None:
        """Complete task ``k`` now, failed with ``error`` if given: one
        agenda entry at ``(now, NORMAL)``.  A second call raises
        :class:`SimulationError`."""
        if self.triggered[k]:
            raise SimulationError(
                f"task {k} ({self.recipe.labels[k]!r}) has already been "
                "completed")
        self.triggered[k] = 1
        if error is not None:
            self.errors[k] = error
        self.env.call_later(0.0, self._on_complete, k)

    def complete_many(self, batch: List[int]) -> None:
        """:meth:`complete` for each task of ``batch``, in order, from one
        entry; the rest of the batch yields to any entry a completion
        pushes ahead of it (:meth:`Environment.yield_front`), so the order
        is the per-task one.  A completed task raises."""
        triggered = self.triggered
        for k in batch:
            if triggered[k]:
                raise SimulationError(
                    f"task {k} ({self.recipe.labels[k]!r}) has already "
                    "been completed")
            triggered[k] = 1
        if batch:  # an empty batch pushes nothing, like no complete() call
            self.env.call_later(0.0, self._on_batch, deque(batch))

    def _on_batch(self, tasks: Deque[int]) -> None:
        while tasks:
            self._on_complete(tasks.popleft())
            if tasks and self.env.yield_front(self._on_batch, tasks):
                return

    def _on_complete(self, k: int) -> None:
        csr = self.csr
        i = self.recipe.rows[k]
        start, stop = csr.succ_ptr[i], csr.succ_ptr[i + 1]
        if start != stop:
            self._release(csr.succ_idx[start:stop])
        for observer in self.observers:
            observer(self, k)
        if self.finished:
            return
        if self.errors and k in self.errors:
            self.error = self.errors[k]
            self.finished = True
            self.env.call_later(0.0, self._settle)
            return
        self._remaining -= 1
        if not self._remaining:
            self._finish()

    def _on_ready(self, key: Tuple) -> None:
        if self._pending is None:
            raise SimulationError(
                f"ready ref {key} fired before the graph was armed")
        if self.finished and self.error is None:
            return  # unbound: nothing is left to release
        csr = self.csr
        r = csr.refs[key]
        self._release(csr.ref_idx[csr.ref_ptr[r]:csr.ref_ptr[r + 1]])

    def _start_rows(self, rows: Sequence[int]) -> None:
        """Start ``rows``, which wait on nothing, in order: each is
        re-armed at one pending dependency and released."""
        pending = self._pending
        for i in rows:
            pending[i] = 1
        self._release(rows)

    def _start(self, i: int) -> None:
        """Dispatch row ``i``'s task, or release a join's dependents."""
        k = self.csr.slot[i]
        if k < 0:
            self.joined_at[i] = self.env.now
            self._release(self.csr.successors(i))
            return
        # The node is read at release time: the degradation controller
        # may have reassigned an undispatched task.
        node = self.nodes[k]
        try:
            engine = self._engines[node]
        except IndexError:
            engine = None
        if engine is None:
            raise ValueError(f"no engine for node {node}")
        engine.dispatch(k)

    def _release(self, dependents) -> None:
        """Count ``dependents`` down, starting each that reaches zero."""
        pending = self._pending
        for j in dependents:
            left = pending[j] - 1
            pending[j] = left
            if not left:
                self._start(j)


class NodeEngine:
    def dispatch(self, k: int) -> None:
        """Route the armed graph's ready task ``k`` to its executor."""
        graph = self.graph
        if graph.triggered[k]:
            return  # already force-completed by the fault machinery
        if self.halted:
            if (self.membership is not None
                    and not self.membership.is_alive(self.node)):
                # This node is declared dead: the degradation sweep already
                # ran, so late arrivals drop-complete to unblock dependents.
                graph.dropped.add(k)
                graph.finished_at[k] = self.env.now
                graph.complete(k)
            else:
                self.orphans.append(k)
            return
        route = graph.recipe.routes[k]
        if route == COMP:
            self.q_comp.put(k, self._comp_take)
        elif route == CPU:
            self.q_cpu.put(k, self._cpu_take)
        elif route == BULK_SEND and self.coordinator is not None:
            self.coordinator.submit(k)
        else:
            self._send_inline(k)


def install(monkeypatch) -> None:
    """Patch the reference methods onto the shipped classes."""
    for reference, shipped in ((TaskGraph, _Graph), (NodeEngine, _Engine)):
        for name, method in vars(reference).items():
            if callable(method):
                monkeypatch.setattr(shipped, name, method, raising=False)
