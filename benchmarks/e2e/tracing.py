"""Outside-in per-layer tracing for the end-to-end benchmark.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
each layer's public entry point -- on the attribute its caller actually
resolves at call time -- with a wrapper that records a host-clock span
``[name, start, end, parent, op]``.  Spans stay in memory; self time is a
span's duration minus its direct children's, so the self times of one op
plus the harness's own remainder (``unattributed_s``) add up to the op's
wall time exactly.

:meth:`Tracer.counting` is the other half: an untimed op run under
counting hooks (events stepped, fabric messages and bytes, lowered tasks
and dependency edges, plan ops, cache hits).  Per-event hooks would
distort timings, so counts never come from a timed op.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Name of the harness's root span around each op; its self time is the
#: op's unattributed remainder.
ROOT = "op"

#: The layers inside ``build_graph`` that produce the lowered recipe: the
#: cache-key lookup on a warm op; on a cold one, the whole plan pipeline
#: and lowering too.  Their sum is never zero, unlike each cold-only part.
RECIPE_LAYERS = (
    "casync.lower.build_graph",
    "casync.passes.build_plan",
    "strategies.expand",
    "casync.passes.verify",
    "casync.index.plan_index",
    "casync.ir.digest",
    "casync.lower.lower_plan",
)


def _hook_points() -> List[Tuple[Any, str, str]]:
    """(owner, attribute, layer name) for every wrapped entry point."""
    import repro.advisor as advisor
    import repro.casync.lower as lower
    import repro.casync.passes as passes
    import repro.experiments.common as common
    import repro.experiments.heterogeneous as heterogeneous
    import repro.experiments.runner as runner
    import repro.training.loop as loop
    from repro.casync.ir import SyncPlan
    from repro.casync.tasks import TaskGraph
    from repro.strategies import CaSyncPS, CaSyncRing, RingAllreduce

    return [
        (common, "run_system", "experiments.common.run_system"),
        (heterogeneous, "run_system", "experiments.common.run_system"),
        (common, "make_plans", "casync.planner.make_plans"),
        (heterogeneous, "make_plans", "casync.planner.make_plans"),
        (common, "simulate_iteration", "training.simulate_iteration"),
        (lower, "build_graph", "casync.lower.build_graph"),
        (lower, "build_plan", "casync.passes.build_plan"),
        (lower, "lower_plan", "casync.lower.lower_plan"),
        (lower, "instantiate", "casync.lower.instantiate"),
        (lower, "plan_index", "casync.index.plan_index"),
        (passes, "plan_index", "casync.index.plan_index"),
        (passes.VerifyPass, "run", "casync.passes.verify"),
        (CaSyncPS, "expand", "strategies.expand"),
        (CaSyncRing, "expand", "strategies.expand"),
        (RingAllreduce, "expand", "strategies.expand"),
        (SyncPlan, "digest", "casync.ir.digest"),
        (loop, "run_graph", "casync.tasks.event_loop"),
        (loop, "peak_buffer_memory", "casync.memory.peak_buffer_memory"),
        (TaskGraph, "arm", "casync.tasks.arm"),
        (runner.ExperimentRunner, "run", "experiments.runner.run"),
        (runner, "job_digest", "experiments.runner.job_digest"),
        (advisor, "job_digest", "experiments.runner.job_digest"),
        (runner.ResultCache, "get", "experiments.runner.cache_get"),
        (runner.ResultCache, "put", "experiments.runner.cache_put"),
        (advisor, "recommend", "advisor.recommend"),
    ]


def layer_names() -> List[str]:
    """Every traced layer, in a stable order (root last)."""
    names: List[str] = []
    for _, _, name in _hook_points():
        if name not in names:
            names.append(name)
    return names + [ROOT]


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str,
                make: Callable[[Any], Any]) -> None:
        """Set ``owner.attr`` to ``make(original)``.

        On a class the original is read from its own ``__dict__``, so a
        method is restored exactly, unbound.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _tallied(tally: Callable[..., None]) -> Callable[[Callable], Callable]:
    """A ``make`` for :meth:`_Patches.replace` that calls the original,
    then ``tally(result, *args)``."""
    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tally(result, *args)
            return result
        return wrapper
    return make


class Tracer:
    """In-memory span recorder installed around single ops."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None, op id]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: the wrappers live only inside the block, which
        yields the root-span wrapper to call the op through."""
        patches = _Patches()
        for owner, attr, name in _hook_points():
            patches.replace(owner, attr,
                            functools.partial(self._wrap, name=name))
        self._op = op_id
        try:
            yield self._wrap(lambda fn: fn(), ROOT)
        finally:
            self._op = None
            patches.undo()

    def self_times(self, op_id: int) -> Tuple[Dict[str, float],
                                              Dict[str, int]]:
        """Raw self seconds and call counts per layer for one op."""
        child = [0.0] * len(self.spans)
        selected = [i for i, s in enumerate(self.spans) if s[4] == op_id]
        for i in selected:
            name, start, end, parent, _ = self.spans[i]
            if parent is not None:
                child[parent] += end - start
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for i in selected:
            name, start, end, _, _ = self.spans[i]
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def chrome_trace(self, pid: int, process_name: str) -> Dict[str, Any]:
        """The spans as Chrome-trace JSON: one pid, one tid per layer."""
        names = layer_names()
        tids = {name: i + 1 for i, name in enumerate(names)}
        origin = min((s[1] for s in self.spans), default=0.0)
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": process_name}}]
        events += [{"name": "thread_name", "ph": "M", "pid": pid,
                    "tid": tids[name], "args": {"name": name}}
                   for name in names]
        for i, (name, start, end, parent, op_id) in enumerate(self.spans):
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": tids[name],
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": i, "parent": parent, "op": op_id}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    @staticmethod
    @contextmanager
    def counting(counts: Dict[str, float]):
        """Run the block under counting hooks; totals land in ``counts``.

        Every hook is a plain tally around the original call, so the
        simulated outputs are unchanged, but a per-event hook costs host
        time: only untimed ops run under it.
        """
        import repro.casync.lower as lower
        import repro.training.loop as loop
        from repro.experiments.runner import ExperimentRunner, ResultCache
        from repro.sim import Environment

        for key in ("sim.events", "net.messages", "net.bytes_sent",
                    "casync.lower.tasks", "casync.lower.dep_edges",
                    "casync.passes.plan_ops", "experiments.runner.jobs_executed",
                    "experiments.runner.cache_lookups",
                    "experiments.runner.cache_hits"):
            counts[key] = 0
        fabrics: List[Any] = []

        def on_step(_, env):
            counts["sim.events"] += 1

        def on_instantiate(_, recipe, ctx):
            counts["casync.lower.tasks"] += len(recipe.specs)
            counts["casync.lower.dep_edges"] += sum(
                len(spec.deps) for spec in recipe.specs)

        def on_build_plan(plan, *args):
            counts["casync.passes.plan_ops"] += len(plan.ops)

        def on_run(report, runner, specs):
            counts["experiments.runner.jobs_executed"] += report.executed

        def on_get(payload, cache, digest):
            counts["experiments.runner.cache_lookups"] += 1
            counts["experiments.runner.cache_hits"] += payload is not None

        def recording(fabric_cls):
            class RecordingFabric(fabric_cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    fabrics.append(self)
            return RecordingFabric

        patches = _Patches()
        patches.replace(Environment, "step", _tallied(on_step))
        patches.replace(loop, "Fabric", recording)
        patches.replace(lower, "instantiate", _tallied(on_instantiate))
        patches.replace(lower, "build_plan", _tallied(on_build_plan))
        patches.replace(ExperimentRunner, "run", _tallied(on_run))
        patches.replace(ResultCache, "get", _tallied(on_get))
        graph_cache = lower.default_graph_cache()
        hits0, misses0 = graph_cache.hits, graph_cache.misses
        try:
            yield counts
        finally:
            patches.undo()
        counts["net.messages"] = sum(f.stats.messages for f in fabrics)
        counts["net.bytes_sent"] = sum(f.stats.bytes_sent for f in fabrics)
        hits = graph_cache.hits - hits0
        lookups = hits + graph_cache.misses - misses0
        counts["casync.lower.cache_hit_ratio"] = (hits / lookups
                                                 if lookups else 0.0)
        lookups = counts.pop("experiments.runner.cache_lookups")
        counts["experiments.runner.cache_hit_ratio"] = (
            counts.pop("experiments.runner.cache_hits") / lookups
            if lookups else 0.0)
