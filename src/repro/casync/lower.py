"""Lowering: SyncPlan IR -> cached task recipes -> executable TaskGraphs.

The backend of the SyncPlan pipeline.  :func:`lower_plan` resolves a
verified plan against the concrete cluster/algorithm -- computing every
op's duration, launch overhead, and wire size through the same
:class:`~repro.strategies.base.TaskBuilder` cost model the strategies used
to call directly -- and produces a :class:`LoweredRecipe`: a flat list of
environment-free :class:`TaskSpec` rows.  :func:`instantiate` then turns a
recipe into a live :class:`~repro.casync.tasks.TaskGraph` for one
:class:`~repro.sim.Environment`, which is cheap (no cost-model calls, no
pass pipeline) and is what makes the :class:`GraphCache` pay off: the
multi-iteration experiment harness builds the plan once per
(strategy, model, cluster, algorithm, plans, pass-config) key and replays
the recipe every iteration.

Instantiation is deterministic -- specs are emitted in plan-op order, so a
warm-cache graph is *bit-identical* (same task order, labels, durations,
and dependency wiring, hence the same trace hash) to a cold-built one.

``--dump-sync-plan`` (see :mod:`repro.experiments.__main__`) routes
through :func:`sync_plan_dump`: every plan built inside the context is
written as ``<strategy>-<digest12>.json`` + ``.txt``.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..algorithms.base import CompressionAlgorithm
from .index import plan_index
from .ir import Op, SyncPlan
from .passes import DEFAULT_PASS_CONFIG, PassContext, build_plan
from .planner import plans_to_json
from .tasks import Task, TaskGraph

__all__ = [
    "GraphCache",
    "LoweredRecipe",
    "TaskSpec",
    "build_graph",
    "cache_key",
    "default_graph_cache",
    "instantiate",
    "lower_plan",
    "sync_plan_dump",
]


@dataclass(frozen=True)
class TaskSpec:
    """One fully-costed task, free of any Environment reference.

    ``deps`` entries are ``("t", index)`` (an earlier spec in the same
    recipe) or ``("r", node, gradient)`` (a backward-pass ready event,
    resolved against ``ctx.ready`` at instantiation).
    """

    kind: str
    node: int
    label: str
    duration: float
    launch_overhead: float
    nbytes: float
    out_nbytes: Optional[float]
    dst: Optional[int]
    bulk: bool
    deps: Tuple[Tuple, ...]


@dataclass
class LoweredRecipe:
    """A lowered SyncPlan, ready for per-environment instantiation."""

    specs: List[TaskSpec]
    plan_digest: str
    strategy: str
    num_nodes: int
    meta: Dict[str, object]

    def __repr__(self) -> str:
        return (f"<LoweredRecipe {self.strategy} {len(self.specs)} tasks "
                f"plan={self.plan_digest[:12]}>")


class _BuilderContext:
    """Duck-typed stand-in for SyncContext: TaskBuilder's cost-model calls
    only touch ``ctx.cluster`` and ``ctx.algorithm``."""

    def __init__(self, cluster, algorithm):
        self.cluster = cluster
        self.algorithm = algorithm


def _spec_for(op: Op, builder, pctx: PassContext,
              dep_encoding: Tuple[Tuple, ...]) -> TaskSpec:
    """Cost one IR op through the TaskBuilder and freeze it as a spec."""
    on_cpu = bool(op.attrs.get("on_cpu"))
    nbytes = op.size.nbytes
    if op.kind == "encode":
        task = builder.encode(op.node, nbytes, op.label, on_cpu=on_cpu)
    elif op.kind == "decode":
        task = builder.decode(
            op.node, nbytes, op.label, on_cpu=on_cpu,
            allocates_output=bool(op.attrs.get("allocates_output")))
    elif op.kind == "decode_merge":
        task = builder.aggregate_received(op.node, nbytes, op.label,
                                          on_cpu=on_cpu)
    elif op.kind == "merge":
        task = builder.merge(op.node, nbytes, op.label, on_cpu=on_cpu)
    elif op.kind == "copy":
        task = builder.copy(op.node, nbytes, op.label)
    elif op.kind == "cpu":
        duration_s = op.attrs.get("duration_s")
        if duration_s is not None:
            task = builder.cpu_work(op.node, float(duration_s), op.label)
        else:
            task = builder.cpu_aggregate(op.node, nbytes, op.label)
    elif op.kind == "send":
        task = builder.send(op.node, op.dst, pctx.wire_op(op), op.label,
                            bulk=bool(op.attrs.get("bulk")))
    elif op.kind == "barrier":
        task = builder.notify(op.node, op.label)
    else:  # unreachable: the verifier ran before lowering
        raise ValueError(f"cannot lower op kind {op.kind!r}")
    # The byteps-oss pattern: work costed by a GPU-kind builder method but
    # executed on the host CPU executor (encode/decode pinned to the CPU).
    kind = "cpu" if op.attrs.get("as_cpu") else task.kind
    return TaskSpec(kind=kind, node=task.node, label=task.label,
                    duration=task.duration,
                    launch_overhead=task.launch_overhead,
                    nbytes=task.nbytes, out_nbytes=task.out_nbytes,
                    dst=task.dst, bulk=task.bulk, deps=dep_encoding)


def lower_plan(plan: SyncPlan, pctx: PassContext) -> LoweredRecipe:
    """Resolve a (verified) plan into an environment-free recipe.

    Raises :class:`~repro.casync.ir.PlanVerificationError` when the plan
    has structural findings (see :mod:`repro.casync.index`).

    Under an adaptive :class:`~repro.casync.decisions.DecisionMap`, each
    op is costed through a TaskBuilder bound to *its gradient's* codec
    (one builder per palette entry, created lazily); without decisions
    every op uses the plan-wide default builder, byte-identically to the
    pre-adaptive lowering.
    """
    from ..strategies.base import TaskBuilder  # deferred: avoids a cycle

    builder = TaskBuilder(_BuilderContext(pctx.cluster, pctx.algorithm))
    builders: Dict[Optional[str], object] = {None: builder}

    def builder_for(op: Op):
        if pctx.decisions is None or op.grad is None:
            return builder
        dec = pctx.decisions.get(op.grad)
        key = None if dec is None else dec.algorithm
        chosen = builders.get(key)
        if chosen is None:
            chosen = TaskBuilder(_BuilderContext(
                pctx.cluster, pctx.decisions.palette[key]))
            builders[key] = chosen
        return chosen

    # The dependency encodings come from the shared structural index
    # (built by build_plan's verify stage); specs reference the index's
    # tuples directly, so the whole-plan analyzer can cross-check recipe
    # deps by identity.
    idx = plan_index(plan)
    idx.raise_if_invalid(plan)
    encodings = idx.dep_encodings
    specs: List[TaskSpec] = []
    for i, op in enumerate(plan.ops):
        specs.append(_spec_for(op, builder_for(op), pctx, encodings[i]))
    return LoweredRecipe(specs=specs, plan_digest=plan.digest(),
                         strategy=plan.strategy, num_nodes=plan.num_nodes,
                         meta=dict(plan.meta))


def instantiate(recipe: LoweredRecipe, ctx) -> TaskGraph:
    """Cheaply materialize a recipe as a TaskGraph for ``ctx``'s env.

    Notify tasks here are the lowered form of IR barriers; specs are added
    in recipe order, so task creation/dispatch order (and therefore the
    executed timeline) is identical on every instantiation.
    """
    graph = TaskGraph(ctx.env)
    tasks: List[Task] = []
    for spec in recipe.specs:
        kind = "notify" if spec.kind == "barrier" else spec.kind
        task = Task(spec.node, kind, spec.label, duration=spec.duration,
                    launch_overhead=spec.launch_overhead, nbytes=spec.nbytes,
                    dst=spec.dst, bulk=spec.bulk,
                    out_nbytes=spec.out_nbytes)
        deps = []
        for dep in spec.deps:
            if dep[0] == "t":
                deps.append(tasks[dep[1]])
            else:
                deps.append(ctx.ready[(dep[1], dep[2])])
        graph.add(task, deps=deps)
        tasks.append(task)
    return graph


# -- cache keys --------------------------------------------------------------

def _algorithm_token(algorithm) -> Optional[Tuple]:
    """Recursive identity of a compression algorithm (nested codecs too,
    e.g. AdaptiveAlgorithm's conservative/aggressive pair)."""
    if algorithm is None:
        return None
    scalars: List[Tuple] = []
    nested: List[Tuple] = []
    try:
        attrs = vars(algorithm)
    except TypeError:
        attrs = {}
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, (bool, int, float, str)):
            scalars.append((key, value))
        elif isinstance(value, CompressionAlgorithm):
            nested.append((key, _algorithm_token(value)))
    # Size-model probes catch parameterizations the attribute scan missed
    # (slotted classes, derived state).
    probes = tuple(algorithm.compressed_nbytes(s) for s in (64, 4096, 262144))
    return (type(algorithm).__name__, getattr(algorithm, "name", ""),
            tuple(scalars), tuple(nested), probes)


def _plans_token(plans) -> Optional[str]:
    if plans is None:
        return None
    return hashlib.sha256(plans_to_json(plans).encode()).hexdigest()


def _decisions_token(decisions) -> Optional[Tuple]:
    """Content identity of one iteration's adaptive decisions.

    Any decision input that changes plan shape -- a compress flip, a
    palette re-assignment, a partition override, or a re-parameterized
    palette codec -- must change this token, or a warm recipe built for
    different decisions would be replayed (the keying bug this guards).
    """
    if decisions is None:
        return None
    palette = tuple((key, _algorithm_token(decisions.palette[key]))
                    for key in sorted(decisions.palette))
    return (decisions.content(), palette)


def cache_key(strategy, model, pctx: PassContext) -> Tuple:
    """Identity of a lowered graph: everything the recipe depends on.

    Passes contribute their *name and parameter token* (a name alone
    would alias two differently-tuned instances of the same pass), and
    adaptive decision maps are content-keyed via :func:`_decisions_token`.
    Hardware identity comes from :meth:`ClusterSpec.hardware_token`,
    which covers per-node specs and per-link straggler/WAN descriptors
    -- perturbing a single node's hardware or link is a cache miss.
    """
    return (
        (strategy.name,
         tuple((p.name, p.cache_token()) for p in strategy.passes()),
         strategy.cache_token()),
        (model.name, tuple((g.name, g.nbytes) for g in model.gradients)),
        pctx.cluster.hardware_token(),
        _algorithm_token(pctx.algorithm),
        _plans_token(pctx.plans),
        pctx.config.token(),
        _decisions_token(pctx.decisions),
    )


class GraphCache:
    """FIFO-bounded cache of lowered recipes keyed by :func:`cache_key`.

    ``admission`` selects the cache's admission policy: ``"off"`` (the
    default) caches every recipe the miss path builds; ``"strict"`` runs
    :func:`repro.analysis.plancheck.check_plan` over the plan *and* its
    lowered recipe first, and a plan that fails any whole-plan property
    raises :class:`~repro.analysis.plancheck.PlanCheckError` instead of
    being cached (so a buggy pass can never poison warm iterations).
    The ``REPRO_PLANCHECK`` environment variable overrides the policy
    per process: ``1``/``on``/``true``/``strict`` force strict
    admission, ``0``/``off``/``false`` force it off.
    """

    def __init__(self, maxsize: int = 128, admission: str = "off"):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        if admission not in ("off", "strict"):
            raise ValueError("admission must be 'off' or 'strict'")
        self.maxsize = maxsize
        self.admission = admission
        self._recipes: Dict[Tuple, LoweredRecipe] = {}
        self.hits = 0
        self.misses = 0

    def strict_admission(self) -> bool:
        """Effective policy: ``REPRO_PLANCHECK`` wins over ``admission``."""
        override = os.environ.get("REPRO_PLANCHECK", "").strip().lower()
        if override in ("1", "on", "true", "strict"):
            return True
        if override in ("0", "off", "false"):
            return False
        return self.admission == "strict"

    def get(self, key: Tuple) -> Optional[LoweredRecipe]:
        recipe = self._recipes.get(key)
        if recipe is None:
            self.misses += 1
        else:
            self.hits += 1
        return recipe

    def put(self, key: Tuple, recipe: LoweredRecipe) -> None:
        if key not in self._recipes and len(self._recipes) >= self.maxsize:
            self._recipes.pop(next(iter(self._recipes)))
        self._recipes[key] = recipe

    def clear(self) -> None:
        self._recipes.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._recipes)


_DEFAULT_CACHE = GraphCache()


def default_graph_cache() -> GraphCache:
    """The process-wide recipe cache :func:`build_graph` uses by default."""
    return _DEFAULT_CACHE


# -- plan dumping ------------------------------------------------------------

_DUMP_DIR: List[str] = []  # stack; innermost context wins


@contextmanager
def sync_plan_dump(directory):
    """Write every plan built inside the block to ``directory``.

    Each plan lands as ``<strategy>-<digest12>.json`` (full IR dump) and
    ``.txt`` (human-readable).  Content-addressed names make repeat builds
    idempotent.  Dumping forces plan construction even on cache hits, but
    never perturbs the cache or the instantiated graphs.
    """
    _DUMP_DIR.append(str(directory))
    try:
        yield
    finally:
        _DUMP_DIR.pop()


def _dump_plan(plan: SyncPlan) -> None:
    from pathlib import Path

    directory = Path(_DUMP_DIR[-1])
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{plan.strategy}-{plan.digest()[:12]}"
    (directory / f"{stem}.json").write_text(plan.to_json() + "\n")
    (directory / f"{stem}.txt").write_text(plan.format_text() + "\n")


# -- the facade --------------------------------------------------------------

def build_graph(strategy, ctx, model,
                cache: Optional[GraphCache] = None) -> TaskGraph:
    """IR pipeline entry point: plan -> passes -> lower (cached) -> graph.

    This is what :meth:`repro.strategies.base.Strategy.build` delegates
    to.  ``ctx`` is the live :class:`~repro.strategies.base.SyncContext`;
    everything cacheable is derived from it into an environment-free
    :class:`~repro.casync.passes.PassContext` first.
    """
    pctx = PassContext(
        num_nodes=ctx.cluster.num_nodes, cluster=ctx.cluster,
        algorithm=ctx.algorithm, plans=ctx.plans,
        config=(ctx.pass_config if getattr(ctx, "pass_config", None)
                is not None else DEFAULT_PASS_CONFIG),
        decisions=getattr(ctx, "decisions", None))
    tel = getattr(ctx.env, "telemetry", None)
    store = cache if cache is not None else _DEFAULT_CACHE
    key = cache_key(strategy, model, pctx)
    recipe = store.get(key)
    if recipe is None:
        if tel is not None:
            tel.metrics.counter("syncplan.cache.miss").inc()
        plan = build_plan(strategy, pctx, model, telemetry=tel,
                          now=ctx.env.now)
        if _DUMP_DIR:
            _dump_plan(plan)
        span = None
        if tel is not None:
            span = tel.begin("syncplan:lower", category="syncplan",
                             track="syncplan/passes", at=ctx.env.now,
                             strategy=strategy.name, ops=len(plan.ops))
        recipe = lower_plan(plan, pctx)
        if span is not None:
            tel.finish(span, ctx.env.now, tasks=len(recipe.specs))
        if store.strict_admission():
            # Strict admission: the plan (and its recipe) must prove the
            # whole-graph properties before it may serve warm iterations.
            from ..analysis.plancheck import check_plan
            check_plan(plan, pctx=pctx, recipe=recipe).raise_if_failed()
        store.put(key, recipe)
    else:
        if tel is not None:
            tel.metrics.counter("syncplan.cache.hit").inc()
        if _DUMP_DIR:
            # Dump requests force a (cache-neutral) plan rebuild.
            _dump_plan(build_plan(strategy, pctx, model))
    return instantiate(recipe, ctx)
