"""Lowering: SyncPlan IR -> cached task recipes -> executable TaskGraphs.

The backend of the SyncPlan pipeline, and the home of the cost model.
:func:`lower_plan` resolves a verified plan against the concrete
cluster/algorithm -- :func:`_spec_for` costs each op's duration, launch
overhead, and wire size on *its own node's* GPU, under *its gradient's*
codec -- and produces a :class:`LoweredRecipe`: one dependency row per
plan op, the environment-free :class:`TaskSpec` of every op but a
barrier (whose row is a CSR *join*, no task), the plan's bulk decision,
and (built on first use and cached with it) the rows'
:class:`~repro.casync.tasks.SuccessorCSR`.  :func:`instantiate`, the one
way a :class:`~repro.casync.tasks.TaskGraph` is built, turns a recipe
into a live graph for one
:class:`~repro.sim.Environment`, which is cheap (one ``Task`` per spec: no
cost-model calls, no pass pipeline, no per-task dependency wiring) and is
what makes the :class:`GraphCache` pay off: the
multi-iteration experiment harness builds the plan -- §3.3 planning
included -- once per (strategy, model, cluster, algorithm, decisions)
key and replays the recipe every iteration.

Instantiation is deterministic -- specs are emitted in plan-op order, so a
warm-cache graph is *bit-identical* (same task order, labels, durations,
and dependency wiring, hence the same trace hash) to a cold-built one.

``--dump-sync-plan`` (see :mod:`repro.experiments.__main__`) routes
through :func:`sync_plan_dump`: every plan built inside the context is
written as ``<strategy>-<digest12>.json`` + ``.txt``.  Naming those files
is the only use of the plan digest here: building and lowering a plan
hash nothing.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..algorithms.base import CompressionAlgorithm
from .index import plan_index
from .ir import Op, SyncPlan
from .passes import PassContext, build_plan, wire_nbytes
from .tasks import SuccessorCSR, Task, TaskGraph

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

    ``row`` is the plan op it was lowered from.  ``deps`` entries are
    ``("t", row)`` (an earlier row, a task or a join) or ``("r", node,
    gradient)`` (a ready ref, fired by the backward pass through
    :meth:`~repro.casync.tasks.TaskGraph.make_ready`).
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
    row: int


@dataclass
class LoweredRecipe:
    """A lowered SyncPlan, ready for per-environment instantiation: every
    op's dependency row (``deps[i]`` is op ``i``'s), the task rows' specs
    and the plan's bulk-synchronization decision."""

    specs: List[TaskSpec]
    deps: List[Tuple[Tuple, ...]]
    bulk: bool

    @cached_property
    def csr(self) -> SuccessorCSR:
        """The rows' successor CSR, built on first use and kept with the
        recipe, so every warm instantiation shares one copy."""
        return SuccessorCSR(
            self.deps, [spec.row for spec in self.specs],
            [spec.row for spec in self.specs if (spec.out_nbytes or 0) > 0])

    def __repr__(self) -> str:
        return f"<LoweredRecipe {len(self.specs)} tasks bulk={self.bulk}>"


#: Host-side (CPU) throughput penalty per byte relative to the GPU,
#: calibrated to the paper's 35.6x on-CPU vs on-GPU compression gap.
CPU_FACTOR = 35.0


def _spec_for(op: Op, pctx: PassContext, gpus: Tuple, launches: Tuple,
              deps: Tuple[Tuple, ...], row: int) -> TaskSpec:
    """Cost one IR op on its node's hardware and freeze it as a spec.

    Cost conventions (on node ``op.node``'s GPU unless stated):

    * encode/decode durations come from the codec's
      :class:`~repro.algorithms.base.KernelProfile`, with one launch per
      profiled kernel; ``on_cpu`` runs them ``CPU_FACTOR`` times slower;
    * ``merge`` of an m-byte accumulation reads two buffers and writes one
      (3 m bytes, one launch); on the host it is 6x slower (host DRAM plus
      the GPU<->host PCIe hops);
    * ``decode_merge`` is CaSync's fused §5 kernel (one launch fewer than
      decode + merge), or a scatter-add over the transmitted pairs for
      sparsification codecs;
    * ``copy`` is an extra device-to-device copy (2 m bytes) -- the OSS
      integrations' overhead;
    * ``cpu`` ops take a fixed ``duration_s`` or aggregate at the node's
      ``cpu_agg_bytes_per_s``;
    * ``send`` carries its wire size under its gradient's codec.

    ``as_cpu`` executes GPU-costed work on the host CPU executor (the
    BytePS-OSS pattern).  IR barriers never get here: they are joins.
    """
    node = op.node
    nbytes = op.size.nbytes
    on_cpu = bool(op.attrs.get("on_cpu"))
    algo = pctx.algorithm_for(op.grad)
    kind = op.kind
    duration = 0.0
    launch = 0.0
    out_nbytes: Optional[float] = None
    dst: Optional[int] = None
    bulk = False
    if kind == "encode":
        duration = algo.encode_time(nbytes, gpus[node])
        if on_cpu:
            duration *= CPU_FACTOR
        launch = launches[node] * algo.profile.encode_kernels
        out_nbytes = wire_nbytes(algo, nbytes)
    elif kind == "decode":
        # CaSync decodes into the existing gradient tensor (§5), so only
        # OSS-style integrations allocate a separate output buffer.
        duration = algo.decode_time(nbytes, gpus[node])
        if on_cpu:
            duration *= CPU_FACTOR
        launch = launches[node] * algo.profile.decode_kernels
        if op.attrs.get("allocates_output"):
            out_nbytes = nbytes
    elif kind == "decode_merge":
        gpu = gpus[node]
        if algo is not None and algo.category == "sparsification":
            kind = "merge"
            nbytes = wire_nbytes(algo, nbytes)
            duration = gpu.kernel_time(3 * nbytes, kernels=1)
            if on_cpu:
                duration *= CPU_FACTOR
            launch = launches[node]
        else:
            kind = "decode"
            duration = (algo.decode_time(nbytes, gpu)
                        + gpu.kernel_time(nbytes, kernels=1)
                        - launches[node])
            launch = launches[node] * algo.profile.decode_kernels
    elif kind == "merge":
        duration = gpus[node].kernel_time(3 * nbytes, kernels=1)
        if on_cpu:
            duration *= 6
        launch = launches[node]
    elif kind == "copy":
        duration = gpus[node].kernel_time(2 * nbytes, kernels=1)
        launch = launches[node]
        out_nbytes = nbytes
    elif kind == "cpu":
        duration_s = op.attrs.get("duration_s")
        if duration_s is not None:
            duration = float(duration_s)
            nbytes = 0.0
        else:
            duration = nbytes / pctx.cluster.node_at(node).cpu_agg_bytes_per_s
    elif kind == "send":
        nbytes = pctx.wire_op(op)
        dst = op.dst
        bulk = bool(op.attrs.get("bulk"))
    else:  # unreachable: the verifier ran before lowering
        raise ValueError(f"cannot lower op kind {op.kind!r}")
    if op.attrs.get("as_cpu"):
        kind = "cpu"
    return TaskSpec(kind=kind, node=node, label=op.label, duration=duration,
                    launch_overhead=launch, nbytes=nbytes,
                    out_nbytes=out_nbytes, dst=dst, bulk=bulk, deps=deps,
                    row=row)


def lower_plan(plan: SyncPlan, pctx: PassContext) -> LoweredRecipe:
    """Resolve a (verified) plan into an environment-free recipe.

    Raises :class:`~repro.casync.ir.PlanVerificationError` when the plan
    has structural findings (see :mod:`repro.casync.index`).

    Each op is costed on its own node's GPU and under its gradient's
    codec (:meth:`PassContext.algorithm_for`: an adaptive decision's
    palette entry, else the plan-wide default).  The recipe keeps the
    plan's bulk decision, which
    :class:`~repro.casync.passes.BulkRoutePass` records as
    ``meta["batch_compression"]``; nothing else of the plan.
    """
    gpus = tuple(spec.gpu for spec in pctx.cluster.nodes)
    launches = tuple(gpu.kernel_launch_us * 1e-6 for gpu in gpus)
    # The dependency encodings come from the shared structural index
    # (built by build_plan's verify stage); rows and specs reference the
    # index's tuples directly.
    idx = plan_index(plan)
    idx.raise_if_invalid(plan)
    encodings = idx.dep_encodings
    specs = [_spec_for(op, pctx, gpus, launches, encodings[i], i)
             for i, op in enumerate(plan.ops) if op.kind != "barrier"]
    return LoweredRecipe(specs=specs, deps=encodings,
                         bulk=bool(plan.meta.get("batch_compression")))


def instantiate(recipe: LoweredRecipe, ctx) -> TaskGraph:
    """Cheaply materialize a recipe as a TaskGraph for ``ctx``'s env.

    One :class:`Task` per spec, in recipe order, and nothing else: the
    dependency wiring is the recipe's cached :attr:`LoweredRecipe.csr`,
    whose ``("r", node, gradient)`` ready refs the graph fires itself
    (:meth:`~repro.casync.tasks.TaskGraph.make_ready`).  Task creation/dispatch order (and therefore
    the executed timeline) is identical on every instantiation.  The
    graph carries the recipe's bulk decision.  This is the only place a
    :class:`TaskGraph` is built.
    """
    tasks = [Task(spec.row, spec.node, spec.kind, spec.label, spec.duration,
                  spec.launch_overhead, spec.nbytes, spec.dst, spec.bulk,
                  spec.out_nbytes)
             for spec in recipe.specs]
    return TaskGraph(ctx.env, tasks, recipe.csr, recipe.bulk)


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
    The strategy name, model, hardware and algorithm tokens also cover
    every input of :class:`~repro.casync.passes.SelectivePass`'s planner.
    """
    return (
        (strategy.name,
         tuple((p.name, p.cache_token()) for p in strategy.passes()),
         strategy.cache_token()),
        (model.name, tuple((g.name, g.nbytes) for g in model.gradients)),
        pctx.cluster.hardware_token(),
        _algorithm_token(pctx.algorithm),
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
        algorithm=ctx.algorithm, decisions=ctx.decisions)
    tel = ctx.env.telemetry
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
            tel.finish(span, ctx.env.now, tasks=len(recipe.deps))
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
