"""Lowering: SyncPlan IR -> cached task recipes -> executable TaskGraphs.

The backend of the SyncPlan pipeline, and the home of the cost model.
:func:`lower_plan` resolves a verified plan against the concrete
cluster/algorithm -- :func:`_cost` costs each op's duration, launch
overhead, and wire size on *its own node's* GPU, under *its gradient's*
codec -- and produces a columnar :class:`LoweredRecipe`: one column per
task field over every op but a barrier (whose row is a CSR *join*, no
task), the plan's bulk decision, and the rows'
:class:`~repro.casync.tasks.SuccessorCSR`, built once from the plan's
integer dependency rows (the copy its
:class:`~repro.casync.index.PlanIndex` froze).  Lowering reads the
plan's columns directly.
Costing is grouped: :func:`_cost` is a pure function of an op's kind,
hardware class, codec, size and cost attrs (flag bits included), so
:func:`lower_plan` packs them into integer keys, groups the task rows
by key with one NumPy sort, calls :func:`_cost` once per group and
scatters each result back to the group's rows; a BERT-large plan of
53,854 tasks is costed in under a thousand calls, each with the
unchanged scalar formulas.

:func:`instantiate`, the one way a
:class:`~repro.casync.tasks.TaskGraph` is built, turns a recipe into a
live graph for one :class:`~repro.sim.Environment`, which is cheap (a
reset of the round's state columns: no object per task, no cost-model
calls, no pass pipeline, no per-task dependency wiring) and is what
makes the :class:`GraphCache` pay off: the multi-iteration experiment
harness builds the plan --
§3.3 planning included -- once per (strategy, model, cluster,
algorithm, decisions) key and replays the recipe every iteration.

Instantiation is deterministic -- columns are in plan-op order, so a
warm-cache graph is *bit-identical* (same task order, labels, durations,
and dependency wiring, hence the same trace hash) to a cold-built one.

``--dump-sync-plan`` (see :mod:`repro.experiments.__main__`) routes
through :func:`sync_plan_dump`: every plan built inside the context is
written as ``<strategy>-<digest12>.json`` + ``.txt``.  Naming those files
is the only use of the plan digest here: building and lowering a plan
hash nothing.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import namedtuple
from itertools import chain, repeat
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.base import CompressionAlgorithm
from .index import plan_index
from .ir import ALLOCATES_OUTPUT, AS_CPU, BULK, ON_CPU, OP_KINDS, SyncPlan
from .ir import SEND as SEND_OP
from .passes import PassContext, build_plan, wire_nbytes, wire_size
from .tasks import BULK_SEND, ROUTES, SEND, SuccessorCSR, TaskGraph

__all__ = [
    "GraphCache",
    "LoweredRecipe",
    "build_graph",
    "cache_key",
    "default_graph_cache",
    "instantiate",
    "lower_plan",
    "sync_plan_dump",
]

#: One task row of :attr:`LoweredRecipe.specs`.
_TaskRow = namedtuple("_TaskRow", (
    "row", "node", "kind", "label", "duration", "launch_overhead",
    "nbytes", "dst", "bulk", "out_nbytes", "deps"))


class LoweredRecipe:
    """A lowered SyncPlan, ready for per-environment instantiation.

    One list per task field (``rows``, ``nodes``, ``kinds``, ``labels``,
    ``durations``, ``launch_overheads``, ``nbytes``, ``dsts``, ``bulks``,
    ``out_nbytes``): entry ``k`` of each is task ``k``, lowered from plan
    op ``rows[k]``.  Each row is validated once, here (a known kind, a
    send's destination, a finite non-negative duration and launch
    overhead; a bad row raises :class:`ValueError` naming it), and gets
    its route code in ``routes`` (:data:`~repro.casync.tasks.ROUTES`).
    ``csr`` is the successor CSR of every op's dependency row
    (barriers are its joins), built here, once, from
    ``dep_ptr``/``dep_rows``/``ref_keys`` (see
    :class:`~repro.casync.tasks.SuccessorCSR`); ``bulk`` is the plan's
    bulk-synchronization decision.
    """

    def __init__(self, columns: Sequence[list], dep_ptr: array,
                 dep_rows: array, ref_keys: Sequence[Tuple], bulk: bool):
        (self.rows, self.nodes, self.kinds, self.labels, self.durations,
         self.launch_overheads, self.nbytes, self.dsts, self.bulks,
         self.out_nbytes) = columns
        if len({len(column) for column in columns}) > 1:
            raise ValueError("recipe columns differ in length")
        self.routes = self._routes()
        self.bulk = bulk
        self.csr = SuccessorCSR(
            dep_ptr, dep_rows, ref_keys, self.rows,
            [row for row, out in zip(self.rows, self.out_nbytes)
             if (out or 0) > 0])

    def _routes(self) -> bytes:
        """Each task's route code; an invalid row raises, naming the
        first."""
        n = len(self.kinds)
        routes = np.fromiter(map(ROUTES.get, self.kinds, repeat(255)),
                             np.uint8, n)
        sends = np.flatnonzero(routes == SEND)
        costs = np.fromiter(chain(self.durations, self.launch_overheads),
                            float, 2 * n).reshape(2, n)
        valid = ((costs >= 0) & (costs < math.inf)).all(axis=0)
        valid &= routes != 255
        valid[sends] &= np.fromiter(
            (self.dsts[k] is not None for k in sends.tolist()), bool,
            len(sends))
        if not valid.all():
            k = int(np.argmin(valid))
            raise ValueError(
                f"recipe row {self.rows[k]} ({self.labels[k]!r}): unknown "
                f"kind, send without a destination, or negative or "
                f"non-finite cost: kind {self.kinds[k]!r}, dst "
                f"{self.dsts[k]}, duration {self.durations[k]}, launch "
                f"overhead {self.launch_overheads[k]}")
        routes[sends[np.fromiter(map(self.bulks.__getitem__, sends.tolist()),
                                 bool, len(sends))]] = BULK_SEND
        return routes.tobytes()

    @property
    def specs(self) -> List[_TaskRow]:
        """A row-wise copy of the task columns, each row with its
        dependencies (earlier rows and ``(node, gradient)`` ready refs),
        for the end-to-end benchmark's counting hooks; nothing in the
        package reads it."""
        ptr, dep_rows = self.csr.dep_ptr, self.csr.dep_rows
        refs = self.csr.ref_keys
        specs = []
        for fields in zip(self.rows, self.nodes, self.kinds, self.labels,
                          self.durations, self.launch_overheads, self.nbytes,
                          self.dsts, self.bulks, self.out_nbytes):
            row = fields[0]
            deps = tuple(j if j >= 0 else refs[-1 - j]
                         for j in dep_rows[ptr[row]:ptr[row + 1]])
            specs.append(_TaskRow(*fields, deps))
        return specs

    def __repr__(self) -> str:
        return f"<LoweredRecipe {len(self.rows)} tasks bulk={self.bulk}>"


#: Host-side (CPU) throughput penalty per byte relative to the GPU,
#: calibrated to the paper's 35.6x on-CPU vs on-GPU compression gap.
CPU_FACTOR = 35.0

#: The op attrs that enter the costing, in :func:`_cost`'s ``attrs``
#: order, and the flag bits among them.
_COST_ATTRS = ("on_cpu", "allocates_output", "duration_s", "bulk", "as_cpu")
_COST_FLAGS = ON_CPU | ALLOCATES_OUTPUT | BULK | AS_CPU


def _cost(kind: str, gpu: Any, cpu_rate: float, algo: Any, nbytes: float,
          compressed: bool, attrs: Tuple) -> Tuple:
    """Cost one IR op from exactly its costing inputs.

    ``gpu`` and ``cpu_rate`` are the op's node's ``GpuSpec`` and
    ``cpu_agg_bytes_per_s``, ``algo`` its gradient's codec, ``nbytes``
    and ``compressed`` its :class:`~repro.casync.ir.SizeExpr`, and
    ``attrs`` its values of :data:`_COST_ATTRS`.  A pure function of its
    arguments, so :func:`lower_plan` calls it once per group of ops
    that agree on all of them.

    Returns ``(kind, duration, launch_overhead, nbytes, out_nbytes,
    bulk)``.  Cost conventions (on the node's GPU unless stated):

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
      ``cpu_rate``;
    * ``send`` carries its wire size under its gradient's codec.

    ``as_cpu`` executes GPU-costed work on the host CPU executor (the
    BytePS-OSS pattern).  IR barriers never get here: they are joins.
    """
    on_cpu, allocates_output, duration_s, bulk, as_cpu = attrs
    launch_s = gpu.kernel_launch_us * 1e-6
    duration = 0.0
    launch = 0.0
    out_nbytes: Optional[float] = None
    lowered = kind
    if kind == "encode":
        duration = algo.encode_time(nbytes, gpu)
        if on_cpu:
            duration *= CPU_FACTOR
        launch = launch_s * algo.profile.encode_kernels
        out_nbytes = wire_nbytes(algo, nbytes)
    elif kind == "decode":
        # CaSync decodes into the existing gradient tensor (§5), so only
        # OSS-style integrations allocate a separate output buffer.
        duration = algo.decode_time(nbytes, gpu)
        if on_cpu:
            duration *= CPU_FACTOR
        launch = launch_s * algo.profile.decode_kernels
        if allocates_output:
            out_nbytes = nbytes
    elif kind == "decode_merge":
        if algo is not None and algo.category == "sparsification":
            lowered = "merge"
            nbytes = wire_nbytes(algo, nbytes)
            duration = gpu.kernel_time(3 * nbytes, kernels=1)
            if on_cpu:
                duration *= CPU_FACTOR
            launch = launch_s
        else:
            lowered = "decode"
            duration = (algo.decode_time(nbytes, gpu)
                        + gpu.kernel_time(nbytes, kernels=1)
                        - launch_s)
            launch = launch_s * algo.profile.decode_kernels
    elif kind == "merge":
        duration = gpu.kernel_time(3 * nbytes, kernels=1)
        if on_cpu:
            duration *= 6
        launch = launch_s
    elif kind == "copy":
        duration = gpu.kernel_time(2 * nbytes, kernels=1)
        launch = launch_s
        out_nbytes = nbytes
    elif kind == "cpu":
        if duration_s is not None:
            duration = float(duration_s)
            nbytes = 0.0
        else:
            duration = nbytes / cpu_rate
    elif kind == "send":
        nbytes = wire_size(algo, nbytes, compressed)
    else:  # unreachable: the verifier ran before lowering
        raise ValueError(f"cannot lower op kind {kind!r}")
    if as_cpu:
        lowered = "cpu"
    return (lowered, duration, launch, nbytes, out_nbytes,
            kind == "send" and bool(bulk))


class _Ids(dict):
    """Interns keys as dense ids, in first-use order."""

    def __missing__(self, key: Any) -> int:
        self[key] = len(self)
        return self[key]


def lower_plan(plan: SyncPlan, pctx: PassContext) -> LoweredRecipe:
    """Resolve a (verified) plan into an environment-free recipe.

    Raises :class:`~repro.casync.ir.PlanVerificationError` when the plan
    has structural findings (see :mod:`repro.casync.index`).

    Each op is costed on its own node's hardware and under its
    gradient's codec (:meth:`PassContext.algorithm_for`: an adaptive
    decision's palette entry, else the plan-wide default) by
    :func:`_cost`, called once per group of task rows with equal
    costing inputs.  A row's group key packs the integer codes of its
    kind, hardware class (distinct ``(GpuSpec, cpu_agg_bytes_per_s)``),
    codec (by identity), ``compressed`` flag, cost flag bits and valued
    cost attrs; its size enters as the float's bits, or, when some size
    is not a float, as the id of its ``(type, value)``.  Each group's
    results are scattered back as the same Python objects, so every
    column entry is exactly its op's own cost, type included (an int
    size stays an int).  The recipe keeps the plan's bulk decision,
    which :class:`~repro.casync.passes.BulkRoutePass` records as
    ``meta["batch_compression"]``; nothing else of the plan.
    """
    # The structural index (built by build_plan's verify stage) supplies
    # the task rows and the frozen dependency rows the CSR is built from.
    idx = plan_index(plan)
    idx.raise_if_invalid(plan)
    rows = np.frombuffer(idx.task_rows, dtype=np.intc)
    row_list = rows.tolist()
    n = len(row_list)
    kinds, nodes, compressed, flags, dsts = (
        column[rows] for column in plan.arrays(
            "kinds", "nodes", "compressed", "flags", "dsts"))
    hardware = _Ids()
    hw = np.array([hardware[spec.gpu, spec.cpu_agg_bytes_per_s]
                   for spec in pctx.cluster.nodes], dtype=np.int64)[nodes]
    algorithms = [pctx.algorithm]
    codec = np.zeros(n, dtype=np.int64)
    if pctx.decisions is not None:
        algorithms, codecs, of_grad = [], _Ids(), {}
        for grad in dict.fromkeys(plan.grads):
            algorithm = pctx.algorithm_for(grad)
            of_grad[grad] = codecs[id(algorithm)]
            if of_grad[grad] == len(algorithms):
                algorithms.append(algorithm)
        codec = np.fromiter(map(of_grad.__getitem__,
                                map(plan.grads.__getitem__, row_list)),
                            np.int64, n)
    # A row with valued attrs (rare: a cpu op's fixed duration) keys on
    # the id of its cost attrs' values.
    valued = _Ids({None: 0})
    valued_id = np.zeros(n, dtype=np.int64)
    if plan.attrs.count(None) < len(plan):
        has_valued = np.fromiter(map(bool, plan.attrs), bool, len(plan))
        for k in np.flatnonzero(has_valued[rows]).tolist():
            attrs = plan.attrs_of(row_list[k])
            valued_id[k] = valued[tuple(map(attrs.get, _COST_ATTRS))]
    sizes = plan.nbytes
    if set(map(type, sizes)) <= {float}:
        size_key = np.array(sizes, dtype=np.float64).view(np.int64)[rows]
    else:
        size_key = np.fromiter(map(_Ids().__getitem__,
                                   zip(map(type, sizes), sizes)),
                               np.int64, len(sizes))[rows]
    # Mixed radix; the product of the radices is far below 2**63.
    key = kinds.astype(np.int64)
    for column, radix in ((hw, len(hardware)), (codec, len(algorithms)),
                          (compressed, 2), (flags & _COST_FLAGS, 256),
                          (valued_id, len(valued))):
        key = key * radix + column
    order = np.lexsort((size_key, key))
    new = np.ones(n, dtype=bool)
    new[1:] = ((key[order[1:]] != key[order[:-1]])
               | (size_key[order[1:]] != size_key[order[:-1]]))
    group = np.empty(n, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    specs = list(hardware)
    costs = np.array([
        _cost(OP_KINDS[kinds[k]], *specs[hw[k]], algorithms[codec[k]],
              sizes[row_list[k]], bool(compressed[k]),
              tuple(map(plan.attrs_of(row_list[k]).get, _COST_ATTRS)))
        for k in order[new].tolist()], dtype=object).reshape(-1, 6)
    (lowered, durations, launch_overheads, nbytes, out_nbytes,
     bulks) = (column[group].tolist() for column in costs.T)
    return LoweredRecipe(
        (row_list, nodes.tolist(), lowered,
         list(map(plan.labels.__getitem__, row_list)), durations,
         launch_overheads, nbytes,
         np.where(kinds == SEND_OP, dsts, None).tolist(), bulks, out_nbytes),
        idx.dep_ptr, idx.dep_rows, idx.ref_keys,
        bulk=bool(plan.meta.get("batch_compression")))


def instantiate(recipe: LoweredRecipe, ctx) -> TaskGraph:
    """Cheaply materialize a recipe as a TaskGraph for ``ctx``'s env.

    A reset, not a build: the graph shares the recipe's columns and CSR
    and allocates only its round state (start and finish instants, the
    triggered flags), no object per task.  Its ready refs the graph fires
    itself (:meth:`~repro.casync.tasks.TaskGraph.make_ready`).  Dispatch
    order (and therefore the executed timeline) is identical on every
    instantiation.  The graph carries the recipe's bulk decision.  This
    is the only place a :class:`TaskGraph` is built.
    """
    return TaskGraph(ctx.env, recipe)


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
                             strategy=strategy.name, ops=len(plan))
        recipe = lower_plan(plan, pctx)
        if span is not None:
            tel.finish(span, ctx.env.now, tasks=len(recipe.csr))
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
