"""Optimization-pass pipeline over the SyncPlan IR.

The three CaSync optimizations (§3.2/§3.3) -- previously re-implemented
inside every strategy behind boolean flags -- are expressed here as
independent passes over :class:`~repro.casync.ir.SyncPlan`:

* :class:`SelectivePass` (directive phase) -- run the §3.3 planner over
  every gradient and apply its <compress?, K> verdicts; without it every
  gradient is compressed indiscriminately.
* :class:`PartitionPass` (directive phase) -- enable pipelining by
  promoting the planner's K (or the fixed :data:`DEFAULT_PART_BYTES` rule)
  into the structural partition count; without it K = 1 (whole-gradient
  encode-then-transfer, the OSS co-design shape).
* :class:`FuseDecodeMergePass` (op phase) -- fuse adjacent decode+merge
  pairs into the single §5 kernel (costed by
  :func:`repro.casync.lower.lower_plan`).
* :class:`BulkRoutePass` (op phase) -- mark small transfers for the
  global bulk-synchronization coordinator and enable batch compression.

A pipeline is simply a list of passes, so the Fig. 11 ablation is "run
with a pass removed" instead of toggling flags threaded through strategy
internals.  :func:`build_plan` runs directive passes, expands the
strategy's structure, runs op passes, and *always* finishes with
:class:`VerifyPass`, which rejects malformed plans (unmatched receives,
cycles, byte-conservation violations) before anything is lowered.

The pipeline's tuning values are design constants, each held by its one
reader: :data:`BULK_ELIGIBLE_BYTES` (:class:`BulkRoutePass`, and
PlanCheck's PC501), :data:`DEFAULT_PART_BYTES` (:class:`PartitionPass`)
and the fan-in threshold (:class:`CollapseFanInPass`'s constructor
default).  The coordinator's batching policy lives in
:class:`~repro.casync.tasks.Coordinator`'s constructor defaults.

Passes are also a *registry* (:func:`register_pass` / :func:`get_pass` /
:func:`list_passes`): strategies build their pipelines from pass names,
and third-party passes plug in without editing this module.  The adaptive
control plane's decision point is :class:`AdaptivePass` (directive
phase): it applies a per-gradient
:class:`~repro.casync.decisions.DecisionMap` -- computed by a
:class:`~repro.adaptive.controller.PolicyController` from observed
bandwidth / gradient-regime / size signals -- onto the plan's directives,
overriding the static §3.3 verdicts.  Decisions are content-keyed into
the graph-cache token by :func:`repro.casync.lower.cache_key`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Type)

import numpy as np

from ..algorithms.base import available_algorithms
from ..errors import ConfigError
from ..models import GradientSpec
from .decisions import DecisionMap
from .index import plan_index
from .ir import (BARRIER, BULK_ELIGIBLE, DECODE, FUSABLE, MERGE, SEND,
                 Directive, Op, ReadyRef, SyncPlan)
from .planner import PLANNER_KINDS, CostModel, SelectivePlanner

__all__ = [
    "BULK_ELIGIBLE_BYTES",
    "DEFAULT_PART_BYTES",
    "AdaptivePass",
    "BulkRoutePass",
    "FuseDecodeMergePass",
    "PartitionPass",
    "CollapseFanInPass",
    "MembershipPass",
    "Pass",
    "PassContext",
    "SelectivePass",
    "VerifyPass",
    "build_plan",
    "get_pass",
    "list_passes",
    "register_pass",
    "verify_plan",
    "wire_nbytes",
    "wire_size",
]


#: Bulk-eligible transfers below this wire size route through the bulk
#: coordinator (§3.2).
BULK_ELIGIBLE_BYTES = 256 * 1024
#: Partition size of the fixed rule used when selective planning is off.
DEFAULT_PART_BYTES = 4 * 1024 * 1024


def wire_nbytes(algorithm: Any, nbytes: float) -> float:
    """Compressed wire size of a ``nbytes`` float32 payload.

    The single size model shared by the pass pipeline and the lowering
    stage (send wire sizes, encode outputs, sparse scatter-adds).
    """
    if algorithm is None:
        return nbytes
    return float(algorithm.compressed_nbytes(max(1, int(nbytes) // 4)))


def wire_size(algorithm: Any, nbytes: float, compressed: bool) -> float:
    """Wire bytes of a payload of ``nbytes`` raw bytes: its size under
    ``algorithm`` when ``compressed``, else the raw bytes."""
    return float(wire_nbytes(algorithm, nbytes) if compressed else nbytes)


@dataclass
class PassContext:
    """Everything a pass (or expansion) may consult.

    Deliberately environment-free: nothing here references the simulation
    :class:`~repro.sim.Environment`, which is what makes plan building and
    lowering cacheable across iterations and runs.
    """

    num_nodes: int
    cluster: Any
    algorithm: Optional[Any] = None
    #: Per-gradient adaptive decisions for this iteration (None = the
    #: static path; plans built with and without decisions lower through
    #: different graph-cache keys -- see ``lower.cache_key``).
    decisions: Optional[DecisionMap] = None

    def wire(self, size: Any) -> float:
        """Resolve a :class:`~repro.casync.ir.SizeExpr` to wire bytes."""
        return float(size.wire(lambda raw: wire_nbytes(self.algorithm, raw)))

    def algorithm_for(self, grad: Optional[str]) -> Any:
        """The codec a gradient's payload moves through.

        The plan-wide default unless an adaptive decision names a palette
        override for ``grad``.  Ops that belong to no single gradient
        (``grad is None``, e.g. raw ring buckets) always use the default.
        """
        if self.decisions is None or grad is None:
            return self.algorithm
        return self.decisions.algorithm_for(grad, default=self.algorithm)

    def wire_op(self, op: Op) -> float:
        """Wire bytes of an op's payload under its *own* gradient's codec."""
        size = op.size
        return wire_size(self.algorithm_for(op.grad), size.nbytes,
                         size.compressed)

    def wires(self, plan: SyncPlan, rows: Sequence[int], nbytes: np.ndarray,
              compressed: np.ndarray) -> np.ndarray:
        """:meth:`wire_op` of each op row in ``rows``, given the rows'
        sizes (as floats) and compression flags; evaluated once per
        distinct ``(codec, nbytes)`` of the compressed ones: the wire
        size depends on nothing else."""
        wires = nbytes.astype(float)
        packed = np.flatnonzero(compressed)
        if len(packed):
            # Without decisions every gradient uses the default codec.
            codecs: Dict[Optional[str], int] = {None: 0}
            codec_of = np.zeros(len(packed), dtype=np.intp)
            if self.decisions is not None:
                codecs.clear()
                codec_of[:] = [codecs.setdefault(plan.grads[rows[k]],
                                                 len(codecs))
                               for k in packed.tolist()]
            algorithms = [self.algorithm_for(grad) for grad in codecs]
            raw = wires[packed]
            order = np.lexsort((raw, codec_of))
            codec_of, raw = codec_of[order], raw[order]
            new = np.flatnonzero(np.r_[True, (codec_of[1:] != codec_of[:-1])
                                       | (raw[1:] != raw[:-1])])
            distinct = [wire_nbytes(algorithms[codec], size)
                        for codec, size in zip(codec_of[new].tolist(),
                                               raw[new].tolist())]
            wires[packed[order]] = np.repeat(
                distinct, np.diff(np.r_[new, len(order)]))
        return wires


class Pass:
    """Base class: a named transformation over a SyncPlan."""

    name: str = "pass"
    #: "directive" passes run before structural expansion, "op" after.
    phase: str = "op"

    def run(self, plan: SyncPlan, pctx: PassContext) -> None:
        raise NotImplementedError

    def cache_token(self) -> Tuple[Any, ...]:
        """Hashable parameter identity, folded into the graph-cache key.

        The key used to record only pass *names*, so a pass carrying
        tuning state could alias a differently-parameterized twin.  The
        default covers scalar (and scalar-tuple) instance attributes;
        passes with richer state must override.
        """
        items: List[Tuple[str, Any]] = []
        state = vars(self)
        for key in sorted(state):
            value = state[key]
            if isinstance(value, (bool, int, float, str, type(None))):
                items.append((key, value))
            elif isinstance(value, tuple) and all(
                    isinstance(v, (bool, int, float, str, type(None)))
                    for v in value):
                items.append((key, value))
        return tuple(items)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class SelectivePass(Pass):
    """Run the §3.3 planner and apply its per-gradient <compress?, K>.

    One :meth:`~repro.casync.planner.SelectivePlanner.plan_model` call
    costs every directive with the step counts of the plan's strategy
    (:data:`~repro.casync.planner.PLANNER_KINDS`) on the context's
    cluster and codec.  Its verdicts are a pure function of the
    graph-cache key's inputs, so a warm build never re-plans.
    """

    name = "selective"
    phase = "directive"

    def run(self, plan: SyncPlan, pctx: PassContext) -> None:
        kind = PLANNER_KINDS.get(plan.strategy)
        if kind is None:
            raise ConfigError(
                "strategy", plan.strategy, PLANNER_KINDS,
                hint="the §3.3 planner has step counts only for these "
                     "strategies")
        if pctx.algorithm is None:
            raise ConfigError(
                "algorithm", None, available_algorithms(),
                hint="selective compression plans each gradient against "
                     "a codec; pass algorithm= to simulate_iteration")
        planner = SelectivePlanner(
            CostModel(pctx.cluster, pctx.algorithm, strategy=kind))
        verdicts = planner.plan_model(
            GradientSpec(name=name, nbytes=directive.nbytes)
            for name, directive in plan.directives.items())
        for name, directive in plan.directives.items():
            verdict = verdicts[name]
            directive.compress = verdict.compress
            directive.planned_partitions = verdict.partitions


class AdaptivePass(Pass):
    """Apply one iteration's adaptive per-gradient decisions (§control plane).

    The decision point of :mod:`repro.adaptive`: a
    :class:`~repro.casync.decisions.DecisionMap` -- computed *outside*
    the pass pipeline by a policy controller, so plan building stays
    environment-free and cacheable -- lands on the directives here.
    Each decision may flip ``compress``, name a palette codec override
    (``Directive.algorithm``), and propose a partition count that
    :class:`PartitionPass` later promotes into structure.

    Runs after :class:`SelectivePass` (adaptive verdicts override the
    static §3.3 planner where both are present) and before
    :class:`PartitionPass`.  Raises a typed
    :class:`~repro.errors.ConfigError` when no decisions were supplied or
    a gradient has none: silent partial coverage would make replay
    ambiguous.
    """

    name = "adaptive"
    phase = "directive"

    def run(self, plan: SyncPlan, pctx: PassContext) -> None:
        if pctx.decisions is None:
            raise ConfigError(
                "decisions", None, [],
                hint="AdaptivePass needs a DecisionMap: run through a "
                     "CompressionPolicy (repro.adaptive) or pass "
                     "decisions= to simulate_iteration")
        overridden = 0
        for name in plan.directives:
            directive = plan.directives[name]
            dec = pctx.decisions.get(name)
            if dec is None:
                raise ConfigError(
                    "decision", name, sorted(pctx.decisions.decisions),
                    hint="the DecisionMap must cover every gradient in "
                         "the model")
            directive.compress = dec.compress
            directive.algorithm = dec.algorithm
            if dec.partitions is not None:
                directive.planned_partitions = dec.partitions
            if dec.algorithm is not None:
                overridden += 1
        plan.meta["adaptive_overrides"] = overridden


class PartitionPass(Pass):
    """Pipelining: promote partition counts into the plan structure.

    Uses the planner's K when :class:`SelectivePass` recorded one,
    otherwise the fixed :data:`DEFAULT_PART_BYTES` rule capped at N.
    Without this pass every gradient stays whole (K = 1): encode must
    finish before any byte moves -- the coarse-grained co-design
    behaviour.
    """

    name = "partition"
    phase = "directive"

    def run(self, plan: SyncPlan, pctx: PassContext) -> None:
        for name in plan.directives:
            directive = plan.directives[name]
            if directive.planned_partitions is not None:
                directive.partitions = max(1, directive.planned_partitions)
            else:
                directive.partitions = min(
                    pctx.num_nodes,
                    max(1, math.ceil(directive.nbytes / DEFAULT_PART_BYTES)))


class FuseDecodeMergePass(Pass):
    """Fuse adjacent decode+merge pairs into one kernel (§5).

    Frontends emit the aggregation of a received compressed buffer as an
    explicit ``decode`` followed by a ``merge`` (both marked ``fusable``).
    This pass collapses each pair into a single ``decode_merge`` op, which
    lowering maps to the fused kernel (a scatter-add for sparsification
    codecs).  Removing the pass is the "no fusion" ablation: the pair
    lowers as two kernel launches with an intermediate dense buffer.
    """

    name = "fuse-decode-merge"
    phase = "op"

    def run(self, plan: SyncPlan, pctx: PassContext) -> None:
        # Candidates: merges whose one dependency is an op row (a
        # decode, on the merge's node, consumed by nothing else).
        kinds, nodes, ptr, rows, flags = plan.arrays(
            "kinds", "nodes", "dep_ptr", "dep_rows", "flags")
        fusable = (flags & FUSABLE) != 0
        merges = np.flatnonzero((kinds == MERGE) & fusable)
        merges = merges[ptr[merges + 1] - ptr[merges] == 1]
        decs = rows[ptr[merges]]
        merges, decs = merges[decs >= 0], decs[decs >= 0]
        consumers = np.bincount(rows[rows >= 0], minlength=len(kinds))
        del ptr, rows
        ok = ((kinds[decs] == DECODE) & fusable[decs] & (consumers[decs] == 1)
              & (nodes[decs] == nodes[merges]))
        del kinds, nodes, flags, fusable, consumers
        merges, decs = merges[ok].tolist(), decs[ok].tolist()
        if not merges:
            return
        plan.retype(decs, "decode_merge",
                    list(map(plan.labels.__getitem__, merges)))
        plan.pop_attr(decs, "fusable")
        plan.set_attr(decs, "fused", True)
        # Dropped merge row -> fused op row.
        plan.drop(dict(zip(merges, decs)))
        plan.meta["fused_decode_merge"] = len(merges)


class BulkRoutePass(Pass):
    """Bulk synchronization: route small sends through the coordinator.

    Sends the frontend marked ``bulk_eligible`` (point-to-point pushes and
    pulls; never serial ring hops, where a per-hop flush delay would
    accumulate) become coordinator-batched when their wire size is below
    :data:`BULK_ELIGIBLE_BYTES`.  The pass also marks the plan for GPU batch
    compression (one fused launch for simultaneously-ready small kernels).
    """

    name = "bulk-route"
    phase = "op"

    def run(self, plan: SyncPlan, pctx: PassContext) -> None:
        kinds, compressed, flags = plan.arrays("kinds", "compressed", "flags")
        sends = np.flatnonzero((kinds == SEND) & (flags & BULK_ELIGIBLE != 0))
        rows = sends.tolist()
        wires = pctx.wires(
            plan, rows, np.array(list(map(plan.nbytes.__getitem__, rows)),
                                 dtype=float), compressed[sends])
        routed = sends[wires < BULK_ELIGIBLE_BYTES]
        plan.set_attr(routed.tolist(), "bulk", True)
        plan.meta["batch_compression"] = True
        plan.meta["bulk_sends"] = len(routed)


class CollapseFanInPass(Pass):
    """Share one barrier op among huge same-node dependency fan-ins.

    PS-style plans scale their dependency count quadratically: every pull
    ``send`` living on a server node depends on all N aggregates on that
    node, so N nodes x N deps explodes to millions of edges by N = 256 --
    and arm()/lowering cost is linear in edges.  Whenever an op's op-uid
    fan-in exceeds ``threshold``, this pass rewrites the op to depend on a
    single ``barrier`` op carrying those deps; ops with the *same* (node,
    deps) signature share one barrier, turning O(N^2) edges into O(N).

    Correctness: the barrier lives on the consumer's node, so cross-node
    send/consume pairing still holds (the barrier consumes the sends on
    the destination node), and barriers carry no payload contract.
    A barrier lowers to a CSR join, not a task: it releases its
    dependents in the step its last dependency completes, at the same
    simulated time.  The default threshold sits above any fan-in a
    small-cluster plan produces, so plans for every small-cluster preset
    are byte-identical to the pass being off.
    """

    name = "collapse-fanin"
    phase = "op"

    def __init__(self, threshold: int = 96) -> None:
        self.threshold = threshold

    def run(self, plan: SyncPlan, pctx: PassContext) -> None:
        ptr, rows = plan.arrays("dep_ptr", "dep_rows")
        # Each row's op-dependency count, as one difference of the
        # running count of op (non-ready-ref) entries.
        on_op = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(rows >= 0, out=on_op[1:])
        wide = np.flatnonzero(np.diff(on_op[ptr]) > self.threshold)
        if not len(wide):
            return
        n_rows = len(plan)
        barriers: Dict[tuple, int] = {}  # (node, op deps) -> barrier row
        first_use: List[int] = []        # barrier -> its first consumer
        nodes: List[int] = []            # barrier -> its node
        fan_ins: List[int] = []          # barrier -> its dependency count
        entries: List[int] = []          # the barriers' dependency rows
        rewired: Dict[int, List[Any]] = {}
        for r in wide.tolist():
            deps = rows[ptr[r]:ptr[r + 1]]
            op_deps = tuple(deps[deps >= 0].tolist())
            node = plan.nodes[r]
            key = (node, op_deps)
            b = barriers.get(key)
            if b is None:
                b = barriers[key] = n_rows + len(first_use)
                first_use.append(r)
                nodes.append(node)
                fan_ins.append(len(op_deps))
                entries += op_deps
            rewired[r] = [b] + [ReadyRef(*plan.ref_keys[-1 - x])
                                for x in deps[deps < 0].tolist()]
        m = len(first_use)
        plan.extend([BARRIER] * m, nodes,
                     [f"fanin{k}@n{node}" for k, node in zip(fan_ins, nodes)],
                     [0.0] * m, [False] * m, [-1] * m, [None] * m, None,
                     fan_ins, entries)
        plan.set_deps(rewired)
        # Each barrier moves to just before its first consumer.
        plan.reorder(np.insert(np.arange(n_rows), first_use,
                               np.arange(n_rows, n_rows + len(first_use))))
        plan.meta["fanin_collapsed"] = len(rewired)
        plan.meta["fanin_barriers"] = len(barriers)


class VerifyPass(Pass):
    """Reject malformed plans before lowering (always the final pass)."""

    name = "verify"
    phase = "op"

    def run(self, plan: SyncPlan, pctx: PassContext) -> None:
        verify_plan(plan)
        # Provenance only: plan digests and golden dumps pin the stamp.
        plan.meta["verified"] = True


class MembershipPass(Pass):
    """Bind a plan to one elastic epoch's roster (directive phase).

    The elastic training loop re-plans every epoch: the strategy expands
    its SyncPlan groups over the *current* roster's dense local ranks,
    and this pass is the roster's representative inside the pass
    pipeline.  It validates that the plan really was sized for the
    roster (a stale plan re-used across a membership change is a typed
    error, never a silent wrong-sized collective) and stamps the
    provenance into ``plan.meta``.

    Caching: :func:`repro.casync.lower.cache_key` folds every pass's
    ``(name, cache_token())`` into the graph-cache key, and this pass's
    token carries the member tuple plus the epoch -- so each epoch's
    roster is its own cache entry, a flipped join/leave event is a
    guaranteed miss, and an identical schedule replays warm.
    """

    name = "membership"
    phase = "directive"

    def __init__(self, roster: Sequence[int] = (), epoch: int = 0) -> None:
        self.roster: Tuple[int, ...] = tuple(int(n) for n in roster)
        self.epoch = int(epoch)
        if list(self.roster) != sorted(set(self.roster)):
            raise ConfigError(
                "roster", list(self.roster),
                ["sorted unique global node ids"],
                hint="a membership roster lists each enrolled node once, "
                     "in ascending order")

    def run(self, plan: SyncPlan, pctx: PassContext) -> None:
        if not self.roster:
            raise ConfigError(
                "roster", [], ["a non-empty member list"],
                hint="MembershipPass needs the epoch's enrolled nodes")
        if len(self.roster) != pctx.num_nodes:
            raise ConfigError(
                "roster", list(self.roster),
                [f"{pctx.num_nodes} members"],
                hint=f"the plan is sized for {pctx.num_nodes} local ranks "
                     f"but the roster enrolls {len(self.roster)} nodes -- "
                     f"re-plan on the roster's sub-cluster instead of "
                     f"reusing a stale plan across a membership change")
        plan.meta["roster"] = ",".join(str(n) for n in self.roster)
        plan.meta["epoch"] = self.epoch


# -- pass registry -----------------------------------------------------------
#
# Strategies assemble their pipelines from pass *names*, and third-party
# passes register here (via repro.api.register_pass) instead of editing
# this module.  Names must be unique; lookup failures raise a typed
# ConfigError carrying the valid choices.

_PASS_REGISTRY: Dict[str, Type[Pass]] = {}


def register_pass(cls: Type[Pass]) -> Type[Pass]:
    """Register a :class:`Pass` subclass under its ``name``.

    Usable as a decorator.  Re-registering a name is rejected unless it
    is the same class (idempotent re-imports are fine); shadowing a
    built-in pass silently would make strategy pipelines ambiguous.
    """
    if not (isinstance(cls, type) and issubclass(cls, Pass)):
        raise TypeError(f"register_pass expects a Pass subclass, got {cls!r}")
    name = cls.name
    if not name or name == Pass.name:
        raise ValueError(
            f"{cls.__name__} must define a unique 'name' class attribute")
    existing = _PASS_REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"pass name {name!r} is already registered to "
            f"{existing.__name__}")
    _PASS_REGISTRY[name] = cls
    return cls


def get_pass(name: str) -> Type[Pass]:
    """Look up a registered pass class by name (typed error on miss)."""
    try:
        return _PASS_REGISTRY[name]
    except KeyError:
        raise ConfigError(
            "pass", name, sorted(_PASS_REGISTRY),
            hint="register custom passes via repro.api.register_pass"
        ) from None


def list_passes() -> List[str]:
    """Names of all registered passes, sorted."""
    return sorted(_PASS_REGISTRY)


for _cls in (SelectivePass, AdaptivePass, PartitionPass,
             FuseDecodeMergePass, BulkRoutePass, CollapseFanInPass,
             VerifyPass, MembershipPass):
    register_pass(_cls)
del _cls


def verify_plan(plan: SyncPlan, name: Optional[str] = None) -> None:
    """Structural verification of a SyncPlan (PC100-PC110).

    Checks the plan's :class:`~repro.casync.index.PlanIndex` (built now
    unless the plan holds one for its current state) and raises
    :class:`~repro.casync.ir.PlanVerificationError` carrying all of its
    findings; ``name`` overrides their ``file`` field.
    """
    plan_index(plan).raise_if_invalid(plan, name)


def build_plan(strategy: Any, pctx: PassContext, model: Any,
               telemetry: Any = None, now: float = 0.0) -> SyncPlan:
    """Run the full frontend pipeline: directives -> expand -> op passes.

    ``strategy`` supplies :meth:`~repro.strategies.base.Strategy.expand`
    (structure) and :meth:`~repro.strategies.base.Strategy.passes` (the
    optimization list).  :class:`VerifyPass` always runs last, whether or
    not the strategy requested it.  ``telemetry`` records one span per
    pass (category ``syncplan``) at simulated time ``now``.
    """
    algo_name = None
    if pctx.algorithm is not None:
        algo_name = getattr(pctx.algorithm, "name", type(pctx.algorithm).__name__)
    plan = SyncPlan(strategy.name, pctx.num_nodes, algorithm=algo_name)
    for grad in model.gradients:
        plan.directives[grad.name] = Directive(
            gradient=grad.name, nbytes=grad.nbytes,
            compress=strategy.compression)
    applied: List[str] = []

    def run_stage(name: str, fn: Callable[[], None]) -> None:
        span = None
        if telemetry is not None:
            span = telemetry.begin(f"syncplan:{name}", category="syncplan",
                                   track="syncplan/passes", at=now,
                                   strategy=strategy.name)
            telemetry.metrics.counter("syncplan.passes").inc()
        fn()
        if span is not None:
            telemetry.finish(span, now, ops=len(plan))
        applied.append(name)

    pipeline = [p for p in strategy.passes() if not isinstance(p, VerifyPass)]
    for p in pipeline:
        if p.phase == "directive":
            run_stage(p.name, lambda p=p: p.run(plan, pctx))
    run_stage("expand", lambda: strategy.expand(plan, pctx, model))
    for p in pipeline:
        if p.phase == "op":
            run_stage(p.name, lambda p=p: p.run(plan, pctx))
    # Structural scalability rewrite, not a strategy-selectable stage: it
    # runs on every plan (and is deliberately absent from meta["passes"],
    # which golden plan dumps pin).
    CollapseFanInPass().run(plan, pctx)
    # Verifying indexes the plan; lowering and the analyzer reuse it.
    run_stage("verify", lambda: VerifyPass().run(plan, pctx))
    plan.meta["passes"] = applied
    return plan
