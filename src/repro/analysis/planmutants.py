"""Pass-mutant corpus: seeded defects PlanCheck must catch, VerifyPass must miss.

Each mutant simulates one optimization pass going wrong *after* the
pipeline's own verifier has run: it builds a real plan through
:func:`~repro.casync.passes.build_plan`, then corrupts it the way a buggy
Selective / Partition / Fuse / Bulk / CollapseFanIn / Adaptive pass
would -- in a way that still satisfies every local check
:func:`~repro.casync.passes.verify_plan` performs (the corpus asserts
this), but violates one of the whole-plan properties
:mod:`repro.analysis.plancheck` proves.  One mutant per pass, each
rejected with a distinct typed finding:

========================  ==================  ======
mutant                    broken pass         rule
========================  ==================  ======
selective-raw-flip        SelectivePass       PC403
partition-inflate         PartitionPass       PC405
fuse-size-corrupt         FuseDecodeMergePass PC302
bulk-ineligible-route     BulkRoutePass       PC501
fanin-dropped-dep         CollapseFanInPass   PC301
adaptive-decision-drift   AdaptivePass        PC402
========================  ==================  ======

Run via ``python -m repro.analysis.plancheck --mutants`` (CI does) or
:func:`run_corpus` from tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..casync.index import region_pid
from ..casync.ir import (BULK, BULK_ELIGIBLE, SEND, PlanVerificationError,
                         ReadyRef, SizeExpr, SyncPlan)
from ..casync.passes import (CollapseFanInPass, PassContext, build_plan,
                             verify_plan)
from .plancheck import check_plan

__all__ = ["MUTANTS", "MutantResult", "build_mutant", "run_corpus"]


@dataclass(frozen=True)
class MutantSpec:
    """One seeded defect: which pass broke, and the finding that proves it."""

    name: str
    broken_pass: str
    expected_rule: str
    description: str


@dataclass(frozen=True)
class MutantResult:
    """The corpus verdict for one mutant."""

    name: str
    broken_pass: str
    expected_rule: str
    rules: Tuple[str, ...]        # every rule PlanCheck reported
    caught: bool                  # expected_rule in rules
    verify_missed: bool           # verify_plan accepted the mutant


def _victim(strategy_name: str = "casync-ps", selective: bool = False,
            with_decisions: bool = False) -> Tuple[SyncPlan, PassContext]:
    """A freshly-built, fully-verified plan for the mutators to corrupt."""
    from ..casync.planner import PLANNER_KINDS
    from ..cluster import ec2_v100_cluster
    from ..experiments.common import default_algorithm
    from ..strategies import get_strategy
    from .plancheck import golden_model

    model = golden_model()
    cluster = ec2_v100_cluster(4)
    algorithm = default_algorithm("onebit")
    decisions = None
    if with_decisions:
        from ..adaptive.controller import PolicyController
        from ..adaptive.policy import CompressionPolicy
        controller = PolicyController(
            CompressionPolicy.size_adaptive(), model, cluster,
            planner_kind=PLANNER_KINDS[strategy_name])
        decisions = controller.decide(0)
        algorithm = controller.palette["large"]
    strategy = get_strategy(strategy_name, selective=selective)
    pctx = PassContext(
        num_nodes=cluster.num_nodes, cluster=cluster, algorithm=algorithm,
        decisions=decisions)
    plan = build_plan(strategy, pctx, model)
    return plan, pctx


def _mutate_selective() -> Tuple[SyncPlan, PassContext]:
    """SelectivePass bug: a compressed verdict silently reverts to raw
    after expansion, stranding encode/decode structure under a raw
    directive.  Every edge still verifies locally."""
    plan, pctx = _victim(selective=True)
    for name in sorted(plan.directives):
        directive = plan.directives[name]
        if directive.compress and any(
                op.kind == "encode" for op in plan.ops_for(name)):
            directive.compress = False
            return plan, pctx
    raise AssertionError("victim plan had no compressed directive")


def _mutate_partition() -> Tuple[SyncPlan, PassContext]:
    """PartitionPass bug: the directive's K drifts above the partition
    count the expansion actually emitted (a lost pipeline stage)."""
    plan, pctx = _victim()
    for name in sorted(plan.directives):
        directive = plan.directives[name]
        pids = {region_pid(op.label, op.grad) for op in plan.ops_for(name)
                if op.kind == "encode"}
        pids.discard(None)
        if directive.compress and pids:
            directive.partitions = len(pids) + 1
            return plan, pctx
    raise AssertionError("victim plan had no partitioned directive")


def _mutate_fuse() -> Tuple[SyncPlan, PassContext]:
    """FuseDecodeMergePass bug: the fused kernel's size is rewritten to
    half its producer's payload.  The verifier only checks byte flow on
    cross-node (send) edges, so a local encode -> decode_merge edge --
    the aggregator consuming its own contribution -- hides the leak."""
    plan, pctx = _victim()
    for i, op in enumerate(plan.ops):
        if op.kind != "decode_merge":
            continue
        producers = [plan.op(plan.row_of(d)) for d in op.deps
                     if not isinstance(d, ReadyRef)]
        if any(p.node != op.node for p in producers):
            continue  # a cross-node edge would trip the local verifier
        if any(p.kind == "encode" and p.size.nbytes for p in producers):
            plan.update(i, size=SizeExpr(op.size.nbytes * 0.5,
                                         compressed=op.size.compressed))
            return plan, pctx
    raise AssertionError("victim plan had no locally-fed decode_merge")


def _mutate_bulk() -> Tuple[SyncPlan, PassContext]:
    """BulkRoutePass bug: a serial ring hop -- which the frontend
    deliberately never marks bulk_eligible, because per-hop coordinator
    flush delays accumulate around the ring -- gets bulk-routed anyway."""
    plan, pctx = _victim(strategy_name="casync-ring")
    kinds, flags = plan.arrays("kinds", "flags")
    ineligible = np.flatnonzero(
        (kinds == SEND) & (flags & (BULK_ELIGIBLE | BULK) == 0))
    if len(ineligible):
        plan.set_attr(int(ineligible[0]), "bulk", True)
        return plan, pctx
    raise AssertionError("victim plan had no ineligible send")


def _mutate_fanin() -> Tuple[SyncPlan, PassContext]:
    """CollapseFanInPass bug: rewriting a fan-in to a shared barrier
    drops one of the collapsed dependency edges.  Every remaining edge
    verifies; the orphaned aggregate simply becomes a sink, and the
    other nodes' results silently miss one node's contribution."""
    plan, pctx = _victim()
    # Only VerifyPass runs after the collapse in build_plan, so this is the
    # op list a threshold-2 build produces.
    CollapseFanInPass(threshold=2).run(plan, pctx)
    assert plan.meta.get("fanin_barriers"), "collapse never triggered"
    ptr, rows = plan.dep_ptr, plan.dep_rows
    consumers = Counter(j for j in rows if j >= 0)
    for i, op in enumerate(plan.ops):
        if not (op.kind == "barrier" and op.label.startswith("fanin")):
            continue
        deps = list(rows[ptr[i]:ptr[i + 1]])
        for dep in reversed(deps):
            # Drop an aggregation contribution (not a send, whose lost-send
            # check verify_plan would trip; not a node-local decode, whose
            # orphan would still cover its own node's sinks): the barrier
            # feeds a re-encode whose consumers live on *other* nodes, so
            # their results silently miss this contribution.
            if (dep >= 0 and plan.kind(dep) in ("merge", "decode_merge")
                    and consumers[dep] == 1):
                plan.set_deps({i: [d if d >= 0 else ReadyRef(
                    *plan.ref_keys[-1 - d]) for d in deps if d != dep]})
                return plan, pctx
    raise AssertionError("no droppable fan-in edge found")


def _mutate_adaptive() -> Tuple[SyncPlan, PassContext]:
    """AdaptivePass bug: a palette override recorded in the DecisionMap
    never lands on the directive (so lowering would cost the wrong
    codec, and replay diverges from the log)."""
    plan, pctx = _victim(with_decisions=True)
    assert pctx.decisions is not None
    for name in sorted(plan.directives):
        dec = pctx.decisions.get(name)
        if dec is not None and dec.algorithm is not None:
            plan.directives[name].algorithm = None
            return plan, pctx
    raise AssertionError("no decision carried an algorithm override")


MUTANTS: Tuple[MutantSpec, ...] = (
    MutantSpec("selective-raw-flip", "SelectivePass", "PC403",
               "compressed verdict reverts to raw under live structure"),
    MutantSpec("partition-inflate", "PartitionPass", "PC405",
               "directive K exceeds the realized partition count"),
    MutantSpec("fuse-size-corrupt", "FuseDecodeMergePass", "PC302",
               "fused kernel loses bytes on a same-node edge"),
    MutantSpec("bulk-ineligible-route", "BulkRoutePass", "PC501",
               "serial ring hop routed through the bulk coordinator"),
    MutantSpec("fanin-dropped-dep", "CollapseFanInPass", "PC301",
               "collapsed barrier drops one contribution edge"),
    MutantSpec("adaptive-decision-drift", "AdaptivePass", "PC402",
               "DecisionMap override never applied to the directive"),
)

_BUILDERS: Dict[str, Callable[[], Tuple[SyncPlan, PassContext]]] = {
    "selective-raw-flip": _mutate_selective,
    "partition-inflate": _mutate_partition,
    "fuse-size-corrupt": _mutate_fuse,
    "bulk-ineligible-route": _mutate_bulk,
    "fanin-dropped-dep": _mutate_fanin,
    "adaptive-decision-drift": _mutate_adaptive,
}


def build_mutant(name: str) -> Tuple[SyncPlan, PassContext]:
    """Build (and corrupt) the named mutant's plan.

    The mutators corrupt the plan *after* build_plan verified it,
    through the plan's mutation methods, which drop the verified index:
    the analyzer sees the mutated structure, as it would after a real
    buggy pass.
    """
    return _BUILDERS[name]()


def run_corpus() -> List[MutantResult]:
    """Build every mutant, confirm the verifier misses it and PlanCheck
    catches it with the expected rule."""
    results: List[MutantResult] = []
    for spec in MUTANTS:
        plan, pctx = build_mutant(spec.name)
        try:
            verify_plan(plan)
            verify_missed = True
        except PlanVerificationError:
            verify_missed = False
        report = check_plan(plan, pctx=pctx)
        rules = tuple(sorted({d.rule for d in report.diagnostics}))
        results.append(MutantResult(
            name=spec.name, broken_pass=spec.broken_pass,
            expected_rule=spec.expected_rule, rules=rules,
            caught=spec.expected_rule in rules,
            verify_missed=verify_missed))
    return results
