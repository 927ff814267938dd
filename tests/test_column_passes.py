"""The column rewrites of the op passes against their list-of-ops oracle.

``FuseDecodeMergePass``, ``BulkRoutePass`` and ``CollapseFanInPass``
rewrite a plan's columns through its mutation methods.
``tests/op_list_passes.py`` keeps the passes as they were written over
a list of ``Op`` objects; the two pipelines must produce the same
``to_json_obj()`` on every golden case, on a heterogeneous cluster, on
adaptive palette plans, and with a fan-in threshold low enough that
the collapse fires.
"""

import pytest

from repro.analysis.plancheck import golden_cases, golden_model, iter_cases
from repro.casync.ir import ReadyRef, SizeExpr, SyncPlan
from repro.casync.passes import (BulkRoutePass, CollapseFanInPass,
                                 FuseDecodeMergePass, PassContext,
                                 build_plan)
from repro.cluster import ec2_v100_cluster, get_cluster
from repro.experiments.common import default_algorithm

from tests.op_list_passes import list_passes, oracle_plan_json
from tests.rowwise_expand import add

GOLDEN = golden_cases()
ADAPTIVE = [(name, build) for name, build in iter_cases()
            if name.startswith("adaptive:")]


def _both(case, cluster, threshold=None):
    strategy, algorithm = case.inputs()
    pctx = PassContext(num_nodes=cluster.num_nodes, cluster=cluster,
                       algorithm=algorithm)
    model = golden_model()
    plan = build_plan(strategy, pctx, model)
    if threshold is not None:
        CollapseFanInPass(threshold=threshold).run(plan, pctx)
    return plan.to_json_obj(), oracle_plan_json(strategy, pctx, model,
                                                threshold)


@pytest.mark.parametrize("case", GOLDEN, ids=[c.name for c in GOLDEN])
def test_column_passes_match_the_list_oracle_golden(case):
    column, oracle = _both(case, ec2_v100_cluster(4))
    assert column == oracle


@pytest.mark.parametrize("case", GOLDEN, ids=[c.name for c in GOLDEN])
def test_column_passes_match_the_list_oracle_hetero_mixed(case):
    column, oracle = _both(case, get_cluster("hetero-mixed", num_nodes=4))
    assert column == oracle


@pytest.mark.parametrize("case", GOLDEN, ids=[c.name for c in GOLDEN])
def test_column_collapse_matches_the_list_oracle(case):
    column, oracle = _both(case, ec2_v100_cluster(4), threshold=2)
    assert column == oracle


def test_a_threshold_of_two_collapses_every_strategy_with_fan_in():
    fired = set()
    for case in GOLDEN:
        column, _ = _both(case, ec2_v100_cluster(4), threshold=2)
        if column["meta"].get("fanin_barriers"):
            fired.add(case.strategy)
    assert {"casync-ps", "casync-ring", "byteps"} <= fired


@pytest.mark.parametrize("name,build", ADAPTIVE,
                         ids=[name for name, _ in ADAPTIVE])
def test_column_passes_match_the_list_oracle_adaptive(name, build):
    from repro.strategies import get_strategy
    plan, pctx, _ = build()
    strategy = get_strategy(plan.strategy)
    assert plan.to_json_obj() == oracle_plan_json(strategy, pctx,
                                                  golden_model())


def _edge_plan():
    """Rows no frontend emits, each next to a rule of the passes: a
    fusable decode with a second consumer, a fusable pair split across
    nodes, and equal fan-ins on two nodes (plus one sharing node 0's)."""
    plan = SyncPlan("hand", num_nodes=2)
    size = SizeExpr(4096, compressed=True)
    ready = ReadyRef(0, "g")
    shared = add(plan, "decode", 0, "g.shared", size, [ready], grad="g",
                 fusable=True)
    m0 = add(plan, "merge", 0, "g.m0", size, [shared], grad="g",
             fusable=True)
    add(plan, "barrier", 0, "g.also", deps=[shared], grad="g")
    split = add(plan, "decode", 0, "g.split", size, [ready], grad="g",
                fusable=True)
    m1 = add(plan, "merge", 1, "g.m1", size, [split], grad="g", fusable=True)
    pair = add(plan, "decode", 1, "g.pair", size, [ReadyRef(1, "g")],
               grad="g", fusable=True)
    m2 = add(plan, "merge", 1, "g.m2", size, [pair], grad="g", fusable=True)
    add(plan, "send", 1, "g.push", size, [m2], dst=0, grad="g",
        bulk_eligible=True)
    fan_in = [m0, m1, m2]
    add(plan, "barrier", 0, "g.x", deps=fan_in)
    add(plan, "barrier", 1, "g.y", deps=fan_in)
    add(plan, "barrier", 0, "g.z", deps=fan_in + [ready])
    return plan


def test_column_passes_match_the_list_oracle_on_edge_rows():
    pctx = PassContext(num_nodes=2, cluster=ec2_v100_cluster(2),
                       algorithm=default_algorithm("onebit"))
    passes = [FuseDecodeMergePass(), BulkRoutePass(),
              CollapseFanInPass(threshold=2)]
    plan = _edge_plan()
    want = list_passes(plan, pctx, passes)
    for p in passes:
        p.run(plan, pctx)
    assert ([op.to_json_obj() for op in plan.ops], plan.meta) == want
    assert plan.meta["fused_decode_merge"] == 1
    assert plan.meta["fanin_barriers"] == 2
