"""Lowering: memoised costing is exact, and the recipe's row view.

:func:`repro.casync.lower.lower_plan` costs each distinct op once.  The
oracle here costs every op again with an unmemoised
:func:`~repro.casync.lower._cost` call and compares every cost column
bit for bit (``float.hex``, and the value's type), over the golden
matrix, a mixed-hardware fleet, an adaptive plan whose equal-size
gradients move through different palette codecs, and a hand-built plan
that turns each cost attr on and off on two nodes sharing a GPU model
but not a host CPU.
"""

import dataclasses

import pytest

from repro.analysis.plancheck import golden_cases, golden_model
from repro.casync.decisions import DecisionMap, GradientDecision
from repro.casync.ir import ReadyRef, SizeExpr, SyncPlan
from repro.casync.lower import _COST_ATTRS, _cost, lower_plan
from repro.casync.passes import PassContext, build_plan
from repro.cluster import ClusterSpec, ec2_v100_cluster, get_cluster
from repro.experiments.common import default_algorithm
from repro.models import GradientSpec, ModelSpec
from repro.strategies import get_strategy
from tests.rowwise_expand import add

GOLDEN = golden_cases()


def _exact(value):
    """A cost value's type and bits (None stays None)."""
    if value is None:
        return None
    return type(value).__name__, float(value).hex()


def _scalar_columns(plan, pctx):
    """Every task row's costs from one unmemoised ``_cost`` call per op,
    its inputs read off the op and its own node: (kind, duration, launch
    overhead, nbytes, out_nbytes, bulk)."""
    columns = []
    for op in plan.ops:
        if op.kind == "barrier":
            continue
        node = pctx.cluster.node_at(op.node)
        row = _cost(op.kind, node.gpu, node.cpu_agg_bytes_per_s,
                    pctx.algorithm_for(op.grad), op.size.nbytes,
                    op.size.compressed,
                    tuple(op.attrs.get(attr) for attr in _COST_ATTRS))
        if op.kind == "send":
            assert row[3] == pctx.wire_op(op)
        columns.append(row)
    return columns


def assert_costs_exact(plan, pctx):
    recipe = lower_plan(plan, pctx)
    want = [(kind, _exact(duration), _exact(launch), _exact(nbytes),
             _exact(out), bulk)
            for kind, duration, launch, nbytes, out, bulk
            in _scalar_columns(plan, pctx)]
    got = [(kind, _exact(duration), _exact(launch), _exact(nbytes),
            _exact(out), bulk)
           for kind, duration, launch, nbytes, out, bulk in zip(
               recipe.kinds, recipe.durations, recipe.launch_overheads,
               recipe.nbytes, recipe.out_nbytes, recipe.bulks)]
    assert len(got) == len(want)
    for k, (row, expected) in enumerate(zip(got, want)):
        assert row == expected, plan.ops[recipe.rows[k]]


def _golden_pctx(case, cluster):
    strategy, algorithm = case.inputs()
    pctx = PassContext(num_nodes=cluster.num_nodes, cluster=cluster,
                       algorithm=algorithm)
    return build_plan(strategy, pctx, golden_model()), pctx


@pytest.mark.parametrize("case", GOLDEN, ids=[c.name for c in GOLDEN])
def test_memoised_costs_equal_scalar_costs_golden(case):
    assert_costs_exact(*_golden_pctx(case, ec2_v100_cluster(4)))


@pytest.mark.parametrize("case", GOLDEN, ids=[c.name for c in GOLDEN])
def test_memoised_costs_equal_scalar_costs_hetero_mixed(case):
    assert_costs_exact(*_golden_pctx(case, get_cluster("hetero-mixed",
                                                       num_nodes=6)))


@pytest.mark.parametrize("strategy_name", ["casync-ps", "casync-ring"])
def test_memoised_costs_equal_scalar_costs_palette_codecs(strategy_name):
    # Equal-size gradients alternate between two palette codecs, so ops
    # differing only in their codec are costed apart.
    grads = tuple(GradientSpec(f"p.g{i}", 1 << 20) for i in range(4))
    model = ModelSpec(name="palette-probe", gradients=grads, batch_size=8,
                      batch_unit="images", v100_iteration_s=0.004)
    palette = {"quant": default_algorithm("onebit"),
               "sparse": default_algorithm("dgc")}
    decisions = DecisionMap(
        {g.name: GradientDecision(compress=True,
                                  algorithm=("quant", "sparse")[i % 2])
         for i, g in enumerate(grads)}, palette)
    cluster = ec2_v100_cluster(4)
    pctx = PassContext(num_nodes=4, cluster=cluster,
                       algorithm=palette["quant"], decisions=decisions)
    strategy = get_strategy(strategy_name, selective=False, adaptive=True)
    plan = build_plan(strategy, pctx, model)
    codecs = {id(pctx.algorithm_for(op.grad)) for op in plan.ops
              if op.kind == "encode"}
    assert len(codecs) == 2
    assert_costs_exact(plan, pctx)


def _attrs_plan():
    """Every op kind with each cost attr off, then on, on both nodes, for
    two same-size gradients under different codecs."""
    plan = SyncPlan("attrs", num_nodes=2)
    variants = {
        "encode": ({}, {"on_cpu": True}, {"as_cpu": True},
                   {"on_cpu": True, "as_cpu": True}),
        "decode": ({}, {"on_cpu": True}, {"allocates_output": True},
                   {"as_cpu": True}),
        "decode_merge": ({}, {"on_cpu": True}, {"as_cpu": True}),
        "merge": ({}, {"on_cpu": True}, {"as_cpu": True}),
        "copy": ({}, {"as_cpu": True}),
        "cpu": ({}, {"duration_s": 1e-3}, {"duration_s": 2e-3}),
        "send": ({}, {"bulk": True}),
    }
    for grad in ("quant", "sparse"):
        for node in range(2):
            ready = ReadyRef(node, grad)
            for kind, attr_sets in variants.items():
                for n, attrs in enumerate(attr_sets):
                    size = SizeExpr(65536.0, compressed=kind == "send")
                    label = f"{grad}.{kind}.{n}@{node}"
                    if kind == "send":
                        send = add(plan, kind, node, label, size,
                                   deps=[ready], dst=1 - node,
                                   grad=grad, **attrs)
                        add(plan, "barrier", 1 - node, label + ".recv",
                            deps=[send])
                    else:
                        add(plan, kind, node, label, size, deps=[ready],
                            grad=grad, **attrs)
    return plan


def test_memoised_costs_equal_scalar_costs_per_attr_and_host_cpu():
    # Two nodes with the same GPU but different host-CPU rates.
    base = ec2_v100_cluster(2).node_at(0)
    weak_cpu = dataclasses.replace(base, cpu_agg_bytes_per_s=6e9)
    cluster = ClusterSpec.heterogeneous(
        name="same-gpu-mixed-cpu", nodes=(base, weak_cpu),
        network=ec2_v100_cluster(2).network)
    palette = {"quant": default_algorithm("onebit"),
               "sparse": default_algorithm("dgc")}
    decisions = DecisionMap(
        {g: GradientDecision(compress=True, algorithm=g) for g in palette},
        palette)
    pctx = PassContext(num_nodes=2, cluster=cluster,
                       algorithm=palette["quant"], decisions=decisions)
    assert_costs_exact(_attrs_plan(), pctx)


def test_specs_view_counts_tasks_and_dependency_edges():
    # The read-only row view the end-to-end benchmark counts through.
    case = next(c for c in GOLDEN if c.name.startswith("hipress-ps/onebit"))
    plan, pctx = _golden_pctx(case, ec2_v100_cluster(4))
    recipe = lower_plan(plan, pctx)
    tasks = [op for op in plan.ops if op.kind != "barrier"]
    assert any(op.kind == "barrier" for op in plan.ops)
    assert len(recipe.specs) == len(tasks)
    assert sum(len(spec.deps) for spec in recipe.specs) == sum(
        len(op.deps) for op in tasks)
    first = recipe.specs[0]
    assert (first.row, first.node, first.label) == (
        recipe.rows[0], tasks[0].node, tasks[0].label)
    assert first.deps == tuple(
        (dep.node, dep.gradient) if isinstance(dep, ReadyRef)
        else plan.row_of(dep) for dep in tasks[0].deps)


@pytest.mark.parametrize("case", GOLDEN[::5],
                         ids=[c.name for c in GOLDEN[::5]])
def test_successor_csr_matches_a_loop_reference(case):
    # The CSR's stable sort must give each row's and each ready ref's
    # dependents in registration order: ascending dependent row,
    # duplicate edges kept.
    plan, pctx = _golden_pctx(case, ec2_v100_cluster(4))
    csr = lower_plan(plan, pctx).csr
    succ = [[] for _ in plan.ops]
    by_ref = {}
    for i, op in enumerate(plan.ops):
        for dep in op.deps:
            if isinstance(dep, ReadyRef):
                by_ref.setdefault((dep.node, dep.gradient), []).append(i)
            else:
                succ[plan.row_of(dep)].append(i)
    assert [list(csr.successors(i)) for i in range(len(plan.ops))] == succ
    assert list(csr.refs) == list(by_ref)
    assert [list(csr.ref_idx[csr.ref_ptr[r]:csr.ref_ptr[r + 1]])
            for r in range(len(by_ref))] == list(by_ref.values())
    assert list(csr.indegree) == [len(op.deps) for op in plan.ops]
    assert list(csr.sources) == [i for i, op in enumerate(plan.ops)
                                 if not op.deps]
    tasks = [i for i, op in enumerate(plan.ops) if op.kind != "barrier"]
    assert [k for k in csr.slot if k >= 0] == list(range(len(tasks)))
    assert [i for i, k in enumerate(csr.slot) if k >= 0] == tasks
