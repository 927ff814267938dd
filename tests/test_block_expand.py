"""Block expand against its row-wise oracle, and ``extend`` against ``add``.

Every strategy appends its ops as template blocks through
``SyncPlan.extend``.  ``tests/rowwise_expand.py`` keeps the expands as
they were written, one test-side ``add`` per op; both must leave the
same post-expand plan (JSON form, digest, dependency rows, ready-ref
order, uids, regions, flags, attrs and the Python type of every size)
on every golden case, on a heterogeneous cluster, on the adaptive
palette plans, on one node, on the pipelining-off and selective-off
ablations and on BERT-large.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.plancheck import golden_cases, golden_model, iter_cases
from repro.casync.ir import OP_KINDS, ReadyRef, SizeExpr, SyncPlan
from repro.casync.passes import PassContext
from repro.cluster import ec2_v100_cluster, get_cluster
from repro.experiments.common import default_algorithm
from repro.models import get_model
from repro.strategies import (BytePS, BytePSOSSCompression, CaSyncPS,
                              CaSyncRing, RingAllreduce, RingOSSCompression,
                              get_strategy)

from tests.rowwise_expand import add, expanded

GOLDEN = golden_cases()
ADAPTIVE = [(name, build) for name, build in iter_cases()
            if name.startswith("adaptive:")]


def assert_same_plan(block, rowwise):
    assert block.to_json_obj() == rowwise.to_json_obj()
    assert block.digest() == rowwise.digest()
    assert block.dep_ptr == rowwise.dep_ptr
    assert block.dep_rows == rowwise.dep_rows
    assert block.ref_keys == rowwise.ref_keys
    assert block.uids == rowwise.uids
    assert block.flags == rowwise.flags
    assert block.regions == rowwise.regions
    assert block.attrs == rowwise.attrs
    assert block._next_uid == rowwise._next_uid
    assert list(map(type, block.nbytes)) == list(map(type, rowwise.nbytes))


def _compare(strategy, cluster, algorithm, model=None):
    pctx = PassContext(num_nodes=cluster.num_nodes, cluster=cluster,
                       algorithm=algorithm)
    model = model or golden_model()
    assert_same_plan(expanded(strategy, pctx, model),
                     expanded(strategy, pctx, model, rowwise=True))


@pytest.mark.parametrize("case", GOLDEN, ids=[c.name for c in GOLDEN])
def test_block_expand_matches_rowwise_golden(case):
    strategy, algorithm = case.inputs()
    _compare(strategy, ec2_v100_cluster(4), algorithm)


@pytest.mark.parametrize("case", GOLDEN, ids=[c.name for c in GOLDEN])
def test_block_expand_matches_rowwise_hetero_mixed(case):
    strategy, algorithm = case.inputs()
    _compare(strategy, get_cluster("hetero-mixed", num_nodes=4), algorithm)


@pytest.mark.parametrize("name,build", ADAPTIVE,
                         ids=[name for name, _ in ADAPTIVE])
def test_block_expand_matches_rowwise_adaptive(name, build):
    plan, pctx, _ = build()
    strategy = get_strategy(plan.strategy)
    model = golden_model()
    assert_same_plan(expanded(strategy, pctx, model),
                     expanded(strategy, pctx, model, rowwise=True))


ABLATIONS = {
    "default": {},
    "pipelining-off": dict(pipelining=False),
    "selective-off": dict(selective=False),
}


@pytest.mark.parametrize("num_nodes", [1, 2, 5])
@pytest.mark.parametrize("flags", list(ABLATIONS.values()),
                         ids=list(ABLATIONS))
@pytest.mark.parametrize("strategy", [CaSyncPS, CaSyncRing],
                         ids=lambda s: s.name)
def test_block_expand_matches_rowwise_ablations(strategy, flags, num_nodes):
    _compare(strategy(**flags), ec2_v100_cluster(num_nodes),
             default_algorithm("onebit"))


@pytest.mark.parametrize("strategy", [CaSyncPS, CaSyncRing],
                         ids=lambda s: s.name)
def test_block_expand_matches_rowwise_bert_large_n4(strategy):
    _compare(strategy(), ec2_v100_cluster(4), default_algorithm("onebit"),
             get_model("bert-large"))


#: The baselines, by name; Fig. 11 runs BytePS-OSS with on-CPU workers.
BASELINES = {
    "byteps": BytePS,
    "ring": RingAllreduce,
    "byteps-oss": BytePSOSSCompression,
    "byteps-oss-on-cpu": lambda: BytePSOSSCompression(worker_on_cpu=True),
    "ring-oss": RingOSSCompression,
}


def _algorithm(strategy):
    return default_algorithm("onebit") if strategy.compression else None


@pytest.mark.parametrize("num_nodes", [1, 2, 5])
@pytest.mark.parametrize("make", list(BASELINES.values()), ids=list(BASELINES))
def test_baseline_expand_matches_rowwise(make, num_nodes):
    strategy = make()
    _compare(strategy, ec2_v100_cluster(num_nodes), _algorithm(strategy))


@pytest.mark.parametrize("make", list(BASELINES.values()), ids=list(BASELINES))
def test_baseline_expand_matches_rowwise_bert_large_n4(make):
    strategy = make()
    _compare(strategy, ec2_v100_cluster(4), _algorithm(strategy),
             get_model("bert-large"))


@pytest.mark.parametrize("cluster", ["ec2-v100", "hetero-mixed"])
@pytest.mark.parametrize("algorithm", ["onebit", "dgc", "tbq"])
def test_byteps_oss_on_cpu_expand_matches_rowwise_golden(algorithm, cluster):
    # The golden cases' BytePS-OSS inputs, with Fig. 11's on-CPU workers.
    _compare(BytePSOSSCompression(worker_on_cpu=True),
             get_cluster(cluster, num_nodes=4), default_algorithm(algorithm))


@pytest.mark.slow
@pytest.mark.parametrize("make", [CaSyncPS, CaSyncRing, *BASELINES.values()],
                         ids=["casync-ps", "casync-ring", *BASELINES])
def test_block_expand_matches_rowwise_bert_large_n16(make):
    strategy = make()
    _compare(strategy, ec2_v100_cluster(16), _algorithm(strategy),
             get_model("bert-large"))


# -- SyncPlan.extend against the test-side add -------------------------------

GRADS = ("g", "h")

#: One op row: kind, node, label, size, compressed, dst, grad, flag and
#: deps (an int picks an earlier row, modulo their count; a pair is a
#: ready ref).
ROW = st.tuples(
    st.sampled_from(OP_KINDS), st.integers(0, 3), st.text(max_size=3),
    st.one_of(st.integers(0, 1 << 20), st.floats(0, 1e6)), st.booleans(),
    st.one_of(st.none(), st.integers(0, 3)),
    st.one_of(st.none(), st.sampled_from(GRADS)),
    st.one_of(st.none(), st.sampled_from(["fusable", "bulk_eligible"])),
    st.lists(st.one_of(st.integers(0, 99),
                       st.tuples(st.integers(0, 3), st.sampled_from(GRADS))),
             max_size=3))


def _dst(row):
    kind, node, dst = row[0], row[1], row[5]
    return (node + 1) % 4 if kind == "send" and dst is None else dst


def _add(plan, row, deps):
    kind, node, label, nbytes, compressed, _, grad, flag, _ = row
    attrs = {flag: True} if flag else {}
    return add(plan, kind, node, label, SizeExpr(nbytes, compressed),
               deps=deps, dst=_dst(row), grad=grad, **attrs)


def _row_deps(row, earlier):
    """A row's deps: its ready keys, and its ints as rows modulo the
    ``earlier`` rows before it (none when there are none)."""
    deps = []
    for dep in row[-1]:
        if isinstance(dep, tuple):
            deps.append(dep)
        elif earlier:
            deps.append(dep % earlier)
    return deps


def _extend(plan, block):
    base = len(plan)
    counts, entries = [], []
    for i, row in enumerate(block):
        deps = _row_deps(row, base + i)
        counts.append(len(deps))
        entries += [dep if isinstance(dep, int) else -1 - plan._ref_id(dep)
                    for dep in deps]
    dsts = [_dst(row) for row in block]
    return plan.extend(
        [OP_KINDS.index(row[0]) for row in block], [row[1] for row in block],
        [row[2] for row in block], [row[3] for row in block],
        [row[4] for row in block], [-1 if d is None else d for d in dsts],
        [row[6] for row in block],
        [{row[7]: True} if row[7] else None for row in block],
        counts, entries)


def _columns(plan):
    return (list(plan.uids), list(plan.kinds), list(plan.nodes),
            plan.labels, plan.nbytes, list(map(type, plan.nbytes)),
            list(plan.compressed), list(plan.dsts), plan.grads,
            list(plan.regions), list(plan.flags), plan.attrs,
            list(plan.dep_ptr), list(plan.dep_rows), plan.ref_keys,
            plan.dangling, plan._next_uid,
            {uid: plan.row_of(uid) for uid in plan.uids})


@settings(max_examples=80, deadline=None)
@given(prefix=st.lists(ROW, max_size=4), drop=st.booleans(),
       block=st.lists(ROW, min_size=1, max_size=8))
def test_extend_appends_what_add_appends(prefix, drop, block):
    plans = []
    for by_extend in (False, True):
        plan = SyncPlan("p", num_nodes=4)
        for i, row in enumerate(prefix):
            _add(plan, row, [plan.uids[d] if isinstance(d, int)
                             else ReadyRef(*d) for d in _row_deps(row, i)])
        if drop and len(plan) > 1:
            plan.drop({0: None})
            assert plan._row_of is None
        base = len(plan)
        if by_extend:
            first = _extend(plan, block)
        else:
            first = plan._next_uid
            for i, row in enumerate(block):
                _add(plan, row, [plan.uids[d] if isinstance(d, int)
                                 else ReadyRef(*d)
                                 for d in _row_deps(row, base + i)])
        assert plan.uids[base] == first
        plans.append(plan)
    assert _columns(plans[1]) == _columns(plans[0])
    # An add with uid deps after the block resolves them the same way.
    for plan in plans:
        add(plan, "barrier", 0, "after", deps=[plan.uids[-1],
                                               plan.uids[base],
                                               ReadyRef(3, "late")])
    assert _columns(plans[1]) == _columns(plans[0])


def _two_rows():
    plan = SyncPlan("p", num_nodes=2)
    add(plan, "encode", 0, "a", SizeExpr(8), deps=[ReadyRef(0, "g")])
    add(plan, "send", 0, "b", SizeExpr(8), deps=[0], dst=1)
    return plan


@pytest.mark.parametrize("dep", [2, 3, -2], ids=["self", "forward", "ref"])
def test_extend_rejects_a_dep_on_no_earlier_row_or_ref(dep):
    plan = _two_rows()
    before = _columns(plan)
    block = dict(kinds=[0, 0], nodes=[1, 1], labels=["c", "d"],
                 nbytes=[8, 8], compressed=[False, False], dsts=[-1, -1],
                 grads=[None, None], attrs=[None, None], dep_counts=[1, 0],
                 deps=[dep])
    with pytest.raises(ValueError, match="earlier row"):
        plan.extend(**block)
    assert _columns(plan) == before
    block["deps"] = [1]
    plan.extend(**block)
    assert list(plan.dep_rows) == [-1, 0, 1]


def test_extend_rejects_unknown_kinds_and_sends_without_dst():
    plan = _two_rows()
    block = dict(nodes=[1], labels=["c"], nbytes=[8], compressed=[False],
                 grads=[None], attrs=[None], dep_counts=[0], deps=[])
    with pytest.raises(ValueError, match="kind"):
        plan.extend(kinds=[len(OP_KINDS)], dsts=[-1], **block)
    with pytest.raises(ValueError, match="destination"):
        plan.extend(kinds=[OP_KINDS.index("send")], dsts=[-1], **block)
    with pytest.raises(ValueError, match="length"):
        plan.extend(kinds=[0, 0], dsts=[-1], **block)
    assert len(plan) == 2


def test_extend_takes_numpy_columns():
    plan = _two_rows()
    plan.extend(np.array([OP_KINDS.index("barrier")]), np.array([1]),
                ["done"], [0.0], np.zeros(1, dtype=bool), np.array([-1]),
                ["g"], [None], np.array([2]), np.array([1, -1]))
    assert plan.op(2).deps == (1, ReadyRef(0, "g"))
    assert type(plan.nbytes[2]) is float
