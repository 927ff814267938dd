"""Tests for the SyncPlan IR, pass pipeline, verifier, and graph cache.

The verifier is the safety net between strategy frontends and the
lowering backend: the mutant tests take *real, valid* plans, corrupt them
in the three ways the acceptance criteria name (dropped send, swapped
dependency, byte-count mismatch), and require rejection.  The cache tests
pin the hit/miss discipline and warm-build determinism that make cached
instantiation safe.
"""

import copy
import pickle

import pytest

from repro.analysis.plancheck import (check_plan, golden_cases, golden_model,
                                     iter_cases)
from repro.casync.index import plan_index
from repro.casync.ir import (
    PlanVerificationError,
    ReadyRef,
    SizeExpr,
    SyncPlan,
)
from repro.casync.lower import (
    GraphCache,
    build_graph,
    cache_key,
    default_graph_cache,
    lower_plan,
    sync_plan_dump,
)
from repro.casync.passes import (
    BULK_ELIGIBLE_BYTES,
    DEFAULT_PART_BYTES,
    BulkRoutePass,
    PartitionPass,
    PassContext,
    build_plan,
    verify_plan,
    wire_nbytes,
)
from repro.casync.planner import SelectivePlanner
from repro.cluster import ec2_v100_cluster
from repro.errors import ConfigError
from repro.experiments.common import default_algorithm
from repro.models import GradientSpec, ModelSpec
from repro.sim import Environment
from repro.strategies import BytePS, CaSyncPS, CaSyncRing
from repro.strategies.base import SyncContext
from repro.telemetry import TelemetryCollector
from repro.training import make_plans, simulate_iteration
from tests.rowwise_expand import add
from tests.taskgraph_rows import tasks

MB = 1024 * 1024


def small_model(sizes=(8 * MB, MB, 64 * 1024)):
    grads = tuple(GradientSpec(f"m.g{i}", s) for i, s in enumerate(sizes))
    return ModelSpec(name="m", gradients=grads, batch_size=4,
                     batch_unit="images", v100_iteration_s=0.002)


def pctx_for(n=3, algorithm="tbq"):
    return PassContext(
        num_nodes=n, cluster=ec2_v100_cluster(n),
        algorithm=default_algorithm(algorithm) if algorithm else None)


def casync_plan(n=3, **flags):
    """A real, verified CaSync-PS plan to mutate."""
    flags.setdefault("selective", False)
    pctx = pctx_for(n)
    return build_plan(CaSyncPS(**flags), pctx, small_model()), pctx


# -- IR basics ---------------------------------------------------------------

def test_plan_construction_and_introspection():
    plan = SyncPlan("test", 2, algorithm="tbq")
    enc = add(plan, "encode", 0, "enc", size=SizeExpr(1024, compressed=True),
              deps=(ReadyRef(0, "g"),), grad="g")
    snd = add(plan, "send", 0, "push", size=SizeExpr(1024, compressed=True),
              deps=(enc,), dst=1, grad="g")
    dec = add(plan, "decode", 1, "dec", size=SizeExpr(1024, compressed=True),
              deps=(snd,), grad="g")
    add(plan, "barrier", 1, "done", deps=(dec,), grad="g")
    assert plan.counts() == {"encode": 1, "send": 1, "decode": 1,
                             "barrier": 1}
    assert [op.uid for op in plan.ops_for("g")] == [enc, snd, dec, 3]
    verify_plan(plan)                       # well-formed
    assert plan.digest() == plan.digest()   # content-addressed, stable
    assert "send@0 ->1" in plan.format_text()
    obj = plan.to_json_obj()
    assert obj["ops"][1]["dst"] == 1
    assert obj["ops"][2]["deps"] == [["op", snd]]


def test_a_deep_copy_appends_to_its_own_columns():
    plan = SyncPlan("test", 2)
    add(plan, "encode", 0, "enc", SizeExpr(8), deps=[ReadyRef(0, "g")])
    copied = copy.deepcopy(plan)
    add(copied, "barrier", 0, "done", deps=[0])
    assert (len(plan), len(copied)) == (1, 2)
    assert plan.labels == ["enc"] and list(plan.dep_ptr) == [0, 1]
    assert copied.labels == ["enc", "done"]
    assert list(copied.dep_rows) == [-1, 0]
    restored = pickle.loads(pickle.dumps(plan))
    add(restored, "barrier", 0, "done", deps=[0])
    assert restored.to_json_obj() == copied.to_json_obj()
    assert len(plan) == 1


def test_op_kind_and_send_dst_validated_at_construction():
    plan = SyncPlan("test", 2)
    with pytest.raises(ValueError, match="unknown op kind"):
        add(plan, "teleport", 0, "x")
    with pytest.raises(ValueError, match="destination"):
        add(plan, "send", 0, "x")


def test_update_rejects_unknown_kinds_and_uids():
    plan = SyncPlan("test", 2)
    add(plan, "copy", 0, "x")
    with pytest.raises(ValueError, match="unknown op kind"):
        plan.update(0, kind="teleport")
    with pytest.raises(TypeError, match="uid"):
        plan.update(0, uid=5)
    plan.update(0, kind="cpu", node=1)
    assert (plan.op(0).kind, plan.op(0).node) == ("cpu", 1)


def test_size_expr_wire_resolution():
    algo = default_algorithm("tbq")
    raw = SizeExpr(1024.0)
    packed = SizeExpr(1024.0, compressed=True)
    sizer = lambda nbytes: wire_nbytes(algo, nbytes)
    assert raw.wire(sizer) == 1024.0
    assert packed.wire(sizer) == wire_nbytes(algo, 1024.0) < 1024.0


# -- verifier: mutants of real plans (acceptance criteria) -------------------

def test_real_casync_plan_verifies_clean():
    plan, _ = casync_plan()
    verify_plan(plan)
    assert plan.meta["verified"] is True


def first_row(plan, kind):
    return next(i for i, op in enumerate(plan.ops) if op.kind == kind)


def test_verifier_rejects_dropped_send():
    plan, _ = casync_plan()
    plan.drop({first_row(plan, "send"): None})
    with pytest.raises(PlanVerificationError, match="unknown or later op"):
        verify_plan(plan)


def test_verifier_rejects_swapped_dependency():
    # Reorder a consumer before the send it receives from: the forward
    # reference is indistinguishable from a cycle and must be rejected.
    plan, _ = casync_plan()
    send = first_row(plan, "send")
    consumer = next(i for i, op in enumerate(plan.ops)
                    if plan.uids[send] in op.deps)
    order = list(range(len(plan)))
    order.remove(consumer)
    order.insert(send, consumer)
    plan.reorder(order)
    with pytest.raises(PlanVerificationError, match="cycle or dangling"):
        verify_plan(plan)


def test_verifier_rejects_byte_count_mismatch():
    plan, _ = casync_plan()
    send = first_row(plan, "send")
    size = plan.op(send).size
    plan.update(send, size=SizeExpr(size.nbytes * 2, size.compressed))
    with pytest.raises(PlanVerificationError, match="byte-count mismatch"):
        verify_plan(plan)


def test_verifier_rejects_compressed_payload_without_decode():
    plan, _ = casync_plan()
    consumer = next(
        i for i, op in enumerate(plan.ops)
        if op.kind in ("decode", "decode_merge")
        and any(not isinstance(d, ReadyRef)
                and plan.kind(plan.row_of(d)) == "send" for d in op.deps))
    plan.update(consumer, kind="merge")
    with pytest.raises(PlanVerificationError, match="without a decode"):
        verify_plan(plan)


def test_verifier_rejects_self_send_and_unconsumed_send():
    plan, _ = casync_plan()
    send = first_row(plan, "send")
    original_dst = plan.dsts[send]
    plan.update(send, dst=plan.nodes[send])
    with pytest.raises(PlanVerificationError, match="self-send"):
        verify_plan(plan)
    plan.update(send, dst=original_dst)
    # An orphan send that nothing on the destination ever consumes.
    add(plan, "send", 0, "orphan", size=SizeExpr(64), dst=1)
    with pytest.raises(PlanVerificationError, match="never consumed"):
        verify_plan(plan)


# -- passes ------------------------------------------------------------------

def test_selective_pass_without_codec_raises_config_error():
    with pytest.raises(ConfigError) as err:
        build_plan(CaSyncPS(selective=True), pctx_for(algorithm=None),
                   small_model())
    assert err.value.kind == "algorithm"
    assert "codec" in str(err.value)


def test_selective_pass_on_unplanned_strategy_raises_config_error():
    class RenamedPS(CaSyncPS):
        name = "renamed-ps"

    with pytest.raises(ConfigError) as err:
        build_plan(RenamedPS(selective=True), pctx_for(), small_model())
    assert err.value.kind == "strategy"
    assert err.value.choices == ("casync-ps", "casync-ring")


def test_selective_pass_applies_the_planners_verdicts():
    model = small_model()
    pctx = pctx_for()
    plan = build_plan(CaSyncPS(selective=True), pctx, model)
    verdicts = make_plans(model, pctx.cluster, pctx.algorithm,
                          "ps_colocated")
    assert {name: (d.compress, d.planned_partitions)
            for name, d in plan.directives.items()} == {
        name: (v.compress, v.partitions) for name, v in verdicts.items()}


def test_partition_pass_uses_config_part_bytes():
    assert DEFAULT_PART_BYTES == 4 * MB
    model = small_model(sizes=(8 * MB,))
    coarse = build_plan(CaSyncPS(selective=False), pctx_for(), model)
    assert coarse.directives["m.g0"].partitions == 2  # 8MB / 4MB

    fine = build_plan(CaSyncPS(selective=False), pctx_for(),
                      small_model(sizes=(16 * MB,)))
    # ceil(16MB/4MB)=4 capped at num_nodes=3
    assert fine.directives["m.g0"].partitions == 3

    unpartitioned = build_plan(
        CaSyncPS(selective=False, pipelining=False), pctx_for(), model)
    assert unpartitioned.directives["m.g0"].partitions == 1


def test_bulk_route_pass_threshold_from_config():
    plan, pctx = casync_plan()
    assert plan.meta["bulk_sends"] > 0
    eligible = [op for op in plan.ops
                if op.kind == "send" and op.attrs.get("bulk_eligible")]
    for op in eligible:
        assert op.attrs.get("bulk", False) == (
            pctx.wire_op(op) < BULK_ELIGIBLE_BYTES)

    # A whole 64 MB gradient compresses to well above the threshold.
    none_bulk = build_plan(CaSyncPS(selective=False, pipelining=False),
                           pctx, small_model(sizes=(64 * MB,)))
    assert none_bulk.meta["bulk_sends"] == 0
    assert not any(op.attrs.get("bulk") for op in none_bulk.ops)


@pytest.mark.parametrize("nbytes,routed", [
    (BULK_ELIGIBLE_BYTES, False), (BULK_ELIGIBLE_BYTES - 1, True)])
def test_bulk_route_boundary_is_strict(nbytes, routed):
    """A send whose wire size equals the threshold stays off the
    coordinator; one byte under, it rides it.  PC501 draws the same line."""
    pctx = pctx_for(n=2, algorithm="onebit")
    plan = build_plan(CaSyncPS(pipelining=False), pctx,
                      small_model(sizes=(nbytes,)))
    # The planner sends this gradient raw, so wire size == nbytes.
    assert not plan.directives["m.g0"].compress
    sends = [op for op in plan.ops if op.kind == "send"]
    assert sends and all(op.attrs.get("bulk_eligible") for op in sends)
    assert all(pctx.wire_op(op) == nbytes for op in sends)
    assert [bool(op.attrs.get("bulk")) for op in sends] == [routed] * len(
        sends)

    plan.set_attr([i for i, op in enumerate(plan.ops) if op.kind == "send"],
                  "bulk", True)
    pc501 = [d for d in check_plan(plan, pctx=pctx).diagnostics
             if d.rule == "PC501"]
    assert len(pc501) == (0 if routed else len(sends))


def test_pass_pipeline_matches_strategy_flags():
    assert [p.name for p in CaSyncPS().passes()] == [
        "selective", "partition", "fuse-decode-merge", "bulk-route"]
    assert [p.name for p in
            CaSyncRing(pipelining=False, bulk=False,
                       selective=False).passes()] == ["fuse-decode-merge"]
    assert BytePS().passes() == []
    plan, _ = casync_plan(pipelining=True, bulk=True)
    assert plan.meta["passes"] == ["partition", "expand",
                                   "fuse-decode-merge", "bulk-route",
                                   "verify"]


def test_fuse_pass_collapses_decode_merge_pairs():
    plan, _ = casync_plan()
    assert plan.meta["fused_decode_merge"] > 0
    assert any(op.kind == "decode_merge" for op in plan.ops)
    # No fusable merge may survive with a fusable decode feeding it.
    for op in plan.ops:
        if op.kind != "merge" or not op.attrs.get("fusable"):
            continue
        for dep in op.deps:
            if isinstance(dep, ReadyRef):
                continue
            producer = plan.op(plan.row_of(dep))
            assert not (producer.kind == "decode"
                        and producer.attrs.get("fusable"))


# -- lowering and the graph cache --------------------------------------------

PLANCHECK_CASES = list(iter_cases())


@pytest.mark.parametrize("case_name,build", PLANCHECK_CASES,
                         ids=[name for name, _ in PLANCHECK_CASES])
def test_lowered_recipe_is_environment_free_and_ordered(case_name, build):
    # Lowering is the only recipe source: its task rows are every op but
    # a barrier (a join row), in op order, each column entry lowered from
    # its row's op, and its CSR reads the plan index's own dependency
    # arrays, so no checker re-proves it.
    plan, _, recipe = build()
    idx = plan_index(plan)
    assert recipe.csr.dep_ptr is idx.dep_ptr
    assert recipe.csr.dep_rows is idx.dep_rows
    assert recipe.csr.ref_keys is idx.ref_keys
    assert len(recipe.csr) == len(plan.ops)
    assert recipe.rows == [
        i for i, op in enumerate(plan.ops) if op.kind != "barrier"]
    for k, i in enumerate(recipe.rows):
        op = plan.ops[i]
        assert recipe.nodes[k] == op.node
        assert recipe.labels[k] == op.label
        if op.kind == "send":
            assert recipe.dsts[k] == op.dst


def test_send_specs_carry_wire_sizes():
    plan, pctx = casync_plan()
    recipe = lower_plan(plan, pctx)
    sends = 0
    for i, nbytes in zip(recipe.rows, recipe.nbytes):
        op = plan.ops[i]
        if op.kind == "send":
            sends += 1
            assert nbytes == pytest.approx(pctx.wire(op.size))
    assert sends


def test_cache_key_sensitivity():
    model = small_model()
    pctx = pctx_for()
    base = cache_key(CaSyncPS(selective=False), model, pctx)
    assert base == cache_key(CaSyncPS(selective=False), model, pctx_for())
    assert base != cache_key(CaSyncPS(selective=False, bulk=False),
                             model, pctx)
    assert base != cache_key(CaSyncRing(selective=False), model, pctx)
    assert base != cache_key(CaSyncPS(selective=False), model, pctx_for(n=4))
    assert base != cache_key(CaSyncPS(selective=False), model,
                             pctx_for(algorithm="dgc"))
    assert base != cache_key(CaSyncPS(selective=False),
                             small_model(sizes=(MB,)), pctx)


def _build_casync_ps(model, cluster, cache):
    ctx = SyncContext(env=Environment(), cluster=cluster,
                      algorithm=default_algorithm("tbq"))
    return build_graph(CaSyncPS(bulk=False), ctx, model, cache=cache)


def test_warm_build_does_not_replan(monkeypatch):
    model = small_model()
    cluster = ec2_v100_cluster(3)
    planned = []
    plan_model = SelectivePlanner.plan_model

    def recording(self, gradients):
        gradients = list(gradients)
        planned.extend(g.name for g in gradients)
        return plan_model(self, gradients)

    monkeypatch.setattr(SelectivePlanner, "plan_model", recording)
    cache = GraphCache()
    _build_casync_ps(model, cluster, cache)
    assert planned == [g.name for g in model.gradients]
    planned.clear()
    _build_casync_ps(model, cluster, cache)
    assert planned == []
    assert (cache.hits, cache.misses) == (1, 1)


def test_bandwidth_alone_keys_a_recipe_with_its_own_verdicts():
    model = small_model()
    fast = ec2_v100_cluster(3)
    slow = fast.with_bandwidth(1.0)
    algorithm = default_algorithm("tbq")
    fast_plans = make_plans(model, fast, algorithm, "ps_colocated")
    slow_plans = make_plans(model, slow, algorithm, "ps_colocated")
    assert ({n: (p.compress, p.partitions) for n, p in fast_plans.items()}
            != {n: (p.compress, p.partitions)
                for n, p in slow_plans.items()})

    def encodes_expected(plans):
        return sum(p.partitions * (fast.num_nodes + 1)
                   for p in plans.values() if p.compress)

    cache = GraphCache()
    for _ in range(2):                     # cold, then warm
        for cluster, plans in ((fast, fast_plans), (slow, slow_plans)):
            graph = _build_casync_ps(model, cluster, cache)
            encodes = sum(1 for t in tasks(graph) if t.kind == "encode")
            assert encodes == encodes_expected(plans)
    assert len(cache) == 2
    assert (cache.hits, cache.misses) == (2, 2)


def test_graph_cache_hit_miss_and_fifo_eviction():
    cache = GraphCache(maxsize=2)
    plan, pctx = casync_plan()
    recipe = lower_plan(plan, pctx)
    assert cache.get(("a",)) is None
    cache.put(("a",), recipe)
    assert cache.get(("a",)) is recipe
    assert (cache.hits, cache.misses) == (1, 1)
    cache.put(("b",), recipe)
    cache.put(("c",), recipe)              # evicts ("a",), FIFO
    assert len(cache) == 2
    assert cache.get(("a",)) is None
    assert cache.get(("c",)) is recipe
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0

    with pytest.raises(ValueError):
        GraphCache(maxsize=0)


def test_cache_counters_and_warm_determinism_end_to_end():
    model = small_model()
    cluster = ec2_v100_cluster(3)
    default_graph_cache().clear()

    def run():
        tel = TelemetryCollector()
        result = simulate_iteration(model, cluster, CaSyncPS(selective=False),
                                    algorithm=default_algorithm("tbq"),
                                    telemetry=tel)
        rows = {r["name"]: r["value"] for r in tel.metrics.snapshot()
                if r["name"].startswith("syncplan.cache")}
        return result, rows

    cold, cold_rows = run()
    warm, warm_rows = run()
    assert cold_rows.get("syncplan.cache.miss") == 1
    assert "syncplan.cache.hit" not in cold_rows
    assert warm_rows.get("syncplan.cache.hit") == 1
    assert "syncplan.cache.miss" not in warm_rows
    assert warm == cold                    # cached graph is bit-identical


def test_sync_plan_dump_writes_json_and_text(tmp_path):
    model = small_model()
    cluster = ec2_v100_cluster(3)
    default_graph_cache().clear()
    with sync_plan_dump(tmp_path):
        simulate_iteration(model, cluster, CaSyncPS(selective=False),
                           algorithm=default_algorithm("tbq"))
        # Cache hit on the second build must still dump (idempotently).
        simulate_iteration(model, cluster, CaSyncPS(selective=False),
                           algorithm=default_algorithm("tbq"))
    json_files = sorted(tmp_path.glob("*.json"))
    txt_files = sorted(tmp_path.glob("*.txt"))
    assert len(json_files) == 1 and len(txt_files) == 1
    assert json_files[0].stem == txt_files[0].stem
    assert json_files[0].stem.startswith("casync-ps-")
    import json
    obj = json.loads(json_files[0].read_text())
    assert obj["strategy"] == "casync-ps"
    assert obj["meta"]["verified"] is True
    assert "SyncPlan strategy=casync-ps" in txt_files[0].read_text()


@pytest.mark.parametrize("dumped", [False, True], ids=["bare", "dumped"])
def test_cold_build_hashes_the_plan_only_to_name_a_dump(
        tmp_path, monkeypatch, dumped):
    """Building and lowering a plan hash nothing: only a dump hashes it,
    to name its files."""
    case = next(c for c in golden_cases()
                if c.name == "hipress-ps/onebit/n4")
    model, cluster = golden_model(), ec2_v100_cluster(4)
    strategy, algorithm = case.inputs()
    digests = []
    digest = SyncPlan.digest

    def counting(plan):
        digests.append(digest(plan))
        return digests[-1]

    monkeypatch.setattr(SyncPlan, "digest", counting)
    default_graph_cache().clear()
    if dumped:
        with sync_plan_dump(tmp_path):
            simulate_iteration(model, cluster, strategy,
                               algorithm=algorithm)
        assert digests
        assert (tmp_path / f"casync-ps-{digests[0][:12]}.json").is_file()
    else:
        simulate_iteration(model, cluster, strategy, algorithm=algorithm)
        assert digests == []
