"""Unit and integration tests for the repro.faults subsystem.

Covers the schedule model, retry policy, membership service, invariant
checker, the injector's end-to-end behaviour inside simulate_iteration,
and the determinism regression (identical seed + schedule -> identical
event-trace hash) for every strategy.
"""

import json
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.algorithms import OneBit
from repro.casync.lower import default_graph_cache
from repro.cluster import ec2_v100_cluster
from repro.faults import (
    DeadlineExceeded,
    FaultSchedule,
    GpuSlowdown,
    InvariantViolation,
    LinkDegrade,
    LinkPartition,
    LinkRestore,
    Membership,
    NodeCrash,
    NodeRestart,
    PeerDeadError,
    RetryPolicy,
    SyncAborted,
    TransientSendFailure,
    check_all,
    check_byte_conservation,
    check_drain_or_raise,
    check_exactly_once,
    check_monotone_clocks,
    random_schedule,
)
from repro.faults.injector import TransferLog
from repro.faults.runner import CompletionRecord
from repro.models import GradientSpec, ModelSpec
from repro.strategies import (
    BytePS,
    BytePSOSSCompression,
    CaSyncPS,
    CaSyncRing,
    RingAllreduce,
    RingOSSCompression,
)
from repro.telemetry import telemetry_session
from repro.training import make_plans, simulate_iteration
from repro.training.loop import _run_round
from repro.training.trace import trace_hash, trace_iteration
from tests.test_graph_equivalence import metrics_digest, span_digest

MB = 1024 * 1024


def small_model(sizes=(MB, 256 * 1024)):
    grads = tuple(GradientSpec(f"f.g{i}", s) for i, s in enumerate(sizes))
    return ModelSpec(name="f", gradients=grads, batch_size=4,
                     batch_unit="images", v100_iteration_s=0.001)


def run_iter(schedule=None, n=4, strategy=None, **kw):
    return simulate_iteration(small_model(), ec2_v100_cluster(n),
                              strategy or BytePS(),
                              fault_schedule=schedule, **kw)


# -- schedule ---------------------------------------------------------------

def test_schedule_sorts_stably_by_time():
    a = LinkDegrade(at=0.5, src=0, dst=1, factor=2.0)
    b = NodeCrash(at=0.1, node=0)
    c = LinkRestore(at=0.5, src=0, dst=1)  # same tick as a, authored later
    sched = FaultSchedule((a, b, c))
    assert sched.events == (b, a, c)
    assert sched.horizon == 0.5
    assert len(sched) == 3 and bool(sched)


def test_schedule_empty_is_falsy():
    assert not FaultSchedule.empty()
    assert len(FaultSchedule.empty()) == 0
    assert FaultSchedule.empty().horizon == 0.0


def test_schedule_validate_for_rejects_out_of_range_nodes():
    sched = FaultSchedule.of(NodeCrash(at=0.1, node=5))
    with pytest.raises(ValueError, match="node 5"):
        sched.validate_for(4)
    assert sched.validate_for(6) is sched


def test_schedule_shifted_moves_every_event():
    sched = FaultSchedule.of(NodeCrash(at=0.1, node=0),
                             LinkPartition(at=0.2, src=0, dst=1))
    moved = sched.shifted(0.05)
    assert [e.at for e in moved] == pytest.approx([0.15, 0.25])
    assert isinstance(moved.events[1], LinkPartition)


def test_schedule_involving_filters_by_node():
    sched = FaultSchedule.of(NodeCrash(at=0.1, node=0),
                             LinkDegrade(at=0.2, src=1, dst=2, factor=2.0),
                             GpuSlowdown(at=0.3, node=2, factor=2.0))
    assert len(sched.involving(2)) == 2
    assert len(sched.involving(0)) == 1


def test_event_validation():
    with pytest.raises(ValueError):
        NodeCrash(at=-1.0, node=0)
    with pytest.raises(ValueError):
        LinkDegrade(at=0.0, src=1, dst=1, factor=2.0)
    with pytest.raises(ValueError):
        LinkDegrade(at=0.0, src=0, dst=1, factor=0.5)
    with pytest.raises(ValueError):
        TransientSendFailure(at=0.0, src=0, dst=1, count=0)
    with pytest.raises(ValueError):
        GpuSlowdown(at=0.0, node=0, factor=2.0, duration=0.0)


def test_random_schedule_is_seed_deterministic():
    a = random_schedule(seed=42, num_nodes=4, horizon=1.0)
    b = random_schedule(seed=42, num_nodes=4, horizon=1.0)
    assert a.events == b.events
    c = random_schedule(seed=43, num_nodes=4, horizon=1.0,
                        transient_rate=5.0)
    d = random_schedule(seed=44, num_nodes=4, horizon=1.0,
                        transient_rate=5.0)
    assert c.events != d.events


def test_random_schedule_respects_node_range():
    for seed in range(8):
        sched = random_schedule(seed=seed, num_nodes=3, horizon=0.5)
        sched.validate_for(3)  # must not raise


# -- retry policy -----------------------------------------------------------

def test_retry_policy_attempt_timeout_scales_with_expectation():
    policy = RetryPolicy(timeout_factor=8.0, min_timeout_s=2e-3)
    assert policy.attempt_timeout(1.0, 0) == pytest.approx(8.0)
    assert policy.attempt_timeout(1.0, 2) == pytest.approx(24.0)
    # small messages hit the floor instead of timing out on noise
    assert policy.attempt_timeout(1e-7, 0) == pytest.approx(2e-3)


def test_retry_policy_backoff_is_exponential_and_capped():
    policy = RetryPolicy(backoff_base_s=1e-3, backoff_factor=2.0,
                         backoff_cap_s=3e-3)
    assert policy.backoff(1) == pytest.approx(1e-3)
    assert policy.backoff(2) == pytest.approx(2e-3)
    assert policy.backoff(5) == pytest.approx(3e-3)  # capped


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy().attempt_timeout(1.0, -1)
    with pytest.raises(ValueError):
        RetryPolicy().backoff(0)


# -- membership -------------------------------------------------------------

def test_membership_routes_around_dead_nodes_transitively():
    m = Membership(4)
    assert m.route(2) == 2
    m.declare_dead(2)
    assert m.route(2) == 3
    m.declare_dead(3)  # cascading death: route chases to the next live
    assert m.route(2) == 0
    assert m.route(3) == 0
    assert m.alive() == (0, 1)


def test_membership_declare_dead_is_idempotent_with_one_callback():
    m = Membership(3)
    deaths = []
    m.on_death(deaths.append)
    assert m.declare_dead(1) is True
    assert m.declare_dead(1) is False
    assert deaths == [1]
    assert m.dead() == (1,)


def test_membership_suspect_clears_on_death():
    m = Membership(3)
    m.suspect(2)
    assert m.suspected() == (2,)
    m.declare_dead(2)
    assert m.suspected() == ()


def test_membership_route_raises_when_everyone_is_dead():
    m = Membership(2)
    m.declare_dead(0)
    m.declare_dead(1)
    with pytest.raises(RuntimeError, match="every node is dead"):
        m.route(0)


# -- invariant checker ------------------------------------------------------

def _report(completions=(), aborted=False, finish_time=1.0,
            abort_reason=None):
    return SimpleNamespace(completions=list(completions), aborted=aborted,
                           finish_time=finish_time,
                           abort_reason=abort_reason)


def _rec(task_id, at, dropped=False):
    return CompletionRecord(task_id=task_id, at=at, node=0, kind="merge",
                            label=f"t{task_id}", ok=True, dropped=dropped)


def test_byte_conservation_flags_in_flight_on_clean_rounds():
    log = TransferLog()
    log.begin(0.0, 0, 1, 100.0)  # never delivered nor dropped
    with pytest.raises(InvariantViolation, match="neither delivered"):
        check_byte_conservation(log)
    check_byte_conservation(log, allow_in_flight=True)  # aborts tolerate it


def test_byte_conservation_flags_unknown_drop_cause():
    log = TransferLog()
    rec = log.begin(0.0, 0, 1, 100.0)
    rec.drop(0.5, "cosmic-ray")
    with pytest.raises(InvariantViolation, match="cosmic-ray"):
        check_byte_conservation(log)


def test_byte_conservation_accepts_balanced_ledger():
    log = TransferLog()
    log.begin(0.0, 0, 1, 100.0).deliver(0.5)
    log.begin(0.1, 1, 0, 50.0).drop(0.4, "transient")
    check_byte_conservation(log)


def test_exactly_once_rejects_duplicates_and_missing_tasks():
    graph = SimpleNamespace(tasks=[SimpleNamespace(id=1),
                                   SimpleNamespace(id=2)])
    with pytest.raises(InvariantViolation, match="more than once"):
        check_exactly_once(_report([_rec(1, 0.1), _rec(1, 0.2)]), graph)
    with pytest.raises(InvariantViolation, match="never completed"):
        check_exactly_once(_report([_rec(1, 0.1)]), graph)
    # an aborted round may legitimately leave tasks unfinished
    check_exactly_once(_report([_rec(1, 0.1)], aborted=True,
                               abort_reason="x"), graph)
    check_exactly_once(_report([_rec(1, 0.1), _rec(2, 0.2)]), graph)


def test_monotone_clocks_rejects_backwards_ledger():
    with pytest.raises(InvariantViolation, match="backwards"):
        check_monotone_clocks(_report([_rec(1, 0.5), _rec(2, 0.1)]))
    with pytest.raises(InvariantViolation, match="precedes"):
        check_monotone_clocks(_report([_rec(1, 0.5)], finish_time=0.1))
    check_monotone_clocks(_report([_rec(1, 0.1), _rec(2, 0.5)]))


def test_drain_or_raise_requires_a_reason_on_aborts():
    with pytest.raises(InvariantViolation, match="no reason"):
        check_drain_or_raise(_report(aborted=True))
    check_drain_or_raise(_report(aborted=True, abort_reason="deadline"))
    check_drain_or_raise(_report())


# -- injector integration (simulate_iteration) ------------------------------

def test_empty_schedule_is_a_strict_noop():
    pristine = run_iter()
    empty = run_iter(schedule=FaultSchedule.empty())
    assert pristine.fault_report is None
    assert empty.fault_report is None
    assert empty.iteration_time == pristine.iteration_time


def test_crash_without_restart_completes_degraded():
    result = run_iter(schedule=FaultSchedule.of(
        NodeCrash(at=3e-4, node=2)), retry_policy=RetryPolicy.aggressive())
    report = result.fault_report
    assert report is not None and not report.aborted
    assert 2 in report.declared_dead
    assert report.degraded
    check_all(report)


def test_crash_with_quick_restart_completes():
    result = run_iter(schedule=FaultSchedule.of(
        NodeCrash(at=2e-4, node=1), NodeRestart(at=5e-4, node=1)))
    report = result.fault_report
    assert report is not None and not report.aborted
    check_all(report)


def test_transient_failures_are_retried_to_completion():
    result = run_iter(schedule=FaultSchedule.of(
        TransientSendFailure(at=0.0, src=0, dst=1, count=2)))
    report = result.fault_report
    assert report is not None and not report.aborted
    assert report.retries >= 1
    assert not report.declared_dead
    check_all(report)
    # the lost attempts are in the ledger as explicit transient drops
    assert report.state.log.dropped("transient")


@pytest.mark.parametrize("bulk", [False, True])
def test_retried_bulk_flushes_count_as_retries(bulk):
    """Two failed attempts on each of the 6 directed pairs are 12 retries,
    whether the sends go out one by one or in coordinator flushes."""
    sizes = (64 * 1024,) * 6 + (8 * MB,)
    grads = tuple(GradientSpec(f"f.g{i}", s) for i, s in enumerate(sizes))
    model = ModelSpec(name="f", gradients=grads, batch_size=4,
                      batch_unit="images", v100_iteration_s=0.01)
    cluster = ec2_v100_cluster(3)
    algo = OneBit()
    schedule = FaultSchedule(tuple(
        TransientSendFailure(at=0.0, src=src, dst=dst, count=2)
        for src in range(3) for dst in range(3) if src != dst))
    result = simulate_iteration(
        model, cluster, CaSyncPS(bulk=bulk), algorithm=algo,
        plans=make_plans(model, cluster, algo, "ps_colocated"),
        fault_schedule=schedule, retry_policy=RetryPolicy())
    report = result.fault_report
    assert not report.aborted
    assert report.retries == 12
    check_all(report)


@pytest.mark.parametrize("bulk", [False, True])
def test_dead_peer_without_degradation_aborts(bulk):
    """degradation=False aborts the round on a dead peer, whether the
    sends go out one by one or in coordinator flushes."""
    grads = tuple(GradientSpec(f"f.g{i}", 16 * 1024) for i in range(3))
    model = ModelSpec(name="f", gradients=grads, batch_size=4,
                      batch_unit="images", v100_iteration_s=0.001)
    with pytest.raises(SyncAborted) as excinfo:
        simulate_iteration(
            model, ec2_v100_cluster(3), CaSyncPS(bulk=bulk, selective=False),
            algorithm=OneBit(),
            fault_schedule=FaultSchedule.of(NodeCrash(at=0.0, node=1)),
            heartbeat_timeout_s=10.0, degradation=False)
    assert isinstance(excinfo.value.__cause__, PeerDeadError)
    check_all(excinfo.value.report)


def test_link_degrade_slows_the_round():
    pristine = run_iter()
    degraded = run_iter(schedule=FaultSchedule.of(
        LinkDegrade(at=0.0, src=0, dst=1, factor=32.0)))
    assert degraded.iteration_time > pristine.iteration_time
    check_all(degraded.fault_report)


def test_gpu_slowdown_stalls_the_bsp_round():
    pristine = run_iter()
    straggler = run_iter(schedule=FaultSchedule.of(
        GpuSlowdown(at=0.0, node=0, factor=4.0)))
    assert straggler.iteration_time > pristine.iteration_time
    check_all(straggler.fault_report)


def test_deadline_raises_typed_abort_with_checkable_report():
    with pytest.raises(SyncAborted) as excinfo:
        run_iter(schedule=FaultSchedule.of(NodeCrash(at=1e-4, node=1)),
                 retry_policy=RetryPolicy.patient(),
                 heartbeat_timeout_s=10.0, sync_deadline_s=2e-3)
    exc = excinfo.value
    assert isinstance(exc, DeadlineExceeded)
    assert exc.at == pytest.approx(2e-3)
    assert exc.unfinished
    report = exc.report
    assert report.aborted and report.abort_reason
    check_all(report)


def test_cluster_spec_carries_fault_schedule():
    sched = FaultSchedule.of(TransientSendFailure(at=0.0, src=0, dst=1))
    cluster = ec2_v100_cluster(4).with_faults(sched)
    assert cluster.faults is sched
    result = simulate_iteration(small_model(), cluster, BytePS())
    assert result.fault_report is not None
    check_all(result.fault_report)
    with pytest.raises(ValueError):
        ec2_v100_cluster(2).with_faults(
            FaultSchedule.of(NodeCrash(at=0.0, node=7)))


# -- determinism regression (identical seed + schedule -> identical hash) ---

ALL_STRATEGIES = [
    ("byteps", lambda: BytePS(), None),
    ("ring", lambda: RingAllreduce(), None),
    ("byteps-oss", lambda: BytePSOSSCompression(), OneBit),
    ("ring-oss", lambda: RingOSSCompression(), OneBit),
    ("casync-ps", lambda: CaSyncPS(bulk=False, selective=False), OneBit),
    ("casync-ring", lambda: CaSyncRing(bulk=False, selective=False), OneBit),
]


#: Per-strategy fingerprints, pristine and under the seed-11 schedule,
#: pinned so a change that shifts both runs of a determinism check the
#: same way still fails.
GOLDEN_FINGERPRINTS = json.loads(
    (Path(__file__).parent / "golden" / "fault_fingerprints.json")
    .read_text())


def _trace_fingerprint(make_strategy, algo_factory, schedule):
    """trace hash on completion, or the (typed) abort coordinates.

    When the plan runs the coordinator, a completed round's fingerprint
    is ``[hash, retries]``: the trace hash plus the round's
    ``RobustSyncReport.retries``, which counts the coordinator's retried
    flushes.
    """
    algo = algo_factory() if algo_factory else None
    rounds = []

    def recording_round(*args, **kwargs):
        rounds.append(_run_round(*args, **kwargs))
        return rounds[-1]

    try:
        with mock.patch("repro.training.trace._run_round", recording_round):
            trace = trace_iteration(
                small_model(), ec2_v100_cluster(3), make_strategy(),
                algorithm=algo, fault_schedule=schedule,
                retry_policy=RetryPolicy.aggressive(), sync_deadline_s=0.5)
    except SyncAborted as exc:
        return ("aborted", exc.reason, exc.at)
    if rounds[0].coordinator is not None:
        return [trace_hash(trace), rounds[0].report.retries]
    return trace_hash(trace)


@pytest.mark.parametrize("name,make_strategy,algo_factory", ALL_STRATEGIES,
                         ids=[s[0] for s in ALL_STRATEGIES])
def test_identical_seed_and_schedule_identical_trace(name, make_strategy,
                                                     algo_factory):
    schedule = random_schedule(seed=11, num_nodes=3, horizon=2e-3)
    first = _trace_fingerprint(make_strategy, algo_factory, schedule)
    second = _trace_fingerprint(make_strategy, algo_factory, schedule)
    assert first == second
    assert first == GOLDEN_FINGERPRINTS[f"{name}/seed11"]


@pytest.mark.parametrize("name,make_strategy,algo_factory", ALL_STRATEGIES,
                         ids=[s[0] for s in ALL_STRATEGIES])
def test_pristine_trace_is_deterministic(name, make_strategy, algo_factory):
    first = _trace_fingerprint(make_strategy, algo_factory, None)
    second = _trace_fingerprint(make_strategy, algo_factory, None)
    assert first == second
    assert first == GOLDEN_FINGERPRINTS[f"{name}/pristine"]


@pytest.mark.parametrize("seed", [None, 11], ids=["pristine", "seed11"])
def test_coordinator_fault_path_fingerprint(seed):
    # The coordinator's robust flush path: batched CaSync-PS sends go
    # through robust_transfer, one per flushed key, under the retry policy.
    schedule = (None if seed is None
                else random_schedule(seed=seed, num_nodes=3, horizon=2e-3))
    observed = _trace_fingerprint(
        lambda: CaSyncPS(bulk=True, selective=False), OneBit, schedule)
    key = "pristine" if seed is None else f"seed{seed}"
    assert observed == GOLDEN_FINGERPRINTS[f"casync-ps-bulk/{key}"]


#: The seed-11 fault cases: every strategy plus the coordinator's bulk path.
SEED11_CASES = {name: (make_strategy, algo_factory)
                for name, make_strategy, algo_factory in ALL_STRATEGIES}
SEED11_CASES["casync-ps-bulk"] = (
    lambda: CaSyncPS(bulk=True, selective=False), OneBit)
FAULT_DIGEST_PATH = (Path(__file__).parent / "golden"
                     / "fault_telemetry_digests.json")


def traced_fault_digests(name):
    """Span and metric digests of case ``name``'s traced seed-11 round."""
    make_strategy, algo_factory = SEED11_CASES[name]
    schedule = random_schedule(seed=11, num_nodes=3, horizon=2e-3)
    # A cold build, so the recorded syncplan spans and cache counters do
    # not depend on which cases ran before this one.
    default_graph_cache().clear()
    with telemetry_session() as tel:
        _trace_fingerprint(make_strategy, algo_factory, schedule)
    return {"spans": span_digest(tel), "metrics": metrics_digest(tel)}


@pytest.mark.parametrize("name", sorted(SEED11_CASES))
def test_seed11_traced_digests_are_pinned(name):
    # What a faulted round records -- xfer spans and their outcomes,
    # retries, drops -- pinned like the pristine goldens' telemetry.
    pinned = json.loads(FAULT_DIGEST_PATH.read_text())[name]
    assert traced_fault_digests(name) == pinned


@pytest.mark.parametrize("name,make_strategy,algo_factory", ALL_STRATEGIES,
                         ids=[s[0] for s in ALL_STRATEGIES])
@pytest.mark.parametrize("with_schedule", [False, True],
                         ids=["pristine", "faulty"])
def test_telemetry_collector_leaves_trace_hash_unchanged(
        name, make_strategy, algo_factory, with_schedule):
    # Telemetry's zero-cost contract: recording only observes, so the
    # event trace -- pristine or under fault injection -- is bit-identical
    # with and without an attached collector.
    schedule = (random_schedule(seed=11, num_nodes=3, horizon=2e-3)
                if with_schedule else None)
    baseline = _trace_fingerprint(make_strategy, algo_factory, schedule)
    with telemetry_session() as tel:
        observed = _trace_fingerprint(make_strategy, algo_factory, schedule)
    assert observed == baseline
    assert tel.spans                   # the collector really did record
