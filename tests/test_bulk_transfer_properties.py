"""Property tests for the process-free transfer paths.

The one-NumPy-pass-per-step bulk path and the one-message
:meth:`Fabric.issue` must be indistinguishable from issuing every
message through :meth:`Fabric.transfer` as its own process.  Under
random link profiles Hypothesis checks, message for message:

* identical delivery instants (exact float equality, not approx -- the
  vector path's left-fold accumulates are bit-compatible by design);
* byte conservation: every non-loopback byte lands in the transfer
  statistics exactly once, per node and in total;
* under a random fault schedule (crashes, link degrades) the bulk call
  must deliver exactly what the per-message path delivers -- it is
  required to fall back to one process per message, so a crash mid-bulk
  aborts exactly the transfers the oracle aborts;
* ``issue`` delivers loopbacks synchronously, before the clock runs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultInjector, FaultSchedule, LinkDegrade, NodeCrash
from repro.net import Fabric, NetworkSpec
from repro.sim import Environment


@st.composite
def bulk_plan(draw):
    nodes = draw(st.integers(2, 6))
    spec = NetworkSpec(
        bandwidth_gbps=draw(st.floats(0.5, 200.0)),
        latency_us=draw(st.floats(0.0, 50.0)),
        efficiency=draw(st.floats(0.3, 1.0)))
    transfers = draw(st.lists(
        st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1),
                  st.floats(0.0, 8e6)),
        min_size=1, max_size=30))
    return nodes, spec, transfers


def _run(mode, nodes, spec, transfers, schedule=None):
    """Deliver ``transfers`` and log ``(index, time)`` per delivery.

    Mode ``"bulk"`` issues them as one :meth:`Fabric.bulk_transfer`
    step, ``"issue"`` as one :meth:`Fabric.issue` call per message; the
    oracle, ``"transfer"``, starts one :meth:`Fabric.transfer` process
    per message.
    """
    env = Environment()
    fabric = Fabric(env, nodes, spec)
    if schedule is not None:
        FaultInjector(env, schedule, fabric=fabric)
    log = []

    def deliver(index):
        log.append((index, env.now))

    if mode == "bulk":
        fabric.bulk_transfer(transfers, handler=deliver)
    elif mode == "issue":
        for index, (src, dst, nbytes) in enumerate(transfers):
            fabric.issue(src, dst, nbytes, deliver, index)
        assert log == [(index, 0.0) for index, (src, dst, _n)
                       in enumerate(transfers) if src == dst], (
            "loopbacks must be delivered synchronously")
    else:
        def one(index, src, dst, nbytes):
            yield from fabric.transfer(src, dst, nbytes)
            deliver(index)

        for index, (src, dst, nbytes) in enumerate(transfers):
            env.process(one(index, src, dst, nbytes))
    env.run(until=1.0 if schedule is not None else None)
    return log, fabric


@given(plan=bulk_plan())
@settings(max_examples=100, deadline=None)
def test_bulk_matches_per_message_oracle(plan):
    _assert_matches_oracle("bulk", *plan)


@given(plan=bulk_plan())
@settings(max_examples=100, deadline=None)
def test_issue_matches_per_message_oracle(plan):
    _assert_matches_oracle("issue", *plan)


def _assert_matches_oracle(mode, nodes, spec, transfers):
    oracle_log, oracle = _run("transfer", nodes, spec, transfers)
    log, fabric = _run(mode, nodes, spec, transfers)
    assert log == oracle_log, (
        "per-message delivery times or ordering diverged")
    assert fabric.stats.bytes_sent == oracle.stats.bytes_sent
    assert fabric.stats.messages == oracle.stats.messages
    assert fabric.stats.per_node_bytes == oracle.stats.per_node_bytes


@given(plan=bulk_plan())
@settings(max_examples=100, deadline=None)
def test_bulk_conserves_bytes(plan):
    nodes, spec, transfers = plan
    _log, fabric = _run("bulk", nodes, spec, transfers)
    stats = fabric.stats
    wire = [(s, d, n) for s, d, n in transfers if s != d]
    assert stats.messages == len(wire)
    assert stats.bytes_sent == pytest.approx(sum(n for _s, _d, n in wire))
    for node in range(nodes):
        sent = sum(n for s, _d, n in wire if s == node)
        assert stats.per_node_bytes.get(node, 0.0) == pytest.approx(sent)


@st.composite
def faulty_plan(draw):
    nodes, spec, transfers = draw(bulk_plan())
    events = draw(st.lists(st.one_of(
        st.builds(NodeCrash, at=st.floats(0.0, 0.01),
                  node=st.integers(0, nodes - 1)),
        st.builds(LinkDegrade, at=st.floats(0.0, 0.01),
                  src=st.just(0), dst=st.integers(1, nodes - 1),
                  factor=st.floats(1.0, 10.0)),
    ), min_size=1, max_size=4))
    return nodes, spec, transfers, FaultSchedule.of(*events)


def _faulty_outcome(mode, nodes, spec, transfers, schedule):
    log, fabric = _run(mode, nodes, spec, transfers, schedule)
    faults = fabric.faults.log
    return log, (faults.attempted_bytes, faults.delivered_bytes,
                 faults.dropped_bytes)


@given(plan=faulty_plan())
@settings(max_examples=60, deadline=None)
def test_crash_mid_bulk_aborts_identically(plan):
    nodes, spec, transfers, schedule = plan
    oracle = _faulty_outcome("transfer", nodes, spec, transfers, schedule)
    bulk = _faulty_outcome("bulk", nodes, spec, transfers, schedule)
    assert bulk == oracle, "fault outcomes diverged from per-message path"


def test_crash_actually_aborts_some_transfers():
    """Non-vacuity check: the sink dying mid-incast drops messages, and
    the bulk call drops the *same* ones as the per-message path."""
    nodes = 4
    spec = NetworkSpec(bandwidth_gbps=1.0, latency_us=5.0)
    transfers = [(src, 0, 4e6) for src in (1, 2, 3)]
    schedule = FaultSchedule.of(NodeCrash(at=0.005, node=0))
    oracle = _faulty_outcome("transfer", nodes, spec, transfers, schedule)
    bulk = _faulty_outcome("bulk", nodes, spec, transfers, schedule)
    log, (_attempted, _delivered, dropped) = bulk
    assert len(log) < len(transfers) and dropped > 0, (
        "expected the crash to abort at least one transfer")
    assert bulk == oracle
