"""Property tests for the process-free transfer paths.

The one-NumPy-pass-per-step bulk path and the one-message
:meth:`Fabric.issue` must be indistinguishable from issuing every
message through :meth:`Fabric.transfer` as its own process.  Under
random link profiles Hypothesis checks, message for message:

* identical delivery instants (exact float equality, not approx -- the
  vector path's left-fold accumulates are bit-compatible by design);
* byte conservation: every non-loopback byte lands in the transfer
  statistics exactly once, per node and in total;
* ``issue`` delivers loopbacks synchronously, before the clock runs.

Neither path has fault semantics: with a fault schedule attached both
raise, and faulty rounds send through the retry loop on
:meth:`Fabric.transfer`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultInjector, FaultSchedule, NodeCrash
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


def _run(mode, nodes, spec, transfers):
    """Deliver ``transfers`` and log ``(index, time)`` per delivery.

    Mode ``"bulk"`` issues them as one :meth:`Fabric.bulk_transfer`
    step, ``"issue"`` as one :meth:`Fabric.issue` call per message; the
    oracle, ``"transfer"``, starts one :meth:`Fabric.transfer` process
    per message.
    """
    env = Environment()
    fabric = Fabric(env, nodes, spec)
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
    env.run()
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


def test_process_free_paths_refuse_an_attached_fault_state():
    """``issue`` and ``bulk_transfer`` have no fault semantics: with a
    FaultState attached they raise instead of ignoring the faults."""
    env = Environment()
    fabric = Fabric(env, 2, NetworkSpec(bandwidth_gbps=10))
    FaultInjector(env, FaultSchedule.of(NodeCrash(at=0.0, node=1)),
                  fabric=fabric)
    with pytest.raises(ValueError, match="no fault semantics"):
        fabric.issue(0, 1, 1e6, lambda token: None, None)
    with pytest.raises(ValueError, match="no fault semantics"):
        fabric.bulk_transfer([(0, 1, 1e6)], handler=lambda index: None)
