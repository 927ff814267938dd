"""Property tests for the fabric's two transfer paths.

The one-NumPy-pass-per-step bulk path and the one-message
:meth:`Fabric.issue` must both match a scalar model written here: every
NIC direction a FIFO server at its own link's rate, a message delivered
once its sender's uplink and its receiver's downlink have both served it
plus the slower endpoint's latency.  Under random link profiles
Hypothesis checks, message for message:

* identical delivery instants (exact float equality, not approx -- the
  vector path's left-fold accumulates are bit-compatible by design);
* byte conservation: every non-loopback byte lands in the transfer
  statistics exactly once, per node and in total;
* both paths deliver loopbacks synchronously, before the clock runs.

The bulk path has no fault semantics: with a fault schedule attached it
raises, and faulty rounds send through the retry loop on
:meth:`Fabric.issue`.
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
    step, ``"issue"`` as one :meth:`Fabric.issue` call per message.
    """
    env = Environment()
    fabric = Fabric(env, nodes, spec)
    log = []

    def deliver(index):
        log.append((index, env.now))

    if mode == "bulk":
        fabric.bulk_transfer(transfers, handler=deliver)
    else:
        for index, (src, dst, nbytes) in enumerate(transfers):
            fabric.issue(src, dst, nbytes, deliver, index)
    assert log == [(index, 0.0) for index, (src, dst, _n)
                   in enumerate(transfers) if src == dst], (
        "loopbacks must be delivered synchronously")
    env.run()
    return log, fabric


def _fifo_model(nodes, spec, transfers):
    """The oracle's delivery log for ``transfers``, all issued at t=0.

    Loopbacks are delivered at once, in issue order.  Each wire message
    joins its sender's uplink queue and its receiver's downlink queue,
    each served first come first served at that NIC's own rate, and is
    delivered when the later of the two has served it plus the slower
    endpoint's latency; same-instant deliveries keep issue order.
    """
    links = spec.links(nodes)
    up_free = [0.0] * nodes
    down_free = [0.0] * nodes
    loops, wire = [], []
    for index, (src, dst, nbytes) in enumerate(transfers):
        if src == dst:
            loops.append((index, 0.0))
            continue
        up_free[src] += nbytes / links[src].up_bytes_per_s
        down_free[dst] += nbytes / links[dst].down_bytes_per_s
        latency = max(links[src].latency_s, links[dst].latency_s)
        wire.append((max(up_free[src], down_free[dst]) + latency, index))
    return loops + [(index, at) for at, index in sorted(wire)]


@given(plan=bulk_plan())
@settings(max_examples=100, deadline=None)
def test_bulk_matches_per_message_oracle(plan):
    _assert_matches_oracle("bulk", *plan)


@given(plan=bulk_plan())
@settings(max_examples=100, deadline=None)
def test_issue_matches_per_message_oracle(plan):
    _assert_matches_oracle("issue", *plan)


def _assert_matches_oracle(mode, nodes, spec, transfers):
    oracle_log = _fifo_model(nodes, spec, transfers)
    log, fabric = _run(mode, nodes, spec, transfers)
    assert log == oracle_log, (
        "per-message delivery times or ordering diverged")
    # The statistics accumulate in delivery order.
    bytes_sent, messages, per_node = 0.0, 0, {}
    for index, _at in oracle_log:
        src, dst, nbytes = transfers[index]
        if src != dst:
            bytes_sent += nbytes
            messages += 1
            per_node[src] = per_node.get(src, 0.0) + nbytes
    assert fabric.stats.bytes_sent == bytes_sent
    assert fabric.stats.messages == messages
    assert fabric.stats.per_node_bytes == per_node


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
    """``bulk_transfer`` has no fault semantics: with a FaultState
    attached it raises instead of ignoring the faults."""
    env = Environment()
    fabric = Fabric(env, 2, NetworkSpec(bandwidth_gbps=10))
    FaultInjector(env, FaultSchedule.of(NodeCrash(at=0.0, node=1)),
                  fabric=fabric)
    with pytest.raises(ValueError, match="no fault semantics"):
        fabric.bulk_transfer([(0, 1, 1e6)], handler=lambda index: None)
