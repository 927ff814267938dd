"""Property tests for the path bulk transfers take.

The coordinator sends each flushed batch of ``bulk`` send tasks as one
:meth:`Fabric.issue` message, so ``issue`` is checked here, message for
message, against a scalar oracle written here: every NIC direction a
FIFO server at its own link's rate, a message delivered once its
sender's uplink and its receiver's downlink have both served it plus the
slower endpoint's latency.  Under random straggler and WAN link
profiles Hypothesis checks:

* identical delivery instants and order (exact float equality);
* byte conservation: every non-loopback byte lands in the transfer
  statistics exactly once, per node and in total;
* loopbacks are delivered synchronously, before the clock runs.
"""

from hypothesis import given, settings, strategies as st

from repro.net import Fabric, NetworkSpec, StragglerProfile, WanTier
from repro.sim import Environment


@st.composite
def hetero_plan(draw):
    """A fabric with optional straggler and WAN profiles, and a batch of
    ``(src, dst, nbytes)`` messages all issued at t=0."""
    nodes = draw(st.integers(2, 6))
    straggler = draw(st.none() | st.builds(
        StragglerProfile, fraction=st.floats(0.0, 1.0),
        severity=st.floats(1.0, 8.0), jitter=st.floats(0.0, 0.5),
        seed=st.integers(0, 99)))
    wan = draw(st.none() | st.builds(
        WanTier, fraction=st.floats(0.1, 1.0), up_gbps=st.floats(0.1, 10.0),
        down_gbps=st.floats(0.1, 10.0), latency_us=st.floats(0.0, 50_000.0),
        seed=st.integers(0, 99)))
    spec = NetworkSpec(
        bandwidth_gbps=draw(st.floats(0.5, 200.0)),
        latency_us=draw(st.floats(0.0, 50.0)),
        efficiency=draw(st.floats(0.3, 1.0)),
        straggler=straggler, wan=wan)
    transfers = draw(st.lists(
        st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1),
                  st.floats(0.0, 8e6)),
        min_size=1, max_size=30))
    return nodes, spec, transfers


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


@given(plan=hetero_plan())
@settings(max_examples=100, deadline=None)
def test_issue_matches_per_message_oracle(plan):
    """Identical delivery instants and order (exact float equality),
    loopbacks delivered synchronously, and statistics accumulated in
    delivery order."""
    nodes, spec, transfers = plan
    env = Environment()
    fabric = Fabric(env, nodes, spec)
    log = []

    def deliver(index):
        log.append((index, env.now))

    for index, (src, dst, nbytes) in enumerate(transfers):
        fabric.issue(src, dst, nbytes, deliver, index)
    assert log == [(index, 0.0) for index, (src, dst, _n)
                   in enumerate(transfers) if src == dst], (
        "loopbacks must be delivered synchronously")
    env.run()
    oracle_log = _fifo_model(nodes, spec, transfers)
    assert log == oracle_log, (
        "per-message delivery times or ordering diverged")
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
