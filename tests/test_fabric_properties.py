"""Property-based tests for the network fabric model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Fabric, NetworkSpec
from repro.sim import Environment
from tests.fabric_send import send


def launch(env, fabric, transfers, spans=None):
    """Issue each ``(src, dst, nbytes, delay)`` ``delay`` from now; on
    delivery, append ``(nbytes, elapsed)`` of a non-loopback to ``spans``."""
    def issue(transfer):
        src, dst, nbytes = transfer
        start = env.now

        def delivered(_token):
            if spans is not None and src != dst:
                spans.append((nbytes, env.now - start))

        fabric.issue(src, dst, nbytes, delivered, None)

    for src, dst, nbytes, delay in transfers:
        env.call_later(delay, issue, (src, dst, nbytes))


@st.composite
def transfer_plan(draw):
    num_nodes = draw(st.integers(2, 5))
    transfers = draw(st.lists(
        st.tuples(st.integers(0, num_nodes - 1),
                  st.integers(0, num_nodes - 1),
                  st.integers(0, 10_000_000),
                  st.floats(0.0, 0.01)),  # start delay
        min_size=1, max_size=20))
    return num_nodes, transfers


@given(plan=transfer_plan())
@settings(max_examples=80, deadline=None)
def test_bytes_conserved(plan):
    """Every non-loopback byte is accounted exactly once."""
    num_nodes, transfers = plan
    env = Environment()
    fabric = Fabric(env, num_nodes, NetworkSpec(bandwidth_gbps=10))
    launch(env, fabric, transfers)
    env.run()
    expected = sum(n for s, d, n, _ in transfers if s != d)
    assert fabric.stats.bytes_sent == pytest.approx(expected)
    assert fabric.stats.messages == sum(
        1 for s, d, n, _ in transfers if s != d)


@given(plan=transfer_plan())
@settings(max_examples=80, deadline=None)
def test_transfer_times_lower_bounded(plan):
    """No transfer completes faster than its uncontended time."""
    num_nodes, transfers = plan
    env = Environment()
    spec = NetworkSpec(bandwidth_gbps=10, latency_us=5)
    fabric = Fabric(env, num_nodes, spec)
    spans = []
    launch(env, fabric, transfers, spans)
    env.run()
    for nbytes, elapsed in spans:
        assert elapsed >= spec.transfer_time(nbytes) - 1e-12


@given(plan=transfer_plan())
@settings(max_examples=60, deadline=None)
def test_direction_busy_within_makespan(plan):
    """No NIC direction can be busy longer than the simulation ran."""
    num_nodes, transfers = plan
    env = Environment()
    fabric = Fabric(env, num_nodes, NetworkSpec(bandwidth_gbps=10,
                                                latency_us=0))
    launch(env, fabric, transfers)
    env.run()
    for nic in fabric.nics:
        assert nic.up_busy <= env.now + 1e-9
        assert nic.down_busy <= env.now + 1e-9


@given(sizes=st.lists(st.integers(1, 5_000_000), min_size=2, max_size=10))
@settings(max_examples=60, deadline=None)
def test_same_link_serializes_exactly(sizes):
    """Back-to-back same-link transfers take exactly the sum of their
    serialization times (plus one latency tail)."""
    env = Environment()
    spec = NetworkSpec(bandwidth_gbps=8, latency_us=0, efficiency=1.0)
    fabric = Fabric(env, 2, spec)

    for nbytes in sizes:
        send(fabric, 0, 1, nbytes)
    env.run()
    expected = sum(sizes) / spec.bytes_per_second
    assert env.now == pytest.approx(expected)


@given(n1=st.integers(1, 5_000_000), n2=st.integers(1, 5_000_000))
@settings(max_examples=60, deadline=None)
def test_disjoint_links_independent(n1, n2):
    env = Environment()
    spec = NetworkSpec(bandwidth_gbps=8, latency_us=0, efficiency=1.0)
    fabric = Fabric(env, 4, spec)
    send(fabric, 0, 1, n1)
    send(fabric, 2, 3, n2)
    env.run()
    assert env.now == pytest.approx(max(n1, n2) / spec.bytes_per_second)
