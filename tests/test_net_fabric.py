"""Unit tests for the network fabric model."""

import pytest

from repro.net import Fabric, NetworkSpec
from repro.sim import Environment
from tests.fabric_send import send


def make_fabric(num_nodes=4, gbps=100.0, latency_us=0.0, efficiency=1.0):
    env = Environment()
    spec = NetworkSpec(bandwidth_gbps=gbps, latency_us=latency_us,
                       efficiency=efficiency)
    return env, Fabric(env, num_nodes, spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(bandwidth_gbps=0)
    with pytest.raises(ValueError):
        NetworkSpec(bandwidth_gbps=10, latency_us=-1)
    with pytest.raises(ValueError):
        NetworkSpec(bandwidth_gbps=10, efficiency=0)
    with pytest.raises(ValueError):
        NetworkSpec(bandwidth_gbps=10, efficiency=1.5)


def test_transfer_time_formula():
    spec = NetworkSpec(bandwidth_gbps=80.0, latency_us=10.0, efficiency=1.0)
    # 80 Gbps = 10 GB/s; 1e9 bytes take 0.1 s plus 10 us latency.
    assert spec.transfer_time(1e9) == pytest.approx(0.1 + 10e-6)


def test_single_transfer_duration():
    env, fabric = make_fabric(gbps=8.0)  # 1 GB/s
    send(fabric, 0, 1, 1e9)
    env.run()
    assert env.now == pytest.approx(1.0)


def test_loopback_is_free():
    env, fabric = make_fabric()
    send(fabric, 2, 2, 1e12)
    env.run()
    assert env.now == 0.0
    assert fabric.stats.messages == 0


def test_uplink_contention_serializes():
    """Two sends from the same source to different destinations serialize."""
    env, fabric = make_fabric(gbps=8.0)
    done = []

    def sender(env, dst):
        yield send(fabric, 0, dst, 1e9)
        done.append((dst, env.now))

    env.process(sender(env, 1))
    env.process(sender(env, 2))
    env.run()
    assert done == [(1, pytest.approx(1.0)), (2, pytest.approx(2.0))]


def test_downlink_contention_serializes():
    env, fabric = make_fabric(gbps=8.0)
    done = []

    def sender(env, src):
        yield send(fabric, src, 3, 1e9)
        done.append((src, env.now))

    env.process(sender(env, 0))
    env.process(sender(env, 1))
    env.run()
    assert [t for _, t in done] == [pytest.approx(1.0), pytest.approx(2.0)]


def test_disjoint_pairs_run_in_parallel():
    env, fabric = make_fabric(gbps=8.0)
    done = []

    def sender(env, src, dst):
        yield send(fabric, src, dst, 1e9)
        done.append(env.now)

    env.process(sender(env, 0, 1))
    env.process(sender(env, 2, 3))
    env.run()
    assert done == [pytest.approx(1.0), pytest.approx(1.0)]


def test_full_duplex_send_and_receive_overlap():
    """A node can send and receive at full rate simultaneously (ring step)."""
    env, fabric = make_fabric(gbps=8.0)
    done = []

    def sender(env, src, dst):
        yield send(fabric, src, dst, 1e9)
        done.append(env.now)

    env.process(sender(env, 0, 1))
    env.process(sender(env, 1, 0))
    env.run()
    assert done == [pytest.approx(1.0), pytest.approx(1.0)]


def test_latency_does_not_occupy_nic():
    """Back-to-back messages pipeline: latency overlaps next serialization."""
    env, fabric = make_fabric(gbps=8.0, latency_us=1e5)  # 0.1 s latency
    done = []

    def sender(env, tag):
        yield send(fabric, 0, 1, 1e9)
        done.append((tag, env.now))

    env.process(sender(env, "a"))
    env.process(sender(env, "b"))
    env.run()
    # serialize a: 0..1, arrive 1.1; serialize b: 1..2, arrive 2.1
    assert done == [("a", pytest.approx(1.1)), ("b", pytest.approx(2.1))]


def test_stats_accounting():
    env, fabric = make_fabric(gbps=8.0)
    send(fabric, 0, 1, 1000)
    send(fabric, 1, 2, 500)
    env.run()
    assert fabric.stats.bytes_sent == 1500
    assert fabric.stats.messages == 2
    assert fabric.stats.per_node_bytes == {0: 1000, 1: 500}


def test_invalid_nodes_rejected():
    env, fabric = make_fabric(num_nodes=2)
    with pytest.raises(ValueError):
        fabric.issue(0, 5, 10, lambda token: None, None)
    with pytest.raises(ValueError):
        fabric.issue(-1, 0, 10, lambda token: None, None)


def test_negative_size_rejected():
    env, fabric = make_fabric()
    with pytest.raises(ValueError):
        fabric.issue(0, 1, -5, lambda token: None, None)


def test_utilization():
    env, fabric = make_fabric(num_nodes=2, gbps=8.0)
    send(fabric, 0, 1, 1e9)
    env.run()
    # Sender uplink + receiver downlink: 2 of 4 directions busy the whole second.
    assert fabric.utilization() == pytest.approx(0.5, rel=0.05)
