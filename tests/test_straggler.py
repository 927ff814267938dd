"""Tests for straggler injection: BSP's barrier sensitivity (§2.1)."""

import pytest

from repro.algorithms import OneBit
from repro.cluster import ec2_v100_cluster
from repro.faults import static_membership
from repro.models import GradientSpec, ModelSpec
from repro.strategies import CaSyncPS, RingAllreduce
from repro.training import run_elastic, simulate_iteration
from repro.training.trace import trace_iteration

MB = 1024 * 1024


def model():
    grads = (GradientSpec("s.g0", 32 * MB), GradientSpec("s.g1", 8 * MB))
    return ModelSpec(name="s", gradients=grads, batch_size=8,
                     batch_unit="images", v100_iteration_s=0.02)


def test_straggler_validation():
    with pytest.raises(ValueError):
        simulate_iteration(model(), ec2_v100_cluster(2), RingAllreduce(),
                           straggler=(5, 2.0))
    with pytest.raises(ValueError):
        simulate_iteration(model(), ec2_v100_cluster(2), RingAllreduce(),
                           straggler=(0, 0.5))


@pytest.mark.parametrize("factor", [float("nan"), float("inf")])
def test_straggler_rejects_non_finite_factor(factor):
    """A NaN or infinite slowdown is refused before the round starts,
    with an error that names the argument."""
    with pytest.raises(ValueError, match="straggler"):
        simulate_iteration(model(), ec2_v100_cluster(2), RingAllreduce(),
                           straggler=(0, factor))


def _elastic_round(model, cluster, strategy, **timers):
    run_elastic(model, cluster, strategy,
                static_membership(cluster.num_nodes), epochs=1, **timers)


@pytest.mark.parametrize("value", [-1.0, float("nan")])
@pytest.mark.parametrize("name", ["sync_deadline_s", "heartbeat_timeout_s"])
@pytest.mark.parametrize("run", [simulate_iteration, trace_iteration,
                                 _elastic_round],
                         ids=["simulate", "trace", "elastic"])
def test_round_rejects_bad_timers(run, name, value):
    """A negative or NaN round timer is refused before the round starts,
    with an error that names the argument -- not mid-round, from inside
    the agenda (for the heartbeat, only once a node crashed)."""
    with pytest.raises(ValueError, match=name):
        run(model(), ec2_v100_cluster(2), RingAllreduce(), **{name: value})


def test_one_slow_node_stalls_bsp():
    """A 2x straggler roughly doubles everyone's iteration (the §2.1
    'distributed barrier')."""
    cluster = ec2_v100_cluster(4)
    clean = simulate_iteration(model(), cluster, RingAllreduce())
    slow = simulate_iteration(model(), cluster, RingAllreduce(),
                              straggler=(2, 2.0))
    assert slow.iteration_time > clean.iteration_time * 1.6


def test_straggler_factor_one_is_noop():
    cluster = ec2_v100_cluster(3)
    clean = simulate_iteration(model(), cluster, RingAllreduce())
    same = simulate_iteration(model(), cluster, RingAllreduce(),
                              straggler=(1, 1.0))
    assert same.iteration_time == pytest.approx(clean.iteration_time)


def test_compression_does_not_mask_stragglers():
    """HiPress removes the communication bottleneck, not the compute
    barrier: with a straggler, compressed and raw BSP converge to the
    straggler's pace."""
    cluster = ec2_v100_cluster(4)
    algo = OneBit()
    compressed = simulate_iteration(model(), cluster, CaSyncPS(),
                                    algorithm=algo, straggler=(0, 3.0))
    raw = simulate_iteration(model(), cluster, RingAllreduce(),
                             straggler=(0, 3.0))
    # Both are dominated by the straggler's tripled compute.
    floor = model().v100_iteration_s * 3.0
    assert compressed.iteration_time >= floor
    assert raw.iteration_time >= floor
    assert compressed.iteration_time <= raw.iteration_time * 1.05
