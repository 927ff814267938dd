"""The heterogeneous cluster model: per-node hardware + per-link network.

Covers the refactor's contracts (see docs/CLUSTERS.md):

* **Homogeneous equivalence** (Hypothesis): a uniform cluster expressed
  through the per-node API (``ClusterSpec.heterogeneous`` with identical
  specs, ``StragglerProfile(fraction=0)`` forcing the per-link code
  path) must be *bit-identical* to the legacy single-``node`` form --
  same trace hashes and same planner verdicts across every system.
  ``is_homogeneous`` is deliberately not collapsed for identical specs,
  so this genuinely exercises the per-node branches.
* **Cache safety**: perturbing a single node's hardware or attaching a
  link profile changes ``hardware_token`` and therefore the plan-cache
  key -- the GraphCache can never serve a plan fitted to different
  hardware.
* **Per-link fabric semantics**: WAN members get asymmetric up/down
  capacity and their latency dominates the pair; profile draws are pure
  functions of (seed, num_nodes).
* **Bandwidth overrides**: straggler profiles rescale proportionally
  under ``with_bandwidth``; a WAN tier makes the override ambiguous and
  raises the typed ConfigError pointing at ``with_bandwidth_scale``.
* **Planner sensitivity**: the §3.3 verdicts actually flip between the
  homogeneous baseline and the wan-edge / straggler regimes -- the
  observable point of the whole refactor.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.casync import tasks
from repro.casync.lower import GraphCache, cache_key, lower_plan
from repro.casync.passes import PassContext, build_plan
from repro.casync.planner import CostModel
from repro.cluster import (
    ClusterSpec,
    NodeSpec,
    ec2_v100_cluster,
    ec2_v100_straggler_cluster,
    get_cluster,
    hetero_mixed_cluster,
    wan_edge_cluster,
)
from repro.cluster.spec import NVLINK
from repro.errors import ConfigError
from repro.experiments.common import SYSTEMS, default_algorithm
from repro.gpu import V100
from repro.models import GradientSpec, ModelSpec
from repro.net import Fabric, NetworkSpec, StragglerProfile, WanTier
from repro.sim import Environment
from repro.strategies import get_strategy
from repro.training import make_plans
from repro.training.trace import trace_hash, trace_iteration
from tests.fabric_send import send

KB = 1024
MB = 1024 * 1024

ALGORITHMS = ("onebit", "dgc", "tbq")


def tiny_model() -> ModelSpec:
    """Gradient sizes straddling the compression / bulk cutoffs."""
    sizes = (8 * MB, 2 * MB, 900 * KB, 64 * KB, 16 * KB)
    grads = tuple(GradientSpec(f"het.g{i}", s)
                  for i, s in enumerate(sizes))
    return ModelSpec(name="hetero-tiny", gradients=grads, batch_size=8,
                     batch_unit="images", v100_iteration_s=0.012)


MODEL = tiny_model()


def per_node_twin(cluster: ClusterSpec) -> ClusterSpec:
    """The same uniform cluster, forced onto every per-node code path:
    explicit node_specs plus a no-op straggler profile (fraction=0 keeps
    every multiplier at 1.0 but makes the network non-uniform)."""
    network = replace(cluster.network,
                      straggler=StragglerProfile(fraction=0.0))
    twin = ClusterSpec.heterogeneous(
        name=cluster.name, nodes=cluster.nodes, network=network)
    assert not twin.is_homogeneous and not twin.network.is_uniform
    return twin


def run_case(cluster: ClusterSpec, system: str, algo):
    """(trace hash, planner verdicts) for one system on one cluster."""
    config = SYSTEMS[system]
    algorithm = default_algorithm(algo) if config.compression else None
    plans = None
    verdicts = None
    if config.planner_kind is not None:
        plans = make_plans(MODEL, cluster, algorithm, config.planner_kind)
        verdicts = {name: (p.compress, p.partitions)
                    for name, p in sorted(plans.items())}
    trace = trace_iteration(
        MODEL, cluster, get_strategy(config.strategy),
        algorithm=algorithm, plans=plans)
    return trace_hash(trace), verdicts


# ---------------------------------------------------------------------------
# Homogeneous equivalence: per-node API == legacy form, bit for bit


@st.composite
def equivalence_case(draw):
    num_nodes = draw(st.integers(2, 4))
    system = draw(st.sampled_from(sorted(SYSTEMS)))
    algo = (draw(st.sampled_from(ALGORITHMS))
            if SYSTEMS[system].compression else None)
    return num_nodes, system, algo


@given(case=equivalence_case())
@settings(max_examples=25, deadline=None)
def test_per_node_form_bit_identical_to_legacy(case):
    num_nodes, system, algo = case
    legacy = ec2_v100_cluster(num_nodes)
    twin = per_node_twin(legacy)
    legacy_hash, legacy_verdicts = run_case(legacy, system, algo)
    twin_hash, twin_verdicts = run_case(twin, system, algo)
    assert twin_hash == legacy_hash, (
        f"{system}/{algo}/n{num_nodes}: per-node cluster form changed "
        f"the executed timeline")
    assert twin_verdicts == legacy_verdicts


def test_every_system_equivalent_at_fixed_scale():
    """Deterministic sweep: all systems, one algorithm, n=4."""
    legacy = ec2_v100_cluster(4)
    twin = per_node_twin(legacy)
    for system in sorted(SYSTEMS):
        algo = "onebit" if SYSTEMS[system].compression else None
        assert run_case(twin, system, algo) == \
            run_case(legacy, system, algo), system


# ---------------------------------------------------------------------------
# Cache identity: hardware perturbations can never share a plan


def _key_for(cluster: ClusterSpec):
    strategy = get_strategy("casync-ring")
    pctx = PassContext(num_nodes=cluster.num_nodes, cluster=cluster)
    return cache_key(strategy, MODEL, pctx)


def test_single_node_perturbation_is_a_cache_miss():
    base = ec2_v100_cluster(4)
    twin = ClusterSpec.heterogeneous(base.name, base.nodes, base.network)
    specs = list(base.nodes)
    specs[2] = replace(specs[2],
                       cpu_agg_bytes_per_s=specs[2].cpu_agg_bytes_per_s / 2)
    mutant = ClusterSpec.heterogeneous(base.name, specs, base.network)

    assert twin.hardware_token() != mutant.hardware_token()
    cache = GraphCache()
    cache.put(_key_for(twin), object())
    assert cache.get(_key_for(mutant)) is None
    assert cache.misses == 1
    assert cache.get(_key_for(twin)) is not None


def test_link_profiles_change_hardware_token():
    base = ec2_v100_cluster(4)
    straggler = ec2_v100_straggler_cluster(4)
    wan = wan_edge_cluster(4)
    tokens = {base.hardware_token(), straggler.hardware_token(),
              wan.hardware_token()}
    assert len(tokens) == 3
    reseeded = ec2_v100_straggler_cluster(4, seed=1)
    assert reseeded.hardware_token() != straggler.hardware_token()


# ---------------------------------------------------------------------------
# NodeSpec / ClusterSpec guards


def test_nodespec_rejects_nonpositive_cpu_agg_rate():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="cpu_agg_bytes_per_s"):
            NodeSpec(gpus_per_node=8, gpu=V100, interconnect=NVLINK,
                     cpu_agg_bytes_per_s=bad)


def test_node_specs_length_must_match():
    base = ec2_v100_cluster(4)
    with pytest.raises(ValueError, match="node_specs"):
        ClusterSpec(name="bad", num_nodes=4, node=base.node,
                    network=base.network, node_specs=(base.node,) * 3)


def test_with_nodes_refuses_to_rescale_per_node_cluster():
    mixed = hetero_mixed_cluster(8)
    with pytest.raises(ConfigError):
        mixed.with_nodes(16)
    assert mixed.with_nodes(8).num_nodes == 8  # no-op rescale is fine


# ---------------------------------------------------------------------------
# Bandwidth overrides


def test_with_bandwidth_scales_straggler_links_proportionally():
    cluster = ec2_v100_straggler_cluster(8, bandwidth_gbps=100.0)
    halved = cluster.with_bandwidth(50.0)
    for before, after in zip(cluster.network.links(8),
                             halved.network.links(8)):
        assert after.up_bytes_per_s == pytest.approx(
            before.up_bytes_per_s * 0.5)
        assert after.down_bytes_per_s == pytest.approx(
            before.down_bytes_per_s * 0.5)
        assert after.latency_s == before.latency_s


def test_with_bandwidth_on_wan_tier_raises_typed_error():
    cluster = wan_edge_cluster(8)
    with pytest.raises(ConfigError) as excinfo:
        cluster.with_bandwidth(50.0)
    assert "with_bandwidth_scale" in str(excinfo.value)


def test_with_bandwidth_scale_moves_every_link():
    cluster = wan_edge_cluster(8)
    doubled = cluster.with_bandwidth_scale(2.0)
    for before, after in zip(cluster.network.links(8),
                             doubled.network.links(8)):
        assert after.up_bytes_per_s == pytest.approx(
            before.up_bytes_per_s * 2)
        assert after.down_bytes_per_s == pytest.approx(
            before.down_bytes_per_s * 2)
        assert after.latency_s == before.latency_s
    with pytest.raises(ValueError):
        cluster.with_bandwidth_scale(0.0)


# ---------------------------------------------------------------------------
# Per-link fabric semantics


def test_profile_draws_are_pure_functions():
    prof = StragglerProfile(fraction=0.125, severity=4.0, seed=7)
    assert prof.multipliers(16) == prof.multipliers(16)
    assert prof.multipliers(16) == StragglerProfile(
        fraction=0.125, severity=4.0, seed=7).multipliers(16)
    mults = prof.multipliers(16)
    assert sum(1 for m in mults if m != 1.0) == prof.count(16) == 2
    assert all(m == 1.0 or m == pytest.approx(0.25) for m in mults)

    tier = WanTier(fraction=0.25, seed=7)
    assert tier.members(16) == tier.members(16)
    members = tier.members(16)
    assert members == tuple(sorted(members))
    assert len(members) == 4
    assert all(0 <= m < 16 for m in members)


def test_wan_links_are_asymmetric_and_latency_dominant():
    cluster = wan_edge_cluster(8, wan_up_gbps=1.0, wan_down_gbps=4.0)
    net = cluster.network
    links = net.links(8)
    members = set(net.wan.members(8))
    core = next(i for i in range(8) if i not in members)
    wan = next(iter(members))
    assert links[wan].up_bytes_per_s < links[wan].down_bytes_per_s
    assert links[wan].up_bytes_per_s < links[core].up_bytes_per_s
    assert links[wan].latency_s == pytest.approx(20e-3)

    nbytes = 4 * MB

    def timed(src, dst):
        env = Environment()
        send(Fabric(env, 8, net), src, dst, nbytes)
        env.run()
        return env.now

    out_of_wan = timed(wan, core)
    into_wan = timed(core, wan)
    links = net.links(8)
    # Uncontended delivery = slower-direction serialization + pair latency.
    assert out_of_wan == pytest.approx(
        max(nbytes / links[wan].up_bytes_per_s,
            nbytes / links[core].down_bytes_per_s)
        + max(links[wan].latency_s, links[core].latency_s))
    # The narrow 1 Gbps uplink makes leaving the WAN node far slower than
    # entering it over the 4 Gbps downlink.
    assert out_of_wan > 2 * into_wan


def test_bulk_transfer_matches_per_message_on_hetero_links():
    """The vectorized bulk path must price per-link capacity identically
    to one-at-a-time transfers (empty fabric, disjoint pairs)."""
    net = replace(
        wan_edge_cluster(8).network,
        straggler=StragglerProfile(fraction=0.25, severity=3.0, seed=1))
    transfers = [(0, 1, 2 * MB), (2, 3, 5 * MB), (4, 5, 640 * KB),
                 (6, 7, 3 * MB)]

    env = Environment()
    fabric = Fabric(env, 8, net)
    log = []
    fabric.bulk_transfer(transfers, handler=lambda i: log.append(
        (i, env.now)))
    env.run()

    for index, (src, dst, nbytes) in enumerate(transfers):
        env2 = Environment()
        send(Fabric(env2, 8, net), src, dst, nbytes)
        env2.run()
        delivered = dict(log)[index]
        assert delivered == env2.now, (index, src, dst)


# ---------------------------------------------------------------------------
# Planner sensitivity: heterogeneity actually changes decisions


def _verdicts(cluster, algo="dgc"):
    plans = make_plans(MODEL, cluster, default_algorithm(algo), "ring")
    return {name: (p.compress, p.partitions)
            for name, p in sorted(plans.items())}


def test_verdicts_flip_on_heterogeneous_regimes():
    base = _verdicts(get_cluster("ec2-v100", num_nodes=8))
    wan = _verdicts(get_cluster("wan-edge", num_nodes=8))
    straggler = _verdicts(get_cluster("ec2-v100-straggler", num_nodes=8))
    assert wan != base, "WAN tier left every planner verdict unchanged"
    assert straggler != base, \
        "straggler tail left every planner verdict unchanged"


def test_cost_model_plans_against_bottleneck():
    base = ec2_v100_cluster(8)
    wan = wan_edge_cluster(8)
    algo = default_algorithm("dgc")
    t_base = CostModel(base, algo, strategy="ring").t_send(4 * MB)
    t_wan = CostModel(wan, algo, strategy="ring").t_send(4 * MB)
    assert t_wan > t_base * 10  # 1 Gbps uplink vs 65 Gbps effective core

    # Per-node probes: the WAN member's send cost towers over a core
    # node's, and both are self-consistent with the link view.
    cost = CostModel(wan, algo, strategy="ring")
    members = set(wan.network.wan.members(8))
    core = next(i for i in range(8) if i not in members)
    member = next(iter(members))
    assert cost.t_send_at(member, 4 * MB) > cost.t_send_at(core, 4 * MB)


def test_mixed_fleet_encode_cost_is_slowest_gpu():
    mixed = hetero_mixed_cluster(8)
    algo = default_algorithm("dgc")
    cost = CostModel(mixed, algo, strategy="ring")
    per_node = [cost.t_enc_at(i, 4 * MB) for i in range(8)]
    assert cost.t_enc(4 * MB) == pytest.approx(max(per_node))
    assert len(set(per_node)) == 2  # two GPU generations


def test_lowering_costs_each_op_on_its_own_nodes_gpu():
    mixed = hetero_mixed_cluster(8)
    algo = default_algorithm("dgc")
    pctx = PassContext(num_nodes=8, cluster=mixed, algorithm=algo,
                       plans=make_plans(MODEL, mixed, algo, "ps_colocated"))
    plan = build_plan(get_strategy("casync-ps"), pctx, MODEL)
    counter = repr(tasks._task_counter)
    recipe = lower_plan(plan, pctx)
    assert repr(tasks._task_counter) == counter  # no runtime Task built

    durations = {}
    encodes = [s for s in recipe.specs if s.kind == "encode"]
    assert encodes
    for spec in encodes:
        gpu = mixed.node_at(spec.node).gpu
        assert spec.duration == algo.encode_time(spec.nbytes, gpu)
        assert spec.launch_overhead == (gpu.kernel_launch_us * 1e-6
                                        * algo.profile.encode_kernels)
        durations.setdefault(spec.nbytes, set()).add(spec.duration)
    assert any(len(seen) >= 2 for seen in durations.values())
