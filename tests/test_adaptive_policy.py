"""The adaptive control plane: determinism, replay, caching, API edges.

Contracts under test (see ``docs/ADAPTIVE.md``):

* **Determinism** -- a policy run is a pure function of (policy, model,
  cluster, iterations): re-running yields identical iteration times and
  an identical decision log, including under fault schedules (hypothesis
  properties).
* **Replay** -- a JSON-round-tripped :class:`DecisionLog` re-executes
  bit-identically with no controller, and refuses logs recorded under a
  different policy.
* **Graph-cache keying** -- flipping a single gradient's decision is a
  cache *miss* (the bugfix this PR pins down: decision inputs that change
  the plan's shape must invalidate the cached graph); identical decision
  maps stay warm.
* **Decisions pick the pipeline** -- a run that carries decisions runs
  AdaptivePass in SelectivePass's place whatever the strategy's flags,
  and the graph-cache key names the passes the build ran.
* **Policy knobs** -- every constructor rejects non-finite or
  out-of-range knobs with a typed :class:`ConfigError`.
* **The point of it all** -- on a bandwidth-constrained profile an
  adaptive policy strictly beats every fixed single-codec policy.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adaptive import (
    CompressionPolicy,
    DecisionLog,
    PolicyController,
    SyntheticGradientStream,
    parse_policy,
    run_policy,
)
from repro.casync.decisions import DecisionMap, GradientDecision
from repro.casync.lower import cache_key, default_graph_cache
from repro.casync.passes import PassContext, build_plan
from repro.cluster import ec2_v100_cluster
from repro.errors import ConfigError
from repro.faults import FaultSchedule, GpuSlowdown, LinkDegrade
from repro.models import GradientSpec, ModelSpec
from repro.strategies import get_strategy
from repro.training import simulate_iteration

MB = 1024 * 1024


def tiny_model() -> ModelSpec:
    grads = (GradientSpec("t.g0", 8 * MB), GradientSpec("t.g1", 2 * MB),
             GradientSpec("t.g2", 640 * 1024), GradientSpec("t.g3", 64 * 1024))
    return ModelSpec(name="adapt-tiny", gradients=grads, batch_size=8,
                     batch_unit="images", v100_iteration_s=0.004)


POLICY_SPECS = (
    "size:small=terngrad,large=dgc,threshold_bytes=1048576",
    "bandwidth:algorithm=dgc",
    "accordion:conservative=terngrad,aggressive=dgc",
)


# -- determinism and replay --------------------------------------------------


@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_policy_run_is_deterministic(spec):
    model, cluster = tiny_model(), ec2_v100_cluster(3)
    first = run_policy(model, cluster, spec, iterations=4)
    second = run_policy(model, cluster, spec, iterations=4)
    assert first.iteration_times == second.iteration_times
    assert first.log.to_json() == second.log.to_json()


@pytest.mark.parametrize("spec", POLICY_SPECS)
def test_replay_from_json_log_is_bit_identical(spec):
    model, cluster = tiny_model(), ec2_v100_cluster(3)
    live = run_policy(model, cluster, spec, iterations=4)
    log = DecisionLog.from_json(live.log.to_json())
    replayed = run_policy(model, cluster, spec, iterations=4, replay=log)
    assert replayed.iteration_times == live.iteration_times
    assert replayed.log.to_json() == live.log.to_json()


def test_replay_rejects_mismatched_policy():
    model, cluster = tiny_model(), ec2_v100_cluster(3)
    live = run_policy(model, cluster, "bandwidth:algorithm=dgc",
                      iterations=2)
    log = DecisionLog.from_json(live.log.to_json())
    with pytest.raises(ConfigError, match="different policy"):
        run_policy(model, cluster, "bandwidth:algorithm=terngrad",
                   iterations=2, replay=log)


def test_replay_rejects_uncovered_iteration():
    model, cluster = tiny_model(), ec2_v100_cluster(3)
    live = run_policy(model, cluster, "size:large=dgc", iterations=2)
    with pytest.raises(ConfigError, match="replay iteration"):
        run_policy(model, cluster, "size:large=dgc", iterations=3,
                   replay=live.log)


@st.composite
def benign_fault_schedules(draw):
    """Non-crashing schedules: degraded links and slowed GPUs."""
    events = []
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.floats(0.0, 2e-3, allow_nan=False))
        if draw(st.booleans()):
            src = draw(st.integers(0, 2))
            dst = draw(st.integers(0, 1))
            if dst >= src:
                dst += 1
            events.append(LinkDegrade(
                at=at, src=src, dst=dst,
                factor=draw(st.floats(1.0, 8.0))))
        else:
            events.append(GpuSlowdown(
                at=at, node=draw(st.integers(0, 2)),
                factor=draw(st.floats(1.0, 4.0)),
                duration=draw(st.floats(1e-4, 5e-3))))
    return FaultSchedule(tuple(events))


@settings(max_examples=10, deadline=None)
@given(schedule=benign_fault_schedules(),
       spec=st.sampled_from(POLICY_SPECS),
       seed=st.sampled_from(["adaptive", "alt-seed"]))
def test_determinism_and_replay_under_faults(schedule, spec, seed):
    """Same (policy, seed, fault schedule) -> identical runs; a recorded
    log replays them bit-identically."""
    policy = parse_policy(spec)
    policy = CompressionPolicy(kind=policy.kind, palette=policy.palette,
                               knobs=policy.knobs, seed=seed)
    model = tiny_model()
    cluster = ec2_v100_cluster(3).with_faults(schedule)
    first = run_policy(model, cluster, policy, iterations=3)
    second = run_policy(model, cluster, policy, iterations=3)
    assert first.iteration_times == second.iteration_times
    assert first.log.to_json() == second.log.to_json()
    log = DecisionLog.from_json(first.log.to_json())
    replayed = run_policy(model, cluster, policy, iterations=3, replay=log)
    assert replayed.iteration_times == first.iteration_times


def test_synthetic_stream_is_stateless_and_seeded():
    model = tiny_model()
    a = SyntheticGradientStream(model, seed="s1")
    b = SyntheticGradientStream(model, seed="s1")
    c = SyntheticGradientStream(model, seed="s2")
    # Seekable: iteration 7 straight away == iteration 7 after 0..6.
    for i in (0, 3, 7):
        assert a.signals(i) == b.signals(i)
    assert a.signals(7) == a.signals(7)
    assert a.signals(2) != c.signals(2)


# -- graph-cache keying ------------------------------------------------------


def _decisions(model, palette, flip=None):
    decisions = {}
    for grad in model.gradients:
        compress = grad.name != flip
        decisions[grad.name] = GradientDecision(
            compress=compress,
            algorithm="algorithm" if compress else None)
    return DecisionMap(decisions, palette)


def test_flipped_decision_is_a_graph_cache_miss():
    # A dedicated model name keeps this test's cache keys disjoint from
    # every other test that shares the process-wide default cache.
    model = ModelSpec(name="cache-probe", gradients=tiny_model().gradients,
                      batch_size=8, batch_unit="images",
                      v100_iteration_s=0.004)
    cluster = ec2_v100_cluster(3)
    policy = CompressionPolicy.bandwidth_adaptive(algorithm="dgc")
    palette = policy.instantiate_palette()
    strategy = get_strategy("casync-ps")
    cache = default_graph_cache()

    def run(decisions):
        before = (cache.hits, cache.misses)
        simulate_iteration(model, cluster, strategy,
                           algorithm=palette["algorithm"],
                           decisions=decisions)
        return cache.hits - before[0], cache.misses - before[1]

    base = _decisions(model, palette)
    hits, misses = run(base)
    assert misses >= 1 and hits == 0

    # Identical decision *content* (a fresh but equal map) stays warm.
    hits, misses = run(_decisions(model, palette))
    assert hits >= 1 and misses == 0

    # Flipping one gradient's decision changes the plan shape -> miss.
    hits, misses = run(_decisions(model, palette, flip="t.g1"))
    assert misses >= 1


def test_decision_map_content_tracks_decisions():
    policy = CompressionPolicy.bandwidth_adaptive(algorithm="dgc")
    palette = policy.instantiate_palette()
    model = tiny_model()
    base = _decisions(model, palette)
    same = _decisions(model, palette)
    flipped = _decisions(model, palette, flip="t.g0")
    assert base == same and base.content() == same.content()
    assert base != flipped and base.content() != flipped.content()


# -- decisions pick the pipeline --------------------------------------------


def _uniform_decisions(model, palette, compress):
    return DecisionMap(
        {g.name: GradientDecision(compress=compress,
                                  algorithm="onebit" if compress else None)
         for g in model.gradients}, palette)


def test_decisions_reach_the_plan_of_a_default_strategy():
    """A strategy built with no flags applies a run's decisions: they
    change the simulated time, AdaptivePass replaces SelectivePass, and
    the cache key names exactly the passes the build ran."""
    from repro.experiments.common import default_algorithm
    from repro.models import get_model
    model, cluster = get_model("resnet50"), ec2_v100_cluster(4)
    algorithm = default_algorithm("onebit")
    palette = {"onebit": algorithm}
    strategy = get_strategy("casync-ps")
    static = simulate_iteration(model, cluster, strategy,
                                algorithm=algorithm).iteration_time
    for compress in (False, True):
        decisions = _uniform_decisions(model, palette, compress)
        decided = simulate_iteration(model, cluster, strategy,
                                     algorithm=algorithm,
                                     decisions=decisions).iteration_time
        assert decided != static
        pctx = PassContext(num_nodes=cluster.num_nodes, cluster=cluster,
                           algorithm=algorithm, decisions=decisions)
        ran = build_plan(strategy, pctx, model).meta["passes"]
        assert ran[0] == "adaptive" and "selective" not in ran
        keyed = [name for name, _ in cache_key(strategy, model, pctx)[0][1]]
        assert keyed == [name for name in ran
                         if name not in ("expand", "verify")]


def test_adaptive_pass_requires_decisions():
    """Every gradient needs a decision: a gap is a typed error."""
    model = tiny_model()
    policy = CompressionPolicy.fixed("dgc")
    palette = {"algorithm": policy.fixed_algorithm().instantiate()}
    decisions = _decisions(model, palette)
    del decisions.decisions["t.g3"]
    with pytest.raises(ConfigError, match="decision"):
        simulate_iteration(model, ec2_v100_cluster(2),
                           get_strategy("casync-ps"),
                           algorithm=palette["algorithm"],
                           decisions=decisions)


# -- API surface -------------------------------------------------------------


def test_codec_entry_points_take_no_policy():
    """A policy enters through run_policy only."""
    import inspect
    from repro import TrainingJob, run_system
    for entry in (run_system, TrainingJob.__init__, TrainingJob.run):
        assert "policy" not in inspect.signature(entry).parameters


#: (kind, knob, value): each must be refused when the policy is built.
BAD_KNOBS = (
    ("accordion", "threshold", "nan"),
    ("accordion", "threshold", "inf"),
    ("accordion", "threshold", "0"),
    ("accordion", "smoothing", "nan"),
    ("accordion", "smoothing", "1"),
    ("bandwidth", "quantum_gbps", "inf"),
    ("bandwidth", "quantum_gbps", "nan"),
    ("bandwidth", "smoothing", "1.5"),
    ("bandwidth", "smoothing", "-0.1"),
    ("size", "threshold_bytes", "nan"),
    ("size", "threshold_bytes", "-1"),
)
CONSTRUCTORS = {"accordion": CompressionPolicy.accordion,
                "bandwidth": CompressionPolicy.bandwidth_adaptive,
                "size": CompressionPolicy.size_adaptive}


@pytest.mark.parametrize("kind,knob,value", BAD_KNOBS,
                         ids=[f"{k}:{n}={v}" for k, n, v in BAD_KNOBS])
def test_policy_constructors_reject_bad_knobs(kind, knob, value):
    with pytest.raises(ConfigError, match=knob):
        parse_policy(f"{kind}:{knob}={value}")
    with pytest.raises(ConfigError, match=knob):
        CONSTRUCTORS[kind](**{knob: float(value)})


def test_parse_policy_rejects_unknown_knob():
    with pytest.raises(ConfigError, match="threshold"):
        parse_policy("accordion:treshold=0.5")


def test_run_policy_rejects_non_casync_strategy():
    with pytest.raises(ConfigError, match="CaSync"):
        run_policy(tiny_model(), ec2_v100_cluster(2),
                   "bandwidth:algorithm=dgc", strategy="byteps")


def test_parse_policy_rejects_unknown_kind():
    with pytest.raises(ConfigError) as exc:
        parse_policy("psychic:algorithm=dgc")
    assert "accordion" in str(exc.value)


# -- the payoff --------------------------------------------------------------


def test_adaptive_beats_every_fixed_policy_under_congestion():
    """On a bandwidth-capped EC2 profile, re-planning under the measured
    link bandwidth strictly beats each fixed single-codec policy."""
    cluster = ec2_v100_cluster(4).with_bandwidth(8.0)
    adaptive = run_policy("vgg19", cluster, "bandwidth:algorithm=dgc",
                          iterations=3)
    for fixed_spec in ("fixed:algorithm=onebit", "fixed:algorithm=dgc",
                      "fixed:algorithm=terngrad"):
        fixed = run_policy("vgg19", cluster, fixed_spec, iterations=3)
        assert adaptive.mean_iteration_time < fixed.mean_iteration_time, (
            f"adaptive did not beat {fixed_spec}")


class _FakeResult:
    def __init__(self, measured_link_bandwidth):
        self.measured_link_bandwidth = measured_link_bandwidth


def test_bandwidth_controller_reacts_to_observations():
    """Observed goodput folds into later decisions' planning bandwidth
    (recorded per log entry) and can flip per-gradient verdicts."""
    model, cluster = tiny_model(), ec2_v100_cluster(3)
    policy = CompressionPolicy.bandwidth_adaptive(algorithm="dgc",
                                                  smoothing=0.0)
    controller = PolicyController(policy, model, cluster)
    first = controller.decide(0)
    spec_gbps = controller.log.entries[0]["bandwidth_gbps"]
    assert spec_gbps is not None and spec_gbps > 0

    # A congested link: goodput collapses to ~1/30 of spec.
    controller.observe(0, _FakeResult(cluster.network.bytes_per_second / 30))
    second = controller.decide(1)
    congested_gbps = controller.log.entries[1]["bandwidth_gbps"]
    assert congested_gbps < spec_gbps
    assert first is not None and second is not None
    # Under a starved link, compression pays for strictly more (or the
    # same) gradients, never fewer.
    def compressed(dmap):
        return {g.name for g in model.gradients
                if dmap.get(g.name).compress}
    assert compressed(second) >= compressed(first)
