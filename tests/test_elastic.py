"""Elastic membership: schedules, roster sub-clusters, caching, advisor.

Unit and integration coverage for the elastic-membership subsystem
(``docs/ELASTIC.md``):

* membership-schedule validation, JSON round-trips, and the typed
  errors infeasible rosters raise;
* :meth:`ClusterSpec.subset` -- surviving nodes keep their *resolved*
  per-link hardware identity, and the full-roster subset is the
  cluster itself (the golden no-op);
* the ``membership`` directive pass and roster-bound strategies: a
  static roster is a provable no-op on the executed timeline, while the
  graph-cache key splits per (roster, epoch);
* the cache-mutant contract: flipping one join/leave event misses both
  the graph cache and the result cache; an identical schedule replays
  warm with zero recomputation;
* the advisor: verdicts reproduced entirely from a warm result cache
  (``executed == 0``), matching the artifact's win/loss column.
"""

import pytest

from repro.casync.lower import GraphCache, cache_key, lower_plan
from repro.casync.passes import MembershipPass, PassContext, build_plan
from repro.cluster import ec2_v100_cluster, get_cluster
from repro.errors import ConfigError
from repro.experiments import elastic as elastic_artifact
from repro.experiments.runner import (ExperimentRunner, ResultCache,
                                      artifact_plans, job_digest)
from repro.faults import (MembershipSchedule, NodeCrash, NodeJoin, NodeLeave,
                          Roster, random_membership_schedule,
                          static_membership)
from repro.faults.elastic import MIN_ROSTER
from repro.models import GradientSpec, ModelSpec
from repro.sim import Environment
from repro.strategies import MembershipBound, bind_roster, get_strategy
from repro.training import epoch_inputs, run_elastic
from repro.training.elastic import elastic_trace_hashes
from repro.training.trace import trace_hash, trace_iteration

NUM_NODES = 6


def tiny_model():
    grads = (GradientSpec("el.g0", 512 * 1024),
             GradientSpec("el.g1", 96 * 1024))
    return ModelSpec(name="el-tiny", gradients=grads, batch_size=4,
                     batch_unit="images", v100_iteration_s=0.002)


# ---------------------------------------------------------------------------
# Membership schedules


class TestMembershipSchedule:
    def test_static_schedule_is_static(self):
        sched = static_membership(NUM_NODES)
        assert sched.is_static
        assert sched.roster_entering(0).nodes == tuple(range(NUM_NODES))
        assert sched.roster_entering(7).nodes == tuple(range(NUM_NODES))
        assert sched.departures_during(3) == ()

    def test_boundary_leave_and_rejoin(self):
        sched = MembershipSchedule(
            num_nodes=4,
            events=(NodeLeave(at=1.0, node=3), NodeJoin(at=2.0, node=3)))
        assert sched.roster_entering(0).nodes == (0, 1, 2, 3)
        assert sched.roster_entering(1).nodes == (0, 1, 2)
        assert sched.roster_entering(2).nodes == (0, 1, 2, 3)

    def test_fractional_leave_is_a_mid_epoch_failstop(self):
        sched = MembershipSchedule(num_nodes=4,
                                   events=(NodeLeave(at=1.25, node=2),))
        # still enrolled entering epoch 1, crashes mid-epoch, gone at 2
        assert 2 in sched.roster_entering(1).nodes
        assert sched.departures_during(1) == ((2, 0.25),)
        assert 2 not in sched.roster_entering(2).nodes

    def test_leave_of_unenrolled_node_is_typed(self):
        with pytest.raises(ConfigError) as err:
            MembershipSchedule(num_nodes=4,
                               events=(NodeLeave(at=1.0, node=9),))
        assert err.value.kind == "membership-event"

    def test_join_of_enrolled_node_is_typed(self):
        with pytest.raises(ConfigError) as err:
            MembershipSchedule(num_nodes=4,
                               events=(NodeJoin(at=1.0, node=2),))
        assert err.value.kind == "membership-event"

    def test_roster_below_minimum_is_typed(self):
        with pytest.raises(ConfigError) as err:
            MembershipSchedule(
                num_nodes=3,
                events=(NodeLeave(at=1.0, node=1), NodeLeave(at=1.0, node=2)))
        assert err.value.kind == "membership-event"

    def test_json_round_trip(self):
        sched = random_membership_schedule(seed=7, num_nodes=8, epochs=4,
                                           churn_rate=2.0)
        clone = MembershipSchedule.from_json_obj(sched.to_json_obj())
        assert clone == sched
        assert clone.token() == sched.token()

    def test_seeded_generation_is_deterministic(self):
        a = random_membership_schedule(seed=11, num_nodes=8, epochs=4,
                                       churn_rate=2.0)
        b = random_membership_schedule(seed=11, num_nodes=8, epochs=4,
                                       churn_rate=2.0)
        assert a == b
        assert a != random_membership_schedule(seed=12, num_nodes=8,
                                               epochs=4, churn_rate=2.0)

    def test_roster_token_is_content_keyed(self):
        assert Roster((0, 1, 2)).token() == Roster((0, 1, 2)).token()
        assert Roster((0, 1, 2)).token() != Roster((0, 1, 3)).token()
        assert Roster((0, 1)).local_rank(1) == 1
        assert Roster((0, 2, 5)).global_id(2) == 5


# ---------------------------------------------------------------------------
# Sub-clusters keep link identity


class TestClusterSubset:
    def test_full_roster_subset_is_identity(self):
        cluster = ec2_v100_cluster(4)
        assert cluster.subset(range(4)) is cluster

    def test_wan_subset_preserves_resolved_links(self):
        cluster = get_cluster("wan-edge", num_nodes=8)
        full_links = cluster.network.links(8)
        roster = (0, 2, 5, 6, 7)
        sub = cluster.subset(roster)
        assert sub.num_nodes == len(roster)
        assert sub.network.links(len(roster)) == tuple(
            full_links[i] for i in roster)

    def test_mixed_subset_gathers_node_specs(self):
        cluster = get_cluster("hetero-mixed", num_nodes=8)
        roster = (1, 3, 4)
        sub = cluster.subset(roster)
        for rank, global_id in enumerate(roster):
            assert sub.node_at(rank).gpu == cluster.node_at(global_id).gpu

    def test_invalid_roster_is_typed(self):
        cluster = ec2_v100_cluster(4)
        for bad in ((2, 1), (0, 0, 1), (0, 9)):
            with pytest.raises(ConfigError) as err:
                cluster.subset(bad)
            assert err.value.kind == "roster"

    def test_pinned_cluster_rejects_rescale_and_bandwidth(self):
        sub = get_cluster("wan-edge", num_nodes=8).subset((0, 1, 4))
        with pytest.raises(ConfigError) as err:
            sub.with_nodes(16)
        assert err.value.kind == "cluster-rescale"
        with pytest.raises(ConfigError) as err:
            sub.with_bandwidth(1e9)
        assert err.value.kind == "bandwidth-override"


# ---------------------------------------------------------------------------
# MembershipPass + bound strategies


class TestMembershipPass:
    def test_stamps_roster_provenance(self):
        model = tiny_model()
        cluster = ec2_v100_cluster(3)
        strategy = bind_roster(get_strategy("ring"), (0, 2, 5), epoch=4)
        pctx = PassContext(num_nodes=3, cluster=cluster)
        plan = build_plan(strategy, pctx, model)
        assert plan.meta["roster"] == "0,2,5"
        assert plan.meta["epoch"] == 4

    def test_stale_plan_across_roster_change_is_typed(self):
        model = tiny_model()
        cluster = ec2_v100_cluster(3)
        strategy = bind_roster(get_strategy("ring"), (0, 1, 2, 3))
        pctx = PassContext(num_nodes=3, cluster=cluster)
        with pytest.raises(ConfigError) as err:
            build_plan(strategy, pctx, model)
        assert err.value.kind == "roster"

    def test_unsorted_roster_is_typed(self):
        with pytest.raises(ConfigError):
            MembershipPass(roster=(2, 1))

    def test_static_binding_is_a_timeline_noop(self):
        model = tiny_model()
        cluster = ec2_v100_cluster(4)
        plain = get_strategy("ring")
        bound = bind_roster(get_strategy("ring"), tuple(range(4)))
        assert isinstance(bound, MembershipBound)
        assert trace_hash(trace_iteration(model, cluster, plain)) == \
            trace_hash(trace_iteration(model, cluster, bound))

    def test_graph_cache_key_splits_per_roster_and_epoch(self):
        model = tiny_model()
        cluster = ec2_v100_cluster(3)
        pctx = PassContext(num_nodes=3, cluster=cluster)
        roster = (0, 1, 2)

        def key(strategy):
            return cache_key(strategy, model, pctx)

        e0 = key(bind_roster(get_strategy("ring"), roster, epoch=0))
        e0_again = key(bind_roster(get_strategy("ring"), roster, epoch=0))
        e1 = key(bind_roster(get_strategy("ring"), roster, epoch=1))
        other = key(bind_roster(get_strategy("ring"), (0, 1, 4), epoch=0))
        plain = key(get_strategy("ring"))
        assert e0 == e0_again
        assert e0 != e1
        assert e0 != other
        assert e0 != plain

    def test_graph_cache_mutant_one_event_is_a_miss(self):
        """Flipping one membership event misses; a replay hits warm."""
        model = tiny_model()
        base = MembershipSchedule(
            num_nodes=4, events=(NodeLeave(at=1.0, node=3),))
        mutant = MembershipSchedule(
            num_nodes=4, events=(NodeLeave(at=1.0, node=2),))
        cluster = ec2_v100_cluster(4)
        cache = GraphCache(maxsize=32)

        def build(schedule, epoch):
            roster, sub, _ = epoch_inputs(model, cluster, schedule, epoch)
            strategy = bind_roster(get_strategy("ring"), roster.nodes,
                                   epoch=epoch)
            pctx = PassContext(num_nodes=sub.num_nodes, cluster=sub)
            key = cache_key(strategy, model, pctx)
            if cache.get(key) is None:
                plan = build_plan(strategy, pctx, model)
                cache.put(key, lower_plan(plan, pctx))

        build(base, 1)
        assert (cache.hits, cache.misses) == (0, 1)
        build(base, 1)           # identical schedule: warm replay
        assert (cache.hits, cache.misses) == (1, 1)
        build(mutant, 1)         # one flipped leave event: guaranteed miss
        assert (cache.hits, cache.misses) == (1, 2)


# ---------------------------------------------------------------------------
# Golden no-op: static membership over every golden SYSTEMS config


def test_static_membership_matches_all_golden_hashes():
    """Every golden config, run roster-bound with a static membership
    schedule, reproduces the PR-9 trace hash bit for bit."""
    from tests.test_graph_equivalence import CASES, _load_golden

    golden = _load_golden()
    original_get = get_strategy

    # Re-run the exact golden case runners with every strategy lookup
    # transparently roster-bound to the full static fleet.
    import tests.test_graph_equivalence as geq

    def binding_get(name, **kwargs):
        strategy = original_get(name, **kwargs)
        return bind_roster(strategy, tuple(range(4)), epoch=0)

    geq.get_strategy = binding_get
    try:
        for case in sorted(golden):
            assert CASES[case]() == golden[case], (
                f"{case}: static membership binding changed the timeline")
    finally:
        geq.get_strategy = original_get


# ---------------------------------------------------------------------------
# Elastic training loop


class TestRunElastic:
    def test_replay_is_bit_identical(self):
        model = tiny_model()
        cluster = ec2_v100_cluster(NUM_NODES)
        sched = random_membership_schedule(seed=31, num_nodes=NUM_NODES,
                                           epochs=4, churn_rate=2.0)

        def hashes():
            return elastic_trace_hashes(model, cluster,
                                        get_strategy("ring"), sched)

        assert hashes() == hashes()

    def test_static_elastic_matches_plain_tracer(self):
        model = tiny_model()
        cluster = ec2_v100_cluster(4)
        static = elastic_trace_hashes(model, cluster, get_strategy("ring"),
                                      static_membership(4), epochs=1)
        plain = trace_hash(trace_iteration(
            model, cluster, bind_roster(get_strategy("ring"),
                                        tuple(range(4)), epoch=0)))
        assert static == (plain,)

    def test_rosters_degrade_and_recover(self):
        model = tiny_model()
        cluster = ec2_v100_cluster(4)
        sched = MembershipSchedule(
            num_nodes=4,
            events=(NodeLeave(at=1.0, node=3), NodeJoin(at=3.0, node=3)))
        report = run_elastic(model, cluster, get_strategy("ring"), sched,
                             epochs=4)
        sizes = [len(e.roster) for e in report.epochs]
        assert sizes == [4, 3, 3, 4]
        assert report.completed_epochs == 4
        assert report.samples > 0 and report.goodput > 0

    def test_mid_epoch_failstop_becomes_a_crash(self):
        model = tiny_model()
        cluster = ec2_v100_cluster(4)
        sched = MembershipSchedule(num_nodes=4,
                                   events=(NodeLeave(at=0.5, node=2),))
        _, _, faults = epoch_inputs(model, cluster, sched, 0)
        crashes = [e for e in faults if isinstance(e, NodeCrash)]
        assert len(crashes) == 1
        assert crashes[0].node == 2  # local rank == global id on epoch 0
        report = run_elastic(model, cluster, get_strategy("ring"), sched,
                             epochs=2)
        assert [len(e.roster) for e in report.epochs] == [4, 3]
        assert report.epochs[0].departures == ((2, 0.5),)

    def test_infeasible_fleet_is_typed(self):
        model = tiny_model()
        cluster = ec2_v100_cluster(4)
        sched = static_membership(8)  # schedule sized for another fleet
        with pytest.raises(ConfigError) as err:
            run_elastic(model, cluster, get_strategy("ring"), sched,
                        epochs=1)
        assert err.value.kind == "membership-fleet"


# ---------------------------------------------------------------------------
# Result-cache mutant + advisor (zero-recompute contract)


TINY_ELASTIC = dict(num_nodes=4, epochs=2, model="resnet50",
                    profiles=("baseline",), churns=("static", "light"))


def test_result_cache_mutant_one_event_changes_the_digest():
    specs = {s.job_id: s for s in elastic_artifact.jobs(**TINY_ELASTIC)}
    spec = specs["elastic/baseline-light-ring"]
    baseline = job_digest(spec)
    assert job_digest(spec) == baseline  # deterministic

    mutated = dict(spec.params)
    schedule = MembershipSchedule.from_json_obj(mutated["schedule"])
    assert not schedule.is_static
    flipped = list(schedule.events)
    first = flipped[0]
    kind = NodeJoin if isinstance(first, NodeLeave) else NodeLeave
    flipped[0] = kind(at=first.at, node=first.node)
    # the flipped event may be infeasible as a schedule; the digest only
    # sees the serialized content, which is the point
    mutated["schedule"] = dict(mutated["schedule"],
                               events=[["join" if isinstance(e, NodeJoin)
                                        else "leave", e.at, e.node]
                                       for e in flipped])
    from repro.experiments.common import JobSpec
    mutant = JobSpec(artifact=spec.artifact, job_id=spec.job_id,
                     module=spec.module, params=mutated)
    assert job_digest(mutant) != baseline


def test_elastic_sweep_replays_warm_with_zero_recompute(tmp_path):
    specs = elastic_artifact.jobs(**TINY_ELASTIC)
    cache = ResultCache(tmp_path / "cache")
    cold = ExperimentRunner(cache=cache).run(specs)
    assert cold.ok and cold.executed == len(specs)

    warm_cache = ResultCache(tmp_path / "cache")
    warm = ExperimentRunner(cache=warm_cache).run(specs)
    assert warm.executed == 0
    assert warm.cache_hits == len(specs)
    assert warm_cache.hits == len(specs) and warm_cache.misses == 0
    assert warm.payloads == cold.payloads


def test_advisor_reproduces_verdicts_from_cache(tmp_path):
    from repro.advisor import recommend

    plan = artifact_plans(
        quick=True, overrides={"heterogeneous": {"num_nodes": 4}}
    )["heterogeneous"]
    cache = ResultCache(tmp_path / "cache")
    sweep = ExperimentRunner(cache=cache).run(plan.specs())
    sweep.raise_on_failure()
    artifact_table = plan.assemble(sweep.payloads)

    for cluster in ("baseline", "wan-1"):
        rec = recommend(
            cluster=cluster,
            runner=ExperimentRunner(cache=ResultCache(tmp_path / "cache")),
            artifact_kwargs={"num_nodes": 4, "severities": (4.0,),
                             "wan_up_gbps": (1.0,)})
        # the zero-recomputation proof: every verdict came from the cache
        assert rec.executed == 0
        assert rec.cache_hits == len(rec.verdicts) == 2
        assert all(v.served_from == "cache" for v in rec.verdicts)
        # throughput verdict matches the artifact's win/loss column
        dgc = next(v for v in rec.verdicts if v.algorithm == "dgc")
        assert dgc.throughput_wins == \
            artifact_table[cluster]["compression_wins"]
        base = next(v for v in rec.verdicts if v.algorithm is None)
        assert base.utility == 1.0 and base.throughput_speedup == 1.0
        # provenance digests point at real cache entries
        for v in rec.verdicts:
            assert cache.path(v.digest).exists()


def test_advisor_requires_an_uncompressed_baseline():
    from repro.advisor import recommend
    with pytest.raises(ConfigError) as err:
        recommend(policy_space=[("hipress-ring", "dgc")], quick=True)
    assert err.value.kind == "policy-space"


def test_advisor_rejects_unknown_scenarios():
    from repro.advisor import recommend
    with pytest.raises(ConfigError) as err:
        recommend(cluster="does-not-exist", quick=True)
    assert err.value.kind == "cluster"


def test_advisor_inflation_table_names_only_registered_codecs():
    from repro.advisor import ITERATION_INFLATION
    from repro.algorithms import available_algorithms
    registered = set(available_algorithms())
    assert all(key is None or key in registered
               for key in ITERATION_INFLATION)


def test_injector_rejects_membership_events():
    from repro.faults import FaultInjector, FaultSchedule
    env = Environment()
    schedule = FaultSchedule((NodeLeave(at=1.0, node=1),))
    with pytest.raises(ValueError, match="MembershipSchedule"):
        FaultInjector(env, schedule, num_nodes=4)
