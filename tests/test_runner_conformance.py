"""Conformance: runner output is bit-identical to the serial path.

The headline guarantee of the experiment runner: for every fig/table
module, executing the jobs manifest through the runner -- in-process,
across worker processes, or served from a warm cache -- yields payloads
(and therefore assembled results and rendered text) byte-identical to
``module.run()``'s serial execution, with stable row ordering.

Artifacts run at shrunken parameterizations (2-node clusters, a short
fig13 training run) so the whole matrix stays fast; the decomposition
under test is exactly the one the full-size run uses.
"""

import pytest

from repro.experiments import throughput
from repro.experiments.common import canonical_json, execute_serial
from repro.experiments.runner import (
    ExperimentRunner,
    ResultCache,
    artifact_plans,
    run_artifacts,
)

#: Shrunken kwargs per artifact -- keys must match artifact_plans names.
TINY = {
    "adaptive": {"num_nodes": 2, "large_nodes": 2, "iterations": 2,
                 "large_iterations": 2},
    "table1": {"num_nodes": 2},
    "fig7": {"node_counts": (1, 2)},
    "fig8": {"node_counts": (1, 2)},
    "fig9": {"num_nodes": 2},
    "fig10": {"num_nodes": 2},
    "fig11": {"num_nodes": 2},
    "fig12": {"num_nodes": 2},
    "fig13": {"steps": 30, "eval_every": 15, "workers": 2, "num_nodes": 2},
    "heterogeneous": {"num_nodes": 2, "severities": (4.0,),
                      "wan_up_gbps": (1.0,)},
    "elastic": {"num_nodes": 4, "epochs": 2, "model": "resnet50",
                "profiles": ("baseline",), "churns": ("static", "light")},
}

ALL_ARTIFACTS = sorted(artifact_plans())

#: Subset exercised through real worker pools (1 and 4 workers).
POOL_SUBSET = ("table1", "fig10", "kernel_speed", "fig13", "elastic")


def tiny_plan(name):
    return artifact_plans(overrides=TINY)[name]


def serial_baseline(plan):
    specs = plan.specs()
    payloads = execute_serial(specs)
    assembled = plan.assemble(payloads)
    return payloads, plan.render(assembled)


@pytest.fixture(scope="module")
def baselines():
    """Serial payloads + rendered text per artifact, computed once."""
    out = {}
    for name in ALL_ARTIFACTS:
        plan = tiny_plan(name)
        out[name] = serial_baseline(plan)
    return out


@pytest.mark.parametrize("name", ALL_ARTIFACTS)
def test_runner_matches_serial_cold_and_warm(name, baselines, tmp_path):
    plan = tiny_plan(name)
    serial_payloads, serial_text = baselines[name]
    cache = ResultCache(tmp_path / "cache")

    cold = ExperimentRunner(cache=cache).run(plan.specs())
    assert cold.ok and cold.executed == len(plan.specs())
    assert canonical_json(cold.payloads) == canonical_json(serial_payloads)
    assert plan.render(plan.assemble(cold.payloads)) == serial_text

    warm = ExperimentRunner(cache=cache).run(plan.specs())
    assert warm.executed == 0
    assert warm.cache_hits == len(plan.specs())
    assert canonical_json(warm.payloads) == canonical_json(serial_payloads)
    assert plan.render(plan.assemble(warm.payloads)) == serial_text


@pytest.mark.parametrize("name", POOL_SUBSET)
@pytest.mark.parametrize("workers", [1, 4])
def test_runner_matches_serial_across_workers(name, workers, baselines):
    plan = tiny_plan(name)
    serial_payloads, serial_text = baselines[name]
    report = ExperimentRunner(max_workers=workers).run(plan.specs())
    assert report.ok
    assert canonical_json(report.payloads) == canonical_json(serial_payloads)
    assert plan.render(plan.assemble(report.payloads)) == serial_text


@pytest.mark.parametrize("name", ["table6", "elastic"])
def test_runner_matches_serial_under_spawn(name, baselines):
    plan = tiny_plan(name)
    serial_payloads, serial_text = baselines[name]
    report = ExperimentRunner(max_workers=2,
                              mp_context="spawn").run(plan.specs())
    assert report.ok
    assert canonical_json(report.payloads) == canonical_json(serial_payloads)
    assert plan.render(plan.assemble(report.payloads)) == serial_text


def test_crash_resume_mid_churn_sweep(baselines, tmp_path):
    """Kill the harness halfway through the elastic churn sweep; a
    rerun serves the finished churn points from the cache and
    recomputes only the remainder, byte-identically."""
    from repro.experiments.runner import ResultCache
    from tests.test_runner_resume import HarnessKiller
    from repro.faults import FaultSchedule, NodeCrash

    plan = tiny_plan("elastic")
    specs = plan.specs()
    assert len(specs) >= 4
    kill_after = len(specs) // 2
    serial_payloads, serial_text = baselines["elastic"]
    cache = ResultCache(tmp_path / "cache")
    killer = HarnessKiller(FaultSchedule((NodeCrash(at=float(kill_after)),)))

    with pytest.raises(KeyboardInterrupt):
        ExperimentRunner(cache=cache, progress=killer).run(specs)
    assert len(cache) == kill_after

    rerun = ExperimentRunner(cache=cache).run(specs)
    assert rerun.ok
    assert rerun.cache_hits == kill_after
    assert rerun.executed == len(specs) - kill_after
    assert canonical_json(rerun.payloads) == canonical_json(serial_payloads)
    assert plan.render(plan.assemble(rerun.payloads)) == serial_text


def test_row_ordering_stable_across_reruns(baselines):
    """Payload dict order and rendered row order never drift."""
    plan = tiny_plan("table1")
    _, serial_text = baselines["table1"]
    for _ in range(2):
        report = ExperimentRunner().run(plan.specs())
        assert list(report.payloads) == [s.job_id for s in plan.specs()]
        assert plan.render(plan.assemble(report.payloads)) == serial_text


def test_run_artifacts_one_batch_matches_modules(baselines, tmp_path):
    """The facade's shared batch renders identically per artifact."""
    names = ["table1", "table6", "kernel_speed"]
    out, report = run_artifacts(
        names, runner=ExperimentRunner(cache=ResultCache(tmp_path)),
        overrides={k: v for k, v in TINY.items() if k in names})
    assert report.ok
    for name in names:
        assert out[name]["text"] == baselines[name][1]


def test_sweep_equivalence_to_jobs_decomposition():
    """throughput.sweep() == assemble_sweep(execute_serial(sweep_jobs))."""
    kwargs = dict(model="vgg19", systems=("byteps", "hipress-ps"),
                  algorithm="onebit", node_counts=(1, 2))
    direct = throughput.sweep(**kwargs)
    specs = throughput.sweep_jobs("x", **kwargs)
    via_jobs = throughput.assemble_sweep(execute_serial(specs), "x",
                                         **kwargs)
    assert direct == via_jobs


def test_every_artifact_manifest_covers_its_assembly():
    """assemble() consumes exactly the job ids jobs() declares."""
    for name in ALL_ARTIFACTS:
        plan = tiny_plan(name)
        specs = plan.specs()
        ids = [s.job_id for s in specs]
        assert len(ids) == len(set(ids)), name
        assert all(s.artifact for s in specs), name
        payloads = execute_serial(specs)
        plan.assemble(payloads)  # must not need anything beyond the manifest
