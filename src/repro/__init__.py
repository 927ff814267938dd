"""HiPress reproduction: compression-aware data-parallel DNN training.

Reproduces *Gradient Compression Supercharged High-Performance Data Parallel
DNN Training* (SOSP 2021): the CaSync synchronization architecture, the
CompLL compression toolkit and DSL, five gradient-compression algorithms,
the baselines the paper compares against, and the full evaluation harness.

The stable public surface is :mod:`repro.api`, and every name it exports
is importable straight from the package (lazily, via PEP 562, so that
``import repro`` stays cheap)::

    from repro import TrainingJob, run_system, TelemetryCollector

Subsystem packages remain importable directly:

* :mod:`repro.algorithms` -- real encode/decode gradient compression.
* :mod:`repro.compll` -- the DSL toolchain and common-operator library.
* :mod:`repro.casync` -- compression-aware synchronization architecture.
* :mod:`repro.hipress` -- top-level training-job facade.
* :mod:`repro.telemetry` -- span tracing, metrics, and exporters.
* :mod:`repro.experiments` -- drivers that regenerate every paper table/figure.
"""

__version__ = "1.1.0"

#: Names re-exported (lazily) from :mod:`repro.api`.
_API_NAMES = frozenset({
    "MODEL_NAMES", "ModelSpec", "all_models", "get_model", "list_models",
    "CompressionAlgorithm", "get_algorithm", "register_algorithm",
    "available_algorithms", "list_algorithms",
    "Strategy", "get_strategy", "register_strategy",
    "available_strategies", "list_strategies",
    "CLUSTER_PRESETS", "ClusterSpec", "ec2_v100_cluster", "get_cluster",
    "local_1080ti_cluster",
    "IterationResult", "Profile", "SYSTEMS", "SystemConfig", "TrainingJob",
    "run_system", "simulate_iteration",
    "ExperimentRunner", "JobSpec", "ResultCache", "RunReport",
    "artifact_plans", "job_digest", "run_artifacts",
    "ConfigError",
    "CandidateVerdict", "ElasticRunReport", "EpochOutcome",
    "MembershipBound", "MembershipSchedule", "NodeJoin", "NodeLeave",
    "Recommendation", "Roster", "bind_roster",
    "random_membership_schedule", "recommend", "run_elastic",
    "static_membership",
    "AdaptivePass", "GraphCache", "SyncPlan", "build_plan",
    "default_graph_cache", "get_pass", "list_passes", "register_pass",
    "sync_plan_dump", "verify_plan",
    "PlanCheckError", "PlanReport", "check_plan",
    "CompressionPolicy", "DecisionLog", "DecisionMap", "GradientDecision",
    "PolicyController", "PolicyRun", "parse_policy", "run_policy",
    "MetricsRegistry", "Span", "TelemetryCollector", "attach",
    "current_collector", "detach", "flame_summary", "telemetry_session",
    "to_chrome_trace", "to_metrics_csv", "to_metrics_json",
    "utilization_series", "write_chrome_trace",
})

__all__ = sorted(_API_NAMES | {"api", "__version__"})


def __getattr__(name):
    if name in _API_NAMES:
        from . import api
        value = getattr(api, name)
        globals()[name] = value   # cache so later lookups skip __getattr__
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _API_NAMES)
