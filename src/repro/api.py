"""The stable public API of the HiPress reproduction, in one flat module.

Everything a user script needs lives here -- model/algorithm/strategy/
cluster lookup, the :class:`TrainingJob` facade, the experiment-driver
entry point :func:`run_system`, and the telemetry surface -- so the
common import is simply::

    from repro import TrainingJob, run_system, telemetry_session

(``repro/__init__.py`` lazily re-exports every name below.)

Importing :mod:`repro.api` loads 76 ``repro`` modules: the simulation
core plus :mod:`repro.adaptive`, :mod:`repro.advisor` (and through it
the experiment runner and the heterogeneous and elastic drivers) and
:mod:`repro.hipress`.  It loads neither :mod:`repro.compll` nor
:mod:`repro.minidnn`.  A process that only simulates should import
:mod:`repro.experiments.common` instead, which loads the 62 modules
``run_system`` needs.  Optional heavyweight dependencies
(numpy-accelerated kernels load lazily inside the algorithms,
matplotlib only inside plotting helpers) stay out of the import graph.

Registries
----------
New components plug in through the same pattern everywhere:

* :func:`register_algorithm` / :func:`get_algorithm` / :func:`list_algorithms`
* :func:`register_strategy` / :func:`get_strategy` / :func:`list_strategies`
* :data:`CLUSTER_PRESETS` / :func:`get_cluster`
* :data:`MODEL_NAMES` / :func:`get_model`

Unknown names raise :class:`ConfigError` (from the high-level entry
points) or ``KeyError`` (from the raw registries), always listing the
valid choices.

Telemetry
---------
Attach a collector to record span timelines and metrics from any run::

    from repro import TelemetryCollector, TrainingJob, write_chrome_trace

    tel = TelemetryCollector()
    job = TrainingJob("bert-large", algorithm="onebit")
    job.run(telemetry=tel)
    write_chrome_trace(tel, "trace.json")   # open in Perfetto / chrome://tracing

or ambiently, covering every simulation in the block::

    from repro import telemetry_session, run_system, ec2_v100_cluster

    with telemetry_session() as tel:
        run_system("hipress-ps", "bert-large", ec2_v100_cluster(8),
                   algorithm="onebit")

See ``docs/TELEMETRY.md`` for the full tour.

Sync-plan IR
------------
Strategies lower through a declarative :class:`SyncPlan` IR and an
optimization-pass pipeline before any tasks are instantiated; the
passes' tuning values are constants held by the passes themselves,
lowered graphs are memoized in :func:`default_graph_cache`, and
:func:`sync_plan_dump` captures the IR of every graph built inside a
``with`` block.  See ``docs/SYNC_IR.md``.

:func:`check_plan` proves whole-plan concurrency properties (deadlock
freedom, buffer safety, byte-flow conservation, decision coverage) over
a built plan and returns a :class:`PlanReport`; given the plan's lowered
recipe it also checks the recipe's costs (PC605/PC606).
``GraphCache(admission="strict")`` (or ``REPRO_PLANCHECK=1``) gates
cache admission on the same proof.  See ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from .advisor import (
    CandidateVerdict,
    Recommendation,
    recommend,
)
from .adaptive import (
    CompressionPolicy,
    DecisionLog,
    PolicyController,
    PolicyRun,
    parse_policy,
    run_policy,
)
from .algorithms import (
    CompressionAlgorithm,
    available_algorithms,
    get_algorithm,
    register_algorithm,
)
from .analysis.plancheck import (
    PlanCheckError,
    PlanReport,
    check_plan,
)
from .casync import (
    AdaptivePass,
    DecisionMap,
    GradientDecision,
    SyncPlan,
    build_plan,
    verify_plan,
)
from .casync.lower import (
    GraphCache,
    default_graph_cache,
    sync_plan_dump,
)
from .cluster import (
    CLUSTER_PRESETS,
    ClusterSpec,
    ec2_v100_cluster,
    get_cluster,
    local_1080ti_cluster,
)
from .errors import ConfigError
from .faults import (
    MembershipSchedule,
    NodeJoin,
    NodeLeave,
    Roster,
    random_membership_schedule,
    static_membership,
)
from .experiments.common import SYSTEMS, JobSpec, SystemConfig, run_system
from .experiments.runner import (
    ExperimentRunner,
    ResultCache,
    RunReport,
    artifact_plans,
    job_digest,
    run_artifacts,
)
from .hipress import Profile, TrainingJob
from .models import MODEL_NAMES, ModelSpec, all_models, get_model
from .strategies import (
    MembershipBound,
    Strategy,
    bind_roster,
    available_strategies,
    get_strategy,
    register_strategy,
)
from .telemetry import (
    MetricsRegistry,
    Span,
    TelemetryCollector,
    attach,
    current_collector,
    detach,
    flame_summary,
    telemetry_session,
    to_chrome_trace,
    to_metrics_csv,
    to_metrics_json,
    utilization_series,
    write_chrome_trace,
)
from .training import (
    ElasticRunReport,
    EpochOutcome,
    IterationResult,
    run_elastic,
    simulate_iteration,
)

__all__ = [
    # models
    "MODEL_NAMES", "ModelSpec", "all_models", "get_model", "list_models",
    # algorithms
    "CompressionAlgorithm", "get_algorithm", "register_algorithm",
    "available_algorithms", "list_algorithms",
    # strategies
    "Strategy", "get_strategy", "register_strategy",
    "available_strategies", "list_strategies",
    # clusters
    "CLUSTER_PRESETS", "ClusterSpec", "ec2_v100_cluster", "get_cluster",
    "local_1080ti_cluster",
    # running things
    "IterationResult", "Profile", "SYSTEMS", "SystemConfig", "TrainingJob",
    "run_system", "simulate_iteration",
    # experiment runner (see EXPERIMENTS.md)
    "ExperimentRunner", "JobSpec", "ResultCache", "RunReport",
    "artifact_plans", "job_digest", "run_artifacts",
    # errors
    "ConfigError",
    # elastic membership + utility advisor (see docs/ELASTIC.md)
    "CandidateVerdict", "ElasticRunReport", "EpochOutcome",
    "MembershipBound", "MembershipSchedule", "NodeJoin", "NodeLeave",
    "Recommendation", "Roster", "bind_roster",
    "random_membership_schedule", "recommend", "run_elastic",
    "static_membership",
    # sync-plan IR (see docs/SYNC_IR.md)
    "AdaptivePass", "GraphCache", "SyncPlan", "build_plan",
    "default_graph_cache", "sync_plan_dump", "verify_plan",
    # whole-plan analyzer (see docs/ANALYSIS.md)
    "PlanCheckError", "PlanReport", "check_plan",
    # adaptive control plane (see docs/ADAPTIVE.md)
    "CompressionPolicy", "DecisionLog", "DecisionMap", "GradientDecision",
    "PolicyController", "PolicyRun", "parse_policy", "run_policy",
    # telemetry
    "MetricsRegistry", "Span", "TelemetryCollector", "attach",
    "current_collector", "detach", "flame_summary", "telemetry_session",
    "to_chrome_trace", "to_metrics_csv", "to_metrics_json",
    "utilization_series", "write_chrome_trace",
]


def list_algorithms() -> list:
    """Names of every registered compression algorithm, sorted."""
    return list(available_algorithms())


def list_strategies() -> list:
    """Names of every registered synchronization strategy, sorted."""
    return list(available_strategies())


def list_models() -> list:
    """Names of every model in the zoo, sorted."""
    return sorted(MODEL_NAMES)
