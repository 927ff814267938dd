"""Experiment drivers regenerating every table and figure of the paper.

Each module exposes a ``jobs(...)`` manifest of independent
:class:`~repro.experiments.common.JobSpec` units, ``run_job(...)``
(computes one unit's JSON payload), ``assemble(payloads, ...)`` (folds
payloads into result objects), plus ``run(...)`` (the serial
composition of the three) and ``render(results)`` (the printable
paper-vs-measured comparison).  :mod:`repro.experiments.runner`
executes the manifests in parallel with content-addressed result
caching, bit-identical to the serial path.  The corresponding
benchmarks in ``benchmarks/`` call these and print the rendered output.

Only :mod:`.common`, the simulator entry, loads with the package.  The
drivers, the runner and :mod:`.throughput` load on first use, so a
process that runs one configuration pays for none of them.
"""

import importlib

from .common import (JobSpec, SYSTEMS, default_algorithm, execute_job,
                     execute_serial, format_table, run_system)

#: Names resolved on first access (PEP 562), by their defining submodule.
_LAZY_NAMES = {
    **dict.fromkeys(("ArtifactPlan", "ExperimentRunner", "JobFailure",
                     "ResultCache", "RunReport",
                     "artifact_plans", "job_digest", "run_artifacts"),
                    "runner"),
    **dict.fromkeys(("ThroughputSweep", "render_sweep", "sweep"),
                    "throughput"),
}

#: Submodules imported on first attribute access.
_SUBMODULES = frozenset({
    "adaptive", "elastic", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "heterogeneous", "kernel_speed", "runner", "table1",
    "table5", "table6", "table7", "throughput",
})

__all__ = [
    "ArtifactPlan",
    "ExperimentRunner",
    "JobFailure",
    "JobSpec",
    "ResultCache",
    "RunReport",
    "SYSTEMS",
    "ThroughputSweep",
    "artifact_plans",
    "default_algorithm",
    "execute_job",
    "execute_serial",
    "job_digest",
    "run_artifacts",
    "adaptive",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig7",
    "fig8",
    "fig9",
    "format_table",
    "kernel_speed",
    "render_sweep",
    "run_system",
    "sweep",
    "table1",
    "table5",
    "table6",
    "table7",
]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY_NAMES:
        module = importlib.import_module(f"{__name__}.{_LAZY_NAMES[name]}")
        value = getattr(module, name)
        globals()[name] = value   # cache so later lookups skip __getattr__
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _LAZY_NAMES.keys() | _SUBMODULES)
