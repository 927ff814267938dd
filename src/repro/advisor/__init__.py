"""End-to-end utility advisor: when does compression actually help?

Throughput is the wrong yardstick.  "On the Utility of Gradient
Compression in Distributed Training Systems" shows compressed training
often *loses* end to end even when per-iteration time improves, and
"Beyond Throughput and Compression Ratios" (both PAPERS.md) argues for
judging **time-to-target**: lossy gradients degrade statistical
efficiency, so a compressed run needs *more* iterations to reach the
same accuracy, and the extra iterations can eat the per-iteration win.

This package turns the repo's sweep data into exactly that verdict:

* :func:`recommend` rebuilds the job manifest of an artifact scenario
  (``heterogeneous`` regimes or ``elastic`` churn profiles), runs it
  through the PR-5 :class:`~repro.experiments.runner.ExperimentRunner`
  against a :class:`~repro.experiments.runner.ResultCache` -- a warm
  cache answers every job **without re-executing anything** (the
  returned :class:`Recommendation` carries the runner's
  ``executed`` / ``cache_hits`` counters as proof) -- and ranks the
  policy space by end-to-end utility;
* ``python -m repro.advisor`` is the CLI over the same call.

The statistical-efficiency model is deliberately simple and fully
deterministic: each algorithm carries an *iteration inflation* factor
(how many extra iterations the lossy gradient costs, drawn from the
convergence tables of the utility papers), and

    time_to_target = cost_per_iteration x target_iterations x inflation
    utility        = time_to_target(uncompressed) / time_to_target(candidate)

``utility > 1`` means compression pays off end to end.  The interesting
regime -- and the advisor's reason to exist -- is ``throughput_speedup >
1`` with ``utility < 1``: faster iterations, slower training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..experiments import elastic as elastic_artifact
from ..experiments import heterogeneous as heterogeneous_artifact
from ..experiments.common import JobSpec
from ..experiments.runner import (ExperimentRunner, ResultCache,
                                  artifact_plans, job_digest)

__all__ = [
    "CandidateVerdict",
    "ITERATION_INFLATION",
    "Recommendation",
    "recommend",
]

#: Iterations-to-target multiplier per compression algorithm: the
#: statistical-efficiency cost of training on lossy gradients, relative
#: to uncompressed SGD (1.0).  Deterministic by construction -- a fixed
#: table, not a fit -- with a conservative default for codecs the
#: utility literature doesn't cover.
ITERATION_INFLATION: Dict[Optional[str], float] = {
    None: 1.00,
    "onebit": 1.12,       # 1-bit quantization w/ error feedback
    "terngrad": 1.15,     # ternary levels, no error feedback
    "dgc": 1.08,          # deep gradient compression, 0.1% sparsity
    "tbq": 1.12,          # threshold binary quantization
    "adacomp": 1.10,      # adaptive residual compression
}

#: Fallback inflation for unknown codecs (pessimistic on purpose: an
#: unstudied codec should have to win clearly).
DEFAULT_INFLATION = 1.25

#: Iterations a training run needs to converge uncompressed.  Only the
#: *ratios* matter for the verdict; the absolute count just makes
#: ``time_to_target_s`` a human-readable number (90 epochs' worth of
#: ImageNet minibatches, order-of-magnitude).
TARGET_ITERATIONS = 100_000


def iteration_inflation(algorithm: Optional[str]) -> float:
    """The statistical-efficiency multiplier for ``algorithm``."""
    return ITERATION_INFLATION.get(algorithm, DEFAULT_INFLATION)


@dataclass(frozen=True)
class CandidateVerdict:
    """One (system, algorithm) policy's end-to-end judgement."""

    system: str
    algorithm: Optional[str]
    #: Seconds of wall clock per unit of training progress (one
    #: iteration for static scenarios; one uncompressed-equivalent
    #: iteration of committed samples for elastic ones).
    cost_per_unit_s: float
    #: Statistical-efficiency multiplier applied to the iteration count.
    inflation: float
    #: cost_per_unit x target_iterations x inflation.
    time_to_target_s: float
    #: time_to_target(baseline) / time_to_target(this candidate).
    utility: float
    #: Plain per-iteration speedup vs the baseline (the throughput-only
    #: verdict the artifact tables report).
    throughput_speedup: float
    #: The end-to-end verdict (utility > 1).
    wins: bool
    #: The throughput-only verdict (speedup > 1).
    throughput_wins: bool
    #: Provenance: the result-cache digest of the job this verdict was
    #: computed from, plus its job id and how it was satisfied.
    job_id: str
    digest: str
    served_from: str          # "cache" | "executed"

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "system": self.system, "algorithm": self.algorithm,
            "cost_per_unit_s": self.cost_per_unit_s,
            "inflation": self.inflation,
            "time_to_target_s": self.time_to_target_s,
            "utility": self.utility,
            "throughput_speedup": self.throughput_speedup,
            "wins": self.wins, "throughput_wins": self.throughput_wins,
            "job_id": self.job_id, "digest": self.digest,
            "served_from": self.served_from,
        }


@dataclass(frozen=True)
class Recommendation:
    """Ranked policy verdicts for one (model, cluster scenario)."""

    model: str
    source: str               # "heterogeneous" | "elastic"
    cluster: str              # scenario key within the source
    target_iterations: int
    #: Ranked best-first by end-to-end utility.
    verdicts: Tuple[CandidateVerdict, ...]
    #: Runner counters: jobs actually executed vs served from cache.
    #: ``executed == 0`` is the zero-recomputation proof.
    executed: int
    cache_hits: int

    @property
    def best(self) -> CandidateVerdict:
        return self.verdicts[0]

    @property
    def compression_wins(self) -> bool:
        """Whether any compressed candidate beats the baseline end to
        end (the advisor-grade analogue of the artifact tables'
        ``compression_wins`` column)."""
        return any(v.wins for v in self.verdicts if v.algorithm is not None)

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "model": self.model, "source": self.source,
            "cluster": self.cluster,
            "target_iterations": self.target_iterations,
            "verdicts": [v.to_json_obj() for v in self.verdicts],
            "executed": self.executed, "cache_hits": self.cache_hits,
            "compression_wins": self.compression_wins,
        }

    def render(self) -> str:
        from ..experiments.common import format_table
        rows = []
        for v in self.verdicts:
            rows.append([
                v.system, v.algorithm or "-",
                f"{v.cost_per_unit_s * 1e3:.2f}",
                f"{v.throughput_speedup:.2f}x",
                f"{v.inflation:.2f}",
                f"{v.time_to_target_s / 3600:.2f}",
                f"{v.utility:.2f}",
                "win" if v.wins
                else "baseline" if v.algorithm is None and v.utility == 1.0
                else "loss",
                v.served_from,
            ])
        header = (f"End-to-end utility on {self.cluster!r} "
                  f"({self.source}, {self.model}, "
                  f"{self.target_iterations} iterations to target): "
                  f"executed={self.executed} cache_hits={self.cache_hits}")
        return header + "\n" + format_table(
            ["system", "algo", "iter (ms)", "speedup", "inflation",
             "time-to-target (h)", "utility", "verdict", "served"], rows)


def _scenario_keys(source: str, kwargs: Mapping[str, Any]) -> List[str]:
    if source == "heterogeneous":
        rows = heterogeneous_artifact.scenarios(
            num_nodes=kwargs.get("num_nodes", 16),
            severities=kwargs.get("severities", (2.0, 4.0, 8.0)),
            wan_up_gbps=kwargs.get("wan_up_gbps", (0.5, 1.0, 4.0)))
        return [row["key"] for row in rows]
    profiles = kwargs.get("profiles", elastic_artifact.PROFILES)
    churns = kwargs.get("churns", ("static", "light", "heavy"))
    return [f"{p}-{c}" for p in profiles for c in churns]


def _candidate_specs(source: str, cluster: str,
                     policy_space: Sequence[Tuple[str, Optional[str]]],
                     model: str, kwargs: Mapping[str, Any]
                     ) -> List[Tuple[Tuple[str, Optional[str]], JobSpec]]:
    """The exact manifest rows the artifact would run, one per candidate.

    Job ids and params must match the artifact's byte for byte so a
    cache populated by an earlier sweep answers the advisor's queries;
    a candidate outside the artifact's default pair gets an extended
    job id (it was never part of the sweep).
    """
    module = (heterogeneous_artifact if source == "heterogeneous"
              else elastic_artifact)

    def scenario_of(spec: JobSpec) -> str:
        # job ids are "<artifact>/<scenario>-<system>" and system names
        # themselves contain dashes, so strip the known system suffix.
        tail = spec.job_id.split("/", 1)[1]
        suffix = f"-{spec.params['system']}"
        return tail[:-len(suffix)] if tail.endswith(suffix) else tail

    manifest = {(s.params["system"], s.params["algorithm"]): s
                for s in module.jobs(model=model, **dict(kwargs))
                if scenario_of(s) == cluster}
    out: List[Tuple[Tuple[str, Optional[str]], JobSpec]] = []
    for system, algorithm in policy_space:
        spec = manifest.get((system, algorithm))
        if spec is None:
            template = next(iter(manifest.values()), None)
            if template is None:
                raise ConfigError(
                    "cluster", cluster, _scenario_keys(source, kwargs),
                    hint=f"no {source!r} scenario matches")
            params = dict(template.params)
            params["system"] = system
            params["algorithm"] = algorithm
            suffix = f"{system}" if algorithm is None \
                else f"{system}-{algorithm}"
            spec = JobSpec(
                artifact=template.artifact,
                job_id=f"{template.artifact}/{cluster}-{suffix}+advisor",
                module=template.module, params=params)
        out.append(((system, algorithm), spec))
    return out


def recommend(model: str = "vgg19", cluster: str = "baseline",
              policy_space: Optional[Sequence[Tuple[str, Optional[str]]]]
              = None, *,
              source: str = "heterogeneous",
              cache: Optional[ResultCache] = None,
              runner: Optional[ExperimentRunner] = None,
              artifact_kwargs: Optional[Mapping[str, Any]] = None,
              quick: bool = False,
              target_iterations: int = TARGET_ITERATIONS
              ) -> Recommendation:
    """Rank ``policy_space`` by end-to-end utility on one scenario.

    ``cluster`` names a scenario of ``source`` -- a ``heterogeneous``
    regime key (``baseline``, ``straggler-4``, ``wan-1``, ``mixed``, ...)
    or an ``elastic`` ``profile-churn`` key (``wan-light``, ...).
    ``policy_space`` is a sequence of (system, algorithm) pairs; the
    default is the artifact's own pair (uncompressed ``ring`` vs
    ``hipress-ring`` + dgc).  It must contain at least one uncompressed
    (``algorithm=None``) entry -- that is the time-to-target baseline.

    ``artifact_kwargs`` must match the sweep that populated the cache
    (``quick`` selects the registry's quick parameterization); matching
    kwargs make the advisor's job digests identical to the sweep's, so
    a warm :class:`ResultCache` serves every verdict with zero jobs
    executed.
    """
    if source not in ("heterogeneous", "elastic"):
        raise ConfigError("source", source, ["heterogeneous", "elastic"])
    module = (heterogeneous_artifact if source == "heterogeneous"
              else elastic_artifact)
    if artifact_kwargs is None:
        plan = artifact_plans(quick=quick)[source]
        artifact_kwargs = {k: v for k, v in dict(plan.kwargs).items()
                           if k != "model"}
    keys = _scenario_keys(source, artifact_kwargs)
    if cluster not in keys:
        raise ConfigError("cluster", cluster, keys,
                          hint=f"scenario keys come from the {source!r} "
                               f"artifact's parameterization")
    space = list(policy_space if policy_space is not None
                 else module.SYSTEMS_UNDER_TEST)
    if not any(algorithm is None for _, algorithm in space):
        raise ConfigError(
            "policy-space", space, ["an (system, None) entry"],
            hint="end-to-end utility is relative to an uncompressed "
                 "baseline; include one")
    runner = runner or ExperimentRunner(cache=cache)
    candidates = _candidate_specs(source, cluster, space, model,
                                  artifact_kwargs)
    report = runner.run([spec for _, spec in candidates])
    report.raise_on_failure()
    served = {o.job_id: "cache" if o.status == "cached" else "executed"
              for o in report.outcomes}

    def cost(payload: Mapping[str, Any]) -> float:
        if source == "heterogeneous":
            return float(payload["iteration_time"])
        # Elastic: committed-goodput cost. Normalize to "seconds per
        # uncompressed-equivalent iteration" via samples per epoch at
        # full roster; only ratios matter for the verdict.
        return (float(payload["total_time_s"])
                / max(float(payload["completed_epochs"]), 1.0))

    costs: Dict[Tuple[str, Optional[str]], float] = {}
    for (system, algorithm), spec in candidates:
        costs[(system, algorithm)] = cost(report.payloads[spec.job_id])
    base_pairs = [pair for pair in costs if pair[1] is None]
    base_cost = min(costs[pair] for pair in base_pairs)
    verdicts: List[CandidateVerdict] = []
    for (system, algorithm), spec in candidates:
        c = costs[(system, algorithm)]
        infl = iteration_inflation(algorithm)
        tt = c * target_iterations * infl
        base_tt = base_cost * target_iterations * 1.0
        verdicts.append(CandidateVerdict(
            system=system, algorithm=algorithm, cost_per_unit_s=c,
            inflation=infl, time_to_target_s=tt,
            utility=base_tt / tt,
            throughput_speedup=base_cost / c,
            wins=base_tt / tt > 1.0,
            throughput_wins=base_cost / c > 1.0,
            job_id=spec.job_id,
            digest=job_digest(spec),
            served_from=served.get(spec.job_id, "executed")))
    verdicts.sort(key=lambda v: (-v.utility, v.system, v.algorithm or ""))
    return Recommendation(
        model=model, source=source, cluster=cluster,
        target_iterations=target_iterations, verdicts=tuple(verdicts),
        executed=report.executed, cache_hits=report.cache_hits)
