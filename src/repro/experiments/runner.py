"""Parallel experiment runner with content-addressed caching.

Every figure/table module decomposes its work into independent jobs (a
``jobs()`` manifest of :class:`~repro.experiments.common.JobSpec`), runs
each job to a JSON payload (``run_job``), and folds the payloads back
into its result objects (``assemble``).  This module is the orchestrator
on top of that protocol:

* :class:`ExperimentRunner` executes a batch of job specs either
  in-process (``max_workers=0``) or across a ``ProcessPoolExecutor``,
  with per-job timeouts and *typed* failure capture -- a worker never
  takes the run down, it reports ``error``/``timeout``/``crash``.
* :class:`ResultCache` memoizes each job's payload on disk under a
  content-addressed digest (:func:`job_digest`) covering the code
  version and the job's call and parameters.  It is the run's only
  record of finished work: a warm cache re-run executes zero jobs, and
  rerunning an interrupted regeneration executes only the jobs whose
  payloads it had not yet written.

Bit-identity is by construction, not luck: the serial path
(``module.run()``) is itself ``assemble(execute_serial(jobs()))``, and
``execute_job`` canonicalizes every payload through one JSON round-trip,
so a payload computed in-process, in a worker, or read back from the
cache is the same JSON value.  ``tests/test_runner_conformance.py``
locks this in for every artifact.

Wall-clock note: this module intentionally reads the *host* clock
(``time.perf_counter``) -- it measures the harness itself (job latency,
speedup, progress), never simulated behavior.  All simulated timings
still come exclusively from the event loop; see ``.simlint-allow``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import signal
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from .common import JobSpec, canonical_json, execute_job

__all__ = [
    "ArtifactPlan",
    "ExperimentRunner",
    "JobFailure",
    "JobOutcome",
    "ResultCache",
    "RunReport",
    "artifact_plans",
    "code_token",
    "job_digest",
    "run_artifacts",
]

#: Protocol version folded into every digest; bump to invalidate all
#: cached payloads when the payload contract itself changes.
DIGEST_VERSION = 1


# ---------------------------------------------------------------------------
# Content-addressed job identity


def _iter_source_files() -> List[Path]:
    root = Path(__file__).resolve().parents[1]  # src/repro
    return sorted(p for p in root.rglob("*")
                  if p.suffix in (".py", ".cll") and p.is_file())


_CODE_TOKEN: Optional[str] = None


def code_token() -> str:
    """Digest of every source file under ``repro`` (cached per process).

    Any edit to the simulator, an algorithm, or an experiment module
    changes this token and therefore every job digest -- stale cached
    payloads can never be served across code versions.
    """
    global _CODE_TOKEN
    if _CODE_TOKEN is None:
        h = hashlib.sha256()
        root = Path(__file__).resolve().parents[1]
        for path in _iter_source_files():
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _CODE_TOKEN = h.hexdigest()
    return _CODE_TOKEN


def job_digest(spec: JobSpec) -> str:
    """Content address of one job's payload.

    The payload is ``<module>.<call>(**params)`` run by the code under
    ``repro``, so the digest covers exactly that: the code version, the
    callable's identity and all parameters.  A codec is either named in
    ``params`` or fixed in the callable's code, and every codec's source
    is part of :func:`code_token`.
    """
    identity = {
        "version": DIGEST_VERSION,
        "code": code_token(),
        "artifact": spec.artifact,
        "job_id": spec.job_id,
        "module": spec.module,
        "call": spec.call,
        "params": dict(spec.params),
    }
    return hashlib.sha256(canonical_json(identity).encode()).hexdigest()


# ---------------------------------------------------------------------------
# On-disk payload cache


class ResultCache:
    """Content-addressed payload store: ``<dir>/<d[:2]>/<digest>.json``.

    Writes are atomic (temp file + ``os.replace``), so a crashed or
    killed run never leaves a truncated entry -- at worst the payload is
    missing and gets recomputed.  Corrupt entries read as misses.
    """

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def path(self, digest: str) -> Path:
        return self.directory / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> Optional[Any]:
        path = self.path(digest)
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return record["payload"]

    def put(self, digest: str, job_id: str, payload: Any) -> None:
        path = self.path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = canonical_json(
            {"digest": digest, "job_id": job_id, "payload": payload})
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(record)
        os.replace(tmp, path)

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("??/*.json"))


# ---------------------------------------------------------------------------
# Typed outcomes


@dataclass(frozen=True)
class JobFailure:
    """One job's typed failure: it never tears down the whole run."""

    job_id: str
    kind: str                   # "error" | "timeout" | "crash"
    error_type: str
    message: str


@dataclass(frozen=True)
class JobOutcome:
    job_id: str
    digest: str
    status: str                 # "ok" | "cached" | failure kind
    duration_s: float = 0.0


@dataclass
class RunReport:
    """What a batch run produced, and how."""

    payloads: Dict[str, Any] = field(default_factory=dict)
    outcomes: List[JobOutcome] = field(default_factory=list)
    failures: List[JobFailure] = field(default_factory=list)
    executed: int = 0
    cache_hits: int = 0
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_on_failure(self) -> None:
        if self.failures:
            lines = [f"  {f.job_id}: [{f.kind}] {f.error_type}: {f.message}"
                     for f in self.failures]
            raise RuntimeError(
                f"{len(self.failures)} job(s) failed:\n" + "\n".join(lines))


# ---------------------------------------------------------------------------
# Worker-side execution (subprocess entry point)


def _spec_to_wire(spec: JobSpec) -> Dict[str, Any]:
    return {"artifact": spec.artifact, "job_id": spec.job_id,
            "module": spec.module, "params": dict(spec.params),
            "call": spec.call, "timeout_s": spec.timeout_s}


def _spec_from_wire(wire: Mapping[str, Any]) -> JobSpec:
    return JobSpec(**wire)


def _timeout_error(timeout_s: Optional[float]) -> Optional[str]:
    """Why ``timeout_s`` is not a usable job timeout; None if it is."""
    if timeout_s is None or 0 < timeout_s < math.inf:  # also rejects NaN
        return None
    return f"timeout_s must be None or finite and > 0, got {timeout_s!r}"


class _JobTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _JobTimeout()


def _execute_wire(wire: Dict[str, Any],
                  timeout_s: Optional[float]) -> Dict[str, Any]:
    """Run one job in a worker process; always returns a tagged status.

    The per-job timeout uses ``SIGALRM``/``setitimer`` (POSIX only; on
    platforms without it the timeout is best-effort skipped).  Raising
    out of here would poison the whole pool, so every exception becomes
    a typed record instead.  A timeout outside ``(0, inf)`` fails the
    job before ``SIGALRM`` is touched.
    """
    spec = _spec_from_wire(wire)
    effective = spec.timeout_s if spec.timeout_s is not None else timeout_s
    bad_timeout = _timeout_error(effective)
    if bad_timeout is not None:
        return {"status": "failed", "job_id": spec.job_id,
                "error_type": "ValueError", "message": bad_timeout,
                "duration_s": 0.0}
    armed = False
    if effective is not None and hasattr(signal, "setitimer"):
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, effective)
        armed = True
    t0 = time.perf_counter()
    try:
        payload = execute_job(spec)
        return {"status": "ok", "job_id": spec.job_id, "payload": payload,
                "duration_s": time.perf_counter() - t0}
    except _JobTimeout:
        return {"status": "timeout", "job_id": spec.job_id,
                "error_type": "JobTimeout",
                "message": f"exceeded {effective:g}s",
                "duration_s": time.perf_counter() - t0}
    except KeyboardInterrupt:
        raise  # in-process Ctrl-C stops the run, not just this job
    except BaseException as exc:  # typed capture, never propagate
        return {"status": "failed", "job_id": spec.job_id,
                "error_type": type(exc).__name__,
                "message": f"{exc}\n{traceback.format_exc(limit=8)}",
                "duration_s": time.perf_counter() - t0}
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# The runner


class ExperimentRunner:
    """Execute a batch of job specs with caching, timeouts, telemetry.

    ``max_workers=0`` runs everything in-process (serial); ``>= 1``
    fans out across a ``ProcessPoolExecutor``.  ``progress`` is called
    after every settled job with a small event dict -- the CLI uses it
    for live output, the interrupted-rerun tests use it as a kill point.
    """

    def __init__(self, max_workers: int = 0,
                 cache: Optional[ResultCache] = None,
                 timeout_s: Optional[float] = None,
                 mp_context: Optional[str] = None,
                 telemetry=None,
                 progress: Optional[Callable[[Dict[str, Any]], None]] = None):
        if max_workers < 0:
            raise ValueError(f"max_workers must be >= 0, got {max_workers}")
        bad_timeout = _timeout_error(timeout_s)
        if bad_timeout is not None:
            raise ValueError(bad_timeout)
        self.max_workers = max_workers
        self.cache = cache
        self.timeout_s = timeout_s
        self.mp_context = mp_context
        self.telemetry = telemetry
        self.progress = progress

    # -- helpers ----------------------------------------------------------

    def _emit(self, event: Dict[str, Any]) -> None:
        if self.progress is not None:
            self.progress(event)

    def _count(self, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.counter(name).inc()

    def _settle(self, report: RunReport, spec: JobSpec, digest: str,
                status: str, payload: Any, duration_s: float,
                started_at: float, total: int,
                failure: Optional[JobFailure] = None) -> None:
        """Fold one finished job into the report, cache, telemetry."""
        if failure is None:
            report.payloads[spec.job_id] = payload
            if status == "ok" and self.cache is not None:
                self.cache.put(digest, spec.job_id, payload)
        else:
            report.failures.append(failure)
        report.outcomes.append(JobOutcome(
            job_id=spec.job_id, digest=digest, status=status,
            duration_s=duration_s))
        if self.telemetry is not None:
            at = time.perf_counter() - started_at
            span = self.telemetry.begin(
                spec.job_id, category="job", track="runner/jobs",
                at=max(0.0, at - duration_s), status=status)
            self.telemetry.finish(span, at)
        self._count(f"runner.jobs.{status}"
                    if status in ("ok", "cached") else
                    "runner.jobs.failed")
        self._emit({"event": "job", "job_id": spec.job_id, "status": status,
                    "done": len(report.outcomes), "total": total,
                    "duration_s": duration_s})

    # -- the run ----------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> RunReport:
        started = time.perf_counter()
        specs = list(specs)
        ids = [s.job_id for s in specs]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate job ids: {dupes}")

        if self.telemetry is not None:
            self.telemetry.start_run("experiment-runner")
        report = RunReport()
        digests = {s.job_id: job_digest(s) for s in specs}
        total = len(specs)

        pending: List[JobSpec] = []
        for spec in specs:
            digest = digests[spec.job_id]
            if self.cache is not None:
                payload = self.cache.get(digest)
                if payload is not None:
                    report.cache_hits += 1
                    self._count("runner.cache.hit")
                    self._settle(report, spec, digest, "cached", payload,
                                 0.0, started, total)
                    continue
                self._count("runner.cache.miss")
            pending.append(spec)

        if self.max_workers == 0:
            self._run_serial(report, pending, digests, started, total)
        else:
            self._run_pool(report, pending, digests, started, total)
        report.duration_s = time.perf_counter() - started
        return report

    def _run_serial(self, report: RunReport, pending: Sequence[JobSpec],
                    digests: Mapping[str, str], started: float,
                    total: int) -> None:
        for spec in pending:
            result = _execute_wire(_spec_to_wire(spec), self.timeout_s)
            self._finish_result(report, spec, digests[spec.job_id], result,
                                result.get("duration_s", 0.0), started,
                                total)

    def _run_pool(self, report: RunReport, pending: Sequence[JobSpec],
                  digests: Mapping[str, str], started: float,
                  total: int) -> None:
        if not pending:
            return
        import multiprocessing
        method = self.mp_context or (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        ctx = multiprocessing.get_context(method)
        with ProcessPoolExecutor(max_workers=self.max_workers,
                                 mp_context=ctx) as pool:
            futures = {pool.submit(_execute_wire, _spec_to_wire(spec),
                                   self.timeout_s): spec
                       for spec in pending}
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done,
                                      return_when=FIRST_COMPLETED)
                for future in done:
                    spec = futures[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        # The worker died hard (OOM, signal): a typed
                        # crash for this job; unfinished siblings settle
                        # the same way on their own futures.
                        result = {"status": "crash", "job_id": spec.job_id,
                                  "error_type": "BrokenProcessPool",
                                  "message": "worker process died"}
                    self._finish_result(report, spec, digests[spec.job_id],
                                        result,
                                        result.get("duration_s", 0.0),
                                        started, total)

    def _finish_result(self, report: RunReport, spec: JobSpec, digest: str,
                       result: Mapping[str, Any], duration_s: float,
                       started: float, total: int) -> None:
        report.executed += 1
        status = result["status"]
        if status == "ok":
            self._settle(report, spec, digest, "ok", result["payload"],
                         duration_s, started, total)
        else:
            failure = JobFailure(
                job_id=spec.job_id,
                kind="timeout" if status == "timeout"
                else "crash" if status == "crash" else "error",
                error_type=result["error_type"],
                message=result["message"])
            self._settle(report, spec, digest, failure.kind, None,
                         duration_s, started, total, failure=failure)


# ---------------------------------------------------------------------------
# Artifact plans: the full figure/table registry as job manifests


@dataclass(frozen=True)
class ArtifactPlan:
    """One artifact's decomposition: manifest + reassembly + rendering.

    The driver is the module ``repro.experiments.<name>``, imported on
    first use, so building the registry loads no driver.
    """

    name: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: ``assemble`` returns a tuple whose items are separate ``render``
    #: arguments (fig12's two panels).
    render_star: bool = False

    @property
    def driver(self) -> Any:
        return importlib.import_module(f"repro.experiments.{self.name}")

    def specs(self) -> List[JobSpec]:
        return list(self.driver.jobs(**dict(self.kwargs)))

    def assemble(self, payloads: Mapping[str, Any]) -> Any:
        own = {job.job_id: payloads[job.job_id] for job in self.specs()}
        return self.driver.assemble(own, **dict(self.kwargs))

    def render(self, assembled: Any) -> str:
        if self.render_star:
            return self.driver.render(*assembled)
        return self.driver.render(assembled)


def artifact_plans(quick: bool = False,
                   overrides: Optional[Mapping[str, Mapping[str, Any]]] = None
                   ) -> Dict[str, ArtifactPlan]:
    """Every paper artifact as an :class:`ArtifactPlan`.

    This is the CLI registry: ``quick`` shrinks the clusters.
    ``overrides`` merges extra kwargs into named plans (tests use this
    to shrink fig13's training run).
    """
    nodes = 8 if quick else 16
    sweep_nodes = (4, 8) if quick else (4, 16)
    plans = {
        "adaptive": ArtifactPlan(
            "adaptive",
            # quick shrinks the 256-node preset profile to 32 nodes; the
            # full run keeps the preset's native scale (expensive).
            {"num_nodes": nodes, "large_nodes": 32 if quick else None,
             "iterations": 2 if quick else 4, "large_iterations": 2}),
        "table1": ArtifactPlan("table1", {"num_nodes": nodes}),
        "table5": ArtifactPlan("table5"),
        "table6": ArtifactPlan("table6"),
        "table7": ArtifactPlan("table7"),
        "fig7": ArtifactPlan("fig7", {"node_counts": sweep_nodes}),
        "fig8": ArtifactPlan("fig8", {"node_counts": sweep_nodes}),
        "fig9": ArtifactPlan("fig9", {"num_nodes": nodes}),
        "fig10": ArtifactPlan("fig10", {"num_nodes": nodes}),
        "fig11": ArtifactPlan("fig11", {"num_nodes": nodes}),
        "fig12": ArtifactPlan("fig12", {"num_nodes": nodes},
                              render_star=True),
        "fig13": ArtifactPlan("fig13"),
        "heterogeneous": ArtifactPlan(
            "heterogeneous",
            {"num_nodes": nodes,
             "severities": (4.0,) if quick else (2.0, 4.0, 8.0),
             "wan_up_gbps": (1.0,) if quick else (0.5, 1.0, 4.0)}),
        "elastic": ArtifactPlan(
            "elastic",
            {"num_nodes": nodes, "epochs": 2 if quick else 3,
             "churns": ("static", "light") if quick
             else ("static", "light", "heavy")}),
        "kernel_speed": ArtifactPlan("kernel_speed"),
    }
    for name, extra in (overrides or {}).items():
        if name not in plans:
            raise KeyError(f"unknown artifact {name!r}; "
                           f"available: {sorted(plans)}")
        plan = plans[name]
        plans[name] = replace(plan, kwargs={**dict(plan.kwargs), **extra})
    return plans


def run_artifacts(names: Optional[Sequence[str]] = None,
                  quick: bool = False,
                  runner: Optional[ExperimentRunner] = None,
                  overrides: Optional[Mapping[str, Mapping[str, Any]]] = None
                  ) -> Tuple[Dict[str, Any], RunReport]:
    """Regenerate artifacts through the runner; one shared job batch.

    Jobs from all selected artifacts execute as a single batch, so
    parallelism crosses artifact boundaries.  Returns
    ``({name: {"result", "text"}}, report)``; raises if any job failed
    (the cache still holds the completed work, so a re-run executes
    only what is missing).
    """
    plans = artifact_plans(quick=quick, overrides=overrides)
    selected = list(names) if names else sorted(plans)
    unknown = [n for n in selected if n not in plans]
    if unknown:
        raise KeyError(f"unknown artifacts {unknown}; "
                       f"available: {sorted(plans)}")
    runner = runner or ExperimentRunner()
    specs: List[JobSpec] = []
    for name in selected:
        specs.extend(plans[name].specs())
    report = runner.run(specs)
    report.raise_on_failure()
    out = {}
    for name in selected:
        assembled = plans[name].assemble(report.payloads)
        out[name] = {"result": assembled,
                     "text": plans[name].render(assembled)}
    return out, report
