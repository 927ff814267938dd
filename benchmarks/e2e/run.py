#!/usr/bin/env python3
"""End-to-end host-time benchmark of the paper's CaSync path.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload ps-bert-large-n4-cold \
        [--seed N] [--seconds S] [--trace 0|1]

One run is a closed loop with one client in one process: the workload's
op runs back to back until ``--seconds`` is used up, and every simulated
output is checked against ``expected.json``.  Each metric is printed as
``name value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones).  See README.md in this directory.

Host wall time on a shared VM drifts between runs, so every timing is
speed-normalized: its interpreter share (wall time minus collector
pauses) is divided by the mean of a standard-library calibration kernel
timed right before and right after it, and scaled to ``CAL_REF_S``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import heapq
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

#: Reference duration of the calibration kernel: a normalized time is what
#: the wall time would be on a host where the kernel takes this long.
CAL_REF_S = 0.100
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_RUNS = 5
#: Calibration samples taken before and after setup in each interpreter.
SETUP_CAL_SAMPLES = 2
#: A percentile above the median is printed only with this many samples
#: beyond it.
TAIL_SAMPLES = 10


# -- speed normalization ------------------------------------------------------

class _Cell:
    __slots__ = ("key", "rank")

    def __init__(self, key: int, rank: int) -> None:
        self.key = key
        self.rank = rank


def calibration_kernel() -> float:
    """Seconds one fixed interpreter-bound workload takes right now.

    50k dict inserts of small slotted objects, a keyed sort and heap
    traffic: the operations the simulator spends its interpreter time
    in.  Uses only the standard library, so it measures the host, never
    the code under test.  GC is off while it runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(50_000):
            table[(i, i % 7)] = _Cell(i, i % 7)
        keys = sorted(table, key=lambda k: (k[1], -k[0]))
        heap: List[Tuple[int, int]] = []
        for key in keys:
            heapq.heappush(heap, (table[key].rank, key[0]))
        while heap:
            heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class GcClock:
    """Collector pause seconds and full collections inside a block."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._started = 0.0

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._started
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._on_gc)


def normalize(wall_s: float, gc_s: float, cal_before: float,
              cal_after: float) -> float:
    """``wall_s`` as it would read on a host whose kernel takes
    ``CAL_REF_S``.

    Only the interpreter share is scaled.  Collector pauses walk the heap
    and are bound by memory latency; on a shared host they hardly slow
    down when the interpreter does, so they are kept as measured (see
    README.md for the evidence).
    """
    return gc_s + (wall_s - gc_s) * CAL_REF_S / ((cal_before + cal_after)
                                                 / 2)


def tail_percentiles(n: int) -> List[int]:
    """Percentiles above the median with ``TAIL_SAMPLES`` samples beyond."""
    return [p for p in (75, 90, 95, 99)
            if n * (100 - p) / 100 >= TAIL_SAMPLES]


def percentile(values: List[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# -- workloads ----------------------------------------------------------------

def iteration_record(result: Any) -> Dict[str, Any]:
    """Every field of an IterationResult, bit-exact and JSON-safe."""
    record = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if f.name == "gpu_util_series":
            value = hashlib.sha256(repr(tuple(value)).encode()).hexdigest()
        record[f.name] = repr(value) if isinstance(value, float) else value
    return record


class SimWorkload:
    """One ``run_system`` call; ``cold`` empties the GraphCache first."""

    def __init__(self, system: str, model: str, nodes: int, algorithm: str,
                 cold: bool) -> None:
        self.system = system
        self.model = model
        self.nodes = nodes
        self.algorithm = algorithm
        self.cold = cold

    def setup(self, seed: int) -> None:
        # The simulator has no random input: the seed is recorded only.
        import repro.experiments.common as common
        from repro.casync.lower import default_graph_cache
        from repro.cluster import ec2_v100_cluster
        from repro.models import get_model
        from repro.training import make_plans

        # Resolved per call, like any caller, so a traced run sees it.
        self._common = common
        self._cache = default_graph_cache()
        self.cluster = ec2_v100_cluster(self.nodes)
        make_plans(get_model(self.model), self.cluster,
                   common.default_algorithm(self.algorithm),
                   common.SYSTEMS[self.system].planner_kind)

    def before_op(self) -> None:
        if self.cold:
            self._cache.clear()

    def op(self) -> Any:
        return self._common.run_system(self.system, self.model, self.cluster,
                                       algorithm=self.algorithm)

    def after_op(self) -> None:
        pass

    def check(self, output: Any, expected: Dict[str, Any]) -> bool:
        return repr(output.iteration_time) == expected["iteration_time"]

    def record(self, output: Any) -> Dict[str, Any]:
        return iteration_record(output)


class SweepWorkload:
    """Quick heterogeneous manifest through the runner, then the advisor.

    ``--seed`` shuffles the job order and the advisor's query order (0
    keeps manifest order); the assembled artifact and the verdicts must
    not depend on either.
    """

    def setup(self, seed: int) -> None:
        import repro.advisor as advisor
        from repro.casync.lower import default_graph_cache
        from repro.experiments import heterogeneous
        from repro.experiments.runner import (ExperimentRunner, ResultCache,
                                              artifact_plans, code_token)

        self._advisor = advisor
        self._runner_cls = ExperimentRunner
        self._cache_cls = ResultCache
        self._graph_cache = default_graph_cache()
        self.plan = artifact_plans(quick=True)["heterogeneous"]
        self.specs = self.plan.specs()
        self.keys = [row["key"] for row in
                     heterogeneous.scenarios(**self.plan.kwargs)]
        if seed:
            rng = random.Random(seed)
            rng.shuffle(self.specs)
            rng.shuffle(self.keys)
        code_token()
        self.cache_dir = OUT / f"sweep-cache-{os.getpid()}"

    def before_op(self) -> None:
        self._graph_cache.clear()
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def op(self) -> Any:
        runner = self._runner_cls(max_workers=0,
                                  cache=self._cache_cls(self.cache_dir))
        report = runner.run(self.specs)
        report.raise_on_failure()
        artifact = self.plan.assemble(report.payloads)
        recs = {key: self._advisor.recommend(cluster=key, quick=True,
                                             runner=runner)
                for key in self.keys}
        return artifact, recs, report

    def after_op(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def check(self, output: Any, expected: Dict[str, Any]) -> bool:
        _, recs, report = output
        digests = {o.job_id: o.digest for o in report.outcomes}
        for rec in recs.values():
            if rec.executed != 0:
                return False
            for v in rec.verdicts:
                if v.served_from != "cache" or digests.get(v.job_id) \
                        != v.digest:
                    return False
        return self.record(output) == expected

    def record(self, output: Any) -> Dict[str, Any]:
        # Job digests hash every source file, so they are checked against
        # the runner's own (above), never pinned.
        artifact, recs, _ = output
        return {
            "artifact": json.loads(json.dumps(artifact, sort_keys=True)),
            "verdicts": {
                key: [[v.system, v.algorithm, repr(v.utility), v.wins]
                      for v in recs[key].verdicts]
                for key in sorted(recs)},
        }


WORKLOADS: Dict[str, Callable[[], Any]] = {
    "ps-bert-large-n4-cold": lambda: SimWorkload(
        "hipress-ps", "bert-large", 4, "onebit", cold=True),
    "ps-bert-large-n4-warm": lambda: SimWorkload(
        "hipress-ps", "bert-large", 4, "onebit", cold=False),
    "ring-vgg19-n16-warm": lambda: SimWorkload(
        "hipress-ring", "vgg19", 16, "dgc", cold=False),
    "hetero-sweep-n8": SweepWorkload,
}


# -- measurement --------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Sample:
    """One successful timed op."""

    op_id: int
    wall_s: float
    gc_s: float
    gen2: int
    op_s: float
    traced: bool


@dataclasses.dataclass
class Loop:
    """What one closed loop measured."""

    samples: List[Sample] = dataclasses.field(default_factory=list)
    cal_s: List[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    last_output: Any = None


def timed_op(workload: Any, op_id: int, tracer: Any
             ) -> Tuple[Any, float, GcClock]:
    """Run one op; returns its output, wall seconds and GC clock."""
    with GcClock() as gc_clock:
        if tracer is None:
            start = time.perf_counter()
            output = workload.op()
            return output, time.perf_counter() - start, gc_clock
        with tracer.op(op_id) as root:
            start = time.perf_counter()
            output = root(workload.op)
            return output, time.perf_counter() - start, gc_clock


def measure(workload: Any, expected: Dict[str, Any], seconds: float,
            tracer: Any = None) -> Loop:
    """Run ops back to back while the next one fits in ``seconds``.

    At least one op runs.  ``gc.collect()`` precedes each op and the
    calibration kernel follows it, both outside the timer.  A failed op
    (it raised, or its output differs from ``expected``) is counted and
    left out of the timings.  With a ``tracer``, every other op is traced
    and the rest are its untraced reference.
    """
    loop = Loop()
    cal_before = calibration_kernel()
    loop.cal_s.append(cal_before)
    start = time.perf_counter()
    cycle = 0.0
    while loop.attempted == 0 or \
            time.perf_counter() - start + cycle <= seconds:
        cycle_start = time.perf_counter()
        op_id = loop.attempted
        loop.attempted += 1
        traced = tracer is not None and op_id % 2 == 0
        workload.before_op()
        gc.collect()
        try:
            output, wall, gc_clock = timed_op(workload, op_id,
                                              tracer if traced else None)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            output = None
        workload.after_op()
        cal_after = calibration_kernel()
        loop.cal_s.append(cal_after)
        if output is not None and workload.check(output, expected):
            op_s = normalize(wall, gc_clock.pause_s, cal_before, cal_after)
            loop.samples.append(Sample(op_id, wall, gc_clock.pause_s,
                                       gc_clock.gen2, op_s, traced))
            loop.last_output = output
        else:
            loop.failed += 1
        cal_before = cal_after
        cycle = time.perf_counter() - cycle_start
    return loop


def setup_probe(name: str, seed: int) -> Dict[str, Any]:
    """Time imports plus fixture construction in this fresh interpreter."""
    cal = [calibration_kernel() for _ in range(SETUP_CAL_SAMPLES)]
    with GcClock() as gc_clock:
        start = time.perf_counter()
        WORKLOADS[name]().setup(seed)
        wall = time.perf_counter() - start
    cal += [calibration_kernel() for _ in range(SETUP_CAL_SAMPLES)]
    return {"wall_s": wall, "gc_s": gc_clock.pause_s, "cal_s": cal}


def measure_setup(name: str, seed: int) -> Tuple[List[float], List[float]]:
    """Normalized and raw setup seconds of ``SETUP_RUNS`` interpreters.

    The interpreters share a bytecode cache under ``OUT``, filled by one
    unmeasured interpreter first, so set-up never includes compiling,
    whatever the caller's ``PYTHONDONTWRITEBYTECODE`` says.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
               PYTHONDONTWRITEBYTECODE="")
    normalized, raw = [], []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            env=env, capture_output=True, text=True, timeout=120,
            check=True)
        if i == 0:
            continue
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        cal = statistics.median(probe["cal_s"])
        raw.append(probe["wall_s"])
        normalized.append(normalize(probe["wall_s"], probe["gc_s"], cal, cal))
    return normalized, raw


# -- reporting ----------------------------------------------------------------

class Report:
    """Metric lines printed as ``name value unit``."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, Any]] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value!r} {unit}")


def report_timings(report: Report, loop: Loop, first_op: Tuple[float, float]
                   ) -> None:
    untraced = [s for s in loop.samples if not s.traced]
    if untraced:
        op_s = [s.op_s for s in untraced]
        report.add("op_s.p50", statistics.median(op_s), "s")
        report.add("op_s.n", len(op_s), "count")
        for p in tail_percentiles(len(op_s)):
            report.add(f"op_s.p{p}", percentile(op_s, p), "s")
        report.add("host.wall_s.p50",
                   statistics.median(s.wall_s for s in untraced), "s")
        report.add("host.gc_s.p50",
                   statistics.median(s.gc_s for s in untraced), "s")
    report.add("host.cal_s.p50", statistics.median(loop.cal_s), "s")
    report.add("host.first_op_s", first_op[0], "s")
    report.add("host.first_op_wall_s", first_op[1], "s")
    report.add("error_rate", loop.failed / loop.attempted, "ratio")


def report_layers(report: Report, name: str, seed: int, loop: Loop,
                  tracer: tracing.Tracer, counts: Dict[str, float]) -> None:
    """Per-layer means over the traced ops, plus the counting op.

    Means, not medians, so the layer self times and ``unattributed_s``
    add up to ``op_s.mean`` exactly.
    """
    traced = [s for s in loop.samples if s.traced]
    names = tracing.layer_names()
    layers = [n for n in names if n != tracing.ROOT]
    self_sum = dict.fromkeys(names, 0.0)
    calls_sum = dict.fromkeys(layers, 0)
    per_op = []
    for sample in traced:
        raw_self, calls = tracer.self_times(sample.op_id)
        # The root span sits inside the op's timer; what the named layers
        # do not cover, wrapper overhead included, is unattributed.
        raw_self[tracing.ROOT] = sample.wall_s - sum(
            v for n, v in raw_self.items() if n != tracing.ROOT)
        factor = sample.op_s / sample.wall_s
        row = {n: raw_self.get(n, 0.0) * factor for n in names}
        for n in names:
            self_sum[n] += row[n]
        for n in layers:
            calls_sum[n] += calls.get(n, 0)
        per_op.append({"op_id": sample.op_id, "op_s": sample.op_s,
                       "self_s": row, "calls": calls})
    ops = len(traced)
    for n in layers:
        report.add(f"{n}.self_s", self_sum[n] / ops, "s")
    for n in layers:
        report.add(f"{n}.calls", calls_sum[n] / ops, "count")
    report.add("casync.lower.recipe_s",
               sum(self_sum[n] for n in tracing.RECIPE_LAYERS) / ops, "s")
    report.add("unattributed_s", self_sum[tracing.ROOT] / ops, "s")
    traced_op_s = [s.op_s for s in traced]
    report.add("op_s.mean", statistics.fmean(traced_op_s), "s")
    untraced = [s.op_s for s in loop.samples if not s.traced]
    overhead = (statistics.median(traced_op_s) / statistics.median(untraced)
                - 1 if untraced else 0.0)
    report.add("trace.overhead", overhead, "ratio")
    report.add("python.gc.pause_s",
               statistics.fmean(s.gc_s for s in traced), "s")
    report.add("python.gc.gen2",
               statistics.fmean(s.gen2 for s in traced), "count")
    for key in sorted(counts):
        unit = "ratio" if key.endswith("_ratio") else (
            "bytes" if key.endswith("bytes_sent") else "count")
        report.add(key, counts[key], unit)

    OUT.mkdir(exist_ok=True)
    pid = list(WORKLOADS).index(name) + 1
    (OUT / f"{name}.trace.json").write_text(
        json.dumps(tracer.chrome_trace(pid, name)))
    (OUT / f"{name}.layers.json").write_text(json.dumps({
        "workload": name, "seed": seed, "cal_ref_s": CAL_REF_S,
        "ops": per_op, "counts": counts,
        "metrics": {k: v["value"] for k, v in report.metrics.items()},
    }, indent=1, sort_keys=True))


# -- entry points -------------------------------------------------------------

def benchmark_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace: bool) -> List[str]:
    spec = benchmark_spec()
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def bench(name: str, seed: int, seconds: float, trace: bool) -> int:
    expected = json.loads(EXPECTED.read_text())[name]
    print(f"# workload={name} seed={seed} trace={int(trace)} "
          f"seconds={seconds:g} cal_ref_s={CAL_REF_S}", flush=True)
    report = Report()
    if not trace:
        setup_norm, setup_raw = measure_setup(name, seed)
        report.add("setup_s", statistics.median(setup_norm), "s")
        report.add("host.setup_wall_s", statistics.median(setup_raw), "s")

    workload = WORKLOADS[name]()
    workload.setup(seed)
    cal_before = calibration_kernel()
    workload.before_op()
    gc.collect()
    _, wall, gc_clock = timed_op(workload, -1, None)
    workload.after_op()
    first_op = (normalize(wall, gc_clock.pause_s, cal_before,
                          calibration_kernel()), wall)

    tracer = tracing.Tracer() if trace else None
    loop = measure(workload, expected, seconds, tracer)
    if not any(s.traced == trace for s in loop.samples):
        print(f"{loop.failed} of {loop.attempted} ops failed; nothing to "
              f"report", file=sys.stderr)
        return 1
    # The full record is compared once, outside the timer, so a lazily
    # computed field is never forced inside a timed op.
    full_ok = workload.record(loop.last_output) == expected
    if not full_ok:
        print("full output record differs from expected.json",
              file=sys.stderr)
        loop.failed += 1
    report_timings(report, loop, first_op)

    if trace:
        counts: Dict[str, float] = {}
        workload.before_op()
        with tracing.Tracer.counting(counts):
            output = workload.op()
        workload.after_op()
        if not workload.check(output, expected):
            loop.failed += 1
        report_layers(report, name, seed, loop, tracer, counts)
    else:
        report.add("peak_rss_mb", resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    metrics = {m: report.metrics[m] for m in declared_metrics(trace)}
    print(json.dumps({"correct": loop.failed == 0,
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


def write_expected() -> None:
    """Pin one op's full output per workload (run at a trusted commit)."""
    pinned = {}
    for name, factory in WORKLOADS.items():
        workload = factory()
        workload.setup(0)
        workload.before_op()
        pinned[name] = workload.record(workload.op())
        workload.after_op()
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-expected", action="store_true",
                        help="re-pin expected.json from this checkout")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no simulator sources at {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_expected:
        write_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    seconds = (args.seconds if args.seconds is not None
               else benchmark_spec()["run_seconds"])
    return bench(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
