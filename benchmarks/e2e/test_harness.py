"""Self-tests of the end-to-end benchmark harness.

Run with ``python -m pytest benchmarks/e2e -q`` (not part of tier-1).
The smoke runs execute one op of every workload, untraced and traced.
"""

from __future__ import annotations

import gc
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import run as bench
import tracing

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=HERE.parents[1]):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def smoke():
    """One-op runs of every workload, untraced and traced."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = _run("--workload", name, "--seconds", "0",
                        "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            results[name, trace] = (lines, json.loads(lines[-1]))
    return results


# -- pure arithmetic ----------------------------------------------------------

def test_normalization_scales_interpreter_time_by_mean_calibration():
    ref = bench.CAL_REF_S
    assert bench.normalize(2.0, 0.0, ref / 2, ref * 1.5) == pytest.approx(2.0)
    assert bench.normalize(1.5, 0.0, ref, ref) == pytest.approx(1.5)
    # Interpreter time on a host twice as slow reads the same ...
    assert bench.normalize(4.0, 0.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    # ... while collector pauses are kept as measured.
    assert bench.normalize(3.0, 1.0, 2 * ref, 2 * ref) == pytest.approx(2.0)


def test_gc_clock_times_collections_inside_the_block():
    with bench.GcClock() as clock:
        gc.collect()
    assert clock.pause_s > 0 and clock.gen2 == 1
    gc.collect()
    assert clock.gen2 == 1


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert bench.tail_percentiles(39) == []
    assert bench.tail_percentiles(40) == [75]
    assert bench.tail_percentiles(100) == [75, 90]
    assert bench.tail_percentiles(1000) == [75, 90, 95, 99]


# -- failure counting ---------------------------------------------------------

class _Result:
    def __init__(self, iteration_time):
        self.iteration_time = iteration_time


class _FakeWorkload(bench.SimWorkload):
    """Op 1 raises, op 2 returns a perturbed value, the rest are right."""

    def __init__(self):
        self.calls = 0

    def before_op(self):
        pass

    def op(self):
        self.calls += 1
        time.sleep(0.02)
        if self.calls == 2:
            raise RuntimeError("injected failure")
        return _Result(0.5 + (1e-16 if self.calls == 3 else 0.0))


def test_error_rate_counts_raising_and_mismatching_ops(monkeypatch, capsys):
    monkeypatch.setattr(bench, "calibration_kernel", lambda: 0.1)
    workload = _FakeWorkload()
    loop = bench.measure(workload, {"iteration_time": repr(0.5)}, 0.3)
    assert loop.attempted >= 4
    assert loop.failed == 2
    assert len(loop.samples) == loop.attempted - 2
    bench.report_timings(bench.Report(), loop, (1.0, 1.0))
    out = capsys.readouterr().out
    assert f"error_rate {2 / loop.attempted!r} ratio" in out


def test_perturbed_expected_value_fails_every_op(monkeypatch):
    monkeypatch.setattr(bench, "calibration_kernel", lambda: 0.1)
    workload = _FakeWorkload()
    workload.calls = 3  # past the injected failures
    loop = bench.measure(workload, {"iteration_time": repr(0.5000001)}, 0.1)
    assert loop.failed == loop.attempted and not loop.samples


# -- compare.py ---------------------------------------------------------------

def _verdict(parent, change, bound=0.1):
    pairs = list(zip(parent, change))
    return compare.verdict(parent, change, bound, True, pairs)[0]


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert _verdict(base, [v * 1.03 for v in base]) == "ok"
    assert _verdict(base, [v * 1.20 for v in base]) == "regression"
    assert _verdict(base, [v * 0.80 for v in base]) == "improved"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    assert _verdict(base, noisy) == "unresolved"


# -- BENCHMARK.json and the printed metrics -----------------------------------

def test_benchmark_json_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(smoke, trace):
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name in WORKLOADS:
        lines, result = smoke[name, trace]
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == declared
        printed = {}
        for line in lines[1:-1]:
            metric, value, unit = line.split()
            assert NAME.match(metric)
            printed[metric] = (float(value), unit)
        for metric, unit in declared.items():
            assert printed[metric] == (result["metrics"][metric]["value"],
                                       unit)


@pytest.mark.parametrize("trace", [0, 1])
def test_one_op_smoke_run_is_correct(smoke, trace):
    for name in WORKLOADS:
        _, result = smoke[name, trace]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 1


def test_trace_files_are_chrome_traces(smoke):
    for pid, name in enumerate(WORKLOADS, start=1):
        trace = json.loads((bench.OUT / f"{name}.trace.json").read_text())
        events = trace["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert spans and all(e["pid"] == pid for e in events)
        tids = {}
        for e in spans:
            assert tids.setdefault(e["name"], e["tid"]) == e["tid"]
            assert e["dur"] >= 0 and e["ts"] >= 0
        assert len(set(tids.values())) == len(tids)
        thread_names = {e["args"]["name"]: e["tid"] for e in events
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        assert set(tids.items()) <= set(thread_names.items())


def test_every_traced_op_goes_through_run_system(smoke):
    for name in WORKLOADS:
        layers = json.loads((bench.OUT / f"{name}.layers.json").read_text())
        for op in layers["ops"]:
            assert op["calls"]["experiments.common.run_system"] >= 1


def test_self_times_add_up_to_the_op(smoke):
    for name in WORKLOADS:
        layers = json.loads((bench.OUT / f"{name}.layers.json").read_text())
        for op in layers["ops"]:
            total = sum(op["self_s"].values())
            assert total == pytest.approx(op["op_s"], rel=1e-6)
            assert op["self_s"][tracing.ROOT] < 0.05 * op["op_s"]


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
