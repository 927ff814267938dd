"""Unit tests for the experiment runner's building blocks.

Covers the content-addressed digest, the on-disk cache, and the
runner's typed failure capture (error / timeout / duplicate ids), using
tiny synthetic jobs defined in this module so no simulator work is
involved.  End-to-end bit-identity lives in
``test_runner_conformance.py``; crash-then-rerun in
``test_runner_resume``.
"""

import json
import math
import signal
import time

import pytest

from repro.experiments.common import JobSpec, canonical_json, execute_serial
from repro.experiments.runner import (
    ExperimentRunner,
    ResultCache,
    code_token,
    job_digest,
)

# --------------------------------------------------------------- test jobs
# Module-level so worker processes can import them by name.


def add_job(a, b):
    return {"sum": a + b}


def failing_job(message="boom"):
    raise RuntimeError(message)


def slow_job(seconds):
    time.sleep(seconds)
    return {"slept": seconds}


def spec_for(call, job_id="t/0", **params):
    return JobSpec(artifact="t", job_id=job_id, module=__name__,
                   params=params, call=call)


# ----------------------------------------------------------------- digests


def test_digest_is_stable_and_hex():
    spec = spec_for("add_job", a=1, b=2)
    d1, d2 = job_digest(spec), job_digest(spec)
    assert d1 == d2
    assert len(d1) == 64 and int(d1, 16) >= 0


def test_digest_covers_params_and_call():
    base = job_digest(spec_for("add_job", a=1, b=2))
    assert job_digest(spec_for("add_job", a=1, b=3)) != base
    assert job_digest(spec_for("failing_job", a=1, b=2)) != base


def test_digest_covers_algorithm_identity():
    """A job names its codec in ``params``, so the codec keys the digest."""
    plain = spec_for("add_job", a=1, b=2)
    with_algo = spec_for("add_job", a=1, b=2, algorithm="dgc")
    reparam = spec_for("add_job", a=1, b=2, algorithm="dgc",
                       algorithm_params={"rate": 0.05})
    digests = {job_digest(plain), job_digest(with_algo),
               job_digest(reparam)}
    assert len(digests) == 3


def test_code_token_cached_and_stable():
    assert code_token() == code_token()
    assert len(code_token()) == 64


# ------------------------------------------------------------------- cache


def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    digest = "ab" * 32
    assert cache.get(digest) is None
    cache.put(digest, "t/0", {"x": [1, 2]})
    assert cache.get(digest) == {"x": [1, 2]}
    assert cache.misses == 1 and cache.hits == 1
    assert len(cache) == 1
    # sharded layout: <dir>/<digest[:2]>/<digest>.json
    assert cache.path(digest).parent.name == digest[:2]


def test_cache_corrupt_entry_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    digest = "cd" * 32
    cache.put(digest, "t/0", 42)
    cache.path(digest).write_text("{not json")
    assert cache.get(digest) is None


def test_cache_write_is_atomic_no_temp_left(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("ef" * 32, "t/0", {"big": "x" * 4096})
    leftovers = [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
    assert leftovers == []


# ------------------------------------------------------------------ runner


def test_serial_run_executes_and_caches(tmp_path):
    cache = ResultCache(tmp_path)
    specs = [spec_for("add_job", f"t/{i}", a=i, b=1) for i in range(4)]
    report = ExperimentRunner(cache=cache).run(specs)
    assert report.ok and report.executed == 4
    assert report.payloads["t/2"] == {"sum": 3}
    again = ExperimentRunner(cache=cache).run(specs)
    assert again.executed == 0 and again.cache_hits == 4
    assert again.payloads == report.payloads


def test_duplicate_job_ids_rejected():
    specs = [spec_for("add_job", "t/same", a=1, b=1),
             spec_for("add_job", "t/same", a=2, b=2)]
    with pytest.raises(ValueError, match="duplicate"):
        ExperimentRunner().run(specs)
    with pytest.raises(ValueError, match="duplicate"):
        execute_serial(specs)


def test_typed_error_capture_does_not_abort_run():
    specs = [spec_for("failing_job", "t/bad", message="kaput"),
             spec_for("add_job", "t/good", a=2, b=3)]
    report = ExperimentRunner().run(specs)
    assert not report.ok
    assert report.payloads["t/good"] == {"sum": 5}
    (failure,) = report.failures
    assert failure.job_id == "t/bad"
    assert failure.kind == "error"
    assert failure.error_type == "RuntimeError"
    assert "kaput" in failure.message
    with pytest.raises(RuntimeError, match="t/bad"):
        report.raise_on_failure()


def test_timeout_is_a_typed_failure():
    specs = [spec_for("slow_job", "t/slow", seconds=5.0),
             spec_for("add_job", "t/fast", a=1, b=1)]
    report = ExperimentRunner(timeout_s=0.05).run(specs)
    (failure,) = report.failures
    assert failure.job_id == "t/slow" and failure.kind == "timeout"
    assert report.payloads["t/fast"] == {"sum": 2}


def test_per_spec_timeout_overrides_runner_default():
    spec = JobSpec(artifact="t", job_id="t/slow", module=__name__,
                   params={"seconds": 0.2}, call="slow_job", timeout_s=5.0)
    report = ExperimentRunner(timeout_s=0.01).run([spec])
    assert report.ok  # the generous per-spec timeout wins


def test_pool_failure_capture(tmp_path):
    specs = [spec_for("failing_job", "t/bad"),
             spec_for("add_job", "t/good", a=1, b=1)]
    report = ExperimentRunner(max_workers=2).run(specs)
    assert [f.job_id for f in report.failures] == ["t/bad"]
    assert report.payloads["t/good"] == {"sum": 2}


def test_negative_workers_rejected():
    with pytest.raises(ValueError, match="max_workers"):
        ExperimentRunner(max_workers=-1)


BAD_TIMEOUTS = [-1.0, 0, math.nan, math.inf]


@pytest.mark.parametrize("timeout_s", BAD_TIMEOUTS)
def test_bad_runner_timeout_rejected(timeout_s):
    with pytest.raises(ValueError, match="timeout_s"):
        ExperimentRunner(timeout_s=timeout_s)


@pytest.mark.parametrize("timeout_s", BAD_TIMEOUTS)
def test_bad_job_timeout_is_a_typed_error_and_leaves_sigalrm(timeout_s):
    before = signal.getsignal(signal.SIGALRM)
    spec = JobSpec(artifact="t", job_id="t/bad", module=__name__,
                   params={"a": 1, "b": 1}, call="add_job",
                   timeout_s=timeout_s)
    report = ExperimentRunner().run([spec, spec_for("add_job", "t/ok",
                                                     a=1, b=2)])
    (failure,) = report.failures
    assert failure.job_id == "t/bad" and failure.kind == "error"
    assert failure.error_type == "ValueError"
    assert "timeout_s" in failure.message
    assert report.payloads["t/ok"] == {"sum": 3}
    assert signal.getsignal(signal.SIGALRM) is before


def test_progress_events_stream(tmp_path):
    events = []
    specs = [spec_for("add_job", f"t/{i}", a=i, b=0) for i in range(3)]
    ExperimentRunner(progress=events.append).run(specs)
    assert [e["done"] for e in events] == [1, 2, 3]
    assert all(e["total"] == 3 and e["status"] == "ok" for e in events)


def test_telemetry_counters_and_spans(tmp_path):
    from repro.telemetry import TelemetryCollector
    tel = TelemetryCollector()
    cache = ResultCache(tmp_path)
    specs = [spec_for("add_job", f"t/{i}", a=i, b=0) for i in range(2)]
    ExperimentRunner(cache=cache, telemetry=tel).run(specs)
    ExperimentRunner(cache=cache, telemetry=tel).run(specs)
    snap = {(m["name"],): m["value"] for m in tel.metrics.snapshot()}
    assert snap[("runner.jobs.ok",)] == 2
    assert snap[("runner.cache.hit",)] == 2
    assert snap[("runner.cache.miss",)] == 2
    assert snap[("runner.jobs.cached",)] == 2
    job_spans = [s for s in tel.spans if s.category == "job"]
    assert len(job_spans) == 4 and all(s.finished for s in job_spans)


def test_cached_payload_json_identical_to_fresh(tmp_path):
    cache = ResultCache(tmp_path)
    spec = spec_for("add_job", "t/0", a=1, b=2)
    fresh = ExperimentRunner(cache=cache).run([spec]).payloads
    cached = ExperimentRunner(cache=cache).run([spec]).payloads
    assert canonical_json(fresh) == canonical_json(cached)
    raw = json.loads(cache.path(job_digest(spec)).read_text())
    assert raw["payload"] == fresh["t/0"]
