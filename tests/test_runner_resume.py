"""Crash, then rerun: an interrupted run continues without recomputation.

The kill point comes from a :class:`repro.faults.FaultSchedule`: a
``NodeCrash(at=N)`` is interpreted as "the host running the harness
dies after N completed jobs" and delivered through the runner's
progress callback as a ``KeyboardInterrupt`` -- the same path a real
Ctrl-C or SIGINT takes.  The result cache is the only record of
finished work, so after the crash a plain rerun over the same cache must

* serve every completed job from the cache (cache-hit counters prove
  no recomputation),
* execute only the remainder, and
* produce payloads byte-identical to an uninterrupted run.
"""

import pytest

from repro.experiments import kernel_speed, table6, table7
from repro.experiments.common import canonical_json
from repro.experiments.runner import (
    ExperimentRunner,
    ResultCache,
    job_digest,
)
from repro.faults import FaultSchedule, NodeCrash
from repro.telemetry import TelemetryCollector


def batch_specs():
    return table6.jobs() + table7.jobs() + kernel_speed.jobs()


@pytest.fixture(scope="module")
def uninterrupted():
    specs = batch_specs()
    report = ExperimentRunner().run(specs)
    assert report.ok
    return canonical_json(report.payloads)


class HarnessKiller:
    """Deliver a fault schedule's NodeCrash as a harness interrupt."""

    def __init__(self, schedule: FaultSchedule):
        self.kill_after = [int(e.at) for e in schedule
                           if isinstance(e, NodeCrash)]
        self.seen = 0

    def __call__(self, event):
        self.seen += 1
        if self.kill_after and self.seen >= self.kill_after[0]:
            self.kill_after.pop(0)
            raise KeyboardInterrupt


@pytest.mark.parametrize("kill_after", [1, 5, 12])
def test_crash_then_resume_matches_uninterrupted(kill_after, tmp_path,
                                                 uninterrupted):
    specs = batch_specs()
    cache = ResultCache(tmp_path / "cache")
    schedule = FaultSchedule((NodeCrash(at=float(kill_after)),))
    killer = HarnessKiller(schedule)

    with pytest.raises(KeyboardInterrupt):
        ExperimentRunner(cache=cache, progress=killer).run(specs)
    assert len(cache) == kill_after

    tel = TelemetryCollector()
    rerun = ExperimentRunner(cache=cache, telemetry=tel).run(specs)
    assert rerun.ok
    assert rerun.cache_hits == kill_after
    assert rerun.executed == len(specs) - kill_after
    hits = [m for m in tel.metrics.snapshot()
            if m["name"] == "runner.cache.hit"]
    assert hits and hits[0]["value"] == kill_after
    assert canonical_json(rerun.payloads) == uninterrupted


def test_resume_after_clean_run_executes_nothing(tmp_path, uninterrupted):
    specs = batch_specs()
    cache = ResultCache(tmp_path / "cache")
    first = ExperimentRunner(cache=cache).run(specs)
    assert first.ok
    again = ExperimentRunner(cache=cache).run(specs)
    assert again.executed == 0
    assert again.cache_hits == len(specs)
    assert canonical_json(again.payloads) == uninterrupted


def test_resume_distrusts_stale_journal_digests(tmp_path, uninterrupted):
    """A payload stored under an outdated digest is never served."""
    specs = batch_specs()
    cache = ResultCache(tmp_path / "cache")
    # Forge a finished payload under an outdated digest (as if the code
    # or config changed between the crash and the rerun).
    cache.put("0" * 64, specs[0].job_id, {"forged": True})
    report = ExperimentRunner(cache=cache).run(specs)
    assert report.ok
    assert report.cache_hits == 0       # the forged entry was not served
    assert report.executed == len(specs)
    assert canonical_json(report.payloads) == uninterrupted


def test_resume_survives_missing_cache_entry(tmp_path, uninterrupted):
    """A finished job whose cache entry is gone is recomputed."""
    specs = batch_specs()
    cache = ResultCache(tmp_path / "cache")
    killer = HarnessKiller(FaultSchedule((NodeCrash(at=4.0),)))
    with pytest.raises(KeyboardInterrupt):
        ExperimentRunner(cache=cache, progress=killer).run(specs)
    victim = specs[0]
    cache.path(job_digest(victim)).unlink()
    rerun = ExperimentRunner(cache=cache).run(specs)
    assert rerun.ok
    assert rerun.cache_hits == 3        # 4 finished, 1 evicted
    assert rerun.executed == len(specs) - 3
    assert canonical_json(rerun.payloads) == uninterrupted


def test_interrupt_mid_pool_run_is_resumable(tmp_path, uninterrupted):
    """The pool path leaves every settled job in the cache too."""
    specs = batch_specs()
    cache = ResultCache(tmp_path / "cache")
    killer = HarnessKiller(FaultSchedule((NodeCrash(at=6.0),)))
    with pytest.raises(KeyboardInterrupt):
        ExperimentRunner(max_workers=2, cache=cache,
                         progress=killer).run(specs)
    done_before = len(cache)
    assert done_before >= 6
    rerun = ExperimentRunner(cache=cache).run(specs)
    assert rerun.ok
    assert rerun.cache_hits == done_before
    assert rerun.executed == len(specs) - done_before
    assert canonical_json(rerun.payloads) == uninterrupted
