"""Graph-equivalence regression: the IR pipeline vs the pre-refactor graphs.

The SyncPlan IR refactor (strategies emit declarative plans, a pass
pipeline applies the CaSync optimizations, a lowering stage instantiates
the TaskGraph) must be a pure re-layering: for every system under test the
executed timeline has to be *bit-identical* to the graphs the strategies
used to build imperatively.  The golden hashes in
``tests/golden/trace_hashes.json`` were captured from the pre-refactor
code; this suite replays every configuration through the current pipeline
and compares :func:`~repro.training.trace.trace_hash` digests.
:func:`~repro.training.trace.trace_iteration` runs the very round
:func:`~repro.training.loop.simulate_iteration` runs, with intra-node
aggregation off, so the goldens pin the real driver, not a copy of it.

Every case also runs under an attached telemetry collector.  The
collector rides the same fast paths (inline sends, vectorized bulk
flushes) as a bare run and only records, so the traced run must
reproduce the pinned hash too.  Its telemetry is pinned as well, in
``tests/golden/telemetry_digests.json``: one digest over its spans (every
category but ``process``) and one over its metrics (all but
``sim.processes``).

The seed-11 fault rounds of ``tests/test_faults.py`` pin the same two
digests of their traced run in ``tests/golden/fault_telemetry_digests.json``.

Regenerate (only legitimate when the *simulated behaviour* is meant to
change, never to paper over an IR bug)::

    PYTHONPATH=src python tests/test_graph_equivalence.py --regen
"""

import contextlib
import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.plancheck import golden_cases, golden_model
from repro.casync.lower import default_graph_cache
from repro.cluster import ec2_v100_cluster
from repro.telemetry import telemetry_session
from repro.training.trace import trace_hash, trace_iteration

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_hashes.json"
DIGEST_PATH = Path(__file__).parent / "golden" / "telemetry_digests.json"
#: Span attrs holding task ids, which count up across a whole process.
_ID_ATTRS = ("task", "task_ids")


def span_digest(tel):
    """Digest of every non-``process`` span, in recording order.

    A span is keyed by name, category, track, start, end, its attrs
    (task ids excluded) and its parent's name and start.
    """
    by_id = {span.id: span for span in tel.spans}
    digest = hashlib.sha256()
    for span in tel.spans:
        if span.category == "process":
            continue
        parent = by_id.get(span.parent_id)
        attrs = sorted((k, v) for k, v in span.attrs.items()
                       if k not in _ID_ATTRS)
        key = (span.name, span.category, span.track, span.start, span.end,
               attrs, None if parent is None else (parent.name, parent.start))
        digest.update(repr(key).encode() + b"\n")
    return digest.hexdigest()


def metrics_digest(tel):
    """Digest of the metrics snapshot without ``sim.processes``."""
    rows = [row for row in tel.metrics.snapshot()
            if row["name"] != "sim.processes"]
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()


def enumerate_cases():
    """Yield (case_name, runner) pairs covering SYSTEMS plus ablations."""
    model = golden_model()
    cluster = ec2_v100_cluster(4)

    def make_runner(case):
        def run():
            strategy, algorithm, plans = case.inputs(model, cluster)
            return trace_hash(trace_iteration(
                model, cluster, strategy, algorithm=algorithm, plans=plans))
        return run

    for case in golden_cases():
        yield case.name, make_runner(case)


def _load_golden(path=GOLDEN_PATH):
    return json.loads(path.read_text())


CASES = dict(enumerate_cases())


@pytest.mark.parametrize("case,traced", [
    pytest.param(case, traced, id=case + ("-telemetry" if traced else ""))
    for case in sorted(CASES) for traced in (False, True)])
def test_trace_hash_matches_pre_refactor(case, traced):
    golden = _load_golden()
    assert case in golden, (
        f"{case} missing from {GOLDEN_PATH}; regenerate with "
        "python tests/test_graph_equivalence.py --regen")
    if traced:
        # A cold build, so the recorded syncplan spans and cache counters
        # do not depend on which cases ran before this one.
        default_graph_cache().clear()
    session = telemetry_session() if traced else contextlib.nullcontext()
    with session as tel:
        digest = CASES[case]()
    assert digest == golden[case], (
        f"{case}: lowered TaskGraph diverged from the pre-refactor "
        f"timeline{' under telemetry' if traced else ''}")
    if traced:
        assert tel.spans, f"{case}: the collector recorded nothing"
        pinned = _load_golden(DIGEST_PATH)[case]
        assert span_digest(tel) == pinned["spans"], (
            f"{case}: recorded spans changed")
        assert metrics_digest(tel) == pinned["metrics"], (
            f"{case}: recorded metrics changed")


def test_repeated_builds_are_bit_identical():
    """Warm-cache instantiation must replay the exact same timeline."""
    cases = ["hipress-ps/onebit/n4", "hipress-ring/dgc/n4",
             "byteps/raw/n4", "ring-oss/tbq/n4"]
    for case in cases:
        first = CASES[case]()
        second = CASES[case]()
        assert first == second, f"{case}: rebuild changed the timeline"


def _regen():
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name in sorted(CASES):
        hashes[name] = CASES[name]()
        print(f"{hashes[name][:16]}  {name}")
    GOLDEN_PATH.write_text(json.dumps(hashes, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {len(hashes)} hashes -> {GOLDEN_PATH}")
    digests = {}
    for name in sorted(CASES):
        default_graph_cache().clear()
        with telemetry_session() as tel:
            CASES[name]()
        digests[name] = {"spans": span_digest(tel),
                         "metrics": metrics_digest(tel)}
    DIGEST_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {len(digests)} telemetry digests -> {DIGEST_PATH}")
    from tests.test_faults import (
        FAULT_DIGEST_PATH, SEED11_CASES, traced_fault_digests)
    faulted = {name: traced_fault_digests(name)
               for name in sorted(SEED11_CASES)}
    FAULT_DIGEST_PATH.write_text(json.dumps(faulted, indent=1,
                                            sort_keys=True) + "\n")
    print(f"wrote {len(faulted)} fault digests -> {FAULT_DIGEST_PATH}")


if __name__ == "__main__":
    import sys
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
