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

Every case also runs under an attached telemetry collector.  A collector
disables the simulator's fast paths (inline sends, vectorized bulk
flushes) in favour of one generator process per send and per flush, so
the fast paths and the general paths must both reproduce the pinned hash.

Regenerate (only legitimate when the *simulated behaviour* is meant to
change, never to paper over an IR bug)::

    PYTHONPATH=src python tests/test_graph_equivalence.py --regen
"""

import contextlib
import json
from pathlib import Path

import pytest

from repro.analysis.plancheck import golden_cases, golden_model
from repro.cluster import ec2_v100_cluster
from repro.telemetry import telemetry_session
from repro.training.trace import trace_hash, trace_iteration

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_hashes.json"


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


def _load_golden():
    return json.loads(GOLDEN_PATH.read_text())


CASES = dict(enumerate_cases())


@pytest.mark.parametrize("case,traced", [
    pytest.param(case, traced, id=case + ("-telemetry" if traced else ""))
    for case in sorted(CASES) for traced in (False, True)])
def test_trace_hash_matches_pre_refactor(case, traced):
    golden = _load_golden()
    assert case in golden, (
        f"{case} missing from {GOLDEN_PATH}; regenerate with "
        "python tests/test_graph_equivalence.py --regen")
    session = telemetry_session() if traced else contextlib.nullcontext()
    with session as tel:
        digest = CASES[case]()
    if traced:
        assert tel.spans, f"{case}: the collector recorded nothing"
    assert digest == golden[case], (
        f"{case}: lowered TaskGraph diverged from the pre-refactor "
        f"timeline{' under telemetry' if traced else ''}")


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


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
