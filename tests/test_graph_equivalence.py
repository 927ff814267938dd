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

from repro.cluster import ec2_v100_cluster
from repro.experiments.common import SYSTEMS, default_algorithm
from repro.models import GradientSpec, ModelSpec
from repro.strategies import get_strategy
from repro.telemetry import telemetry_session
from repro.training import make_plans
from repro.training.trace import trace_hash, trace_iteration

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_hashes.json"

KB = 1024
MB = 1024 * 1024

#: Compression algorithms the equivalence matrix sweeps.
ALGORITHMS = ("onebit", "dgc", "tbq")

#: CaSync optimization-flag stages (the Fig. 11 ablation ladder).
ABLATION_FLAGS = (
    ("none", dict(pipelining=False, bulk=False, selective=False)),
    ("pipe", dict(pipelining=True, bulk=False, selective=False)),
    ("pipe+bulk", dict(pipelining=True, bulk=True, selective=False)),
    ("pipe+bulk+secopa", dict(pipelining=True, bulk=True, selective=True)),
)


def equivalence_model() -> ModelSpec:
    """Deterministic model with a spread of gradient sizes.

    The sizes straddle the planner's compression threshold and the bulk
    coordinator's eligibility cutoff so every pass has work to do.
    """
    sizes = (8 * MB, 2 * MB, 900 * KB, 64 * KB, 16 * KB)
    grads = tuple(GradientSpec(f"eq.g{i}", s) for i, s in enumerate(sizes))
    return ModelSpec(name="equiv-tiny", gradients=grads, batch_size=8,
                     batch_unit="images", v100_iteration_s=0.012)


def _planner_kind(strategy_name: str) -> str:
    return "ring" if "ring" in strategy_name else "ps_colocated"


def enumerate_cases():
    """Yield (case_name, runner) pairs covering SYSTEMS plus ablations."""
    model = equivalence_model()
    cluster = ec2_v100_cluster(4)

    def make_runner(strategy_name, algo_name, flags, use_coordinator,
                    batch_compression, selective):
        def run():
            algorithm = (default_algorithm(algo_name)
                         if algo_name is not None else None)
            plans = None
            if selective:
                plans = make_plans(model, cluster, algorithm,
                                   _planner_kind(strategy_name))
            strategy = get_strategy(strategy_name, **flags)
            trace = trace_iteration(
                model, cluster, strategy, algorithm=algorithm, plans=plans,
                use_coordinator=use_coordinator,
                batch_compression=batch_compression)
            return trace_hash(trace)
        return run

    for key in sorted(SYSTEMS):
        config = SYSTEMS[key]
        algos = ALGORITHMS if config.compression else (None,)
        for algo in algos:
            name = f"{key}/{algo or 'raw'}/n4"
            yield name, make_runner(
                config.strategy, algo, {}, config.use_coordinator,
                config.batch_compression,
                selective=config.planner_kind is not None)

    for strategy_name in ("casync-ps", "casync-ring"):
        for stage, flags in ABLATION_FLAGS:
            name = f"{strategy_name}:{stage}/onebit/n4"
            yield name, make_runner(
                strategy_name, "onebit", dict(flags),
                use_coordinator=flags["bulk"],
                batch_compression=flags["bulk"],
                selective=flags["selective"])


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
