"""Fixed-policy equivalence: ``CompressionPolicy.fixed`` is bit-identical.

The adaptive control plane's compatibility contract: routing a static
codec choice through the typed policy surface must not perturb a single
simulated event.  This suite replays every configuration pinned in
``tests/golden/trace_hashes.json`` (the full SYSTEMS matrix plus the
Fig. 11 ablation ladder) with the algorithm instantiated *via*
``CompressionPolicy.fixed(...)`` instead of the legacy ``algorithm=``
kwargs, and requires the exact pre-adaptive trace hashes.

Raw (no-compression) configurations have no policy to route through;
they run unchanged so the golden matrix stays covered end to end.
"""

import json
from pathlib import Path

import pytest

from repro.adaptive import CompressionPolicy, run_policy
from repro.analysis.plancheck import golden_cases, golden_model
from repro.cluster import ec2_v100_cluster
from repro.strategies import get_strategy
from repro.training.trace import trace_hash, trace_iteration

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_hashes.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _fixed_policy_algorithm(name):
    return CompressionPolicy.fixed(name).fixed_algorithm().instantiate()


def policy_cases():
    """The golden matrix, with compressed cases re-routed through
    ``CompressionPolicy.fixed``."""
    model = golden_model()
    cluster = ec2_v100_cluster(4)

    def make_runner(case):
        def run():
            strategy, algorithm = case.inputs(_fixed_policy_algorithm)
            return trace_hash(trace_iteration(
                model, cluster, strategy, algorithm=algorithm))
        return run

    for case in golden_cases():
        yield case.name, make_runner(case)


CASES = dict(policy_cases())


def test_matrix_is_complete():
    """Every golden configuration is exercised through the policy path."""
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fixed_policy_trace_is_bit_identical(case):
    assert CASES[case]() == GOLDEN[case], (
        f"{case}: CompressionPolicy.fixed perturbed the simulated "
        "timeline -- the fixed path must bypass the adaptive plane "
        "entirely")


def test_run_policy_fixed_matches_legacy_entry_point():
    """``run_policy`` with a fixed policy == the legacy kwargs loop."""
    from repro.experiments.common import default_algorithm
    from repro.training import simulate_iteration

    model = golden_model()
    cluster = ec2_v100_cluster(4)
    run = run_policy(model, cluster, "fixed:algorithm=onebit",
                     iterations=2)
    algorithm = default_algorithm("onebit")
    strategy = get_strategy("casync-ps")
    legacy = [simulate_iteration(model, cluster, strategy,
                                 algorithm=algorithm)
              for _ in range(2)]
    assert run.iteration_times == [r.iteration_time for r in legacy]
    assert len(run.log) == 0      # fixed policies log no decisions
