"""Simulated iteration times pinned to the bit, on every CI Python.

``tests/golden/iteration_times.json`` holds ``float.hex`` of
``simulate_iteration(...).iteration_time`` for the 22 golden cases
(:func:`repro.analysis.plancheck.golden_cases`).  The trace-hash goldens
round times to 12 decimals; this pin does not, so a float sum that
rounds differently on another Python version (``sum()`` of floats is
compensated since 3.12) moves it.

Regenerate (only when the simulated behaviour is meant to change)::

    PYTHONPATH=src python tests/test_iteration_time_golden.py --regen
"""

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.plancheck import golden_cases, golden_model
from repro.cluster import ec2_v100_cluster
from repro.training import simulate_iteration

GOLDEN_PATH = Path(__file__).parent / "golden" / "iteration_times.json"
CASES = golden_cases()


def iteration_time(case):
    strategy, algorithm = case.inputs()
    return simulate_iteration(golden_model(), ec2_v100_cluster(4), strategy,
                              algorithm=algorithm).iteration_time


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_iteration_time_is_pinned_to_the_bit(case):
    pinned = json.loads(GOLDEN_PATH.read_text())
    assert iteration_time(case).hex() == pinned[case.name]


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    GOLDEN_PATH.write_text(json.dumps(
        {case.name: iteration_time(case).hex() for case in CASES},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
