"""Every task's executed timeline pinned to the bit.

``tests/golden/task_timelines.json`` holds one SHA-256 per case over the
round's whole per-task state, in recipe order: ``float.hex`` of each
task's start and finish instants, its node, whether it was dropped and
its transfer attempts, then each join row's release instant and each
ready ref's fire instant.  The trace hashes round times to 1e-12 s and
sort events by lane; this pin is exact and per task.

The cases are the 22 golden cases
(:func:`repro.analysis.plancheck.golden_cases`), each run twice: by
:func:`~repro.training.trace.trace_iteration`, which turns local
aggregation off, and (``simulate/...``) by
:func:`~repro.training.simulate_iteration`, where a gradient's ready ref
fires only after its intra-node aggregation; and the 14 fault rounds
behind ``tests/golden/fault_fingerprints.json`` (every strategy of
``tests/test_faults.py``, pristine and under the seed-11 schedule).

Regenerate (only when the simulated behaviour is meant to change)::

    PYTHONPATH=src:. python tests/test_task_timelines.py --regen
"""

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.analysis.plancheck import golden_cases, golden_model
from repro.cluster import ec2_v100_cluster
from repro.faults import RetryPolicy, SyncAborted, random_schedule
from repro.training import simulate_iteration
from repro.training.loop import _run_round
from repro.training.trace import trace_iteration
from tests.test_faults import SEED11_CASES, small_model

GOLDEN_PATH = Path(__file__).parent / "golden" / "task_timelines.json"


def _hex(value):
    """``float.hex`` of an instant; an unset (NaN) or absent one is None."""
    return "None" if value is None or value != value else value.hex()


def timeline_digest(graph):
    """SHA-256 over ``graph``'s executed per-task state, joins and refs."""
    digest = hashlib.sha256()
    for k in range(graph.num_tasks):
        digest.update(
            f"{_hex(graph.started_at[k])} {_hex(graph.finished_at[k])} "
            f"{graph.nodes[k]} {int(k in graph.dropped)} "
            f"{graph.attempts.get(k, 0)}\n".encode())
    csr = graph.csr
    for i in range(len(csr)):
        if csr.slot[i] < 0:
            digest.update(f"join {i} {_hex(graph.joined_at[i])}\n".encode())
    for key in csr.ref_keys:
        digest.update(
            f"ref {key} {_hex(graph.ready_at.get(key))}\n".encode())
    return digest.hexdigest()


def _round_graph(simulate=trace_iteration, **kwargs):
    """The graph of the round one ``simulate(**kwargs)`` runs, an
    aborted round's included."""
    rounds = []

    def recording_round(*args, **kw):
        rounds.append(_run_round(*args, **kw))
        return rounds[-1]

    try:
        with mock.patch(f"{simulate.__module__}._run_round",
                        recording_round):
            simulate(**kwargs)
    except SyncAborted as exc:
        return exc.report.graph
    return rounds[0].graph


def _golden_case(case, simulate=trace_iteration):
    def run():
        strategy, algorithm = case.inputs()
        return _round_graph(simulate, model=golden_model(),
                            cluster=ec2_v100_cluster(4), strategy=strategy,
                            algorithm=algorithm)
    return run


def _fault_case(name, seed):
    make_strategy, algo_factory = SEED11_CASES[name]

    def run():
        schedule = (None if seed is None
                    else random_schedule(seed=seed, num_nodes=3,
                                         horizon=2e-3))
        return _round_graph(
            model=small_model(), cluster=ec2_v100_cluster(3),
            strategy=make_strategy(),
            algorithm=algo_factory() if algo_factory else None,
            fault_schedule=schedule, retry_policy=RetryPolicy.aggressive(),
            sync_deadline_s=0.5)
    return run


CASES = {case.name: _golden_case(case) for case in golden_cases()}
CASES.update({f"simulate/{case.name}": _golden_case(case, simulate_iteration)
              for case in golden_cases()})
CASES.update({f"faults/{name}/{key}": _fault_case(name, seed)
              for name in sorted(SEED11_CASES)
              for key, seed in (("pristine", None), ("seed11", 11))})


@pytest.mark.parametrize("case", sorted(CASES))
def test_task_timeline_is_pinned_to_the_bit(case):
    pinned = json.loads(GOLDEN_PATH.read_text())
    assert timeline_digest(CASES[case]()) == pinned[case]


def test_every_case_is_pinned():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CASES)


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    GOLDEN_PATH.write_text(json.dumps(
        {name: timeline_digest(run()) for name, run in sorted(CASES.items())},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
