"""The one-pass release pushes what one frame per step pushed.

``tests/reference_release.py`` holds task release and completion as
they were before release ran in one pass: a frame per released task
(``_start``, ``NodeEngine.dispatch``), a frame per completed task of a
batch (``_on_complete``) and a ``yield_front`` call after every task but
the last.  Each round below runs twice, shipped and with the reference
monkeypatched in, and records:

* every agenda push as ``(callback qualname, time, priority)``, a
  successful ``yield_front`` included;
* every task's ``started_at`` and ``finished_at``, bit for bit.

The two records must be equal, on all 22 golden cases and every round
whose step count ``tests/test_task_dispatch.py`` pins.  The only
qualname that differs by design is the completion entry's: the
reference pushes ``_on_batch`` for a batch and ``_on_complete`` for one
task, the shipped code ``_on_complete`` for both.
"""

import pytest

from repro.analysis.plancheck import golden_cases, golden_model
from repro.casync.tasks import TaskGraph
from repro.cluster import ec2_v100_cluster
from repro.sim import NORMAL, Environment
from repro.training.trace import trace_iteration
from tests import reference_release
from tests.test_task_dispatch import STEP_PINNED_ROUNDS

#: A reference completion entry's qualname -> the shipped one's.
ALIASES = {"TaskGraph._on_batch": "TaskGraph._on_complete"}


def _name(callback):
    """A pushed callback's qualified name (a partial's function's)."""
    name = getattr(callback, "func", callback).__qualname__
    return ALIASES.get(name, name)


def _golden_round(case):
    def run():
        strategy, algorithm = case.inputs()
        trace_iteration(golden_model(), ec2_v100_cluster(4), strategy,
                        algorithm=algorithm)
    return run


ROUNDS = {**{case.name: _golden_round(case) for case in golden_cases()},
          **{f"steps-{name}": run for name, run in STEP_PINNED_ROUNDS.items()}}


def _record(run, reference):
    """The pushes and task instants of ``run()``."""
    pushes, graphs = [], []
    call_later, yield_front = Environment.call_later, Environment.yield_front
    arm = TaskGraph.arm

    def recorded_call_later(env, delay, callback, value=None,
                            priority=NORMAL):
        entry = call_later(env, delay, callback, value, priority)
        pushes.append((_name(callback), env.now + delay, priority))
        return entry

    def recorded_yield_front(env, callback, value):
        queued = yield_front(env, callback, value)
        if queued:
            pushes.append((_name(callback), env.now, NORMAL))
        return queued

    def recorded_arm(graph, engines):
        graphs.append(graph)
        arm(graph, engines)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Environment, "call_later", recorded_call_later)
        mp.setattr(Environment, "yield_front", recorded_yield_front)
        mp.setattr(TaskGraph, "arm", recorded_arm)
        if reference:
            reference_release.install(mp)
        run()
    instants = [(bytes(g.started_at), bytes(g.finished_at)) for g in graphs]
    return pushes, instants


def test_every_round_is_covered():
    assert len(golden_cases()) == 22
    assert len(ROUNDS) == 22 + len(STEP_PINNED_ROUNDS)


@pytest.mark.parametrize("case", list(ROUNDS))
def test_release_pushes_what_the_reference_pushes(case):
    shipped = _record(ROUNDS[case], reference=False)
    oracle = _record(ROUNDS[case], reference=True)
    pushes, instants = shipped
    assert instants and pushes
    names = {name for name, _, _ in pushes}
    assert "TaskGraph._on_complete" in names
    assert "TaskGraph._on_batch" not in names
    assert pushes == oracle[0]
    assert instants == oracle[1]
