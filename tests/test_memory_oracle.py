"""Buffer accounting on arrays returns what a scalar sweep returns.

``tests/reference_memory.py`` keeps :func:`buffer_lifetimes` and
:func:`peak_buffer_memory` as they were before they ran on NumPy
arrays: a Python walk of each producer's successor row and a tuple sort
and ``+=`` sweep per node.  Each graph below must give equal lifetimes
lists and equal peaks dicts, values and key order both, and an unrun
graph must raise the same ``ValueError``.
"""

import pytest

from repro.analysis.plancheck import golden_cases, golden_model
from repro.casync import NodeEngine
from repro.casync.memory import buffer_lifetimes, peak_buffer_memory
from repro.cluster import ec2_v100_cluster
from repro.gpu import Gpu, V100
from repro.net import Fabric, NetworkSpec
from repro.sim import Environment
from tests import reference_memory
from tests.taskgraph_rows import build, join, row
from tests.test_memory import (OSS_GOLDEN_PEAKS, _executed_graph,
                               run_simple_graph)
from tests.test_task_timelines import CASES as TIMELINE_CASES


def assert_matches_oracle(graph):
    lifetimes = buffer_lifetimes(graph)
    assert lifetimes == reference_memory.buffer_lifetimes(graph)
    peaks = peak_buffer_memory(graph)
    expected = reference_memory.peak_buffer_memory(graph)
    assert list(peaks.items()) == list(expected.items())
    return lifetimes, peaks


@pytest.mark.parametrize("case", [c.name for c in golden_cases()])
def test_golden_rounds(case):
    """The 22 golden rounds as ``simulate_iteration`` runs them."""
    lifetimes, peaks = assert_matches_oracle(
        TIMELINE_CASES[f"simulate/{case}"]())
    assert len(peaks) == (4 if lifetimes else 0)


@pytest.mark.parametrize("case", sorted(OSS_GOLDEN_PEAKS))
def test_oss_golden_rounds(case):
    strategy, algo = {c.name: c for c in golden_cases()}[case].inputs()
    graph = _executed_graph(strategy, golden_model(), ec2_v100_cluster(4),
                            algo)
    assert assert_matches_oracle(graph)[1] == OSS_GOLDEN_PEAKS[case]


def test_a_round_stopped_before_it_finished():
    """A consumer that never finished and a join that never released
    free nothing: a buffer is freed at the latest finish seen, or at its
    allocation if none finished."""
    env = Environment()
    fabric = Fabric(env, 2, NetworkSpec(bandwidth_gbps=100))
    engines = [NodeEngine(env, i, Gpu(env, V100, i), fabric)
               for i in range(2)]
    graph = build(env, [
        row(1, "encode", "b", duration=1.0, out_nbytes=30),
        row(0, "encode", "a", duration=1.0, out_nbytes=100),
        row(0, "merge", "fast", duration=1.0, deps=[1]),
        row(0, "merge", "slow", duration=5.0, deps=[1]),
        row(1, "encode", "late", duration=9.0),
        join(deps=[1, 4]),
        row(0, "merge", "after", duration=1.0, deps=[5]),
        row(1, "merge", "ub", duration=1.0, deps=[0])])
    graph.arm(engines)
    while env.peek() <= 4.0:
        env.step()
    assert graph.finished_at[2] == 2.0  # "fast"
    assert graph.finished_at[3] != graph.finished_at[3]  # "slow": NaN
    assert graph.joined_at[5] != graph.joined_at[5]  # unreleased
    lifetimes, peaks = assert_matches_oracle(graph)
    assert lifetimes == [(1, 1.0, 1.0, 30.0), (0, 1.0, 2.0, 100.0)]
    assert list(peaks) == [1, 0]


def test_a_graph_without_producers():
    graph = run_simple_graph([row(0, "encode", "x", duration=1.0),
                              row(1, "merge", "y", duration=1.0, deps=[0])])
    assert assert_matches_oracle(graph) == ([], {})


def test_an_unrun_graph_raises_naming_the_first_producer():
    graph = build(Environment(), [
        row(0, "merge", "plain"),
        row(0, "encode", "x", out_nbytes=10),
        row(1, "encode", "y", out_nbytes=20)])
    messages = []
    for function in (buffer_lifetimes, reference_memory.buffer_lifetimes,
                     peak_buffer_memory, reference_memory.peak_buffer_memory):
        with pytest.raises(ValueError, match="timestamps") as excinfo:
            function(graph)
        messages.append(str(excinfo.value))
    assert set(messages) == {
        "task 1 ('x') has no timestamps; run the graph first"}
