"""Test helper: a task graph from rows, built through the production path.

A task row carries one task's fields and its dependencies, a join row
(what lowering makes of an IR barrier) only its dependencies.
:func:`recipe` turns the rows into the task columns and the flat integer
dependency rows of a :class:`~repro.casync.lower.LoweredRecipe`, through
the constructor lowering uses (which validates them), and :func:`build`
instantiates it with :func:`repro.casync.lower.instantiate`, so a test
graph is a recipe instance like every other.
"""

from array import array
from collections import namedtuple
from types import SimpleNamespace

from repro.casync import lower
from repro.casync.lower import LoweredRecipe


def row(node, kind, label="", *, duration=0.0, launch_overhead=0.0,
        nbytes=0.0, out_nbytes=None, dst=None, bulk=False, deps=()):
    """One task row.  A ``deps`` entry is an earlier row's position (an
    int) or a ready ref ``(node, gradient)``, which the test fires with
    ``graph.make_ready(node, gradient)``."""
    # The task columns after ``rows``, in LoweredRecipe.columns() order.
    fields = (node, kind, label, duration, launch_overhead, nbytes, dst,
              bulk, out_nbytes)
    return SimpleNamespace(fields=fields, deps=tuple(deps))


def join(deps=()):
    """One join row: no task, only ``deps`` (as for :func:`row`)."""
    return SimpleNamespace(fields=None, deps=tuple(deps))


def recipe(rows, bulk=False):
    """The :class:`LoweredRecipe` of ``rows``; ``bulk`` is the plan's
    bulk decision."""
    tasks = [(i, *r.fields) for i, r in enumerate(rows)
             if r.fields is not None]
    # Ten columns: the row, then the task fields.
    columns = [[task[f] for task in tasks] for f in range(10)]
    dep_ptr, dep_rows, refs = array("i", [0]), array("i"), {}
    for r in rows:
        for dep in r.deps:
            dep_rows.append(dep if isinstance(dep, int)
                            else -1 - refs.setdefault(tuple(dep), len(refs)))
        dep_ptr.append(len(dep_rows))
    return LoweredRecipe(columns, dep_ptr, dep_rows, list(refs), bulk)


def build(env, rows, bulk=False):
    """Instantiate ``rows`` as a graph in ``env``; ``bulk`` is the plan's
    bulk decision."""
    return lower.instantiate(recipe(rows, bulk), SimpleNamespace(env=env))


def make_all_ready(graph, model, num_nodes):
    """Fire the ready ref of every gradient of ``model`` on every node now,
    node by node in gradient order, as a backward pass taking no time
    would."""
    for node in range(num_nodes):
        for grad in model.gradients:
            graph.make_ready(node, grad.name)


#: One task of a graph as a read-only record: ``index`` is its task
#: index, ``row`` its CSR row; unset instants are None.
TaskRow = namedtuple("TaskRow", (
    "index", "row", "node", "kind", "label", "duration", "launch_overhead",
    "nbytes", "dst", "bulk", "out_nbytes", "started_at", "finished_at",
    "triggered", "error", "dropped", "attempts"))


def task(graph, k):
    """Task ``k`` of ``graph`` as a :data:`TaskRow`, read from its
    columns now."""
    r = graph.recipe
    started, finished = graph.started_at[k], graph.finished_at[k]
    return TaskRow(
        k, r.rows[k], graph.nodes[k], r.kinds[k], r.labels[k],
        r.durations[k], r.launch_overheads[k], r.nbytes[k], r.dsts[k],
        r.bulks[k], r.out_nbytes[k],
        None if started != started else started,
        None if finished != finished else finished,
        bool(graph.triggered[k]), graph.errors.get(k), k in graph.dropped,
        graph.attempts.get(k, 0))


def tasks(graph):
    """Every task of ``graph`` as a :data:`TaskRow`, in recipe order."""
    return [task(graph, k) for k in range(graph.num_tasks)]
