"""Test helper: a task graph from rows, built through the production path.

A task row carries one task's fields and its dependencies, a join row
(what lowering makes of an IR barrier) only its dependencies.
:func:`build` turns the rows into the task columns and the flat integer
dependency rows of a :class:`~repro.casync.lower.LoweredRecipe`, through
the constructor lowering uses, and instantiates it with
:func:`repro.casync.lower.instantiate`, so a test graph is a recipe
instance like every other.
"""

from array import array
from types import SimpleNamespace

from repro.casync import lower
from repro.casync.lower import LoweredRecipe


def row(node, kind, label="", *, duration=0.0, launch_overhead=0.0,
        nbytes=0.0, out_nbytes=None, dst=None, bulk=False, deps=()):
    """One task row.  A ``deps`` entry is an earlier row's position (an
    int) or a ready ref ``(node, gradient)``, which the test fires with
    ``graph.make_ready(node, gradient)``."""
    # The task fields after the row, in Task's argument order.
    fields = (node, kind, label, duration, launch_overhead, nbytes, dst,
              bulk, out_nbytes)
    return SimpleNamespace(fields=fields, deps=tuple(deps))


def join(deps=()):
    """One join row: no task, only ``deps`` (as for :func:`row`)."""
    return SimpleNamespace(fields=None, deps=tuple(deps))


def build(env, rows, bulk=False):
    """Instantiate ``rows`` as a graph in ``env``; ``bulk`` is the plan's
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
    recipe = LoweredRecipe(columns, dep_ptr, dep_rows, list(refs), bulk)
    return lower.instantiate(recipe, SimpleNamespace(env=env))


def make_all_ready(graph, model, num_nodes):
    """Fire the ready ref of every gradient of ``model`` on every node now,
    node by node in gradient order, as a backward pass taking no time
    would."""
    for node in range(num_nodes):
        for grad in model.gradients:
            graph.make_ready(node, grad.name)
