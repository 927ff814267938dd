"""Test helper: a task graph from rows, built through the production path.

A task row is a :class:`~repro.casync.lower.TaskSpec`, a join row (what
lowering makes of an IR barrier) only a dependency tuple; :func:`build`
wraps the rows in a :class:`~repro.casync.lower.LoweredRecipe` and
instantiates it with :func:`repro.casync.lower.instantiate`, so a test
graph is a recipe instance like every other.
"""

import dataclasses
from types import SimpleNamespace

from repro.casync import lower
from repro.casync.lower import LoweredRecipe, TaskSpec


def _encode(deps):
    return tuple(("t", dep) if isinstance(dep, int) else ("r", *dep)
                 for dep in deps)


def row(node, kind, label="", *, duration=0.0, launch_overhead=0.0,
        nbytes=0.0, out_nbytes=None, dst=None, bulk=False, deps=()):
    """One task row.  A ``deps`` entry is an earlier row's position (an
    int) or a ready ref ``(node, gradient)``, which the test fires with
    ``graph.make_ready(node, gradient)``."""
    return TaskSpec(kind=kind, node=node, label=label, duration=duration,
                    launch_overhead=launch_overhead, nbytes=nbytes,
                    out_nbytes=out_nbytes, dst=dst, bulk=bulk,
                    deps=_encode(deps), row=-1)


def join(deps=()):
    """One join row: no task, only ``deps`` (as for :func:`row`)."""
    return _encode(deps)


def build(env, rows, bulk=False):
    """Instantiate ``rows`` as a graph in ``env``; ``bulk`` is the plan's
    bulk decision."""
    specs = [dataclasses.replace(spec, row=i) for i, spec in enumerate(rows)
             if isinstance(spec, TaskSpec)]
    deps = [r.deps if isinstance(r, TaskSpec) else r for r in rows]
    recipe = LoweredRecipe(specs=specs, deps=deps, bulk=bulk)
    return lower.instantiate(recipe, SimpleNamespace(env=env))


def make_all_ready(graph, model, num_nodes):
    """Fire the ready ref of every gradient of ``model`` on every node now,
    node by node in gradient order, as a backward pass taking no time
    would."""
    for node in range(num_nodes):
        for grad in model.gradients:
            graph.make_ready(node, grad.name)
