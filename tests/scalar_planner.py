"""The §3.3 K search as it was written, one Python call per (K, compress?).

A test-only oracle for the table planner in ``repro.casync.planner``:
Eqs. (1)-(2) are evaluated here from the cost model's scalar primitives
(``t_send``, ``t_enc``, ``t_dec``, ``compression_rate``), and the K loop
keeps the first strictly cheaper cell, uncompressed before compressed.
"""

from repro.casync.planner import STEP_COUNT_PRESETS, GradientPlan
from repro.models import GradientSpec


def t_sync_orig(cost, nbytes, partitions):
    counts = STEP_COUNT_PRESETS[cost.strategy](cost.cluster.num_nodes,
                                               partitions)
    return counts.alpha * cost.t_send(nbytes / partitions)


def t_sync_compressed(cost, nbytes, partitions):
    n = cost.cluster.num_nodes
    counts = STEP_COUNT_PRESETS[cost.strategy](n, partitions)
    part = nbytes / partitions
    rate = cost.compression_rate(part)
    groups = -(-partitions // n)
    return groups * (counts.alpha * cost.t_send(rate * part)
                     + counts.beta * cost.t_enc(part)
                     + counts.gamma * cost.t_dec(part))


def plan_gradient(planner, gradient):
    cost_model = planner.cost_model
    best = None
    for k in range(1, planner.max_partitions + 1):
        for compress in (False, True):
            if compress:
                cost = t_sync_compressed(cost_model, gradient.nbytes, k)
            else:
                cost = t_sync_orig(cost_model, gradient.nbytes, k)
            if best is None or cost < best[0]:
                best = (cost, compress, k)
    cost, compress, k = best
    return GradientPlan(name=gradient.name, nbytes=gradient.nbytes,
                        compress=compress, partitions=k,
                        predicted_time=cost)


def plan_model(planner, gradients):
    return {g.name: plan_gradient(planner, g) for g in gradients}


def compression_threshold(planner, probe_sizes=()):
    sizes = sorted(probe_sizes) or [1 << s for s in range(10, 31)]
    for nbytes in sizes:
        plan = plan_gradient(planner,
                             GradientSpec(name="probe", nbytes=int(nbytes)))
        if plan.compress:
            return int(nbytes)
    return None
