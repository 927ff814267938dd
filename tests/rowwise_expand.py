"""The CaSync expands as they were written, one ``SyncPlan.add`` per op.

A test-only oracle for the block frontends in ``repro.strategies.casync``:
:func:`rowwise_expand` emits CaSync-PS and CaSync-ring plans row by
row, and :func:`expanded` builds the post-expand plan (directives,
directive-phase passes, expand) either way, for the tests to compare
column by column.
"""

from repro.casync.ir import Directive, ReadyRef, SizeExpr, SyncPlan
from repro.casync.passes import VerifyPass
from repro.casync.topology import ps_topology, ring_topology
from repro.strategies import CaSyncPS, CaSyncRing


def rowwise_ps(plan, model):
    n = plan.num_nodes
    aggregator_pool = ps_topology(n, colocated=True).aggregators()
    agg_rr = 0
    for grad in model.gradients:
        directive = plan.directive(grad.name)
        k = directive.partitions
        part = grad.nbytes / k
        wire = SizeExpr(part, compressed=directive.compress)
        for p in range(k):
            aggregator = aggregator_pool[agg_rr % len(aggregator_pool)]
            agg_rr += 1
            label = f"{grad.name}.p{p}"

            merges = []
            for w in range(n):
                src_dep = ReadyRef(w, grad.name)
                if directive.compress:
                    src_dep = plan.add(
                        "encode", w, f"enc:{label}@{w}", SizeExpr(part),
                        deps=[src_dep], grad=grad.name)
                if w != aggregator:
                    src_dep = plan.add(
                        "send", w, f"push:{label}@{w}", wire,
                        deps=[src_dep], dst=aggregator, grad=grad.name,
                        bulk_eligible=True)
                if directive.compress:
                    dec = plan.add(
                        "decode", aggregator, f"agg:{label}@{w}",
                        SizeExpr(part), deps=[src_dep], grad=grad.name,
                        fusable=True)
                    agg = plan.add(
                        "merge", aggregator, f"agg:{label}@{w}",
                        SizeExpr(part), deps=[dec], grad=grad.name,
                        fusable=True)
                else:
                    agg = plan.add(
                        "merge", aggregator, f"agg:{label}@{w}",
                        SizeExpr(part), deps=[src_dep], grad=grad.name)
                merges.append(agg)

            tail = merges
            if directive.compress:
                tail = [plan.add(
                    "encode", aggregator, f"enc-out:{label}",
                    SizeExpr(part), deps=merges, grad=grad.name)]
            for w in range(n):
                if w == aggregator:
                    plan.add("barrier", w, f"done:{label}@{w}",
                             deps=tail, grad=grad.name)
                    continue
                pull = plan.add(
                    "send", aggregator, f"pull:{label}@{w}", wire,
                    deps=tail, dst=w, grad=grad.name, bulk_eligible=True)
                if directive.compress:
                    dec = plan.add(
                        "decode", w, f"dec:{label}@{w}", SizeExpr(part),
                        deps=[pull], grad=grad.name)
                    plan.add("barrier", w, f"done:{label}@{w}",
                             deps=[dec], grad=grad.name)
                else:
                    plan.add("barrier", w, f"done:{label}@{w}",
                             deps=[pull], grad=grad.name)


def rowwise_ring(strategy, plan, model):
    n = plan.num_nodes
    if n == 1:
        for grad in model.gradients:
            plan.add("barrier", 0, f"done:{grad.name}",
                     deps=[ReadyRef(0, grad.name)], grad=grad.name)
        return
    topology = ring_topology(n)
    raw = []
    for grad in model.gradients:
        directive = plan.directive(grad.name)
        if not directive.compress:
            raw.append(grad)
            continue
        k = directive.partitions
        part = grad.nbytes / k
        wire = SizeExpr(part, compressed=True)
        for c in range(k):
            start = c % n
            label = f"{grad.name}.c{c}"
            prev = None
            for step in range(n - 1):
                holder = (start + step) % n
                nxt = topology.successor(holder)
                deps = [ReadyRef(holder, grad.name)]
                if prev is not None:
                    deps.append(prev)
                enc = plan.add(
                    "encode", holder, f"enc:{label}.{step}",
                    SizeExpr(part), deps=deps, grad=grad.name)
                send = plan.add(
                    "send", holder, f"hop:{label}.{step}", wire,
                    deps=[enc], dst=nxt, grad=grad.name)
                dec = plan.add(
                    "decode", nxt, f"agg:{label}.{step}", SizeExpr(part),
                    deps=[send, ReadyRef(nxt, grad.name)],
                    grad=grad.name, fusable=True)
                prev = plan.add(
                    "merge", nxt, f"agg:{label}.{step}", SizeExpr(part),
                    deps=[dec], grad=grad.name, fusable=True)

            final_holder = (start + n - 1) % n
            head = plan.add(
                "encode", final_holder, f"enc-final:{label}",
                SizeExpr(part), deps=[prev], grad=grad.name)
            plan.add("barrier", final_holder, f"done:{label}",
                     deps=[prev], grad=grad.name)
            hop_dep = head
            for step in range(n - 1):
                holder = (final_holder + step) % n
                nxt = topology.successor(holder)
                send = plan.add(
                    "send", holder, f"bcast:{label}.{step}", wire,
                    deps=[hop_dep], dst=nxt, grad=grad.name)
                hop_dep = send
                dec = plan.add(
                    "decode", nxt, f"dec:{label}.{step}", SizeExpr(part),
                    deps=[send], grad=grad.name)
                plan.add("barrier", nxt, f"done:{label}@{nxt}",
                         deps=[dec], grad=grad.name)

    strategy._raw_ring(plan, raw)


def rowwise_expand(strategy, plan, pctx, model):
    """``strategy.expand(plan, pctx, model)``, one ``add`` per op.  The
    other strategies (BytePS, OSS, raw ring) emit row by row already."""
    if not isinstance(strategy, (CaSyncPS, CaSyncRing)):
        strategy.expand(plan, pctx, model)
        return
    if pctx.algorithm is None:
        raise ValueError(f"{strategy.name} requires a compression algorithm")
    if isinstance(strategy, CaSyncPS):
        rowwise_ps(plan, model)
    else:
        rowwise_ring(strategy, plan, model)


def expanded(strategy, pctx, model, rowwise=False):
    """The plan ``build_plan`` holds right after expand, expanded by the
    strategy or, with ``rowwise``, by :func:`rowwise_expand`."""
    algo_name = None
    if pctx.algorithm is not None:
        algo_name = getattr(pctx.algorithm, "name",
                            type(pctx.algorithm).__name__)
    plan = SyncPlan(strategy.name, pctx.num_nodes, algorithm=algo_name)
    for grad in model.gradients:
        plan.directives[grad.name] = Directive(
            gradient=grad.name, nbytes=grad.nbytes,
            compress=strategy.compression)
    for p in strategy.passes():
        if p.phase == "directive" and not isinstance(p, VerifyPass):
            p.run(plan, pctx)
    expand = rowwise_expand if rowwise else type(strategy).expand
    expand(strategy, plan, pctx, model)
    return plan
