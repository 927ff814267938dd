"""Every strategy's expand as it was written, one op appended at a time.

A test-only oracle for the block frontends in ``repro.strategies``:
:func:`add` appends one op to a plan's columns by itself, resolving
its uid dependencies on the spot, and :func:`rowwise_expand` emits every
registered strategy's plan through it, row by row.  :func:`expanded`
builds the post-expand plan (directives, directive-phase passes,
expand) either way, for the tests to compare column by column.
"""

from repro.casync.ir import (OP_KINDS, SEND, Directive, ReadyRef, SizeExpr,
                             SyncPlan, ZERO_SIZE, _split_attrs)
from repro.casync.passes import VerifyPass, strategy_pipeline
from repro.casync.topology import ps_topology, ring_topology
from repro.strategies import (BytePS, BytePSOSSCompression, CaSyncPS,
                              CaSyncRing, RingAllreduce, RingOSSCompression,
                              bucketize, partition_sizes)


def add(plan, kind, node, label, size=ZERO_SIZE, deps=(), dst=None,
        grad=None, **attrs):
    """Append an op to ``plan``; returns its uid (usable as a dependency).

    Each uid dependency is resolved to its row here; one that names no
    earlier op is recorded in ``plan.dangling`` (a PC106 finding of the
    verifier), not raised.
    """
    if kind not in OP_KINDS:
        raise ValueError(f"unknown op kind {kind!r}")
    code = OP_KINDS.index(kind)
    if dst is None:
        if code == SEND:
            raise ValueError("send ops need a destination node")
        dst = -1
    uid = plan._next_uid
    plan._next_uid = uid + 1
    row_of = plan._row_of
    if row_of is None:
        row_of = plan._row_of = dict(zip(plan.uids, range(len(plan.uids))))
    for dep in deps:
        if type(dep) is ReadyRef:
            plan.dep_rows.append(-1 - plan._ref_id((dep.node, dep.gradient)))
        else:
            j = row_of.get(dep)
            if j is None:
                plan.dangling.append((uid, dep))
            else:
                plan.dep_rows.append(j)
    row_of[uid] = len(plan.labels)
    plan.uids.append(uid)
    plan.kinds.append(code)
    plan.nodes.append(node)
    plan.labels.append(label)
    plan.nbytes.append(size.nbytes)
    plan.compressed.append(size.compressed)
    plan.dsts.append(dst)
    plan.grads.append(grad)
    bits, rest = _split_attrs(attrs)
    plan.flags.append(bits)
    plan.attrs.append(rest)
    plan.dep_ptr.append(len(plan.dep_rows))
    plan._index = None
    return uid


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
                    src_dep = add(
                        plan, "encode", w, f"enc:{label}@{w}",
                        SizeExpr(part), deps=[src_dep], grad=grad.name)
                if w != aggregator:
                    src_dep = add(
                        plan, "send", w, f"push:{label}@{w}", wire,
                        deps=[src_dep], dst=aggregator, grad=grad.name,
                        bulk_eligible=True)
                if directive.compress:
                    dec = add(
                        plan, "decode", aggregator, f"agg:{label}@{w}",
                        SizeExpr(part), deps=[src_dep], grad=grad.name,
                        fusable=True)
                    agg = add(
                        plan, "merge", aggregator, f"agg:{label}@{w}",
                        SizeExpr(part), deps=[dec], grad=grad.name,
                        fusable=True)
                else:
                    agg = add(
                        plan, "merge", aggregator, f"agg:{label}@{w}",
                        SizeExpr(part), deps=[src_dep], grad=grad.name)
                merges.append(agg)

            tail = merges
            if directive.compress:
                tail = [add(
                    plan, "encode", aggregator, f"enc-out:{label}",
                    SizeExpr(part), deps=merges, grad=grad.name)]
            for w in range(n):
                if w == aggregator:
                    add(plan, "barrier", w, f"done:{label}@{w}",
                        deps=tail, grad=grad.name)
                    continue
                pull = add(
                    plan, "send", aggregator, f"pull:{label}@{w}", wire,
                    deps=tail, dst=w, grad=grad.name, bulk_eligible=True)
                if directive.compress:
                    dec = add(
                        plan, "decode", w, f"dec:{label}@{w}",
                        SizeExpr(part), deps=[pull], grad=grad.name)
                    add(plan, "barrier", w, f"done:{label}@{w}",
                        deps=[dec], grad=grad.name)
                else:
                    add(plan, "barrier", w, f"done:{label}@{w}",
                        deps=[pull], grad=grad.name)


def rowwise_ring(plan, model):
    n = plan.num_nodes
    if n == 1:
        for grad in model.gradients:
            add(plan, "barrier", 0, f"done:{grad.name}",
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
                enc = add(
                    plan, "encode", holder, f"enc:{label}.{step}",
                    SizeExpr(part), deps=deps, grad=grad.name)
                send = add(
                    plan, "send", holder, f"hop:{label}.{step}", wire,
                    deps=[enc], dst=nxt, grad=grad.name)
                dec = add(
                    plan, "decode", nxt, f"agg:{label}.{step}",
                    SizeExpr(part), deps=[send, ReadyRef(nxt, grad.name)],
                    grad=grad.name, fusable=True)
                prev = add(
                    plan, "merge", nxt, f"agg:{label}.{step}",
                    SizeExpr(part), deps=[dec], grad=grad.name,
                    fusable=True)

            final_holder = (start + n - 1) % n
            head = add(
                plan, "encode", final_holder, f"enc-final:{label}",
                SizeExpr(part), deps=[prev], grad=grad.name)
            add(plan, "barrier", final_holder, f"done:{label}",
                deps=[prev], grad=grad.name)
            hop_dep = head
            for step in range(n - 1):
                holder = (final_holder + step) % n
                nxt = topology.successor(holder)
                send = add(
                    plan, "send", holder, f"bcast:{label}.{step}", wire,
                    deps=[hop_dep], dst=nxt, grad=grad.name)
                hop_dep = send
                dec = add(
                    plan, "decode", nxt, f"dec:{label}.{step}",
                    SizeExpr(part), deps=[send], grad=grad.name)
                add(plan, "barrier", nxt, f"done:{label}@{nxt}",
                    deps=[dec], grad=grad.name)

    raw_ring(plan, raw)


def raw_ring(plan, raw, bucket_bytes=4 * 1024 * 1024):
    """Fused raw allreduce of the planner's uncompressed gradients."""
    n = plan.num_nodes
    for b, bucket in enumerate(bucketize(raw, bucket_bytes)):
        size = sum(g.nbytes for g in bucket)
        chunk = SizeExpr(size / n)
        ready = [[ReadyRef(i, g.name) for g in bucket]
                 for i in range(n)]
        sends = {}
        merges = {}
        for step in range(n - 1):
            for i in range(n):
                deps = (list(ready[i]) if step == 0
                        else [merges[(i, step - 1)]])
                sends[(i, step)] = add(
                    plan, "send", i, f"raw-rs{b}.{step}@{i}", chunk,
                    deps=deps, dst=(i + 1) % n)
            for i in range(n):
                merges[(i, step)] = add(
                    plan, "merge", i, f"raw-mrg{b}.{step}@{i}", chunk,
                    deps=[sends[((i - 1) % n, step)]] + list(ready[i]))
        ag = {}
        for step in range(n - 1):
            for i in range(n):
                deps = ([merges[(i, n - 2)]] if step == 0
                        else [ag[((i - 1) % n, step - 1)]])
                ag[(i, step)] = add(
                    plan, "send", i, f"raw-ag{b}.{step}@{i}", chunk,
                    deps=deps, dst=(i + 1) % n)
        for i in range(n):
            deps = [merges[(i, n - 2)]] + [
                ag[((i - 1) % n, step)] for step in range(n - 1)]
            add(plan, "barrier", i, f"raw-done{b}@{i}", deps=deps)


def rowwise_byteps(strategy, plan, pctx, model):
    n = plan.num_nodes
    server_rr = 0
    for grad in model.gradients:
        parts = partition_sizes(grad.nbytes, strategy.part_bytes)
        for p, part in enumerate(parts):
            server = server_rr % n
            server_rr += 1
            label = f"{grad.name}.p{p}"
            size = SizeExpr(part)
            # Push: every worker sends its slice to the server.
            aggregates = []
            for w in range(n):
                if w == server:
                    # Local slice still crosses PCIe into host memory.
                    agg = add(
                        plan, "cpu", server, f"agg:{label}@{w}", size,
                        deps=[ReadyRef(w, grad.name)], grad=grad.name)
                else:
                    push = add(
                        plan, "send", w, f"push:{label}@{w}", size,
                        deps=[ReadyRef(w, grad.name)], dst=server,
                        grad=grad.name)
                    agg = add(
                        plan, "cpu", server, f"agg:{label}@{w}", size,
                        deps=[push], grad=grad.name)
                aggregates.append(agg)
            # Pull: server returns the aggregate to every worker.
            for w in range(n):
                if w == server:
                    add(plan, "barrier", w, f"pulled:{label}@{w}",
                        deps=aggregates, grad=grad.name)
                else:
                    pull = add(
                        plan, "send", server, f"pull:{label}@{w}", size,
                        deps=aggregates, dst=w, grad=grad.name)
                    add(plan, "barrier", w, f"pulled:{label}@{w}",
                        deps=[pull], grad=grad.name)


def rowwise_ring_allreduce(strategy, plan, pctx, model):
    n = plan.num_nodes
    if n == 1:
        for grad in model.gradients:
            add(plan, "barrier", 0, f"done:{grad.name}",
                deps=[ReadyRef(0, grad.name)], grad=grad.name)
        return

    step_overhead = strategy._step_overhead(pctx)
    buckets = bucketize(model.gradients, strategy.bucket_bytes)
    prev_done = [None] * n  # serializes buckets per node
    for b, bucket in enumerate(buckets):
        size = sum(g.nbytes for g in bucket)
        chunk = SizeExpr(size / n)
        ready = [[ReadyRef(i, g.name) for g in bucket]
                 for i in range(n)]

        sends = {}   # (node, step) -> op uid, reduce-scatter phase
        merges = {}  # (node, step) -> op uid
        for step in range(n - 1):
            for i in range(n):
                if step == 0:
                    deps = list(ready[i])
                    if prev_done[i] is not None:
                        deps.append(prev_done[i])
                else:
                    deps = [merges[(i, step - 1)]]
                if step_overhead > 0:
                    pause = add(
                        plan, "cpu", i, f"ringstep{b}.{step}@{i}",
                        deps=deps, duration_s=step_overhead)
                    deps = [pause]
                sends[(i, step)] = add(
                    plan, "send", i, f"rs{b}.{step}@{i}", chunk, deps=deps,
                    dst=(i + 1) % n)
            for i in range(n):
                deps = [sends[((i - 1) % n, step)]] + list(ready[i])
                merges[(i, step)] = add(
                    plan, "merge", i, f"merge{b}.{step}@{i}", chunk,
                    deps=deps)

        ag_sends = {}
        for step in range(n - 1):
            for i in range(n):
                if step == 0:
                    deps = [merges[(i, n - 2)]]
                else:
                    deps = [ag_sends[((i - 1) % n, step - 1)]]
                if step_overhead > 0:
                    pause = add(
                        plan, "cpu", i, f"agstep{b}.{step}@{i}", deps=deps,
                        duration_s=step_overhead)
                    deps = [pause]
                ag_sends[(i, step)] = add(
                    plan, "send", i, f"ag{b}.{step}@{i}", chunk, deps=deps,
                    dst=(i + 1) % n)

        for i in range(n):
            deps = [merges[(i, n - 2)]]
            deps += [ag_sends[((i - 1) % n, step)]
                     for step in range(n - 1)]
            prev_done[i] = add(
                plan, "barrier", i, f"bucket{b}-done@{i}", deps=deps)


def rowwise_byteps_oss(strategy, plan, pctx, model):
    n = plan.num_nodes
    # ``as_cpu``: costed as its GPU kind but executed on the host-CPU
    # executor (the OSS on-CPU codec path).
    worker_cpu = ({"on_cpu": True, "as_cpu": True}
                  if strategy.worker_on_cpu else {})
    server_rr = 0
    for grad in model.gradients:
        parts = partition_sizes(grad.nbytes, strategy.part_bytes)
        for p, part in enumerate(parts):
            server = server_rr % n
            server_rr += 1
            label = f"{grad.name}.p{p}"
            size = SizeExpr(part)
            wire = SizeExpr(part, compressed=True)

            merges = []
            for w in range(n):
                # Worker: staging copy + encode of this slice.
                stage = add(
                    plan, "copy", w, f"stage:{label}@{w}", size,
                    deps=[ReadyRef(w, grad.name)], grad=grad.name)
                enc = add(
                    plan, "encode", w, f"enc:{label}@{w}", size,
                    deps=[stage], grad=grad.name, **worker_cpu)
                if w == server:
                    arrived = enc
                else:
                    arrived = add(
                        plan, "send", w, f"push:{label}@{w}", wire,
                        deps=[enc], dst=server, grad=grad.name)
                # Server (host CPU): decode then accumulate -- two
                # separate steps, never fused (no ``fusable`` marks).
                dec = add(
                    plan, "decode", server, f"srv-dec:{label}@{w}", size,
                    deps=[arrived], grad=grad.name, on_cpu=True,
                    allocates_output=True, as_cpu=True)
                agg = add(
                    plan, "cpu", server, f"srv-agg:{label}@{w}", size,
                    deps=[dec], grad=grad.name)
                merges.append(agg)

            # Server re-encodes the aggregate on the CPU, then pulls.
            srv_enc = add(
                plan, "encode", server, f"srv-enc:{label}", size,
                deps=merges, grad=grad.name, on_cpu=True, as_cpu=True)
            for w in range(n):
                if w == server:
                    arrived = srv_enc
                else:
                    arrived = add(
                        plan, "send", server, f"pull:{label}@{w}", wire,
                        deps=[srv_enc], dst=w, grad=grad.name)
                unstage = add(
                    plan, "copy", w, f"unstage:{label}@{w}", size,
                    deps=[arrived], grad=grad.name)
                dec = add(
                    plan, "decode", w, f"dec:{label}@{w}", size,
                    deps=[unstage], grad=grad.name,
                    allocates_output=True, **worker_cpu)
                add(plan, "barrier", w, f"done:{label}@{w}", deps=[dec],
                    grad=grad.name)


def rowwise_ring_oss(strategy, plan, pctx, model):
    n = plan.num_nodes
    if n == 1:
        for grad in model.gradients:
            add(plan, "barrier", 0, f"done:{grad.name}",
                deps=[ReadyRef(0, grad.name)], grad=grad.name)
        return

    prev_done = [None] * n  # allreduce ops serialize, as in Horovod
    for grad in model.gradients:
        size = SizeExpr(grad.nbytes)
        wire = SizeExpr(grad.nbytes, compressed=True)
        encodes = []
        for i in range(n):
            deps = [ReadyRef(i, grad.name)]
            if prev_done[i] is not None:
                deps.append(prev_done[i])
            encodes.append(add(
                plan, "encode", i, f"enc:{grad.name}@{i}", size, deps=deps,
                grad=grad.name))

        # Allgather: at step s, node i forwards the buffer that
        # originated at node (i - s) mod n to its successor.
        sends = {}
        for step in range(n - 1):
            for i in range(n):
                if step == 0:
                    deps = [encodes[i]]
                else:
                    deps = [sends[((i - 1) % n, step - 1)]]
                sends[(i, step)] = add(
                    plan, "send", i, f"ag:{grad.name}.{step}@{i}", wire,
                    deps=deps, dst=(i + 1) % n, grad=grad.name)

        # Coarse-grained: every node decodes + merges all n buffers
        # only after its whole allgather completed (no pipelining).
        for i in range(n):
            all_received = [sends[((i - 1) % n, step)]
                            for step in range(n - 1)] + [encodes[i]]
            last = add(
                plan, "barrier", i, f"ag-done:{grad.name}@{i}",
                deps=all_received, grad=grad.name)
            for buf in range(n):
                dec = add(
                    plan, "decode", i, f"agg:{grad.name}.{buf}@{i}", size,
                    deps=[last], grad=grad.name, fusable=True)
                last = add(
                    plan, "merge", i, f"agg:{grad.name}.{buf}@{i}", size,
                    deps=[dec], grad=grad.name, fusable=True)
            prev_done[i] = add(
                plan, "barrier", i, f"done:{grad.name}@{i}", deps=[last],
                grad=grad.name)


#: Each registered strategy class's row-wise expand.
ROWWISE = {
    BytePS: rowwise_byteps,
    RingAllreduce: rowwise_ring_allreduce,
    BytePSOSSCompression: rowwise_byteps_oss,
    RingOSSCompression: rowwise_ring_oss,
    CaSyncPS: lambda strategy, plan, pctx, model: rowwise_ps(plan, model),
    CaSyncRing: lambda strategy, plan, pctx, model: rowwise_ring(plan, model),
}


def rowwise_expand(strategy, plan, pctx, model):
    """``strategy.expand(plan, pctx, model)``, one :func:`add` per op."""
    if strategy.compression and pctx.algorithm is None:
        raise ValueError(f"{strategy.name} requires a compression algorithm")
    ROWWISE[type(strategy)](strategy, plan, pctx, model)


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
    for p in strategy_pipeline(strategy, pctx):
        if p.phase == "directive" and not isinstance(p, VerifyPass):
            p.run(plan, pctx)
    expand = rowwise_expand if rowwise else type(strategy).expand
    expand(strategy, plan, pctx, model)
    return plan
