"""CaSync synchronization strategies: CaSync-PS and CaSync-Ring (§3).

Both strategies are SyncPlan IR frontends: :meth:`expand` emits the
structural op stream (the five primitives composed per topology), and the
three CaSync optimizations are independent passes selected by
:meth:`passes` -- the Fig. 11 ablation ladder is literally "run with a
pass removed":

* ``pipelining`` -> :class:`~repro.casync.passes.PartitionPass` --
  partition gradients (per the plan's K) so encode of one partition
  overlaps the transfer of another; with the pass absent, a gradient is
  encoded whole before any byte moves and decoded whole after every byte
  arrives (the OSS co-design shape).
* ``bulk`` -> :class:`~repro.casync.passes.BulkRoutePass` -- route
  eligible transfers below :data:`~repro.casync.passes.BULK_ELIGIBLE_BYTES`
  through the global coordinator (message batching per link) and mark
  the plan for GPU batch compression.  That mark is the only switch: a
  round whose lowered graph carries it runs the coordinator and
  batch-compressing engines, and no other round does.
* ``selective`` -> :class:`~repro.casync.passes.SelectivePass` -- run
  the §3.3 planner and honor its per-gradient <compress?, K> verdicts;
  with the pass absent, everything is compressed and K falls back to the
  fixed :data:`~repro.casync.passes.DEFAULT_PART_BYTES` partitioning
  rule.

Decode+merge fusion (:class:`~repro.casync.passes.FuseDecodeMergePass`)
is part of the CaSync architecture itself (§5) and always on.

CaSync aggregators run on the GPU (unlike BytePS's host-CPU servers), and
workers co-locate with aggregators (§6.1).
"""

from __future__ import annotations

from typing import List

from ..casync.ir import ReadyRef, SizeExpr, SyncPlan
from ..casync.passes import Pass, PassContext, get_pass
from ..casync.topology import ps_topology, ring_topology
from ..models import GradientSpec, ModelSpec
from .base import Strategy

__all__ = ["CaSyncPS", "CaSyncRing"]


class _CaSyncBase(Strategy):
    compression = True

    def __init__(self, pipelining: bool = True, bulk: bool = True,
                 selective: bool = True, adaptive: bool = False,
                 extra_passes=()):
        self.pipelining = pipelining
        self.bulk = bulk
        self.selective = selective
        #: Insert AdaptivePass (after selective, before partition) so a
        #: DecisionMap threaded through the SyncContext lands on the
        #: directives; requires decisions= at simulate time.
        self.adaptive = adaptive
        #: Registry names of additional passes appended after the
        #: built-ins -- the plug-in point for third-party passes
        #: (repro.api.register_pass).  Unknown names raise ConfigError.
        self.extra_passes = tuple(extra_passes)

    def pass_names(self) -> List[str]:
        names: List[str] = []
        if self.selective:
            names.append("selective")
        if self.adaptive:
            names.append("adaptive")
        if self.pipelining:
            names.append("partition")
        names.append("fuse-decode-merge")
        if self.bulk:
            names.append("bulk-route")
        names.extend(self.extra_passes)
        return names

    def passes(self) -> List[Pass]:
        return [get_pass(name)() for name in self.pass_names()]


class CaSyncPS(_CaSyncBase):
    """CaSync parameter server with GPU-side, co-located aggregators."""

    name = "casync-ps"

    def expand(self, plan: SyncPlan, pctx: PassContext,
               model: ModelSpec) -> None:
        if pctx.algorithm is None:
            raise ValueError(f"{self.name} requires a compression algorithm")
        n = plan.num_nodes
        # §3.1: the bipartite worker<->aggregator topology is decoupled
        # from the strategy; aggregators rotate over the topology's
        # aggregator set for load balance.
        topology = ps_topology(n, colocated=True)
        aggregator_pool = topology.aggregators()
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
                    # GPU-side aggregation; the fusion pass collapses the
                    # decode+merge pair into the §5 fused kernel.
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


class CaSyncRing(_CaSyncBase):
    """CaSync ring: hop-wise decode+merge+encode, chunk-pipelined."""

    name = "casync-ring"

    def expand(self, plan: SyncPlan, pctx: PassContext,
               model: ModelSpec) -> None:
        if pctx.algorithm is None:
            raise ValueError(f"{self.name} requires a compression algorithm")
        n = plan.num_nodes
        if n == 1:
            for grad in model.gradients:
                plan.add("barrier", 0, f"done:{grad.name}",
                         deps=[ReadyRef(0, grad.name)], grad=grad.name)
            return
        # §3.1: clockwise ring edges come from the topology graph.
        topology = ring_topology(n)

        # Bulk communication on a ring topology: gradients the planner left
        # uncompressed are fused into buckets and allreduced raw, instead of
        # paying 2(N-1) per-gradient micro-hops (§3.2's batched time slots).
        raw: List[GradientSpec] = []
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
                # Aggregation: n-1 hops; each hop encodes its partial,
                # sends, and the receiver decode+merges (fused by the
                # fusion pass).
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
                    # Ring hops are serial chains: routing them through the
                    # coordinator would add a flush delay per hop, so they
                    # are never bulk-eligible; CaSync-Ring's bulk benefits
                    # come from batch compression and raw-bucket fusion.
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

                # Dissemination: encode the final value once, then forward
                # the compressed buffer n-1 hops; receivers decode locally
                # (overlapping the next hop's transfer).
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

        self._raw_ring(plan, raw)

    def _raw_ring(self, plan: SyncPlan, raw: List[GradientSpec],
                  bucket_bytes: float = 4 * 1024 * 1024) -> None:
        """Fused raw allreduce of the planner's uncompressed gradients."""
        from .ring import bucketize  # local import avoids a cycle

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
                    sends[(i, step)] = plan.add(
                        "send", i, f"raw-rs{b}.{step}@{i}", chunk,
                        deps=deps, dst=(i + 1) % n)
                for i in range(n):
                    merges[(i, step)] = plan.add(
                        "merge", i, f"raw-mrg{b}.{step}@{i}", chunk,
                        deps=[sends[((i - 1) % n, step)]] + list(ready[i]))
            ag = {}
            for step in range(n - 1):
                for i in range(n):
                    deps = ([merges[(i, n - 2)]] if step == 0
                            else [ag[((i - 1) % n, step - 1)]])
                    ag[(i, step)] = plan.add(
                        "send", i, f"raw-ag{b}.{step}@{i}", chunk,
                        deps=deps, dst=(i + 1) % n)
            for i in range(n):
                deps = [merges[(i, n - 2)]] + [
                    ag[((i - 1) % n, step)] for step in range(n - 1)]
                plan.add("barrier", i, f"raw-done{b}@{i}", deps=deps)
