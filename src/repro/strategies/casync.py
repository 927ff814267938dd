"""CaSync synchronization strategies: CaSync-PS and CaSync-Ring (§3).

Both strategies are SyncPlan IR frontends: :meth:`expand` emits the
structural op stream (the five primitives composed per topology) as one
template block per partition (:mod:`repro.strategies.blocks`), and the
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
  rule.  A run that carries adaptive decisions applies them with
  :class:`~repro.casync.passes.AdaptivePass` in this pass's place
  (:func:`~repro.casync.passes.strategy_pipeline`).

Decode+merge fusion (:class:`~repro.casync.passes.FuseDecodeMergePass`)
is part of the CaSync architecture itself (§5) and always on.

CaSync aggregators run on the GPU (unlike BytePS's host-CPU servers), and
workers co-locate with aggregators (§6.1).
"""

from __future__ import annotations

from typing import List

from ..casync.ir import SyncPlan
from ..casync.passes import (BulkRoutePass, FuseDecodeMergePass,
                             PartitionPass, Pass, PassContext, SelectivePass)
from ..casync.topology import ps_topology, ring_topology
from ..models import GradientSpec, ModelSpec
from .base import Strategy
from .blocks import Blocks, Template, one_node_barriers
from .ring import bucketize, ring_buckets

__all__ = ["CaSyncPS", "CaSyncRing"]

#: The fusion bucket size of CaSync-ring's uncompressed gradients.
RAW_BUCKET_BYTES = 4 * 1024 * 1024


class _CaSyncBase(Strategy):
    compression = True

    def __init__(self, pipelining: bool = True, bulk: bool = True,
                 selective: bool = True):
        self.pipelining = pipelining
        self.bulk = bulk
        self.selective = selective

    def passes(self) -> List[Pass]:
        passes: List[Pass] = []
        if self.selective:
            passes.append(SelectivePass())
        if self.pipelining:
            passes.append(PartitionPass())
        passes.append(FuseDecodeMergePass())
        if self.bulk:
            passes.append(BulkRoutePass())
        return passes


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
        blocks = Blocks(plan, lambda key: _ps_partition(n, *key))
        agg_rr = 0
        for grad in model.gradients:
            directive = plan.directive(grad.name)
            parts = range(directive.partitions)
            keys = [(aggregator_pool[(agg_rr + p) % len(aggregator_pool)],
                     directive.compress) for p in parts]
            agg_rr += len(parts)
            blocks.place(grad.name, grad.nbytes / len(parts), keys,
                         [f"{grad.name}.p{p}" for p in parts], parts)
        blocks.extend()


def _ps_partition(n: int, aggregator: int, compress: bool) -> Template:
    """One CaSync-PS partition: each worker pushes to ``aggregator``,
    which merges and sends the result back to every worker."""
    t = Template()
    merges = []
    for w in range(n):
        src = -1 - w  # worker w's ready ref
        if compress:
            src = t.row("encode", w, "enc:", f"@{w}", [src])
        if w != aggregator:
            src = t.row("send", w, "push:", f"@{w}", [src], dst=aggregator,
                        compressed=compress, flags=("bulk_eligible",))
        # GPU-side aggregation; the fusion pass collapses the
        # decode+merge pair into the §5 fused kernel.
        if compress:
            dec = t.row("decode", aggregator, "agg:", f"@{w}", [src],
                        flags=("fusable",))
            merges.append(t.row("merge", aggregator, "agg:", f"@{w}",
                                [dec], flags=("fusable",)))
        else:
            merges.append(t.row("merge", aggregator, "agg:", f"@{w}",
                                [src]))
    tail = merges
    if compress:
        tail = [t.row("encode", aggregator, "enc-out:", "", merges)]
    for w in range(n):
        done = tail
        if w != aggregator:
            done = [t.row("send", aggregator, "pull:", f"@{w}", tail, dst=w,
                          compressed=compress, flags=("bulk_eligible",))]
            if compress:
                done = [t.row("decode", w, "dec:", f"@{w}", done)]
        t.row("barrier", w, "done:", f"@{w}", done, sized=False)
    return t


class CaSyncRing(_CaSyncBase):
    """CaSync ring: hop-wise decode+merge+encode, chunk-pipelined."""

    name = "casync-ring"

    def expand(self, plan: SyncPlan, pctx: PassContext,
               model: ModelSpec) -> None:
        if pctx.algorithm is None:
            raise ValueError(f"{self.name} requires a compression algorithm")
        n = plan.num_nodes
        if n == 1:
            one_node_barriers(plan, model.gradients)
            return
        # §3.1: clockwise ring edges come from the topology graph.
        topology = ring_topology(n)
        successor = [topology.successor(i) for i in range(n)]
        blocks = Blocks(plan, lambda start: _ring_chunk(successor, start))

        # Bulk communication on a ring topology: gradients the planner left
        # uncompressed are fused into buckets and allreduced raw, instead of
        # paying 2(N-1) per-gradient micro-hops (§3.2's batched time slots).
        raw: List[GradientSpec] = []
        for grad in model.gradients:
            directive = plan.directive(grad.name)
            if not directive.compress:
                raw.append(grad)
                continue
            chunks = range(directive.partitions)
            blocks.place(grad.name, grad.nbytes / len(chunks),
                         [c % n for c in chunks],
                         [f"{grad.name}.c{c}" for c in chunks], chunks)
        blocks.extend()
        ring_buckets(plan, bucketize(raw, RAW_BUCKET_BYTES),
                     ("raw-rs", "raw-mrg", "raw-ag", "raw-done", ""))


def _ring_chunk(successor: List[int], start: int) -> Template:
    """One compressed CaSync-ring chunk starting at node ``start``, on a
    ring where node ``i`` sends to ``successor[i]``."""
    n = len(successor)
    t = Template()
    # Aggregation: n-1 hops; each hop encodes its partial, sends, and
    # the receiver decode+merges (fused by the fusion pass).
    prev: List[int] = []
    for step in range(n - 1):
        holder = (start + step) % n
        nxt = successor[holder]
        enc = t.row("encode", holder, "enc:", f".{step}", [-1 - holder] + prev)
        # Ring hops are serial chains: routing them through the
        # coordinator would add a flush delay per hop, so they are never
        # bulk-eligible; CaSync-Ring's bulk benefits come from batch
        # compression and raw-bucket fusion.
        send = t.row("send", holder, "hop:", f".{step}", [enc], dst=nxt,
                     compressed=True)
        dec = t.row("decode", nxt, "agg:", f".{step}", [send, -1 - nxt],
                    flags=("fusable",))
        prev = [t.row("merge", nxt, "agg:", f".{step}", [dec],
                      flags=("fusable",))]

    # Dissemination: encode the final value once, then forward the
    # compressed buffer n-1 hops; receivers decode locally (overlapping
    # the next hop's transfer).
    final_holder = (start + n - 1) % n
    hop = t.row("encode", final_holder, "enc-final:", "", prev)
    t.row("barrier", final_holder, "done:", "", prev, sized=False)
    for step in range(n - 1):
        holder = (final_holder + step) % n
        nxt = successor[holder]
        hop = t.row("send", holder, "bcast:", f".{step}", [hop], dst=nxt,
                    compressed=True)
        dec = t.row("decode", nxt, "dec:", f".{step}", [hop])
        t.row("barrier", nxt, "done:", f"@{nxt}", [dec], sized=False)
    return t
