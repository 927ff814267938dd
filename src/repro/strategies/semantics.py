"""Numeric dataflow semantics of each synchronization strategy.

The task graphs the strategies build carry *costs* (bytes, kernel times),
not values -- the simulator never touches gradient data.  This module is
the missing numeric half: for each strategy it executes the protocol's
actual decode-merge-encode dataflow over real numpy buffers with the real
codecs, mirroring the partitioning rules the graph builders use
(:func:`~repro.strategies.ps.partition_sizes`, the CaSync plan rules,
:func:`~repro.casync.topology.ps_topology` round-robin aggregator
assignment, ring successor order).

The differential tests compare these executions against independent,
straight-line serial references: a structural bug in the shared
partitioning/topology machinery (wrong boundaries, a skipped hop, a
double merge) shows up as a numeric mismatch.

Two conventions keep stochastic codecs (TernGrad's randomized rounding)
bit-reproducible between a semantics run and a reference run built from a
fresh same-seed instance:

* encode calls happen in canonical order -- per gradient in dict order,
  per partition ascending, workers ascending (or hop-chain order for
  rings), aggregate re-encode last;
* decode never consumes randomness (true of every registered codec).

Per-node asymmetries are modelled faithfully: a CaSync-PS aggregator
keeps its dense merged value (it never decodes its own re-encode), and a
CaSync-Ring final holder keeps the un-requantized partial, while every
other node sees one extra decode(encode(.)) roundtrip.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..algorithms.base import CompressionAlgorithm
from ..casync.passes import DEFAULT_PART_BYTES
from ..casync.planner import GradientPlan
from ..casync.topology import ps_topology, ring_topology
from .ps import partition_sizes

__all__ = [
    "roundtrip",
    "byteps_values",
    "byteps_oss_values",
    "ring_values",
    "ring_oss_values",
    "casync_ps_values",
    "casync_ring_values",
    "strategy_values",
]

#: name -> one float32 array per worker (the node's local gradient).
WorkerGrads = Dict[str, Sequence[np.ndarray]]
#: name -> one float32 array per node (the node's post-sync value).
NodeValues = Dict[str, List[np.ndarray]]


def roundtrip(algo: Optional[CompressionAlgorithm],
              value: np.ndarray) -> np.ndarray:
    """decode(encode(value)), or the identity without an algorithm."""
    value = np.asarray(value, dtype=np.float32)
    if algo is None:
        return value
    return algo.decode(algo.encode(value))


def _as_grads(grads: Sequence[np.ndarray]) -> List[np.ndarray]:
    out = [np.ascontiguousarray(g, dtype=np.float32).ravel() for g in grads]
    if not out:
        raise ValueError("need at least one worker gradient")
    size = out[0].size
    for g in out:
        if g.size != size:
            raise ValueError("workers disagree on gradient size")
    return out


def _partitions_for(name: str, nbytes: int, num_nodes: int,
                    plans: Optional[Dict[str, GradientPlan]]):
    """(k, compress) for a CaSync gradient: the strategy's _plan rule."""
    if plans is not None and name in plans:
        plan = plans[name]
        return max(1, plan.partitions), plan.compress
    k = min(num_nodes,
            max(1, -(-nbytes // DEFAULT_PART_BYTES)))  # ceil div
    return k, True


def _ps_exchange(parts: List[np.ndarray],
                 algo: Optional[CompressionAlgorithm]):
    """One PS slice: workers encode, server decode+merges, re-encodes.

    Returns (merged, redistributed): the dense aggregate the server holds
    and the value a worker decodes from the server's re-encode.
    """
    if algo is None:
        merged = parts[0].copy()
        for p in parts[1:]:
            merged = merged + p
        return merged, merged
    decoded = [algo.decode(algo.encode(p)) for p in parts]
    merged = decoded[0]
    for d in decoded[1:]:
        merged = merged + d
    redistributed = algo.decode(algo.encode(merged))
    return merged, redistributed


def byteps_values(worker_grads: WorkerGrads,
                  part_bytes: float = DEFAULT_PART_BYTES) -> NodeValues:
    """Raw BytePS: per 4MB-capped slice, sum in worker order, pull to all."""
    out: NodeValues = {}
    for name, raw in worker_grads.items():
        grads = _as_grads(raw)
        n = len(grads)
        k = len(partition_sizes(grads[0].nbytes, part_bytes))
        slices = [np.array_split(g, k) for g in grads]
        merged = np.concatenate([
            _ps_exchange([slices[w][p] for w in range(n)], None)[0]
            for p in range(k)])
        out[name] = [merged.copy() for _ in range(n)]
    return out


def byteps_oss_values(worker_grads: WorkerGrads,
                      algo: CompressionAlgorithm,
                      part_bytes: float = DEFAULT_PART_BYTES) -> NodeValues:
    """BytePS(OSS): compressed push, server decode+merge+re-encode, pull.

    Every node -- the server included (it round-trips its own re-encode
    through the staging copy + decode path) -- ends with the decoded
    re-encoded aggregate.
    """
    out: NodeValues = {}
    for name, raw in worker_grads.items():
        grads = _as_grads(raw)
        n = len(grads)
        k = len(partition_sizes(grads[0].nbytes, part_bytes))
        slices = [np.array_split(g, k) for g in grads]
        value = np.concatenate([
            _ps_exchange([slices[w][p] for w in range(n)], algo)[1]
            for p in range(k)])
        out[name] = [value.copy() for _ in range(n)]
    return out


def ring_values(worker_grads: WorkerGrads) -> NodeValues:
    """Raw ring allreduce: chunk j is reduced along the ring in hop order.

    The reduce-scatter accumulates chunk j starting at node (j+1) mod n
    and ending at its owner j; the allgather then broadcasts the owner's
    buffer, so every node holds the identical (ring-ordered) sum.
    """
    out: NodeValues = {}
    for name, raw in worker_grads.items():
        grads = _as_grads(raw)
        n = len(grads)
        chunks = [np.array_split(g, n) for g in grads]
        reduced = []
        for j in range(n):
            partial = chunks[(j + 1) % n][j].copy()
            for step in range(1, n):
                partial = partial + chunks[(j + 1 + step) % n][j]
            reduced.append(partial)
        value = np.concatenate(reduced)
        out[name] = [value.copy() for _ in range(n)]
    return out


def ring_oss_values(worker_grads: WorkerGrads,
                    algo: CompressionAlgorithm) -> NodeValues:
    """Ring(OSS): encode once at the origin, allgather, decode-merge all.

    Compressed buffers are not aggregatable, so there is no re-encode of
    the aggregate: every node sums the n decoded origin buffers (origin
    order), and that sum *is* the final value.
    """
    out: NodeValues = {}
    for name, raw in worker_grads.items():
        grads = _as_grads(raw)
        n = len(grads)
        decoded = [algo.decode(algo.encode(g)) for g in grads]
        value = decoded[0]
        for d in decoded[1:]:
            value = value + d
        out[name] = [value.copy() for _ in range(n)]
    return out


def casync_ps_values(worker_grads: WorkerGrads,
                     algo: CompressionAlgorithm,
                     plans: Optional[Dict[str, GradientPlan]] = None
                     ) -> NodeValues:
    """CaSync-PS: co-located GPU aggregators, round-robin over partitions.

    Per partition the aggregator decodes and merges every worker's encode
    and re-encodes the aggregate for the pulls.  The aggregator itself
    keeps the dense merged value (its barrier hangs off the re-encode, not
    a decode); every other node decodes the pulled buffer.
    """
    names = list(worker_grads)
    if not names:
        return {}
    n = len(_as_grads(worker_grads[names[0]]))
    pool = ps_topology(n, colocated=True).aggregators()
    agg_rr = 0
    out: NodeValues = {}
    for name in names:
        grads = _as_grads(worker_grads[name])
        k, compress = _partitions_for(name, grads[0].nbytes, n, plans)
        slices = [np.array_split(g, k) for g in grads]
        per_node_parts: List[List[np.ndarray]] = [[] for _ in range(n)]
        for p in range(k):
            aggregator = pool[agg_rr % len(pool)]
            agg_rr += 1
            merged, redistributed = _ps_exchange(
                [slices[w][p] for w in range(n)], algo if compress else None)
            for node in range(n):
                per_node_parts[node].append(
                    merged if node == aggregator else redistributed)
        out[name] = [np.concatenate(parts) for parts in per_node_parts]
    return out


def casync_ring_values(worker_grads: WorkerGrads,
                       algo: CompressionAlgorithm,
                       plans: Optional[Dict[str, GradientPlan]] = None
                       ) -> NodeValues:
    """CaSync-Ring: hop-wise decode+merge+encode along the ring.

    Chunk c starts at node c mod n; each aggregation hop requantizes the
    running partial (encode, send, decode+merge at the successor).  The
    final holder keeps the last partial un-requantized; dissemination
    encodes it once and every other node decodes that same buffer.
    Gradients the plan leaves uncompressed take the raw ring path.
    """
    names = list(worker_grads)
    if not names:
        return {}
    n = len(_as_grads(worker_grads[names[0]]))
    topology = ring_topology(n)
    out: NodeValues = {}
    for name in names:
        grads = _as_grads(worker_grads[name])
        if n == 1:
            out[name] = [grads[0].copy()]
            continue
        k, compress = _partitions_for(name, grads[0].nbytes, n, plans)
        if not compress:
            out[name] = ring_values({name: grads})[name]
            continue
        chunks = [np.array_split(g, k) for g in grads]
        per_node_parts: List[List[np.ndarray]] = [[] for _ in range(n)]
        for c in range(k):
            start = c % n
            holder = start
            partial = chunks[holder][c].copy()
            for _step in range(n - 1):
                nxt = topology.successor(holder)
                partial = algo.decode(algo.encode(partial)) + chunks[nxt][c]
                holder = nxt
            final_holder = holder  # == (start + n - 1) % n
            broadcast = algo.decode(algo.encode(partial))
            for node in range(n):
                per_node_parts[node].append(
                    partial if node == final_holder else broadcast)
        out[name] = [np.concatenate(parts) for parts in per_node_parts]
    return out


def strategy_values(strategy, worker_grads: WorkerGrads,
                    algo: Optional[CompressionAlgorithm] = None,
                    plans: Optional[Dict[str, GradientPlan]] = None
                    ) -> NodeValues:
    """Dispatch to the numeric semantics matching ``strategy``."""
    counts = {name: len(seq) for name, seq in worker_grads.items()}
    if len(set(counts.values())) > 1:
        raise ValueError(
            f"gradients disagree on worker count {counts}; keys must be "
            "gradient names, each mapping to one array per worker")
    from .casync import CaSyncPS, CaSyncRing
    from .oss import BytePSOSSCompression, RingOSSCompression
    from .ps import BytePS
    from .ring import RingAllreduce

    if isinstance(strategy, BytePS):
        return byteps_values(worker_grads, part_bytes=strategy.part_bytes)
    if isinstance(strategy, RingAllreduce):
        return ring_values(worker_grads)
    if isinstance(strategy, BytePSOSSCompression):
        if algo is None:
            raise ValueError(f"{strategy.name} requires a compression algorithm")
        return byteps_oss_values(worker_grads, algo,
                                 part_bytes=strategy.part_bytes)
    if isinstance(strategy, RingOSSCompression):
        if algo is None:
            raise ValueError(f"{strategy.name} requires a compression algorithm")
        return ring_oss_values(worker_grads, algo)
    if isinstance(strategy, CaSyncPS):
        if algo is None:
            raise ValueError(f"{strategy.name} requires a compression algorithm")
        return casync_ps_values(worker_grads, algo, plans=plans)
    if isinstance(strategy, CaSyncRing):
        if algo is None:
            raise ValueError(f"{strategy.name} requires a compression algorithm")
        return casync_ring_values(worker_grads, algo, plans=plans)
    raise TypeError(f"no numeric semantics for {strategy!r}")
