"""Compression-enabled baselines: the industry OSS integrations (§2.5, §6.1).

These reproduce the *co-design* the paper criticizes -- compression logic
"separated and scattered across gradient synchronization":

* :class:`BytePSOSSCompression` -- BytePS with worker-side on-GPU
  compression bolted on (the paper's fair-comparison setup).  Workers
  encode each partition on the GPU with an extra staging memory copy; but
  BytePS servers are *host-CPU* processes, so aggregation must decode,
  merge, and re-encode on the CPU at the measured ~35x penalty (§2.5), and
  every partition of every gradient is compressed indiscriminately --
  launch overheads amplify along the 3N-2 operators per gradient.

* :class:`RingOSSCompression` -- the Horovod community DGC integration
  (Ring(OSS-DGC)): compressed gradients are not aggregatable in a
  reduce-scatter, so each gradient is encoded once and *allgathered*
  (N-1 forwarding steps); every node then decodes and merges all N buffers
  strictly after the bulk communication finishes -- coarse-grained, no
  compression/communication pipelining, no selective compression.

As IR frontends: neither runs the partition/bulk/selective passes (the
optimizations are exactly what the OSS co-design lacks).  Ring-OSS keeps
:class:`~repro.casync.passes.FuseDecodeMergePass` because its per-buffer
aggregation uses the fused decode+merge kernel; BytePS-OSS decodes and
sums in separate host-CPU steps, so nothing is fusable there.
"""

from __future__ import annotations

from typing import List

from ..casync.ir import ReadyRef, SizeExpr, SyncPlan
from ..casync.passes import FuseDecodeMergePass, Pass, PassContext
from ..models import ModelSpec
from .base import Strategy
from .ps import partition_sizes

__all__ = ["BytePSOSSCompression", "RingOSSCompression"]


class BytePSOSSCompression(Strategy):
    """BytePS + worker-GPU compression, CPU servers (BytePS(OSS-onebit)).

    ``worker_on_cpu=True`` reproduces the original open-source onebit,
    which compresses on the host CPU even at the workers (§2.5 / Fig. 11's
    "on-CPU" stage).
    """

    name = "byteps-oss"
    compression = True

    def __init__(self, part_bytes: float = 4 * 1024 * 1024,
                 worker_on_cpu: bool = False):
        self.part_bytes = float(part_bytes)
        self.worker_on_cpu = worker_on_cpu

    def expand(self, plan: SyncPlan, pctx: PassContext,
               model: ModelSpec) -> None:
        if pctx.algorithm is None:
            raise ValueError(f"{self.name} requires a compression algorithm")
        n = plan.num_nodes
        # ``as_cpu``: costed as its GPU kind but executed on the host-CPU
        # executor (the OSS on-CPU codec path).
        worker_cpu = ({"on_cpu": True, "as_cpu": True}
                      if self.worker_on_cpu else {})
        server_rr = 0
        for grad in model.gradients:
            parts = partition_sizes(grad.nbytes, self.part_bytes)
            for p, part in enumerate(parts):
                server = server_rr % n
                server_rr += 1
                label = f"{grad.name}.p{p}"
                size = SizeExpr(part)
                wire = SizeExpr(part, compressed=True)

                merges = []
                for w in range(n):
                    # Worker: staging copy + encode of this slice.
                    stage = plan.add(
                        "copy", w, f"stage:{label}@{w}", size,
                        deps=[ReadyRef(w, grad.name)], grad=grad.name)
                    enc = plan.add(
                        "encode", w, f"enc:{label}@{w}", size, deps=[stage],
                        grad=grad.name, **worker_cpu)
                    if w == server:
                        arrived = enc
                    else:
                        arrived = plan.add(
                            "send", w, f"push:{label}@{w}", wire,
                            deps=[enc], dst=server, grad=grad.name)
                    # Server (host CPU): decode then accumulate -- two
                    # separate steps, never fused (no ``fusable`` marks).
                    dec = plan.add(
                        "decode", server, f"srv-dec:{label}@{w}", size,
                        deps=[arrived], grad=grad.name, on_cpu=True,
                        allocates_output=True, as_cpu=True)
                    agg = plan.add(
                        "cpu", server, f"srv-agg:{label}@{w}", size,
                        deps=[dec], grad=grad.name)
                    merges.append(agg)

                # Server re-encodes the aggregate on the CPU, then pulls.
                srv_enc = plan.add(
                    "encode", server, f"srv-enc:{label}", size, deps=merges,
                    grad=grad.name, on_cpu=True, as_cpu=True)
                for w in range(n):
                    if w == server:
                        arrived = srv_enc
                    else:
                        arrived = plan.add(
                            "send", server, f"pull:{label}@{w}", wire,
                            deps=[srv_enc], dst=w, grad=grad.name)
                    unstage = plan.add(
                        "copy", w, f"unstage:{label}@{w}", size,
                        deps=[arrived], grad=grad.name)
                    dec = plan.add(
                        "decode", w, f"dec:{label}@{w}", size,
                        deps=[unstage], grad=grad.name,
                        allocates_output=True, **worker_cpu)
                    plan.add("barrier", w, f"done:{label}@{w}", deps=[dec],
                             grad=grad.name)


class RingOSSCompression(Strategy):
    """Ring allgather of compressed gradients (Ring(OSS-DGC))."""

    name = "ring-oss"
    compression = True

    def passes(self) -> List[Pass]:
        # Per-buffer aggregation uses the fused decode+merge kernel; the
        # CaSync-only optimizations (partition/bulk/selective) stay off.
        return [FuseDecodeMergePass()]

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

        prev_done = [None] * n  # allreduce ops serialize, as in Horovod
        for grad in model.gradients:
            size = SizeExpr(grad.nbytes)
            wire = SizeExpr(grad.nbytes, compressed=True)
            encodes = []
            for i in range(n):
                deps = [ReadyRef(i, grad.name)]
                if prev_done[i] is not None:
                    deps.append(prev_done[i])
                encodes.append(plan.add(
                    "encode", i, f"enc:{grad.name}@{i}", size, deps=deps,
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
                    sends[(i, step)] = plan.add(
                        "send", i, f"ag:{grad.name}.{step}@{i}", wire,
                        deps=deps, dst=(i + 1) % n, grad=grad.name)

            # Coarse-grained: every node decodes + merges all n buffers
            # only after its whole allgather completed (no pipelining).
            for i in range(n):
                all_received = [sends[((i - 1) % n, step)]
                                for step in range(n - 1)] + [encodes[i]]
                last = plan.add(
                    "barrier", i, f"ag-done:{grad.name}@{i}",
                    deps=all_received, grad=grad.name)
                for buf in range(n):
                    dec = plan.add(
                        "decode", i, f"agg:{grad.name}.{buf}@{i}", size,
                        deps=[last], grad=grad.name, fusable=True)
                    last = plan.add(
                        "merge", i, f"agg:{grad.name}.{buf}@{i}", size,
                        deps=[dec], grad=grad.name, fusable=True)
                prev_done[i] = plan.add(
                    "barrier", i, f"done:{grad.name}@{i}", deps=[last],
                    grad=grad.name)
