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

from typing import List, Tuple

from ..casync.ir import SyncPlan
from ..casync.passes import FuseDecodeMergePass, Pass, PassContext
from ..models import ModelSpec
from .base import Strategy
from .blocks import Blocks, Template, one_node_barriers
from .ps import place_slices

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
        worker = ("on_cpu", "as_cpu") if self.worker_on_cpu else ()
        place_slices(plan, model, self.part_bytes,
                     lambda server: _oss_partition(n, server, worker))


def _oss_partition(n: int, server: int, worker: Tuple[str, ...]) -> Template:
    """One BytePS(OSS) slice: workers encode it (with ``worker`` flags)
    and push it to ``server``, whose host CPU decodes, sums and re-encodes
    it for the pull."""
    t = Template()
    on_cpu = ("on_cpu", "as_cpu")
    merges = []
    for w in range(n):
        # Worker: staging copy + encode of this slice.
        stage = t.row("copy", w, "stage:", f"@{w}", [-1 - w])
        arrived = t.row("encode", w, "enc:", f"@{w}", [stage], flags=worker)
        if w != server:
            arrived = t.row("send", w, "push:", f"@{w}", [arrived],
                            dst=server, compressed=True)
        # Server (host CPU): decode then accumulate -- two separate
        # steps, never fused (no ``fusable`` marks).
        dec = t.row("decode", server, "srv-dec:", f"@{w}", [arrived],
                    flags=on_cpu + ("allocates_output",))
        merges.append(t.row("cpu", server, "srv-agg:", f"@{w}", [dec]))

    # Server re-encodes the aggregate on the CPU, then pulls.
    srv_enc = t.row("encode", server, "srv-enc:", "", merges, flags=on_cpu)
    for w in range(n):
        arrived = srv_enc
        if w != server:
            arrived = t.row("send", server, "pull:", f"@{w}", [srv_enc],
                            dst=w, compressed=True)
        unstage = t.row("copy", w, "unstage:", f"@{w}", [arrived])
        dec = t.row("decode", w, "dec:", f"@{w}", [unstage],
                    flags=("allocates_output",) + worker)
        t.row("barrier", w, "done:", f"@{w}", [dec], sized=False)
    return t


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
            one_node_barriers(plan, model.gradients)
            return
        # Allreduce ops serialize, as in Horovod: a gradient's encodes
        # wait for the previous gradient to be done on their node.
        blocks = Blocks(plan, lambda chained: _allgather(n, chained))
        for g, grad in enumerate(model.gradients):
            blocks.place(grad.name, grad.nbytes, [g > 0], [grad.name])
        blocks.extend()


def _allgather(n: int, chained: bool) -> Template:
    """One gradient's compressed allgather over the ring ``i -> i + 1``,
    then every node's decode + merge of all n buffers."""
    t = Template()
    encodes = [t.row("encode", i, "enc:", f"@{i}", [-1 - i]) for i in range(n)]

    # Allgather: at step s, node i forwards the buffer that originated at
    # node (i - s) mod n to its successor.
    steps: List[List[int]] = []
    for step in range(n - 1):
        steps.append([t.row("send", i, "ag:", f".{step}@{i}",
                            [encodes[i] if step == 0 else steps[-1][i - 1]],
                            dst=(i + 1) % n, compressed=True)
                      for i in range(n)])

    # Coarse-grained: every node decodes + merges all n buffers only
    # after its whole allgather completed (no pipelining).
    for i in range(n):
        last = t.row("barrier", i, "ag-done:", f"@{i}",
                     [sends[i - 1] for sends in steps] + [encodes[i]],
                     sized=False)
        for buf in range(n):
            dec = t.row("decode", i, "agg:", f".{buf}@{i}", [last],
                        flags=("fusable",))
            last = t.row("merge", i, "agg:", f".{buf}@{i}", [dec],
                         flags=("fusable",))
        done = t.row("barrier", i, "done:", f"@{i}", [last], sized=False)
        if chained:
            t.chain(encodes[i], done)
    return t
