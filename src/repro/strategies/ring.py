"""Ring-allreduce baseline (Horovod-style, no compression).

Gradients are fused into buckets in backward order (the standard tensor-
fusion optimization); each bucket is allreduced over the node ring with the
bandwidth-optimal 2(N-1)-step schedule: N-1 reduce-scatter steps (send a
chunk, merge the received chunk) followed by N-1 allgather steps
(forward the final chunks).  Buckets are serialized -- Ring-allreduce is a
"global, atomic, bulk synchronization operation" (§2.5) -- but a bucket
can start as soon as its gradients emerge from backward, which is the
conventional computation/communication pipeline.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..casync.ir import SyncPlan
from ..casync.passes import PassContext
from ..models import GradientSpec, ModelSpec
from .base import Strategy
from .blocks import Blocks, Template, one_node_barriers

__all__ = ["RingAllreduce", "bucketize", "ring_buckets"]


def bucketize(gradients, bucket_bytes: float) -> List[List[GradientSpec]]:
    """Group gradients (in backward order) into fusion buckets."""
    if not bucket_bytes > 0:  # NaN fails too
        raise ValueError(
            f"bucket_bytes must be positive, got {bucket_bytes!r}")
    buckets: List[List[GradientSpec]] = []
    current: List[GradientSpec] = []
    size = 0.0
    for grad in gradients:
        current.append(grad)
        size += grad.nbytes
        if size >= bucket_bytes:
            buckets.append(current)
            current = []
            size = 0.0
    if current:
        buckets.append(current)
    return buckets


#: A ring bucket's row labels, each around the bucket number: the
#: prefixes of its reduce-scatter sends, merges and allgather sends, and
#: its done barriers' prefix and suffix (before ``@node``).
Labels = Tuple[str, str, str, str, str]


def ring_buckets(plan: SyncPlan, buckets: Sequence[List[GradientSpec]],
                 labels: Labels, pause: Optional[float] = None) -> None:
    """Allreduce each bucket raw over the ring ``i -> i + 1`` of the
    plan's n >= 2 nodes: n-1 reduce-scatter steps (send a 1/n chunk,
    merge the received one), n-1 allgather steps, then a done barrier
    per node.

    With ``pause`` (seconds), every send first runs a ``pause``-second
    cpu row, and a bucket starts on a node only once the previous bucket
    is done there; without it, buckets overlap.
    """
    n = plan.num_nodes
    blocks = Blocks(plan, lambda key: _ring_bucket(n, *key, labels, pause))
    for b, bucket in enumerate(buckets):
        size = sum(g.nbytes for g in bucket)
        chained = pause is not None and b > 0
        blocks.place(None, size / n, [(len(bucket), chained)], [str(b)],
                     ready=[g.name for g in bucket])
    blocks.extend()


def _ring_bucket(n: int, grads: int, chained: bool, labels: Labels,
                 pause: Optional[float]) -> Template:
    """One bucket of ``grads`` gradients (see :func:`ring_buckets`)."""
    rs, merge, ag, done, done_suffix = labels
    t = Template()
    ready = [[-1 - (i * grads + g) for g in range(grads)] for i in range(n)]

    def send(i: int, prefix: str, pause_prefix: str, step: int,
             deps: List[int]) -> int:
        if pause is not None:
            deps = [t.row("cpu", i, pause_prefix, f".{step}@{i}", deps,
                          sized=False, attrs={"duration_s": pause})]
        return t.row("send", i, prefix, f".{step}@{i}", deps,
                     dst=(i + 1) % n)

    heads: List[int] = []  # each node's first row
    merges: List[int] = []
    for step in range(n - 1):
        sends = []
        for i in range(n):
            if step == 0:
                heads.append(len(t.kinds))
            sends.append(send(i, rs, "ringstep", step,
                              ready[i] if step == 0 else [merges[i]]))
        merges = [t.row("merge", i, merge, f".{step}@{i}",
                        [sends[i - 1]] + ready[i]) for i in range(n)]
    hops: List[List[int]] = []
    for step in range(n - 1):
        hops.append([send(i, ag, "agstep", step,
                          [merges[i]] if step == 0 else [hops[-1][i - 1]])
                     for i in range(n)])
    for i in range(n):
        last = t.row("barrier", i, done, f"{done_suffix}@{i}",
                     [merges[i]] + [hop[i - 1] for hop in hops], sized=False)
        if chained:
            t.chain(heads[i], last)
    return t


class RingAllreduce(Strategy):
    """Bucketed Ring-allreduce without compression.

    The deployment the paper benchmarks runs one NCCL ring spanning every
    GPU, intra-node aggregation disabled: the ring has 2(total_gpus - 1)
    steps rather than 2(nodes - 1).  The simulator keeps node-level
    transfers (intra-node hops ride NVLink and are nearly free) and
    accounts for the extra steps' serial latency -- wire latency plus a
    per-step NCCL launch/synchronization overhead -- as explicit serial
    work on each node's ring chain.
    """

    name = "ring"
    compression = False

    #: Per-ring-step NCCL kernel launch + synchronization overhead.
    NCCL_STEP_OVERHEAD_S = 15e-6

    def __init__(self, bucket_bytes: float = 64 * 1024 * 1024):
        self.bucket_bytes = float(bucket_bytes)

    def _step_overhead(self, pctx: PassContext) -> float:
        """Extra serial seconds per node-level ring step (n >= 2).  At
        least :attr:`NCCL_STEP_OVERHEAD_S`, since every node has a GPU."""
        n = pctx.num_nodes
        node_steps = 2 * (n - 1)
        gpu_steps = 2 * (pctx.cluster.total_gpus - 1)
        # A ring step is paced by the slowest participating link (on a
        # uniform network this is exactly the core latency).
        latency = pctx.cluster.network.bottleneck(n).latency_s
        per_step = latency + self.NCCL_STEP_OVERHEAD_S
        # Latency of the full GPU ring, minus what the node-level transfers
        # already pay, spread over the node-level steps.
        return (gpu_steps * per_step - node_steps * latency) / node_steps

    def expand(self, plan: SyncPlan, pctx: PassContext,
               model: ModelSpec) -> None:
        if plan.num_nodes == 1:
            one_node_barriers(plan, model.gradients)
            return
        ring_buckets(plan, bucketize(model.gradients, self.bucket_bytes),
                     ("rs", "merge", "ag", "bucket", "-done"),
                     pause=self._step_overhead(pctx))
