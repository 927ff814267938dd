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

from typing import List

from ..casync.ir import ReadyRef, SizeExpr, SyncPlan
from ..casync.passes import PassContext
from ..models import GradientSpec, ModelSpec
from .base import Strategy

__all__ = ["RingAllreduce", "bucketize"]


def bucketize(gradients, bucket_bytes: float) -> List[List[GradientSpec]]:
    """Group gradients (in backward order) into fusion buckets."""
    if bucket_bytes <= 0:
        raise ValueError("bucket_bytes must be positive")
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


class RingAllreduce(Strategy):
    """Bucketed Ring-allreduce without compression.

    With ``gpu_ring=True`` (the deployment the paper benchmarks: one NCCL
    ring spanning every GPU, intra-node aggregation disabled) the ring has
    2(total_gpus - 1) steps rather than 2(nodes - 1).  The simulator keeps
    node-level transfers (intra-node hops ride NVLink and are nearly free)
    and accounts for the extra steps' serial latency -- wire latency plus a
    per-step NCCL launch/synchronization overhead -- as explicit serial
    work on each node's ring chain.
    """

    name = "ring"
    compression = False

    #: Per-ring-step NCCL kernel launch + synchronization overhead.
    NCCL_STEP_OVERHEAD_S = 15e-6

    def __init__(self, bucket_bytes: float = 64 * 1024 * 1024,
                 gpu_ring: bool = True):
        self.bucket_bytes = float(bucket_bytes)
        self.gpu_ring = gpu_ring

    def _step_overhead(self, pctx: PassContext) -> float:
        """Extra serial seconds per node-level ring step."""
        n = pctx.num_nodes
        node_steps = 2 * (n - 1)
        if not self.gpu_ring:
            return self.NCCL_STEP_OVERHEAD_S
        total_gpus = pctx.cluster.total_gpus
        gpu_steps = 2 * (total_gpus - 1)
        # A ring step is paced by the slowest participating link (on a
        # uniform network this is exactly the core latency).
        latency = pctx.cluster.network.bottleneck(n).latency_s
        per_step = latency + self.NCCL_STEP_OVERHEAD_S
        # Latency of the full GPU ring, minus what the node-level transfers
        # already pay, spread over the node-level steps.
        extra = gpu_steps * per_step - node_steps * latency
        return max(0.0, extra / node_steps)

    def expand(self, plan: SyncPlan, pctx: PassContext,
               model: ModelSpec) -> None:
        n = plan.num_nodes
        if n == 1:
            for grad in model.gradients:
                plan.add("barrier", 0, f"done:{grad.name}",
                         deps=[ReadyRef(0, grad.name)], grad=grad.name)
            return

        step_overhead = self._step_overhead(pctx)
        buckets = bucketize(model.gradients, self.bucket_bytes)
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
                        pause = plan.add(
                            "cpu", i, f"ringstep{b}.{step}@{i}", deps=deps,
                            duration_s=step_overhead)
                        deps = [pause]
                    sends[(i, step)] = plan.add(
                        "send", i, f"rs{b}.{step}@{i}", chunk, deps=deps,
                        dst=(i + 1) % n)
                for i in range(n):
                    deps = [sends[((i - 1) % n, step)]] + list(ready[i])
                    merges[(i, step)] = plan.add(
                        "merge", i, f"merge{b}.{step}@{i}", chunk, deps=deps)

            ag_sends = {}
            for step in range(n - 1):
                for i in range(n):
                    if step == 0:
                        deps = [merges[(i, n - 2)]]
                    else:
                        deps = [ag_sends[((i - 1) % n, step - 1)]]
                    if step_overhead > 0:
                        pause = plan.add(
                            "cpu", i, f"agstep{b}.{step}@{i}", deps=deps,
                            duration_s=step_overhead)
                        deps = [pause]
                    ag_sends[(i, step)] = plan.add(
                        "send", i, f"ag{b}.{step}@{i}", chunk, deps=deps,
                        dst=(i + 1) % n)

            for i in range(n):
                deps = [merges[(i, n - 2)]]
                deps += [ag_sends[((i - 1) % n, step)]
                         for step in range(n - 1)]
                prev_done[i] = plan.add(
                    "barrier", i, f"bucket{b}-done@{i}", deps=deps)
