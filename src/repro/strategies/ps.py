"""BytePS-style parameter-server baseline (no compression).

Every node is both a GPU worker and a co-located CPU server (the BytePS
deployment the paper tunes for best performance, §6.1).  Gradients are
partitioned into fixed-size slices; each slice is assigned a server
round-robin for load balance.  Workers push slices as soon as the gradient
is ready (fine-grained pipelining, §2.5); servers aggregate on the host
CPU (the BytePS architecture: summation happens in host memory) and push
the result back to every worker.
"""

from __future__ import annotations

from typing import List

from ..casync.ir import ReadyRef, SizeExpr, SyncPlan
from ..casync.passes import PassContext
from ..models import ModelSpec
from .base import Strategy

__all__ = ["BytePS", "partition_sizes"]


def partition_sizes(nbytes: int, part_bytes: float) -> List[float]:
    """Slice an ``nbytes`` gradient into near-equal parts of <= part_bytes."""
    if not part_bytes >= 1:  # NaN fails too
        raise ValueError(f"part_bytes must be >= 1, got {part_bytes!r}")
    parts = max(1, -(-int(nbytes) // int(part_bytes)))
    base = nbytes / parts
    return [base] * parts


class BytePS(Strategy):
    """Partitioned push/pull PS with co-located CPU servers."""

    name = "byteps"
    compression = False

    def __init__(self, part_bytes: float = 4 * 1024 * 1024):
        self.part_bytes = float(part_bytes)

    def expand(self, plan: SyncPlan, pctx: PassContext,
               model: ModelSpec) -> None:
        n = plan.num_nodes
        server_rr = 0
        for grad in model.gradients:
            parts = partition_sizes(grad.nbytes, self.part_bytes)
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
                        agg = plan.add(
                            "cpu", server, f"agg:{label}@{w}", size,
                            deps=[ReadyRef(w, grad.name)], grad=grad.name)
                    else:
                        push = plan.add(
                            "send", w, f"push:{label}@{w}", size,
                            deps=[ReadyRef(w, grad.name)], dst=server,
                            grad=grad.name)
                        agg = plan.add(
                            "cpu", server, f"agg:{label}@{w}", size,
                            deps=[push], grad=grad.name)
                    aggregates.append(agg)
                # Pull: server returns the aggregate to every worker.
                for w in range(n):
                    if w == server:
                        plan.add("barrier", w, f"pulled:{label}@{w}",
                                 deps=aggregates, grad=grad.name)
                    else:
                        pull = plan.add(
                            "send", server, f"pull:{label}@{w}", size,
                            deps=aggregates, dst=w, grad=grad.name)
                        plan.add("barrier", w, f"pulled:{label}@{w}",
                                 deps=[pull], grad=grad.name)
