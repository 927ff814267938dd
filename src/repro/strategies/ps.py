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

from typing import Callable, List

from ..casync.ir import SyncPlan
from ..casync.passes import PassContext
from ..models import ModelSpec
from .base import Strategy
from .blocks import Blocks, Template

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
        place_slices(plan, model, self.part_bytes,
                     lambda server: _partition(n, server))


def place_slices(plan: SyncPlan, model: ModelSpec, part_bytes: float,
                 template: Callable[[int], Template]) -> None:
    """Lay out every gradient's :func:`partition_sizes` slices, each one
    instance of ``template(server)``, the servers taken round-robin."""
    n = plan.num_nodes
    blocks = Blocks(plan, template)
    server_rr = 0
    for grad in model.gradients:
        sizes = partition_sizes(grad.nbytes, part_bytes)
        parts = range(len(sizes))
        blocks.place(grad.name, sizes[0],
                     [(server_rr + p) % n for p in parts],
                     [f"{grad.name}.p{p}" for p in parts], parts)
        server_rr += len(parts)
    blocks.extend()


def _partition(n: int, server: int) -> Template:
    """One BytePS slice: every worker pushes it to ``server``, which sums
    on the host CPU and returns the result to every worker."""
    t = Template()
    aggregates = []
    for w in range(n):
        src = -1 - w  # worker w's ready ref
        if w != server:
            src = t.row("send", w, "push:", f"@{w}", [src], dst=server)
        # The local slice still crosses PCIe into host memory.
        aggregates.append(t.row("cpu", server, "agg:", f"@{w}", [src]))
    # Pull: the server returns the aggregate to every worker.
    for w in range(n):
        done = aggregates
        if w != server:
            done = [t.row("send", server, "pull:", f"@{w}", aggregates,
                          dst=w)]
        t.row("barrier", w, "pulled:", f"@{w}", done, sized=False)
    return t
