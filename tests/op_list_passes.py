"""The op passes as they were written over a list of ``Op`` objects.

A test-only oracle for the column rewrites in ``repro.casync.passes``:
:func:`oracle_plan_json` expands a strategy into a plan, copies its
rows into mutable records, runs the list-of-ops versions of
decode+merge fusion, bulk routing and fan-in collapsing over them, and
returns the ``SyncPlan.to_json_obj()`` the column pipeline must
reproduce exactly.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.casync.ir import Directive, Op, ReadyRef, SizeExpr, SyncPlan
from repro.casync.passes import (BULK_ELIGIBLE_BYTES, BulkRoutePass,
                                 CollapseFanInPass, FuseDecodeMergePass,
                                 VerifyPass)


@dataclass
class ListOp:
    """A mutable op record: what an op was before the column store."""

    uid: int
    kind: str
    node: int
    label: str
    size: SizeExpr
    deps: Tuple
    dst: Optional[int]
    grad: Optional[str]
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_json_obj(self):
        return Op(**vars(self)).to_json_obj()


def fuse_decode_merge(ops: List[ListOp], meta) -> List[ListOp]:
    consumer_count: Dict[int, int] = {}
    for op in ops:
        for dep in op.deps:
            if not isinstance(dep, ReadyRef):
                consumer_count[dep] = consumer_count.get(dep, 0) + 1
    by_uid = {op.uid: op for op in ops}
    fused: Dict[int, int] = {}  # dropped merge uid -> fused op uid
    for op in ops:
        if not (op.kind == "merge" and op.attrs.get("fusable")
                and len(op.deps) == 1
                and not isinstance(op.deps[0], ReadyRef)):
            continue
        dec = by_uid.get(op.deps[0])
        if (dec is None or dec.kind != "decode"
                or not dec.attrs.get("fusable")
                or dec.node != op.node
                or consumer_count.get(dec.uid, 0) != 1):
            continue
        dec.kind = "decode_merge"
        dec.label = op.label
        dec.attrs.pop("fusable", None)
        dec.attrs["fused"] = True
        fused[op.uid] = dec.uid
    if not fused:
        return ops
    ops = [op for op in ops if op.uid not in fused]
    for op in ops:
        op.deps = tuple(
            fused.get(d, d) if not isinstance(d, ReadyRef) else d
            for d in op.deps)
    meta["fused_decode_merge"] = len(fused)
    return ops


def bulk_route(ops: List[ListOp], meta, pctx) -> List[ListOp]:
    marked = 0
    for op in ops:
        if op.kind != "send" or not op.attrs.get("bulk_eligible"):
            continue
        if pctx.wire_op(op) < BULK_ELIGIBLE_BYTES:
            op.attrs["bulk"] = True
            marked += 1
    meta["batch_compression"] = True
    meta["bulk_sends"] = marked
    return ops


def collapse_fan_in(ops: List[ListOp], meta, next_uid: List[int],
                    threshold: int) -> List[ListOp]:
    new_ops: List[ListOp] = []
    barriers: Dict[tuple, int] = {}
    collapsed = 0
    for op in ops:
        uid_deps = tuple(d for d in op.deps if not isinstance(d, ReadyRef))
        if len(uid_deps) > threshold:
            key = (op.node, uid_deps)
            buid = barriers.get(key)
            if buid is None:
                buid = next_uid[0]
                next_uid[0] += 1
                new_ops.append(ListOp(
                    uid=buid, kind="barrier", node=op.node,
                    label=f"fanin{len(uid_deps)}@n{op.node}",
                    size=SizeExpr(0.0), deps=uid_deps, dst=None,
                    grad=None))
                barriers[key] = buid
            ready = tuple(d for d in op.deps if isinstance(d, ReadyRef))
            op.deps = (buid,) + ready
            collapsed += 1
        new_ops.append(op)
    if collapsed:
        meta["fanin_collapsed"] = collapsed
        meta["fanin_barriers"] = len(barriers)
    return new_ops


def list_passes(plan, pctx, passes):
    """The op rows and meta of ``plan`` after the list-of-ops versions
    of ``passes`` (fuse, bulk-route and collapse instances), applied to
    a copy: ``(ops as JSON objects, meta)``.  The plan's uids must be
    ``range(len(plan))`` (no op dropped yet)."""
    ops = [ListOp(**{**vars(op), "attrs": dict(op.attrs)})
           for op in plan.ops]
    meta = dict(plan.meta)
    next_uid = [len(ops)]
    for p in passes:
        if isinstance(p, FuseDecodeMergePass):
            ops = fuse_decode_merge(ops, meta)
        elif isinstance(p, BulkRoutePass):
            ops = bulk_route(ops, meta, pctx)
        elif isinstance(p, CollapseFanInPass):
            ops = collapse_fan_in(ops, meta, next_uid, p.threshold)
        else:
            raise AssertionError(f"no list-of-ops oracle for {p!r}")
    return [op.to_json_obj() for op in ops], meta


def oracle_plan_json(strategy, pctx, model, threshold=None):
    """``build_plan(strategy, pctx, model).to_json_obj()`` computed with
    the list-of-ops passes; given a ``threshold``, the ops then collapse
    once more, as ``CollapseFanInPass(threshold).run`` does."""
    algo_name = None
    if pctx.algorithm is not None:
        algo_name = getattr(pctx.algorithm, "name",
                            type(pctx.algorithm).__name__)
    plan = SyncPlan(strategy.name, pctx.num_nodes, algorithm=algo_name)
    for grad in model.gradients:
        plan.directives[grad.name] = Directive(
            gradient=grad.name, nbytes=grad.nbytes,
            compress=strategy.compression)
    pipeline = [p for p in strategy.passes() if not isinstance(p, VerifyPass)]
    applied = []
    for p in pipeline:
        if p.phase == "directive":
            p.run(plan, pctx)
            applied.append(p.name)
    strategy.expand(plan, pctx, model)
    applied.append("expand")
    op_passes = [p for p in pipeline if p.phase == "op"]
    applied += [p.name for p in op_passes] + ["verify"]
    op_passes.append(CollapseFanInPass())
    if threshold is not None:
        op_passes.append(CollapseFanInPass(threshold))
    ops, meta = list_passes(plan, pctx, op_passes)
    meta["verified"] = True
    meta["passes"] = applied
    obj = plan.to_json_obj()
    obj["meta"] = {k: meta[k] for k in sorted(meta)}
    obj["ops"] = ops
    return obj
