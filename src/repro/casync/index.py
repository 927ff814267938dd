"""PlanIndex: the one structural walk of a SyncPlan.

In the CaSync design (§3.1) the whole synchronization task graph is
known before the iteration starts, so its structure is checked
statically, once.  :meth:`PlanIndex.build` is that single walk: one loop
over ``plan.ops`` derives the uid -> position map, the flat integer
dependency rows and task rows :func:`repro.casync.lower.lower_plan`
lowers, the predecessor
lists, ready seeds, gradient groups and buffer regions
:mod:`repro.analysis.plancheck` evaluates its rules over, and the
structural findings PC100-PC110 (unique uids, known kinds, nodes in
range, no self-sends, non-negative sizes, deps only on earlier ops,
node-local ready events, every cross-node dep backed by a send to that
node, every send consumed on its destination, bytes conserved along
each send -> consumer flow).

:func:`plan_index` caches the index per plan object; ``build_plan``'s
:class:`~repro.casync.passes.VerifyPass` builds it and rejects a plan
with findings, and lowering and the analyzer reuse it.  An index with
findings is partial (a dangling dep has no row), so ``lower_plan``
refuses it; ``check_plan`` reports it.  Lowering costs exactly the
index's ``task_rows`` and builds the recipe's successor CSR from the
index's own ``dep_ptr``/``dep_rows``/``ref_keys``, so a recipe agrees
with its plan by construction and nothing re-checks it.  Beyond
those shape findings the index evaluates nothing: an analyzer reading
``preds`` sees exactly the edges a buggy optimization pass left.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..analysis.diagnostics import Diagnostic, ERROR, render_text
from .ir import OP_KINDS, Op, PlanVerificationError, ReadyRef, SyncPlan

__all__ = ["PlanIndex", "invalidate", "plan_file", "plan_index",
           "region_pid"]


#: The region tag grammar: ``.p3`` / ``.c3`` name partition (or chunk)
#: regions of a gradient's buffer; anything else aliases whole-buffer.
REGION_PATTERN = r"\.[pc](\d+)(?![A-Za-z0-9_])"

_KINDS = frozenset(OP_KINDS)

#: One structural finding: (rule, message, location), where the
#: location is an op uid or a directive name.
_Finding = Tuple[str, str, Union[int, str]]


def region_pid(op: Op) -> Optional[int]:
    """The partition id an op touches, or None for whole-buffer aliasing.

    Hand-rolled right-to-left scan for the last :data:`REGION_PATTERN`
    match outside the gradient's own name: this runs once per
    encode/decode while indexing, where the regex engine's ~2x overhead
    is measurable.
    """
    label = op.label
    grad = op.grad
    lo = 0
    if grad:
        if label.startswith(grad):
            # Fast path: every frontend labels region ops
            # "<grad>.p3..."; bounding the scan below the prefix
            # avoids the string copy a replace() would allocate.
            lo = len(grad)
        else:
            label = label.replace(grad, "")
    end = len(label)
    while True:
        p = label.rfind(".p", lo, end)
        c = label.rfind(".c", lo, end)
        at = p if p > c else c
        if at < 0:
            return None
        digits = at + 2
        stop = digits
        size = len(label)
        while stop < size and label[stop].isdigit():
            stop += 1
        if stop > digits and (stop == size
                              or not (label[stop].isalnum()
                                      or label[stop] == "_")):
            return int(label[digits:stop])
        end = at + 1  # keep scanning left past the non-match


def _sizes_match(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-6 * max(abs(a), abs(b), 1.0)


def _flow_findings(send: Op, consumer: Op) -> List[str]:
    """Byte-conservation violations along one cross-node edge (PC110)."""
    out: List[str] = []
    kind = consumer.kind
    sent = send.size
    got = consumer.size
    if kind in ("decode", "decode_merge") and not sent.compressed:
        out.append(f"{consumer!r} decodes {send!r}, which is not compressed")
    elif kind == "merge" and sent.compressed:
        out.append(f"{consumer!r} merges compressed payload from {send!r} "
                   "without a decode")
    # send->send forwarding and barriers carry no payload contract.
    sized = (kind in ("decode", "decode_merge", "merge", "copy")
             or (kind == "cpu" and consumer.attrs.get("duration_s") is None
                 and bool(got.nbytes)))
    if sized and not _sizes_match(sent.nbytes, got.nbytes):
        out.append(f"byte-count mismatch along {send!r} -> {consumer!r}: "
                   f"{sent.nbytes} != {got.nbytes}")
    return out


def plan_file(plan: SyncPlan, name: Optional[str] = None) -> str:
    """The ``file`` field plan diagnostics carry (spans index the dump)."""
    return name if name else f"<syncplan:{plan.strategy}>"


@dataclass
class PlanIndex:
    """One-pass structural index of a SyncPlan.

    All fields are positional (op-list indexes), not uid-keyed, except
    ``index_of`` which is the uid -> position map itself.  Consumers
    must treat every field as read-only; lists are shared, not copied.
    """

    #: Number of ops indexed (staleness guard for :func:`plan_index`).
    num_ops: int
    #: op uid -> position in ``plan.ops``.
    index_of: Dict[int, int]
    #: Position-indexed predecessor lists (ReadyRefs excluded).
    preds: List[List[int]]
    #: Every op's dependencies as flat ints, in dep order: op ``i``'s are
    #: ``dep_rows[dep_ptr[i]:dep_ptr[i + 1]]``, each an earlier position
    #: ``j >= 0`` or ``-1 - r`` for ready ref ``ref_keys[r]``.
    dep_ptr: array
    dep_rows: array
    #: The ``(node, gradient)`` keys of the ReadyRefs, in first-use order.
    ref_keys: List[Tuple[int, str]]
    #: Positions of the ops that lower to a task (every op but a barrier).
    task_rows: array
    #: Positions of the in-range sends.
    sends: array
    #: consumed[i] == 1 when some later op depends on op i (non-sink).
    consumed: bytearray
    #: gradient -> [(op position, ready node), ...] per ReadyRef use.
    ready_seeds: Dict[str, List[Tuple[int, int]]]
    #: gradient -> ops referencing it, in plan order.
    by_grad: Dict[str, List[Op]]
    #: (gradient, region pid) -> encode op positions, in plan order.
    encodes: Dict[Tuple[str, Optional[int]], List[int]]
    #: encode/plain-decode position -> its :func:`region_pid`.
    region_pids: Dict[int, Optional[int]]
    #: Plain gradient-buffer decodes (not fused, not allocating).
    plain_decodes: List[int]
    #: Positions of bulk-flagged sends.
    bulk_sends: List[int]
    #: is_enc[i] == 1 when op i is an encode.
    is_enc: bytearray
    #: PC100-PC110 findings: directives, then ops in plan order, then
    #: lost sends.  Empty for a structurally valid plan.
    findings: List[_Finding]
    #: (producer, consumer) position pairs whose producer is an encode.
    encode_out_edges: List[Tuple[int, int]] = field(default_factory=list)

    @classmethod
    def build(cls, plan: SyncPlan) -> "PlanIndex":
        ops = plan.ops
        n_ops = len(ops)
        n = plan.num_nodes
        findings: List[_Finding] = []
        for dname in plan.directives:
            partitions = plan.directives[dname].partitions
            if partitions < 1:
                findings.append((
                    "PC100", f"directive {dname}: partitions must be >= 1, "
                    f"got {partitions}", dname))
        index_of: Dict[int, int] = {}
        preds: List[List[int]] = []
        # Lists while walking (appends are cheaper), C-int arrays after.
        dep_ptr = [0]
        dep_rows: List[int] = []
        ref_ids: Dict[Tuple[int, str], int] = {}
        task_rows: List[int] = []
        consumed = bytearray(n_ops)
        ready_seeds: Dict[str, List[Tuple[int, int]]] = {}
        by_grad: Dict[str, List[Op]] = {}
        encodes: Dict[Tuple[str, Optional[int]], List[int]] = {}
        region_pids: Dict[int, Optional[int]] = {}
        plain_decodes: List[int] = []
        bulk_sends: List[int] = []
        is_enc = bytearray(n_ops)
        encode_out_edges: List[Tuple[int, int]] = []
        #: In-range sends, and whether an op on their destination consumes
        #: them (PC109).
        sends: List[int] = []
        delivered = bytearray(n_ops)
        preds_append = preds.append
        ptr_append = dep_ptr.append
        rows_append = dep_rows.append
        tasks_append = task_rows.append
        edges_append = encode_out_edges.append
        ready_get = ready_seeds.get
        by_grad_get = by_grad.get
        encodes_get = encodes.get
        index_get = index_of.get
        for i, op in enumerate(ops):
            uid = op.uid
            kind = op.kind
            node = op.node
            grad = op.grad
            if uid in index_of:
                findings.append(("PC101", f"duplicate op uid {uid}", uid))
            if kind not in _KINDS:
                findings.append(("PC102", f"unknown op kind {kind!r}", uid))
            node_ok = 0 <= node < n
            if not node_ok:
                findings.append(("PC103", f"{op!r}: node out of range", uid))
            if kind != "barrier":
                tasks_append(i)
            if kind == "send":
                dst = op.dst
                if dst is None or not 0 <= dst < n:
                    findings.append(("PC103", f"{op!r}: send destination "
                                     "out of range", uid))
                else:
                    if dst == node:
                        findings.append(("PC104", f"{op!r}: self-send", uid))
                    sends.append(i)
                if op.attrs.get("bulk"):
                    bulk_sends.append(i)
            if op.size.nbytes < 0:
                findings.append(("PC105", f"{op!r}: negative size", uid))
            if grad is not None:
                glist = by_grad_get(grad)
                if glist is None:
                    by_grad[grad] = [op]
                else:
                    glist.append(op)
            if kind == "encode":
                is_enc[i] = 1
                if grad is not None:
                    pid = region_pids[i] = region_pid(op)
                    ekey = (grad, pid)
                    elist = encodes_get(ekey)
                    if elist is None:
                        encodes[ekey] = [i]
                    else:
                        elist.append(i)
            elif kind == "decode":
                if (grad is not None and not op.attrs.get("fused")
                        and not op.attrs.get("allocates_output")):
                    plain_decodes.append(i)
                    region_pids[i] = region_pid(op)
            uid_deps: List[int] = []
            for dep in op.deps:
                if type(dep) is ReadyRef:
                    rnode = dep.node
                    if rnode != node or not node_ok:
                        if not 0 <= rnode < n:
                            findings.append(("PC103", f"{op!r}: ready ref "
                                             "node out of range", uid))
                        else:
                            findings.append((
                                "PC107", f"{op!r} depends on gradient "
                                f"readiness of remote node {rnode}; ready "
                                "events are node-local", uid))
                    g = dep.gradient
                    seeds = ready_get(g)
                    if seeds is None:
                        ready_seeds[g] = [(i, rnode)]
                    else:
                        seeds.append((i, rnode))
                    rkey = (rnode, g)
                    r = ref_ids.get(rkey)
                    if r is None:
                        r = ref_ids[rkey] = len(ref_ids)
                    rows_append(-1 - r)
                    continue
                # index_of only holds earlier ops (this op's own uid is
                # recorded after its deps), so a self-, forward or
                # dangling dependency is unresolved here.
                j = index_get(dep)
                if j is None:
                    findings.append((
                        "PC106", f"{op!r} depends on unknown or later op "
                        f"#{dep} (cycle or dangling edge)", uid))
                    continue
                uid_deps.append(j)
                consumed[j] = 1
                if is_enc[j]:
                    edges_append((j, i))
                rows_append(j)
                dop = ops[j]
                if dop.dst == node and dop.kind == "send":  # delivered here
                    delivered[j] = 1
                    if dop.node != node:
                        for message in _flow_findings(dop, op):
                            findings.append(("PC110", message, uid))
                elif dop.node != node:
                    findings.append((
                        "PC108", f"{op!r} receives from node {dop.node} "
                        f"but dependency {dop!r} is not a send targeting "
                        f"node {node}", uid))
            preds_append(uid_deps)
            ptr_append(len(dep_rows))
            index_of[uid] = i
        for j in sends:
            if not delivered[j]:
                op = ops[j]
                findings.append(("PC109", f"{op!r} is never consumed on "
                                 f"destination node {op.dst}", op.uid))
        return cls(
            num_ops=n_ops, index_of=index_of, preds=preds,
            dep_ptr=array("i", dep_ptr), dep_rows=array("i", dep_rows),
            ref_keys=list(ref_ids), task_rows=array("i", task_rows),
            sends=array("i", sends), consumed=consumed,
            ready_seeds=ready_seeds, by_grad=by_grad, encodes=encodes,
            region_pids=region_pids, plain_decodes=plain_decodes,
            bulk_sends=bulk_sends, is_enc=is_enc, findings=findings,
            encode_out_edges=encode_out_edges)

    def diagnostics(self, plan: SyncPlan,
                    name: Optional[str] = None) -> List[Diagnostic]:
        """The findings as diagnostics of ``plan`` (the indexed plan),
        their lines indexing :meth:`SyncPlan.format_text` (the
        ``--dump-sync-plan`` text); ``name`` overrides the ``file``."""
        if not self.findings:
            return []
        file = plan_file(plan, name)
        op_lines = plan.op_lines()
        dir_lines = plan.directive_lines()
        return [Diagnostic(rule=rule, severity=ERROR, message=message,
                           file=file,
                           line=(op_lines.get(where, 0)
                                 if isinstance(where, int)
                                 else dir_lines.get(where, 0)))
                for rule, message, where in self.findings]

    def raise_if_invalid(self, plan: SyncPlan,
                         name: Optional[str] = None) -> None:
        """Raise :class:`~repro.casync.ir.PlanVerificationError` carrying
        the findings (rendered as the message, and on ``.diagnostics``)."""
        if self.findings:
            diags = self.diagnostics(plan, name)
            raise PlanVerificationError(
                render_text(diags, summary=False), diagnostics=diags)


#: Per-plan-object cache; entries die with their plan.
_INDEX_CACHE: "weakref.WeakKeyDictionary[SyncPlan, PlanIndex]" = (
    weakref.WeakKeyDictionary())


def plan_index(plan: SyncPlan) -> PlanIndex:
    """The cached :class:`PlanIndex` of ``plan`` (built on first use).

    The cache is keyed by object identity and guarded by op count, so a
    plan mutated *in place* after indexing should be re-indexed by the
    caller (:func:`invalidate`) if the op count happens to match;
    ``build_plan`` output is final and always safe.
    """
    idx = _INDEX_CACHE.get(plan)
    if idx is None or idx.num_ops != len(plan.ops):
        idx = PlanIndex.build(plan)
        _INDEX_CACHE[plan] = idx
    return idx


def invalidate(plan: SyncPlan) -> None:
    """Drop ``plan``'s cached index.

    Required after mutating an already-indexed plan in place (ops,
    deps, or attrs) whenever the op count happens to stay the same --
    the cheap staleness guard above cannot see such edits, and a stale
    index would make every index consumer (lowering, the whole-plan
    analyzer) silently analyze the pre-mutation structure.
    """
    _INDEX_CACHE.pop(plan, None)
