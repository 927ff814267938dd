"""PlanIndex: the verified structure of a SyncPlan.

In the CaSync design (§3.1) the whole synchronization task graph is
known before the iteration starts, so its structure is checked
statically, once.  A :class:`~repro.casync.ir.SyncPlan` already stores
its ops as columns and its dependencies as integer rows (resolved when
each op was added), so :meth:`PlanIndex.build` is a handful of array
checks over those columns: the structural findings PC101-PC110 (unique
uids, known kinds, nodes in range, no self-sends, finite non-negative
sizes, deps only on earlier ops, node-local ready events, every
cross-node dep backed by a send to that node, every send consumed on
its destination, bytes conserved along each send -> consumer flow).
It also freezes a copy of the dependency rows and lists the task rows
(every op but a barrier), which :func:`repro.casync.lower.lower_plan`
lowers, so a recipe agrees with its plan by construction.  Directives
are edited in place, so their check (PC100, partition counts) runs
whenever the index's findings are reported.

The plan owns its index: :func:`plan_index` builds it on first use,
and every mutation method of the plan drops it.  ``build_plan``'s
:class:`~repro.casync.passes.VerifyPass` builds it and rejects a plan
with findings; lowering and the analyzer reuse it.  ``lower_plan``
refuses an index with findings; ``check_plan`` reports them.  Beyond
those shape findings the index evaluates nothing: the analyzer reads
exactly the edges a buggy optimization pass left.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..analysis.diagnostics import Diagnostic, ERROR, render_text
from .ir import (BARRIER, COPY, CPU, DECODE, DECODE_MERGE, MERGE, OP_KINDS,
                 SEND, PlanVerificationError, SyncPlan)

__all__ = ["PlanIndex", "plan_file", "plan_index"]


#: One structural finding: (rule, message, location), where the
#: location is an op uid or a directive name.
_Finding = Tuple[str, str, Union[int, str]]


def sizes_match(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise: do byte counts ``a`` and ``b`` agree (relative
    tolerance 1e-6, absolute 1e-6 below one byte)?"""
    close: np.ndarray = np.abs(a - b) <= 1e-6 * np.maximum(
        np.maximum(np.abs(a), np.abs(b)), 1.0)
    return close


def plan_file(plan: SyncPlan, name: Optional[str] = None) -> str:
    """The ``file`` field plan diagnostics carry (spans index the dump)."""
    return name if name else f"<syncplan:{plan.strategy}>"


@dataclass
class PlanIndex:
    """The checked structure of one version of a SyncPlan.

    ``dep_ptr``/``dep_rows``/``ref_keys`` are a frozen copy of the
    plan's dependency rows (later edits of the plan never reach them);
    consumers must treat every field as read-only.
    """

    #: Number of op rows indexed.
    num_ops: int
    dep_ptr: array
    dep_rows: array
    ref_keys: List[Tuple[int, str]]
    #: Rows of the ops that lower to a task (every op but a barrier).
    task_rows: array
    #: PC101-PC110 findings: ops in row order, then lost sends.  Empty
    #: for a structurally valid op graph.
    findings: List[_Finding]
    #: The checked columns as arrays, by row: kind codes, nodes, sizes
    #: (as floats) and compression flags.
    kinds: np.ndarray
    nodes: np.ndarray
    nbytes: np.ndarray
    compressed: np.ndarray
    #: The row of each entry of ``dep_rows``.
    owner: np.ndarray

    @classmethod
    def build(cls, plan: SyncPlan) -> "PlanIndex":
        n = plan.num_nodes
        n_ops = len(plan)
        dep_ptr = array("i", plan.dep_ptr)
        dep_rows = array("i", plan.dep_rows)
        kinds, nodes, dsts, uids, nbytes, compressed = plan.arrays(
            "kinds", "nodes", "dsts", "uids", "nbytes", "compressed")
        ptr = np.frombuffer(dep_ptr, dtype=np.intc)
        rows = np.frombuffer(dep_rows, dtype=np.intc)
        owner = np.repeat(np.arange(n_ops, dtype=np.intc), np.diff(ptr))

        # (row, check, position, rule, message, location); sorted at the
        # end into ops in row order, then lost sends.
        found: List[Tuple[int, int, int, str, str, Union[int, str]]] = []

        def flag(row: int, check: int, rule: str, message: str,
                 at: int = 0) -> None:
            found.append((row, check, at, rule, message, int(uids[row])))

        def op(i: int) -> str:
            return repr(plan.op(i))

        ordered = np.sort(uids)
        for uid in sorted(set(
                ordered[1:][ordered[1:] == ordered[:-1]].tolist())):
            for i in np.flatnonzero(uids == uid)[1:].tolist():
                flag(i, 0, "PC101", f"duplicate op uid {uid}")
        for i in np.flatnonzero((kinds < 0) | (kinds >= len(OP_KINDS))
                                ).tolist():
            flag(i, 1, "PC102", f"unknown op kind code {kinds[i]}")
        node_ok = (nodes >= 0) & (nodes < n)
        for i in np.flatnonzero(~node_ok).tolist():
            flag(i, 2, "PC103", f"{op(i)}: node out of range")
        send = kinds == SEND
        dst_ok = (dsts >= 0) & (dsts < n)
        for i in np.flatnonzero(send & ~dst_ok).tolist():
            flag(i, 3, "PC103", f"{op(i)}: send destination out of range")
        for i in np.flatnonzero(send & dst_ok & (dsts == nodes)).tolist():
            flag(i, 3, "PC104", f"{op(i)}: self-send")
        sized_ok = (nbytes >= 0) & (nbytes < np.inf)  # False for NaN
        for i in np.flatnonzero(~sized_ok).tolist():
            flag(i, 4, "PC105", f"{op(i)}: negative or non-finite size "
                 f"{plan.nbytes[i]}")

        # Ready-ref edges: node-local, on a node in range.
        on_ref = np.flatnonzero(rows < 0)
        if len(on_ref):
            ref_nodes = np.array([key[0] for key in plan.ref_keys],
                                 dtype=np.intp)[-1 - rows[on_ref]]
            out = (ref_nodes < 0) | (ref_nodes >= n)
            for e in on_ref[out].tolist():
                flag(owner[e], 5, "PC103", f"{op(owner[e])}: ready ref "
                     "node out of range", e)
            remote = ~out & (ref_nodes != nodes[owner[on_ref]])
            for e, rnode in zip(on_ref[remote].tolist(),
                                ref_nodes[remote].tolist()):
                flag(owner[e], 5, "PC107", f"{op(owner[e])} depends on "
                     f"gradient readiness of remote node {rnode}; ready "
                     "events are node-local", e)

        # Op edges: only on earlier rows; a cross-node one only on a send
        # to the consumer's node, which must conserve the payload.
        on_op = np.flatnonzero(rows >= 0)
        later = rows[on_op] >= owner[on_op]
        for e in on_op[later].tolist():
            flag(owner[e], 5, "PC106", f"{op(owner[e])} depends on unknown "
                 f"or later op #{uids[rows[e]]} (cycle or dangling edge)",
                 e)
        for uid, dep in plan.dangling:
            i = plan.row_of(uid)
            flag(i, 5, "PC106", f"{op(i)} depends on unknown or later op "
                 f"#{dep} (cycle or dangling edge)", int(ptr[i + 1]))
        edges = on_op[~later]
        del on_op, later
        j, i = rows[edges], owner[edges]
        delivered = send[j] & (dsts[j] == nodes[i])
        cross = nodes[j] != nodes[i]
        for e in edges[~delivered & cross].tolist():
            c, p = owner[e], rows[e]
            flag(c, 5, "PC108", f"{op(c)} receives from node {nodes[p]} "
                 f"but dependency {op(p)} is not a send targeting node "
                 f"{nodes[c]}", e)
        consumed = np.zeros(n_ops, dtype=bool)
        consumed[j[delivered]] = True
        flow = delivered & cross
        if flow.any():
            edges, j, i = edges[flow], j[flow], i[flow]
            got = kinds[i]
            sent_compressed = compressed[j]
            decodes = ((got == DECODE) | (got == DECODE_MERGE)
                       ) & ~sent_compressed
            merges = (got == MERGE) & sent_compressed
            sized = np.isin(got, (DECODE, DECODE_MERGE, MERGE, COPY))
            # A cpu op is sized unless it has a fixed duration.
            for k in np.flatnonzero((got == CPU) & (nbytes[i] != 0)).tolist():
                attrs = plan.attrs[i[k]]
                sized[k] = not attrs or attrs.get("duration_s") is None
            a, b = nbytes[j], nbytes[i]
            # A non-finite size is PC105's finding, not a mismatch.
            mismatch = (sized & sized_ok[j] & sized_ok[i]
                        & ~sizes_match(a, b))
            for k in np.flatnonzero(decodes | merges | mismatch).tolist():
                c, p, e = int(i[k]), int(j[k]), int(edges[k])
                if decodes[k]:
                    flag(c, 5, "PC110", f"{op(c)} decodes {op(p)}, which "
                         "is not compressed", e)
                elif merges[k]:
                    flag(c, 5, "PC110", f"{op(c)} merges compressed "
                         f"payload from {op(p)} without a decode", e)
                if mismatch[k]:
                    flag(c, 5, "PC110", f"byte-count mismatch along "
                         f"{op(p)} -> {op(c)}: {plan.nbytes[p]} != "
                         f"{plan.nbytes[c]}", e)
        for s in np.flatnonzero(send & dst_ok & ~consumed).tolist():
            found.append((n_ops + s, 0, 0, "PC109",
                          f"{op(s)} is never consumed on destination "
                          f"node {dsts[s]}", int(uids[s])))
        found.sort(key=lambda f: f[:3])
        return cls(
            num_ops=n_ops, dep_ptr=dep_ptr, dep_rows=dep_rows,
            ref_keys=list(plan.ref_keys),
            task_rows=array("i", np.flatnonzero(kinds != BARRIER)
                            .astype(np.intc).tobytes()),
            findings=[(rule, message, where)
                      for _, _, _, rule, message, where in found],
            kinds=kinds, nodes=nodes, nbytes=nbytes, compressed=compressed,
            owner=owner)

    def diagnostics(self, plan: SyncPlan,
                    name: Optional[str] = None) -> List[Diagnostic]:
        """The findings as diagnostics of ``plan`` (the indexed plan),
        after PC100 over its directives as they are now (directives are
        edited in place, so the index holds no directive findings); their
        lines index :meth:`SyncPlan.format_text` (the
        ``--dump-sync-plan`` text), and ``name`` overrides the ``file``."""
        findings: List[_Finding] = [
            ("PC100", f"directive {dname}: partitions must be >= 1, got "
             f"{plan.directives[dname].partitions}", dname)
            for dname in plan.directives
            if plan.directives[dname].partitions < 1]
        findings += self.findings
        if not findings:
            return []
        file = plan_file(plan, name)
        op_lines = plan.op_lines()
        dir_lines = plan.directive_lines()
        return [Diagnostic(rule=rule, severity=ERROR, message=message,
                           file=file,
                           line=(op_lines.get(where, 0)
                                 if isinstance(where, int)
                                 else dir_lines.get(where, 0)))
                for rule, message, where in findings]

    def raise_if_invalid(self, plan: SyncPlan,
                         name: Optional[str] = None) -> None:
        """Raise :class:`~repro.casync.ir.PlanVerificationError` carrying
        the :meth:`diagnostics` (rendered as the message, and on
        ``.diagnostics``)."""
        diags = self.diagnostics(plan, name)
        if diags:
            raise PlanVerificationError(
                render_text(diags, summary=False), diagnostics=diags)


def plan_index(plan: SyncPlan) -> PlanIndex:
    """``plan``'s :class:`PlanIndex`: the one the plan holds, or, after
    the plan changed (every mutation method drops it), a new build."""
    idx: Optional[PlanIndex] = plan._index
    if idx is None:
        idx = plan._index = PlanIndex.build(plan)
    return idx
