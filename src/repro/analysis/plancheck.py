"""PlanCheck: a whole-plan concurrency analyzer for the SyncPlan IR.

The pass pipeline (:mod:`repro.casync.passes`) earns its speedups by
reordering, fusing, and bulk-routing communication -- exactly the
transformations that can silently introduce deadlocks, lost sends, buffer
races, or byte-flow leaks.  The structural rules each edge must obey
on its own (PC1xx) are array checks over the plan's columns,
:meth:`repro.casync.index.PlanIndex.build`, which the pipeline's
:class:`VerifyPass` runs and enforces.  PlanCheck reads those findings
from the plan's index and adds the *global* proofs: given a post-passes
:class:`~repro.casync.ir.SyncPlan` (and optionally its
environment-free :class:`~repro.casync.lower.LoweredRecipe`), it builds
an explicit happens-before relation from op dependencies, ``ReadyRef``
events, send/recv pairing, and fan-in barriers, then proves four
properties, reporting violations as
:class:`~repro.analysis.diagnostics.Diagnostic` records whose line spans
index the plan dump (:meth:`~repro.casync.ir.SyncPlan.format_text`):

1. **Deadlock-freedom** (PC10x) -- the dependency relation is acyclic,
   every cross-node receive is backed by a matching reachable ``send``,
   and no send is lost (the index's structural findings).
2. **Buffer safety** (PC2xx) -- no unordered read/write or write/write
   pair touches the same gradient-buffer region, where a region is
   ``(node, gradient, partition)`` and an op with no partition token
   aliases the whole buffer.  This is the static counterpart of the
   dynamic :func:`repro.casync.memory.buffer_lifetimes` analysis.
3. **Byte-flow conservation** (PC3xx) -- a whole-graph symbolic proof
   over :class:`~repro.casync.ir.SizeExpr`: every node's final value
   observes every declared contribution of every gradient (the
   allreduce completeness invariant), same-node producer edges conserve
   bytes (generalizing the verifier's cross-node-only ``_check_flow``),
   and every directive is realized by structure.
4. **Decision coverage** (PC4xx) -- under an adaptive
   :class:`~repro.casync.decisions.DecisionMap`, every decision targets a
   plan gradient and every directive agrees with its decision; directive
   intent (compress / partitions) always matches emitted structure.

PC5xx checks pass policy (bulk routing eligibility and thresholds);
PC605/PC606 check a lowered recipe's costs (every duration and size
finite and not negative, send wire sizes through the shared size model).

Entry points:

* :func:`check_plan` -- analyze one plan (plus optional recipe), return a
  :class:`PlanReport`.
* ``GraphCache(admission="strict")`` / ``REPRO_PLANCHECK=1`` -- strict
  admission: plans are only lowered and cached if they check clean
  (:class:`PlanCheckError` otherwise).
* ``python -m repro.analysis.plancheck`` -- run the analyzer over all
  golden SYSTEMS configurations (the 22-case equivalence matrix) plus
  the adaptive policies; ``--mutants`` runs the pass-mutant corpus
  (:mod:`repro.analysis.planmutants`).

See ``docs/ANALYSIS.md`` for the property definitions, the full
error-code table, and CLI examples.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple, cast)

import numpy as np

from ..casync.index import plan_file, plan_index, region_pids, sizes_match
from ..casync.ir import (ALLOCATES_OUTPUT, BULK, BULK_ELIGIBLE, DECODE,
                         DECODE_MERGE, ENCODE, COPY, FUSED, MERGE, OP_KINDS,
                         SEND, PlanVerificationError, Rows, SyncPlan,
                         gather_rows)
from ..casync.passes import BULK_ELIGIBLE_BYTES, PassContext
from ..sim import gc_paused
from .diagnostics import (Diagnostic, ERROR, count_by_severity, exit_code,
                          has_errors, render_text, sort_diagnostics)

__all__ = [
    "GoldenCase",
    "PLANCHECK_RULES",
    "PlanCheckError",
    "PlanReport",
    "check_plan",
    "golden_cases",
    "golden_model",
    "iter_cases",
    "main",
]

#: Every rule PlanCheck (or the plan's structural index) can emit.
PLANCHECK_RULES: Dict[str, str] = {
    # structural / deadlock-freedom (repro.casync.index.PlanIndex.build)
    "PC100": "directive partition count out of range",
    "PC101": "duplicate op uid",
    "PC102": "unknown op kind",
    "PC103": "node, send destination, or ready-ref out of range",
    "PC104": "self-send",
    "PC105": "negative or non-finite payload size",
    "PC106": "dependency on an unknown or later op (cycle or dangling edge)",
    "PC107": "ready-event dependency on a remote node",
    "PC108": "cross-node dependency not backed by a matching send",
    "PC109": "send never consumed on its destination (lost send)",
    "PC110": "byte-flow violation along a cross-node send edge",
    # buffer safety
    "PC201": "unordered write/write pair on one gradient-buffer region",
    "PC202": "unordered read/write pair on one gradient-buffer region",
    # byte-flow conservation / aggregation completeness
    "PC301": "incomplete aggregation: a node never observes a contribution",
    "PC302": "byte-count mismatch along a same-node producer edge",
    "PC303": "directive never realized by any op",
    # decision coverage
    "PC401": "decision coverage gap between the DecisionMap and the plan",
    "PC402": "directive contradicts its adaptive decision",
    "PC403": "compression structure emitted under a raw directive",
    "PC404": "compress directive with no realizing encode",
    "PC405": "directive plans more partitions than the ops realize",
    # pass policy
    "PC501": "bulk-routed send violates the bulk-eligibility policy",
    # lowered-recipe costs
    "PC605": "lowered task has a negative or non-finite duration or size",
    "PC606": "lowered send wire size disagrees with the plan's size model",
}


class PlanCheckError(PlanVerificationError):
    """Strict-mode rejection: the whole-plan analyzer found violations.

    Subclasses :class:`~repro.casync.ir.PlanVerificationError` so callers
    that already guard plan building keep working; ``diagnostics``
    carries the structured findings.
    """


@dataclass
class PlanReport:
    """The outcome of analyzing one plan (and optionally its recipe)."""

    name: str
    strategy: str
    num_nodes: int
    num_ops: int
    diagnostics: Tuple[Diagnostic, ...]

    def ok(self, strict: bool = False) -> bool:
        """True when nothing failing was found (strict: warnings fail)."""
        return not has_errors(self.diagnostics, strict=strict)

    def counts(self) -> Dict[str, int]:
        return count_by_severity(self.diagnostics)

    def render_text(self) -> str:
        if not self.diagnostics:
            return (f"ok {self.name}: {self.num_ops} ops, "
                    f"{self.num_nodes} nodes, 0 findings")
        return render_text(sort_diagnostics(self.diagnostics))

    def to_json_obj(self) -> Dict[str, Any]:
        from dataclasses import asdict
        ordered = sort_diagnostics(self.diagnostics)
        return {
            "name": self.name,
            "strategy": self.strategy,
            "num_nodes": self.num_nodes,
            "num_ops": self.num_ops,
            "counts": count_by_severity(ordered),
            "diagnostics": [asdict(d) for d in ordered],
        }

    def raise_if_failed(self, strict: bool = False) -> None:
        """Raise :class:`PlanCheckError` when the report is not clean."""
        if not self.ok(strict=strict):
            raise PlanCheckError(
                f"PlanCheck rejected plan {self.name}:\n"
                + render_text(self.diagnostics),
                diagnostics=self.diagnostics)


def _kind_table(*codes: int) -> np.ndarray:
    """A lookup table over kind codes: True at each of ``codes``."""
    table = np.zeros(len(OP_KINDS), dtype=bool)
    table[list(codes)] = True
    return table


#: Op kinds that carry a payload contract along a same-node producer edge
#: (barriers and cpu ops are duration- or fan-in-shaped, not byte-shaped).
_PAYLOAD_CONSUMERS = _kind_table(SEND, DECODE, DECODE_MERGE, COPY, MERGE)

#: Op kinds that only a compressed gradient has (PC403).
_CODEC_KINDS = _kind_table(ENCODE, DECODE, DECODE_MERGE)


class _PlanAnalyzer:
    """One-shot deep analysis of a structurally-valid plan.

    The analyzer derives its own groupings from the plan's columns --
    gradient membership, ready seeds, encode regions, plain decodes,
    encode out-edges -- with array operations where it can, and walks
    the frozen dependency rows of the plan's
    :class:`~repro.casync.index.PlanIndex` (built by ``build_plan``'s
    verify stage and reused by lowering) restricted to op edges.
    :func:`check_plan` builds it only for a plan whose index has no
    structural findings.
    """

    def __init__(self, plan: SyncPlan, pctx: Optional[PassContext],
                 file: str) -> None:
        self.plan = plan
        self.pctx = pctx
        self.file = file
        self.n = plan.num_nodes
        self.ops = plan.ops
        self._op_lines: Optional[Dict[int, int]] = None
        self._dir_lines: Optional[Dict[str, int]] = None
        self._send_wires: Optional[np.ndarray] = None
        self.findings: List[Diagnostic] = []
        idx = self.index = plan_index(plan)
        ptr = np.frombuffer(idx.dep_ptr, dtype=np.intc)
        rows = np.frombuffer(idx.dep_rows, dtype=np.intc)
        kinds = self.kinds = idx.kinds
        self.nodes = idx.nodes
        # The op edges (ready refs left out) by consumer: row i's
        # predecessors are preds[pred_ptr[i]:pred_ptr[i + 1]].
        on_op = rows >= 0
        cum = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(on_op, out=cum[1:])
        self.pred_ptr = cum[ptr]
        self.preds = rows[on_op].astype(np.intp)
        #: Number of op edges on each row (0 for a sink).
        self.consumers = np.bincount(self.preds, minlength=idx.num_ops)
        #: One ready seed per ready-ref use: its row and ref index.
        self.seed_rows = idx.owner[~on_op]
        self.seed_refs = (-1 - rows[~on_op]).astype(np.intp)
        grads = plan.grads
        #: (gradient, region pid) -> encode rows, in plan order.
        self.encodes: Dict[Tuple[str, Optional[int]], List[int]] = {}
        encodes = [i for i in np.flatnonzero(kinds == ENCODE).tolist()
                   if grads[i] is not None]
        encode_grads = cast(List[str], [grads[i] for i in encodes])
        for i, grad, pid in zip(encodes, encode_grads, region_pids(
                map(plan.labels.__getitem__, encodes), encode_grads)):
            self.encodes.setdefault((grad, pid), []).append(i)
        #: Plain gradient-buffer decodes (not fused, not allocating).
        flags = plan.arrays("flags")[0]
        self.plain_decodes: List[int] = [
            i for i in np.flatnonzero(
                (kinds == DECODE) & (flags & (FUSED | ALLOCATES_OUTPUT) == 0)
            ).tolist() if grads[i] is not None]
        #: The gradients some op belongs to.
        self.present = set(grads)
        self.send_rows = np.flatnonzero(kinds == SEND)
        self.sends: List[int] = self.send_rows.tolist()
        self._check_encode_edges()

    def _check_encode_edges(self) -> None:
        """PC302 over the encode -> payload-consumer edges.

        Same-node producer edges must conserve bytes.  The verifier
        only checks cross-node (send) edges; a fused decode_merge fed
        by a local encode is exactly the edge it never sees.  Only
        encode producers carry the contract.
        """
        kinds, nodes = self.kinds, self.nodes
        edges = np.flatnonzero(kinds[self.preds] == ENCODE)
        producers = self.preds[edges]
        consumers = np.searchsorted(self.pred_ptr, edges, side="right") - 1
        local = (_PAYLOAD_CONSUMERS[kinds[consumers]]
                 & (nodes[producers] == nodes[consumers]))
        producers, consumers = producers[local], consumers[local]
        pbytes = self.index.nbytes[producers]
        got = self.index.nbytes[consumers]
        bad = (got != 0) & (pbytes != 0) & ~sizes_match(pbytes, got)
        for j, i in zip(producers[bad].tolist(), consumers[bad].tolist()):
            producer, op = self.ops[j], self.ops[i]
            self.emit(
                "PC302",
                f"byte-count mismatch along same-node "
                f"edge {producer!r} -> {op!r}: "
                f"{producer.size.nbytes} != {op.size.nbytes}",
                uid=op.uid)

    def check_lowered_costs(self, recipe: Any) -> None:
        """PC605/PC606 over a lowered recipe's cost columns (entry ``k``
        lowered from op ``recipe.rows[k]``): every cost finite and not
        negative, and (given a pass context) every send's wire size
        agrees with the size model."""
        ops = self.ops
        out = recipe.out_nbytes
        costs = np.array([np.fromiter(column, float, len(column))
                          for column in (recipe.durations,
                                         recipe.launch_overheads,
                                         recipe.nbytes,
                                         [o or 0.0 for o in out])])
        bad = ~((costs >= 0) & (costs < math.inf)).all(axis=0)
        for k in np.flatnonzero(bad).tolist():
            op = ops[recipe.rows[k]]
            self.emit("PC605", f"lowered {op!r} has a negative or "
                      f"non-finite cost (duration={recipe.durations[k]}, "
                      f"launch overhead={recipe.launch_overheads[k]}, "
                      f"nbytes={recipe.nbytes[k]}, "
                      f"out_nbytes={out[k] or 0.0})", uid=op.uid)
        sends = self.sends
        if self.pctx is None or not sends:
            return
        want = self.send_wires()
        slot = np.frombuffer(recipe.csr.slot, dtype=np.intc)[self.send_rows]
        got = costs[2, slot]
        # Only an unequal pair can be a mismatch; sizes_match decides.
        for s in np.flatnonzero((got != want)
                                & ~sizes_match(got, want)).tolist():
            op = ops[sends[s]]
            self.emit("PC606", f"lowered {op!r} wire size "
                      f"{recipe.nbytes[slot[s]]} disagrees with the size "
                      f"model's {float(want[s])}", uid=op.uid)

    def send_wires(self) -> np.ndarray:
        """The size model's wire size of each of :attr:`sends`."""
        if self._send_wires is None:
            assert self.pctx is not None
            idx = self.index
            self._send_wires = self.pctx.wires(
                self.plan, self.sends, idx.nbytes[self.send_rows],
                idx.compressed[self.send_rows])
        return self._send_wires

    # -- reporting ----------------------------------------------------------

    def emit(self, rule: str, message: str, uid: Optional[int] = None,
             directive: Optional[str] = None, hint: str = "") -> None:
        line = 0
        if uid is not None:
            if self._op_lines is None:
                self._op_lines = self.plan.op_lines()
            line = self._op_lines.get(uid, 0)
        elif directive is not None:
            if self._dir_lines is None:
                self._dir_lines = self.plan.directive_lines()
            line = self._dir_lines.get(directive, 0)
        self.findings.append(Diagnostic(
            rule=rule, severity=ERROR, message=message, file=self.file,
            line=line, hint=hint))

    # -- happens-before oracle ----------------------------------------------

    def reaches(self, starts: Rows, lows: Rows, wants: Rows,
                tags: Optional[np.ndarray] = None) -> np.ndarray:
        """Answer a batch of backward reachability queries at once.

        Query ``k`` asks whether a dependency path runs back from row
        ``starts[k]`` (excluded) to a row ``r`` whose tag is
        ``wants[k]`` -- ``tags[r]``, or ``r`` itself without ``tags``
        -- through rows no lower than ``lows[k]``.  Rows are in
        topological order, so a path only ever descends, and every
        branch below the bound is pruned.  One breadth-first search
        serves all queries: each wave expands its rows' predecessors,
        drops answered queries and repeated ``(query, row)`` pairs, and
        the number of waves is the longest path searched.
        """
        preds, ptr = self.preds, self.pred_ptr
        lows = np.asarray(lows, dtype=np.intp)
        wants = np.asarray(wants, dtype=np.intp)
        found = np.zeros(len(lows), dtype=bool)
        query = np.arange(len(lows))
        row = np.asarray(starts, dtype=np.intp)
        span = len(ptr)
        while len(row):
            edges, lens = gather_rows(ptr, row)
            query = np.repeat(query, lens)
            row = preds[edges]
            live = row >= lows[query]
            query, row = query[live], row[live]
            hit = (row if tags is None else tags[row]) == wants[query]
            found[query[hit]] = True
            # Each open (query, row) pair once, in order.
            pairs = query * span + row
            pairs = np.sort(pairs[~found[query]])
            first = np.ones(len(pairs), dtype=bool)
            np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
            query, row = np.divmod(pairs[first], span)
        return found

    def ordered(self, a: Rows, b: Rows) -> np.ndarray:
        """For each pair of op rows ``(a[k], b[k])``: is there a
        dependency path between them, either way (a row is ordered with
        itself)?"""
        a = np.asarray(a, dtype=np.intp)
        b = np.asarray(b, dtype=np.intp)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        ordered: np.ndarray = (lo == hi) | self.reaches(hi, lo, lo)
        return ordered

    # -- property 3: byte-flow conservation ---------------------------------

    def check_byte_flow(self) -> None:
        """PC301/PC302/PC303: whole-graph conservation of contributions.

        Two families of flow keys feed the proof:

        * ``("r", gradient)`` -- backward-pass readiness, seeded by
          ``ReadyRef`` deps;
        * ``("e", gradient, partition)`` -- encoded contributions,
          seeded at every *initial* ``encode`` op (one with no earlier
          encode of the same key in its ancestry; re-encodes of an
          already-aggregated value, like ring dissemination or a PS
          server's enc-out, transform an existing flow rather than
          originate one).  Tracking these per partition is what catches
          a dropped edge on *one* partition's aggregation while the
          sibling partitions still flow.

        Every node's sinks must jointly observe every declared origin of
        every flow key -- dropping one dependency edge anywhere (e.g.
        from a collapsed fan-in barrier) breaks this even though each
        remaining edge still verifies locally.

        Observing an origin is pure reachability, so rather than
        forward-propagating per-op origin sets (whose width grows with
        the model and made the proof quadratic on large plans), one
        backward pass computes per op the ``n``-bit set of nodes owning
        a sink it can reach; node ``v`` observes origin ``(op i, node
        b)`` iff bit ``v`` is set at some op seeding that origin.
        """
        n = self.n
        plan = self.plan
        # Flow keys, and one (key, seeding op row, origin node) entry per
        # seed: the ready-ref uses, then the initial encodes.
        keys: Dict[Tuple[Any, ...], int] = {}
        ref_key = np.array([keys.setdefault(("r", grad), len(keys))
                            for _, grad in plan.ref_keys], dtype=np.intp)
        ref_node = np.array([node for node, _ in plan.ref_keys],
                            dtype=np.intp)
        seed_key = [ref_key[self.seed_refs]]
        seed_row = [self.seed_rows]
        seed_node = [ref_node[self.seed_refs]]

        # Initial-vs-re-encode.  An encode reachable from an earlier
        # encode of the same key transforms that flow instead of
        # originating one (it is downstream of an initial encode by
        # induction on topological order).  The searches stay short: a
        # re-encode sits a hop or two above the aggregation it
        # re-compresses, and an initial encode's ancestry is a ReadyRef
        # or a local copy of one.
        encodes, lows, wants = [], [], []
        for (grad, pid), idxs in self.encodes.items():
            k = keys.setdefault(("e", grad, pid), len(keys))
            encodes += idxs
            lows += [idxs[0]] * len(idxs)
            wants += [k] * len(idxs)
        encodes_at = np.array(encodes, dtype=np.intp)
        encode_key = np.full(len(self.kinds), -1, dtype=np.intp)
        encode_key[encodes_at] = wants
        initial = encodes_at[~self.reaches(encodes_at, lows, wants,
                                           tags=encode_key)]
        seed_key.append(encode_key[initial])
        seed_row.append(initial)
        seed_node.append(self.nodes[initial])

        # Group the seeds by (key, origin node): origin_cover is the OR
        # of their reach, and a key is covered when the AND over its
        # origins is every node.
        key_of, row_of, node_of = (np.concatenate(seed_key),
                                   np.concatenate(seed_row),
                                   np.concatenate(seed_node))
        if not len(key_of):
            covered: Set[int] = set(range(len(keys)))
        else:
            order = np.lexsort((node_of, key_of))
            key_of, row_of, node_of = (key_of[order], row_of[order],
                                       node_of[order])
            group = np.flatnonzero(np.r_[True, (key_of[1:] != key_of[:-1])
                                         | (node_of[1:] != node_of[:-1])])
            cover = np.bitwise_or.reduceat(self._sink_reach()[row_of],
                                           group)
            group_key = key_of[group]
            first = np.flatnonzero(np.r_[True,
                                         group_key[1:] != group_key[:-1]])
            joint = np.bitwise_and.reduceat(cover, first)
            covered = set(group_key[first][joint == (1 << n) - 1].tolist())
        for key in sorted((key for key in keys if keys[key] not in covered),
                          key=repr):
            at = np.flatnonzero(group_key == keys[key])
            #: origin node -> nodes observing it via any seeding op.
            origin_cover = dict(zip(node_of[group[at]].tolist(),
                                    map(int, cover[at])))
            grad = key[1]
            what = (f"gradient {grad!r}" if key[0] == "r" else
                    f"gradient {grad!r} (encoded partition {key[2]})")
            for node in range(n):
                missing = [b for b in sorted(origin_cover)
                           if not (origin_cover[b] >> node) & 1]
                if missing:
                    self.emit(
                        "PC301",
                        f"node {node} never observes contribution(s) "
                        f"from node(s) {missing} of {what} at any "
                        f"sink op",
                        directive=(grad if grad in self.plan.directives
                                   else None),
                        hint="a dependency edge feeding this node's "
                             "aggregation was dropped or rerouted")

        # PC303: a directive with no structural trace at all.
        if n > 1:
            realized: Set[Optional[str]] = {key[1] for key in keys}
            realized.update(self.present)
            for name in self.plan.directives:
                if name not in realized:
                    self.emit(
                        "PC303",
                        f"directive {name} is never realized: no op or "
                        f"ready event references the gradient",
                        directive=name)

    def _sink_reach(self) -> np.ndarray:
        """Per op row, the nodes owning a sink it reaches, as a bit set
        (bit ``v`` for node ``v``): uint64 words, or Python ints past 64
        nodes.

        A sink (no op depends on it) starts with its own node.  Rows are
        finished in waves, each row once every op depending on it is:
        the wave ORs its rows' sets into their predecessors, so the
        number of array passes is the plan's depth, not its size.
        """
        preds, ptr = self.preds, self.pred_ptr
        pending = self.consumers.copy()
        wave = np.flatnonzero(pending == 0)
        if self.n <= 64:
            reach = np.zeros(len(pending), dtype=np.uint64)
            reach[wave] = np.left_shift(np.uint64(1),
                                        self.nodes[wave].astype(np.uint64))
        else:
            reach = np.zeros(len(pending), dtype=object)
            reach[wave] = [1 << v for v in self.nodes[wave].tolist()]
        ready = np.zeros(len(pending), dtype=bool)
        while len(wave):
            at, lens = gather_rows(ptr, wave)
            if not len(at):
                break
            edges = preds[at]
            np.bitwise_or.at(reach, edges, reach[np.repeat(wave, lens)])
            np.subtract.at(pending, edges, 1)
            ready[edges[pending[edges] == 0]] = True
            wave = np.flatnonzero(ready)
            ready[wave] = False
        return reach

    # -- property 2: buffer safety ------------------------------------------

    def check_buffer_safety(self) -> None:
        """PC201/PC202: no unordered access pair on one buffer region.

        Access model (validated against every strategy frontend):
        ``encode`` *reads* its gradient's buffer region; a plain
        ``decode`` (not fused, not ``allocates_output``) *writes* it.
        Fused ``decode_merge`` / ``merge`` / ``cpu`` aggregation ops
        accumulate into separate aggregation state and are excluded --
        treating accumulation as a hazard would flag every valid
        PS-style plan (an aggregator's own encode is deliberately
        unordered with other workers' contributions).
        """
        writes = self.plain_decodes
        if not writes:
            return
        grads = self.plan.grads
        written = sorted({grad for grad in map(grads.__getitem__, writes)
                          if grad is not None})
        # Every access: the writes, then the reads of written gradients.
        rows = list(writes)
        pids = region_pids(map(self.plan.labels.__getitem__, writes),
                           map(grads.__getitem__, writes))
        for (grad, pid), idxs in self.encodes.items():
            if grad in written:
                rows += idxs
                pids += [pid] * len(idxs)
        row = np.array(rows, dtype=np.intp)
        write = np.arange(len(rows)) < len(writes)
        pid = np.array([-1 if p is None else p for p in pids], dtype=np.intp)
        # A region is (node, gradient); its partition classes are the
        # pids, and a whole-buffer access (pid -1) of a region that also
        # has partition accesses aliases, so joins, every class.
        gid: Dict[Optional[str], int] = {
            grad: k for k, grad in enumerate(written)}
        region = self.nodes[row] * len(gid) + np.array(
            [gid[grads[i]] for i in rows], dtype=np.intp)
        whole = pid < 0
        partitioned = np.zeros(self.n * len(gid), dtype=bool)
        partitioned[region[~whole]] = True
        mixed = partitioned[region] & whole
        if mixed.any():
            extra = [(k, p) for k in np.flatnonzero(mixed).tolist()
                     for p in sorted(set(pid[(region == region[k])
                                             & ~whole].tolist()))]
            take = np.array([k for k, _ in extra], dtype=np.intp)
            keep = ~mixed
            row = np.r_[row[keep], row[take]]
            write = np.r_[write[keep], write[take]]
            region = np.r_[region[keep], region[take]]
            pid = np.r_[pid[keep], np.array([p for _, p in extra],
                                            dtype=np.intp)]
        order = np.lexsort((row, pid, region))
        row, write, region, pid = (row[order], write[order], region[order],
                                   pid[order])
        # Each access's class, and the class's first and last position.
        start = np.r_[True, (region[1:] != region[:-1])
                      | (pid[1:] != pid[:-1])]
        cls = np.cumsum(start) - 1
        first = np.flatnonzero(start)
        last = np.r_[first[1:], len(row)] - 1

        # Every aliasing pair with a write must be ordered.  Proving
        # each pair directly is quadratic in the region's accesses;
        # instead each partition class is proven by transitivity --
        # the writes form an ordered chain and every read is ordered
        # against its neighbouring writes, which together order every
        # required pair.  Only a broken write chain falls back to the
        # exhaustive pair scan (to report the precise pairs).
        w = np.flatnonzero(write)
        link = cls[w[1:]] == cls[w[:-1]]
        chained = self.ordered(row[w[:-1]][link], row[w[1:]][link])
        broken = sorted(set(cls[w[1:]][link][~chained].tolist()))
        at = np.arange(len(row))
        before = np.maximum.accumulate(np.where(write, at, -1))
        after = np.minimum.accumulate(
            np.where(write, at, len(row))[::-1])[::-1]
        intact = np.ones(len(first), dtype=bool)
        intact[broken] = False
        reads = np.flatnonzero(~write & intact[cls])
        prev = reads[before[reads] >= first[cls[reads]]]
        succ = reads[after[reads] <= last[cls[reads]]]
        # Each read against its neighbouring writes, in access order,
        # then every aliasing pair of a class with a broken chain.
        at = np.r_[prev, succ]
        by_access = np.lexsort((np.arange(len(at)), at))
        at = at[by_access]
        a = np.r_[row[before[prev]], row[succ]][by_access]
        b = np.r_[row[prev], row[after[succ]]][by_access]
        rules = ["PC202"] * len(at)
        for c in broken:
            entries = [(None, "write" if write[k] else "read", int(row[k]))
                       for k in range(first[c], last[c] + 1)]
            scan = self._aliasing_pairs(entries)
            at = np.r_[at, np.full(len(scan), first[c])]
            a = np.r_[a, np.array([x for x, _, _ in scan], dtype=np.intp)]
            b = np.r_[b, np.array([y for _, y, _ in scan], dtype=np.intp)]
            rules += [rule for _, _, rule in scan]
        for k in np.flatnonzero(~self.ordered(a, b)).tolist():
            node, g = divmod(int(region[at[k]]), len(gid))
            self._emit_race(node, written[g], int(a[k]), int(b[k]), rules[k])

    @staticmethod
    def _aliasing_pairs(entries: List[Tuple[Optional[int], str, int]]
                        ) -> List[Tuple[int, int, str]]:
        """``(row a, row b, rule)`` of every aliasing pair with a write
        among one region's ``(pid, mode, row)`` accesses (the exhaustive
        scan a broken write chain falls back to, so findings name the
        exact unordered pairs)."""
        pairs = []
        for x in range(len(entries)):
            pid_a, mode_a, i_a = entries[x]
            for y in range(x + 1, len(entries)):
                pid_b, mode_b, i_b = entries[y]
                if mode_a == "read" and mode_b == "read":
                    continue
                if (pid_a is not None and pid_b is not None
                        and pid_a != pid_b):
                    continue  # disjoint partitions never alias
                pairs.append((i_a, i_b, "PC201" if mode_a == mode_b == "write"
                              else "PC202"))
        return pairs

    def _emit_race(self, node: int, grad: str, i_a: int, i_b: int,
                   rule: str) -> None:
        kind = "write/write" if rule == "PC201" else "read/write"
        self.emit(
            rule,
            f"unordered {kind} pair on buffer "
            f"(node {node}, gradient {grad!r}): "
            f"{self.ops[i_a]!r} || {self.ops[i_b]!r}",
            uid=self.ops[i_b].uid,
            hint="no happens-before path orders these two "
                 "accesses to the same buffer region")

    # -- property 4: decision coverage + directive consistency --------------

    def check_directives(self) -> None:
        """PC403/PC404/PC405: directive intent matches emitted structure."""
        if self.n == 1:
            return  # single-node plans synchronize nothing
        # Each gradient's encode regions, from the encode groups.
        encode_pids: Dict[str, Set[Optional[int]]] = {}
        for grad, pid in self.encodes:
            encode_pids.setdefault(grad, set()).add(pid)
        plan = self.plan
        present = self.present
        raw = {name for name in plan.directives
               if not plan.directives[name].compress and name in present}
        # Raw gradients' compression ops, in plan order (PC403).
        codec_ops: Dict[str, List[int]] = {}
        if raw:
            grads = plan.grads
            codec = _CODEC_KINDS[self.kinds] | self.index.compressed
            for i in [i for i in np.flatnonzero(codec).tolist()
                      if grads[i] in raw]:
                codec_ops.setdefault(grads[i], []).append(i)
        for name in sorted(plan.directives):
            directive = plan.directives[name]
            if directive.compress:
                if name not in present:
                    continue  # bucketed elsewhere; PC303 covers absence
                if name not in encode_pids:
                    self.emit(
                        "PC404",
                        f"directive marks {name} compressed but no "
                        f"encode op realizes it",
                        directive=name)
                    continue
                pids = encode_pids[name] - {None}
                if pids and directive.partitions > len(pids):
                    self.emit(
                        "PC405",
                        f"directive plans K={directive.partitions} "
                        f"partitions for {name} but ops realize only "
                        f"{len(pids)}",
                        directive=name,
                        hint="PartitionPass and the expansion disagree "
                             "on the partition count")
            else:
                bad = codec_ops.get(name)
                if bad:
                    first = self.ops[bad[0]]
                    self.emit(
                        "PC403",
                        f"directive marks {name} raw but "
                        f"{len(bad)} compression op(s) remain "
                        f"(e.g. {first!r})",
                        uid=first.uid)

    def check_decisions(self) -> None:
        """PC401/PC402: the DecisionMap and the plan agree exactly."""
        decisions = None if self.pctx is None else self.pctx.decisions
        if decisions is None:
            return
        for name in sorted(decisions.decisions):
            if name not in self.plan.directives:
                self.emit(
                    "PC401",
                    f"decision targets gradient {name!r}, which has no "
                    f"directive in the plan")
        partitioned = "partition" in (
            self.plan.meta.get("passes") or ())
        for name in sorted(self.plan.directives):
            directive = self.plan.directives[name]
            dec = decisions.get(name)
            if dec is None:
                self.emit(
                    "PC401",
                    f"gradient {name!r} has a directive but no adaptive "
                    f"decision",
                    directive=name)
                continue
            if directive.compress != dec.compress:
                self.emit(
                    "PC402",
                    f"directive {name}: compress={directive.compress} "
                    f"contradicts decision compress={dec.compress}",
                    directive=name)
            elif directive.algorithm != dec.algorithm:
                self.emit(
                    "PC402",
                    f"directive {name}: algorithm="
                    f"{directive.algorithm!r} contradicts decision "
                    f"algorithm={dec.algorithm!r}",
                    directive=name)
            elif (partitioned and dec.partitions is not None
                    and directive.partitions != max(1, dec.partitions)):
                self.emit(
                    "PC402",
                    f"directive {name}: K={directive.partitions} "
                    f"contradicts decision partitions={dec.partitions}",
                    directive=name)

    # -- pass policy ---------------------------------------------------------

    def check_bulk_policy(self) -> None:
        """PC501: every bulk-routed send was eligible and under threshold."""
        ops, sends = self.ops, self.sends
        # Per send: 0 not bulk-routed, 1 routed and eligible, 2 routed
        # but never marked eligible.
        flags = self.plan.arrays("flags")[0][self.send_rows]
        routed = np.where((flags & BULK) == 0, 0,
                          np.where((flags & BULK_ELIGIBLE) == 0, 2, 1))
        # Without a pass context no wire size is known.
        over = np.zeros(len(sends), dtype=bool)
        if self.pctx is not None and (routed == 1).any():
            over = self.send_wires() >= BULK_ELIGIBLE_BYTES
        for s in np.flatnonzero((routed == 2) | ((routed == 1) & over)
                                ).tolist():
            op = ops[sends[s]]
            if routed[s] == 2:
                self.emit(
                    "PC501",
                    f"{op!r} is bulk-routed but was never marked "
                    f"bulk_eligible by its frontend",
                    uid=op.uid,
                    hint="serial ring hops must never ride the "
                         "coordinator (per-hop flush delays accumulate)")
            else:
                self.emit(
                    "PC501",
                    f"{op!r} is bulk-routed but its wire size "
                    f"{self.send_wires()[s]:.0f} B is not below the "
                    f"coordinator threshold {BULK_ELIGIBLE_BYTES} B",
                    uid=op.uid)

    def run(self) -> List[Diagnostic]:
        self.check_byte_flow()
        self.check_buffer_safety()
        self.check_directives()
        self.check_decisions()
        self.check_bulk_policy()
        return self.findings


def check_plan(plan: SyncPlan, pctx: Optional[PassContext] = None,
               recipe: Any = None, name: Optional[str] = None) -> PlanReport:
    """Prove the four PlanCheck properties over one plan.

    ``pctx`` enables the context-dependent rules (PC402/PC501 wire
    thresholds, PC606); ``recipe``, the plan's
    :func:`~repro.casync.lower.lower_plan` output, adds the PC605/PC606
    cost checks of its columns.  Lowering costs the index's own task
    rows and builds the CSR from the index's own dependency rows, so a
    recipe needs no structural cross-check; one with another row or task
    count than the index records raises ``ValueError``.  The PC1xx
    findings are those of the plan's cached
    :class:`~repro.casync.index.PlanIndex`.

    Deep analyses assume topological op order, so any structural error
    short-circuits the report to just the PC1xx findings.
    """
    idx = plan_index(plan)
    if recipe is not None:
        tasks = len(idx.task_rows)
        if (len(recipe.rows), len(recipe.csr)) != (tasks, idx.num_ops):
            raise ValueError(f"recipe has {len(recipe.rows)} tasks but the "
                             f"plan has {tasks} non-barrier ops; pass the "
                             f"plan's own lower_plan output")
    file = plan_file(plan, name)
    diagnostics = idx.diagnostics(plan, file)
    if not diagnostics:
        # The analyzer's transient structures (edge lists, groupings,
        # ancestor sets) are exactly the allocation pattern that trips
        # generational GC mid-run while the heap already holds the full
        # plan; pausing collection for the call frees the same garbage
        # right after.
        with gc_paused():
            analyzer = _PlanAnalyzer(plan, pctx, file)
            if recipe is not None:
                analyzer.check_lowered_costs(recipe)
            diagnostics.extend(analyzer.run())
    return PlanReport(
        name=file, strategy=plan.strategy, num_nodes=plan.num_nodes,
        num_ops=len(plan), diagnostics=tuple(diagnostics))


# -- the golden matrix + the CLI's adaptive-policy sweep ---------------------

def golden_model() -> Any:
    """The golden matrix's model: gradient sizes straddling every pass
    threshold, so selective/partition/fuse/bulk all have work to do."""
    from ..models import GradientSpec, ModelSpec
    kb, mb = 1024, 1024 * 1024
    sizes = (8 * mb, 2 * mb, 900 * kb, 64 * kb, 16 * kb)
    grads = tuple(GradientSpec(f"eq.g{i}", s) for i, s in enumerate(sizes))
    return ModelSpec(name="equiv-tiny", gradients=grads, batch_size=8,
                     batch_unit="images", v100_iteration_s=0.012)


@dataclass(frozen=True)
class GoldenCase:
    """One row of the golden matrix ``tests/golden/trace_hashes.json``
    pins: a strategy, its flags and a codec (None = raw)."""

    name: str
    strategy: str
    flags: Tuple[Tuple[str, bool], ...]
    algorithm: Optional[str]

    def inputs(self, make_algorithm: Optional[Callable[[str], Any]] = None,
               ) -> Tuple[Any, Any]:
        """``(strategy, algorithm)`` for one run of this case;
        ``make_algorithm`` (default: the §6.1 settings) instantiates the
        codec from its name."""
        from ..experiments.common import default_algorithm
        from ..strategies import get_strategy
        algorithm = None
        if self.algorithm is not None:
            algorithm = (make_algorithm or default_algorithm)(self.algorithm)
        return get_strategy(self.strategy, **dict(self.flags)), algorithm


def golden_cases() -> List[GoldenCase]:
    """The 22 golden rows: sorted SYSTEMS x algorithms, then the CaSync
    ablation ladder (the Fig. 11 flag stages) on onebit, all on 4 nodes."""
    from ..experiments.common import SYSTEMS
    ladder = (
        ("none", dict(pipelining=False, bulk=False, selective=False)),
        ("pipe", dict(pipelining=True, bulk=False, selective=False)),
        ("pipe+bulk", dict(pipelining=True, bulk=True, selective=False)),
        ("pipe+bulk+secopa",
         dict(pipelining=True, bulk=True, selective=True)),
    )
    cases: List[GoldenCase] = []
    for key in sorted(SYSTEMS):
        config = SYSTEMS[key]
        algos: Tuple[Optional[str], ...] = (
            ("onebit", "dgc", "tbq") if config.compression else (None,))
        for algo in algos:
            cases.append(GoldenCase(
                f"{key}/{algo or 'raw'}/n4", config.strategy, (), algo))
    for strategy_name in ("casync-ps", "casync-ring"):
        for stage, flags in ladder:
            cases.append(GoldenCase(
                f"{strategy_name}:{stage}/onebit/n4", strategy_name,
                tuple(flags.items()), "onebit"))
    return cases


def iter_cases() -> Iterator[Tuple[str, Callable[[], Tuple[SyncPlan,
                                                           PassContext,
                                                           Any]]]]:
    """Yield ``(case_name, builder)`` covering the golden matrix + policies.

    The first 22 cases are :func:`golden_cases`; the remainder run each
    adaptive policy's iteration-0 DecisionMap through both CaSync
    strategies.  Builders return ``(plan, pctx, recipe)`` so every case
    is checked through lowering.
    """
    from ..casync.lower import lower_plan
    from ..casync.passes import build_plan
    from ..casync.planner import PLANNER_KINDS
    from ..cluster import ec2_v100_cluster
    from ..strategies import get_strategy

    model = golden_model()
    cluster = ec2_v100_cluster(4)

    def make_builder(case: GoldenCase,
                     ) -> Callable[[], Tuple[SyncPlan, PassContext, Any]]:
        def build() -> Tuple[SyncPlan, PassContext, Any]:
            strategy, algorithm = case.inputs()
            pctx = PassContext(
                num_nodes=cluster.num_nodes, cluster=cluster,
                algorithm=algorithm)
            plan = build_plan(strategy, pctx, model)
            return plan, pctx, lower_plan(plan, pctx)
        return build

    for case in golden_cases():
        yield case.name, make_builder(case)

    def make_adaptive_builder(strategy_name: str, policy_kind: str,
                              ) -> Callable[[], Tuple[SyncPlan,
                                                      PassContext, Any]]:
        def build() -> Tuple[SyncPlan, PassContext, Any]:
            from ..adaptive.controller import PolicyController
            from ..adaptive.policy import CompressionPolicy
            policy = {
                "size": CompressionPolicy.size_adaptive,
                "bandwidth": CompressionPolicy.bandwidth_adaptive,
                "accordion": CompressionPolicy.accordion,
            }[policy_kind]()
            controller = PolicyController(
                policy, model, cluster,
                planner_kind=PLANNER_KINDS[strategy_name])
            decisions = controller.decide(0)
            strategy = get_strategy(strategy_name)
            pctx = PassContext(
                num_nodes=cluster.num_nodes, cluster=cluster,
                algorithm=controller.palette[policy.primary_key],
                decisions=decisions)
            plan = build_plan(strategy, pctx, model)
            return plan, pctx, lower_plan(plan, pctx)
        return build

    for strategy_name in ("casync-ps", "casync-ring"):
        for policy_kind in ("size", "bandwidth", "accordion"):
            yield (f"adaptive:{strategy_name}/{policy_kind}/n4",
                   make_adaptive_builder(strategy_name, policy_kind))


def _run_mutants(out: Any) -> int:
    from . import planmutants
    results = planmutants.run_corpus()
    failed = 0
    for result in results:
        status = "caught" if (result.caught and result.verify_missed) \
            else "MISSED"
        if status == "MISSED":
            failed += 1
        rules = ",".join(sorted(result.rules)) or "-"
        print(f"{status:>7} {result.name:<26} pass={result.broken_pass:<18}"
              f" expected={result.expected_rule} got={rules}"
              f" verify_missed={result.verify_missed}", file=out)
    print(f"{len(results) - failed}/{len(results)} mutants caught with "
          f"their expected typed finding (all invisible to verify_plan)",
          file=out)
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.plancheck",
        description="Whole-plan concurrency analyzer over the golden "
                    "SYSTEMS configurations and adaptive policies.")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--strict", action="store_true",
                        help="warnings-as-errors exit policy")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the JSON findings report here")
    parser.add_argument("--case", metavar="SUBSTR",
                        help="only run cases whose name contains SUBSTR")
    parser.add_argument("--list", action="store_true",
                        help="list case names and exit")
    parser.add_argument("--mutants", action="store_true",
                        help="run the pass-mutant corpus instead of the "
                             "golden sweep")
    args = parser.parse_args(argv)

    if args.mutants:
        return _run_mutants(sys.stdout)

    reports: List[PlanReport] = []
    for case_name, build in iter_cases():
        if args.list:
            print(case_name)
            continue
        if args.case and args.case not in case_name:
            continue
        plan, pctx, recipe = build()
        report = check_plan(plan, pctx=pctx, recipe=recipe, name=case_name)
        reports.append(report)
        if args.format == "text":
            print(report.render_text())
    if args.list:
        return 0
    if not reports:
        parser.error(f"--case {args.case!r} matches no case (see --list)")

    all_diags = [d for r in reports for d in r.diagnostics]
    payload = {
        "cases": [r.to_json_obj() for r in reports],
        "summary": {
            "cases": len(reports),
            "counts": count_by_severity(all_diags),
            "ok": not has_errors(all_diags, strict=args.strict),
        },
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        counts = count_by_severity(all_diags)
        print(f"checked {len(reports)} case(s): {counts['error']} "
              f"error(s), {counts['warning']} warning(s)")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return exit_code(all_diags, strict=args.strict)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
