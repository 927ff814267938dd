"""PlanCheck: a whole-plan concurrency analyzer for the SyncPlan IR.

The pass pipeline (:mod:`repro.casync.passes`) earns its speedups by
reordering, fusing, and bulk-routing communication -- exactly the
transformations that can silently introduce deadlocks, lost sends, buffer
races, or byte-flow leaks.  The structural rules each edge must obey
on its own (PC1xx) are recorded by the plan's one structural walk,
:meth:`repro.casync.index.PlanIndex.build`, which the pipeline's
:class:`VerifyPass` runs and enforces.  PlanCheck reads those findings
from the shared index and adds the *global* proofs: given a post-passes
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
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from ..casync.index import (PlanIndex, _sizes_match, plan_file, plan_index,
                            region_pid as _region_pid)
from ..casync.ir import PlanVerificationError, SyncPlan
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
    "PC105": "negative payload size",
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


#: Op kinds that carry a payload contract along a same-node producer edge
#: (barriers and cpu ops are duration- or fan-in-shaped, not byte-shaped).
_PAYLOAD_CONSUMERS = ("send", "decode", "decode_merge", "copy", "merge")
_PAYLOAD_CONSUMERS_SET = frozenset(_PAYLOAD_CONSUMERS)

#: Op kinds that only a compressed gradient has (PC403).
_CODEC_KINDS = frozenset(("encode", "decode", "decode_merge"))

#: Fan-in at which backward searches stop expanding an op's deps and
#: consult its memoized ancestor set instead (see ``_ancestors``).
_WIDE_JOIN = 8


class _PlanAnalyzer:
    """One-shot deep analysis of a structurally-valid plan.

    All structural derivations (uid->index map, predecessor lists,
    gradient groups, ready seeds, encode/decode classification) come
    from the shared :class:`~repro.casync.index.PlanIndex` -- built once
    per plan by ``build_plan``'s verify stage and reused by lowering --
    so on the GraphCache admission path the analyzer pays only for rule
    *evaluation*.  :func:`check_plan` builds it only for a plan whose
    index has no structural findings.
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
        self._anc_memo: Dict[int, frozenset] = {}
        self._send_wires: Optional[np.ndarray] = None
        self.findings: List[Diagnostic] = []
        idx = plan_index(plan)
        self.index_of = idx.index_of
        self.preds = idx.preds
        self.by_grad = idx.by_grad
        self.consumed = idx.consumed
        self.ready_seeds = idx.ready_seeds
        self.encodes = idx.encodes
        self.plain_decodes = idx.plain_decodes
        # Shared with the index on purpose: pid() memoizes the (rare)
        # regions the index builder did not classify, and later
        # analyzer runs over the same plan reuse them.
        self._pids = idx.region_pids
        self.bulk_sends = idx.bulk_sends
        self.sends = idx.sends
        self._check_encode_edges(idx)

    def _check_encode_edges(self, idx: PlanIndex) -> None:
        """PC302 over the index's encode->consumer edges.

        Same-node producer edges must conserve bytes.  The verifier
        only checks cross-node (send) edges; a fused decode_merge fed
        by a local encode is exactly the edge it never sees.  Only
        encode producers carry the contract, which is why the index
        pre-extracts their out-edges.
        """
        ops = self.ops
        payload_consumers = _PAYLOAD_CONSUMERS_SET
        for j, i in idx.encode_out_edges:
            op = ops[i]
            if op.kind not in payload_consumers:
                continue
            producer = ops[j]
            if producer.node != op.node:
                continue
            nbytes = op.size.nbytes
            if not nbytes:
                continue
            pbytes = producer.size.nbytes
            if (pbytes and pbytes != nbytes
                    and not _sizes_match(pbytes, nbytes)):
                self.emit(
                    "PC302",
                    f"byte-count mismatch along same-node "
                    f"edge {producer!r} -> {op!r}: "
                    f"{pbytes} != {nbytes}",
                    uid=op.uid)

    def check_lowered_costs(self, recipe: Any) -> None:
        """PC605/PC606 over a lowered recipe's cost columns (entry ``k``
        lowered from op ``recipe.rows[k]``): every cost finite and not
        negative, and (given a pass context) every send's wire size
        agrees with the size model."""
        ops = self.ops
        out = recipe.out_nbytes
        costs = np.array((recipe.durations, recipe.launch_overheads,
                          recipe.nbytes, [o or 0.0 for o in out]),
                         dtype=float)
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
        slot = np.frombuffer(recipe.csr.slot, dtype=np.intc)[
            np.frombuffer(sends, dtype=np.intc)]
        # Only an unequal pair can be a mismatch; _sizes_match decides.
        for s in np.flatnonzero(costs[2, slot] != want).tolist():
            got, wire = recipe.nbytes[slot[s]], float(want[s])
            if not _sizes_match(got, wire):
                op = ops[sends[s]]
                self.emit("PC606", f"lowered {op!r} wire size {got} "
                          f"disagrees with the size model's {wire}",
                          uid=op.uid)

    def send_wires(self) -> np.ndarray:
        """The size model's wire size of each of :attr:`sends`, evaluated
        once per distinct ``(gradient, nbytes, compressed)``: the wire
        depends on nothing else."""
        wires = self._send_wires
        if wires is None:
            assert self.pctx is not None
            wire_op = self.pctx.wire_op
            memo: Dict[Tuple[Optional[str], float, bool], float] = {}
            column = []
            for op in map(self.ops.__getitem__, self.sends):
                key = (op.grad, op.size.nbytes, op.size.compressed)
                wire = memo.get(key)
                if wire is None:
                    wire = memo[key] = wire_op(op)
                column.append(wire)
            wires = self._send_wires = np.array(column, dtype=float)
        return wires

    def pid(self, i: int) -> Optional[int]:
        """Cached :func:`_region_pid` of the op at index ``i``."""
        pid = self._pids.get(i, -1)
        if pid == -1:
            pid = self._pids[i] = _region_pid(self.ops[i])
        return pid

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

    def _ancestors(self, k: int) -> frozenset:
        """Memoized full ancestor index set of a high-fan-in op.

        :meth:`ordered` answers many queries whose backward searches
        all re-expand the same wide joins (a PS re-encode over every
        worker's merge, a collapsed fan-in barrier); materializing
        those ops' ancestries once turns each later visit into one set
        lookup.  Nested wide joins reuse each other's memoized sets.
        """
        anc = self._anc_memo.get(k)
        if anc is None:
            preds = self.preds
            memo = self._anc_memo
            seen: Set[int] = set(preds[k])
            stack = list(seen)
            while stack:
                j = stack.pop()
                cached = memo.get(j)
                if cached is not None:
                    seen |= cached
                    continue
                for p in preds[j]:
                    if p not in seen:
                        seen.add(p)
                        stack.append(p)
            anc = self._anc_memo[k] = frozenset(seen)
        return anc

    def ordered(self, a: int, b: int) -> bool:
        """Is there a dependency path between op indexes ``a`` and ``b``?

        Ops are in topological order (uids/indexes only reference
        earlier ones), so a path can only run from the lower index to
        the higher; the backward search prunes every branch that drops
        below the target instead of materializing full reachability,
        and consults :meth:`_ancestors` instead of expanding wide
        joins.
        """
        if a == b:
            return True
        lo, hi = (a, b) if a < b else (b, a)
        preds = self.preds
        if lo in preds[hi]:  # direct edge: skip the search setup
            return True
        stack = [hi]
        seen: Set[int] = set()
        seen_add = seen.add
        while stack:
            k = stack.pop()
            if k == lo:
                return True
            plist = preds[k]
            # Chain compression: ring plans are chain-shaped, so most
            # hops have exactly one predecessor -- follow those runs
            # inline, where the per-hop stack bookkeeping would
            # otherwise dominate the search.
            while len(plist) == 1:
                k = plist[0]
                if k <= lo:
                    if k == lo:
                        return True
                    plist = ()  # dropped below the target: dead end
                    break
                if k in seen:
                    plist = ()
                    break
                seen_add(k)
                plist = preds[k]
            if len(plist) >= _WIDE_JOIN:
                if lo in self._ancestors(k):
                    return True
                continue
            for j in plist:
                if j >= lo and j not in seen:
                    seen_add(j)
                    stack.append(j)
        return False

    # -- property 3: byte-flow conservation ---------------------------------

    def _reaches_any(self, i: int, targets: Set[int], lo: int) -> bool:
        """Does any op index in ``targets`` reach op index ``i``?

        The same pruned backward search as :meth:`ordered` (``lo`` must
        be ``min(targets)``), stopping at the first target hit.
        """
        stack = [i]
        seen: Set[int] = set()
        seen_add = seen.add
        preds = self.preds
        while stack:
            k = stack.pop()
            plist = preds[k]
            # Same chain compression as :meth:`ordered`.
            while len(plist) == 1:
                j = plist[0]
                if j < lo or j in seen:
                    plist = ()
                    break
                if j in targets:
                    return True
                seen_add(j)
                k = j
                plist = preds[k]
            if len(plist) >= _WIDE_JOIN:
                if not self._ancestors(k).isdisjoint(targets):
                    return True
                continue
            for j in plist:
                if j >= lo and j not in seen:
                    if j in targets:
                        return True
                    seen_add(j)
                    stack.append(j)
        return False

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
        ops = self.ops
        preds = self.preds
        consumed = self.consumed
        #: flow key -> [(seeding op index, origin node), ...]; the
        #: "r" keys can alias the index's lists (only "e" lists grow).
        seeds: Dict[Tuple[Any, ...], List[Tuple[int, int]]] = {
            ("r", grad): entries
            for grad, entries in self.ready_seeds.items()}

        # Initial-vs-re-encode.  An encode reachable from an earlier
        # encode of the same key transforms that flow instead of
        # originating one (it is downstream of an initial encode by
        # induction on topological order).  The probes stay
        # near-constant: a re-encode sits a hop or two above the
        # aggregation it re-compresses, and an initial encode's
        # ancestry is a ReadyRef or a local copy of one.
        for (grad, pid), idxs in self.encodes.items():
            first = idxs[0]
            key_seeds = seeds.setdefault(("e", grad, pid), [])
            key_seeds.append((first, ops[first].node))
            if len(idxs) > 1:
                targets = {first}
                for i in idxs[1:]:
                    if not self._reaches_any(i, targets, first):
                        key_seeds.append((i, ops[i].node))
                    targets.add(i)

        # Backward pass: rev[i] = nodes owning a sink reachable from i.
        # A sink (no later op includes it) starts with its own node; the
        # reversed iterator reads each entry once every later op has
        # propagated into it.
        rev = [0] * len(ops)
        sinks = np.flatnonzero(np.frombuffer(consumed, dtype=np.uint8) == 0)
        for i in sinks.tolist():
            rev[i] = 1 << ops[i].node
        for r, deps in zip(reversed(rev), reversed(preds)):
            if r:
                for j in deps:
                    rev[j] |= r

        full = (1 << n) - 1
        for key in sorted(seeds, key=repr):
            key_seeds = seeds[key]
            #: origin node -> nodes observing it via any seeding op.
            origin_cover: Dict[int, int] = {}
            for i, b in key_seeds:
                origin_cover[b] = origin_cover.get(b, 0) | rev[i]
            joint = full
            for cover in origin_cover.values():
                joint &= cover
            if joint == full:
                continue
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
            realized: Set[str] = {key[1] for key in seeds}
            realized.update(self.by_grad)
            for name in self.plan.directives:
                if name not in realized:
                    self.emit(
                        "PC303",
                        f"directive {name} is never realized: no op or "
                        f"ready event references the gradient",
                        directive=name)

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
        ops = self.ops
        accesses: Dict[Tuple[int, str],
                       List[Tuple[Optional[int], str, int]]] = {}
        # Regions with writes drive the whole check, so index the
        # (rare) plain decodes first and only group the reads of
        # gradients that have any -- the indexing pass already
        # classified both sides.
        written: Set[str] = set()
        for i in self.plain_decodes:
            op = ops[i]
            grad = op.grad
            if grad is None:  # unreachable: indexed with grad set
                continue
            written.add(grad)
            accesses.setdefault((op.node, grad), []).append(
                (self.pid(i), "write", i))
        if not accesses:
            return
        for (grad, pid), idxs in self.encodes.items():
            if grad in written:
                for i in idxs:
                    accesses.setdefault((ops[i].node, grad), []).append(
                        (pid, "read", i))

        # Every aliasing pair with a write must be ordered.  Proving
        # each pair directly is quadratic in the region's accesses;
        # instead each partition class is proven by transitivity --
        # the writes form an ordered chain and every read is ordered
        # against its neighbouring writes, which together order every
        # required pair.  Only a broken write chain falls back to the
        # exhaustive pair scan (to report the precise pairs).
        for (node, grad), entries in sorted(accesses.items()):
            if all(mode == "read" for _, mode, _ in entries):
                continue
            entries.sort(key=lambda e: e[2])  # restore topo order
            none_class = [e for e in entries if e[0] is None]
            classes = sorted({e[0] for e in entries if e[0] is not None})
            subgroups: List[List[Tuple[Optional[int], str, int]]]
            if not classes:
                subgroups = [entries]
            elif none_class:
                # Whole-buffer accesses alias every partition: rescan
                # them inside each class (they are rare).
                subgroups = []
                for p in classes:
                    sub = [e for e in entries if e[0] == p] + none_class
                    sub.sort(key=lambda e: e[2])
                    subgroups.append(sub)
            else:
                by_pid: Dict[Optional[int],
                             List[Tuple[Optional[int], str, int]]] = {}
                for e in entries:
                    by_pid.setdefault(e[0], []).append(e)
                subgroups = list(by_pid.values())
            for sub in subgroups:
                writes = [e for e in sub if e[1] == "write"]
                if not writes:
                    continue
                chain_ok = True
                for w in range(len(writes) - 1):
                    if not self.ordered(writes[w][2], writes[w + 1][2]):
                        chain_ok = False
                        break
                if not chain_ok:
                    self._pair_scan(node, grad, sub)
                    continue
                # Reads: ordered against the nearest write on each
                # side covers every write by chain transitivity.
                w = 0
                nwrites = len(writes)
                for pid_e, mode, i in sub:
                    if mode != "read":
                        if w < nwrites and writes[w][2] == i:
                            w += 1
                        continue
                    if w and not self.ordered(writes[w - 1][2], i):
                        self._emit_race(node, grad, writes[w - 1][2], i,
                                        "PC202")
                    if w < nwrites and not self.ordered(i, writes[w][2]):
                        self._emit_race(node, grad, i, writes[w][2],
                                        "PC202")

    def _pair_scan(self, node: int, grad: str,
                   entries: List[Tuple[Optional[int], str, int]]) -> None:
        """Exhaustive pair check of one region group (the slow path a
        broken write chain falls back to, so findings name the exact
        unordered pairs)."""
        for x in range(len(entries)):
            pid_a, mode_a, i_a = entries[x]
            for y in range(x + 1, len(entries)):
                pid_b, mode_b, i_b = entries[y]
                if mode_a == "read" and mode_b == "read":
                    continue
                if (pid_a is not None and pid_b is not None
                        and pid_a != pid_b):
                    continue  # disjoint partitions never alias
                if self.ordered(i_a, i_b):
                    continue
                self._emit_race(
                    node, grad, i_a, i_b,
                    "PC201" if mode_a == mode_b == "write" else "PC202")

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
        # Each gradient's encode regions, from the index's encode groups.
        encode_pids: Dict[str, Set[Optional[int]]] = {}
        for grad, pid in self.encodes:
            encode_pids.setdefault(grad, set()).add(pid)
        for name in sorted(self.plan.directives):
            directive = self.plan.directives[name]
            ops = self.by_grad.get(name, [])
            if directive.compress:
                if not ops:
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
                bad = [op for op in ops
                       if op.kind in _CODEC_KINDS or op.size.compressed]
                if bad:
                    self.emit(
                        "PC403",
                        f"directive marks {name} raw but "
                        f"{len(bad)} compression op(s) remain "
                        f"(e.g. {bad[0]!r})",
                        uid=bad[0].uid)

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
        # Sends at or over the threshold, with their wire sizes; without
        # a pass context no wire size is known.
        over: Dict[int, float] = {}
        if self.pctx is not None and self.bulk_sends:
            wires = self.send_wires()
            over = {sends[s]: float(wires[s]) for s in np.flatnonzero(
                wires >= BULK_ELIGIBLE_BYTES).tolist()}
        for i in self.bulk_sends:
            op = ops[i]
            if not op.attrs.get("bulk_eligible"):
                self.emit(
                    "PC501",
                    f"{op!r} is bulk-routed but was never marked "
                    f"bulk_eligible by its frontend",
                    uid=op.uid,
                    hint="serial ring hops must never ride the "
                         "coordinator (per-hop flush delays accumulate)")
            elif i in over:
                self.emit(
                    "PC501",
                    f"{op!r} is bulk-routed but its wire size "
                    f"{over[i]:.0f} B is not below the coordinator "
                    f"threshold {BULK_ELIGIBLE_BYTES} B",
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
        # The analyzer's transient index structures (one preds list per
        # op) are exactly the allocation pattern that trips generational
        # GC mid-run while the heap already holds the full plan; pausing
        # collection for the call is worth ~1/3 of admission latency on
        # large plans and frees the same garbage right after.
        with gc_paused():
            analyzer = _PlanAnalyzer(plan, pctx, file)
            if recipe is not None:
                analyzer.check_lowered_costs(recipe)
            diagnostics.extend(analyzer.run())
    return PlanReport(
        name=file, strategy=plan.strategy, num_nodes=plan.num_nodes,
        num_ops=len(plan.ops), diagnostics=tuple(diagnostics))


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
            strategy = get_strategy(strategy_name, selective=False,
                                    adaptive=True)
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
        print(f"{status:>7} {result.name:<26} pass={result.target_pass:<18}"
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
