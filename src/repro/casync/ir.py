"""SyncPlan IR: the declarative form of one iteration's synchronization.

Strategies no longer hand-assemble executable
:class:`~repro.casync.tasks.Task` objects.  Instead they *emit* a
:class:`SyncPlan` -- per-gradient lists of abstract operations
(``encode`` / ``decode`` / ``merge`` / ``copy`` / ``cpu`` / ``send`` /
``barrier``) over symbolic sizes and explicit dependency edges -- and the
pass pipeline in :mod:`repro.casync.passes` applies the CaSync
optimizations (§3.2/§3.3) as independent, reorderable transformations
before :mod:`repro.casync.lower` instantiates the executable
:class:`~repro.casync.tasks.TaskGraph`.

The IR deliberately separates two layers:

* **directives** -- one :class:`Directive` per gradient carrying the
  *plan-level* decisions (compress?  how many partitions?).  Directive
  passes (selective compression, partitioning) rewrite these before any
  structure exists.
* **ops** -- the expanded operation list.  Op passes (decode+merge
  fusion, bulk routing) rewrite these, and the verifier checks the final
  graph (every cross-node edge is backed by a matching ``send``, the DAG
  is acyclic, bytes are conserved along each flow).

Sizes are symbolic: a :class:`SizeExpr` names the *raw* byte count plus a
``compressed`` flag; only lowering resolves the wire size through the
active algorithm's size model.  This keeps plans reusable across codecs
for verification and lets :class:`~repro.casync.passes.SelectivePass`
flip compression without recomputing structure.

Plans are dumpable (``to_json`` / ``format_text``; the experiments CLI
exposes ``--dump-sync-plan``) and content-addressed (:meth:`SyncPlan.digest`),
which the lowering cache keys on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

__all__ = [
    "OP_KINDS",
    "Directive",
    "Op",
    "PlanVerificationError",
    "ReadyRef",
    "SizeExpr",
    "SyncPlan",
]

#: Abstract operation kinds the IR admits.  ``decode_merge`` is only ever
#: produced by :class:`~repro.casync.passes.FuseDecodeMergePass` (§5's
#: fused decode-and-aggregate kernel); frontends emit the unfused pair.
OP_KINDS = ("encode", "decode", "merge", "decode_merge", "copy", "cpu",
            "send", "barrier")


class PlanVerificationError(ValueError):
    """The verifier pass rejected a malformed SyncPlan.

    ``diagnostics`` carries the structured findings
    (:class:`~repro.analysis.diagnostics.Diagnostic` records, one per
    violation); the message is their rendered text, so ``str(exc)``
    keeps the historical substrings tests match on.
    """

    def __init__(self, message: str,
                 diagnostics: Sequence[Any] = ()) -> None:
        super().__init__(message)
        self.diagnostics: Tuple[Any, ...] = tuple(diagnostics)


@dataclass(frozen=True)
class SizeExpr:
    """A symbolic payload size: raw bytes plus compression marker.

    ``nbytes`` is always the *uncompressed* gradient-partition size; when
    ``compressed`` is set, the bytes that actually move (the wire size)
    are resolved at lowering time through the algorithm's size model.
    """

    nbytes: float
    compressed: bool = False

    def wire(self, sizer: Callable[[float], float]) -> float:
        """Bytes on the wire, given ``sizer: raw_nbytes -> compressed``."""
        return sizer(self.nbytes) if self.compressed else self.nbytes


ZERO_SIZE = SizeExpr(0.0)


@dataclass(frozen=True)
class ReadyRef:
    """Dependency on a gradient becoming ready on a node.

    Lowered to a ready ref of the task graph, which the simulated
    backward pass fires (:meth:`~repro.casync.tasks.TaskGraph.make_ready`).
    Keeping the reference symbolic is what makes lowered plans reusable across
    :class:`~repro.sim.Environment` instances (the graph cache).
    """

    node: int
    gradient: str


#: A dependency is either another op's uid or a ready-event reference.
Dep = Union[int, ReadyRef]


@dataclass
class Op:
    """One abstract operation in a SyncPlan."""

    uid: int
    kind: str
    node: int
    label: str
    size: SizeExpr = ZERO_SIZE
    deps: Tuple[Dep, ...] = ()
    dst: Optional[int] = None       # send only
    grad: Optional[str] = None      # owning gradient (None for fused work)
    attrs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.kind == "send" and self.dst is None:
            raise ValueError("send ops need a destination node")

    def to_json_obj(self) -> Dict[str, object]:
        deps = []
        for dep in self.deps:
            if isinstance(dep, ReadyRef):
                deps.append(["ready", dep.node, dep.gradient])
            else:
                deps.append(["op", dep])
        obj: Dict[str, object] = {
            "uid": self.uid,
            "kind": self.kind,
            "node": self.node,
            "label": self.label,
            "nbytes": self.size.nbytes,
            "compressed": self.size.compressed,
            "deps": deps,
        }
        if self.dst is not None:
            obj["dst"] = self.dst
        if self.grad is not None:
            obj["grad"] = self.grad
        if self.attrs:
            obj["attrs"] = {k: self.attrs[k] for k in sorted(self.attrs)}
        return obj

    def __repr__(self) -> str:
        return f"<Op {self.uid} {self.kind} {self.label!r} @node{self.node}>"


@dataclass
class Directive:
    """Plan-level decisions for one gradient (rewritten by directive passes).

    ``planned_partitions`` is the §3.3 planner's proposed K, recorded by
    :class:`~repro.casync.passes.SelectivePass`; it only takes structural
    effect when :class:`~repro.casync.passes.PartitionPass` is in the
    pipeline (pipelining enabled) and promotes it into ``partitions``.

    ``algorithm`` overrides the plan-wide codec for this gradient; it is
    only ever set by :class:`~repro.casync.passes.AdaptivePass` (a
    palette key resolved through the active
    :class:`~repro.casync.decisions.DecisionMap`).  None means "use the
    plan's default algorithm", and the JSON dump omits the field in that
    case so pre-adaptive golden snapshots stay byte-identical.
    """

    gradient: str
    nbytes: int
    compress: bool = False
    partitions: int = 1
    planned_partitions: Optional[int] = None
    algorithm: Optional[str] = None

    def to_json_obj(self) -> Dict[str, object]:
        obj: Dict[str, object] = {
            "nbytes": self.nbytes,
            "compress": self.compress,
            "partitions": self.partitions,
            "planned_partitions": self.planned_partitions,
        }
        if self.algorithm is not None:
            obj["algorithm"] = self.algorithm
        return obj


class SyncPlan:
    """A declarative synchronization plan for one training iteration."""

    def __init__(self, strategy: str, num_nodes: int,
                 algorithm: Optional[str] = None) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.strategy = strategy
        self.num_nodes = num_nodes
        self.algorithm = algorithm
        self.directives: Dict[str, Directive] = {}
        self.ops: List[Op] = []
        self.meta: Dict[str, object] = {}
        self._next_uid = 0

    # -- construction -------------------------------------------------------

    def directive(self, gradient: str) -> Directive:
        return self.directives[gradient]

    def add(self, kind: str, node: int, label: str,
            size: SizeExpr = ZERO_SIZE, deps: Iterable[Dep] = (),
            dst: Optional[int] = None, grad: Optional[str] = None,
            **attrs: object) -> int:
        """Append an op; returns its uid (usable as a dependency)."""
        uid = self._next_uid
        self._next_uid += 1
        self.ops.append(Op(uid=uid, kind=kind, node=node, label=label,
                           size=size, deps=tuple(deps), dst=dst, grad=grad,
                           attrs=dict(attrs)))
        return uid

    def by_uid(self) -> Dict[int, Op]:
        return {op.uid: op for op in self.ops}

    # -- introspection -------------------------------------------------------

    def ops_for(self, gradient: str) -> List[Op]:
        return [op for op in self.ops if op.grad == gradient]

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "num_nodes": self.num_nodes,
            "algorithm": self.algorithm,
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
            "directives": {name: self.directives[name].to_json_obj()
                           for name in sorted(self.directives)},
            "ops": [op.to_json_obj() for op in self.ops],
        }

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_json_obj(), indent=indent, sort_keys=True)

    def digest(self) -> str:
        """Content hash of the plan; it names ``sync_plan_dump`` files.

        Streams compact per-op rows straight into the hash instead of
        materializing (and JSON-encoding) the whole plan: a 512-node
        PS-style plan has millions of dependency edges and the dump-based
        digest took longer than simulating the iteration.  The hash
        changed when the encoding did; digests are only ever compared to
        other digests computed by this same function, never pinned.
        """
        h = hashlib.sha256()
        h.update(repr((self.strategy, self.num_nodes, self.algorithm,
                       sorted(self.meta.items()))).encode())
        for name in sorted(self.directives):
            d = self.directives[name]
            row = (name, d.nbytes, d.compress, d.partitions,
                   d.planned_partitions)
            # Keep the pre-adaptive encoding for default-codec directives
            # so digests only move when a per-gradient override exists.
            if d.algorithm is not None:
                row = row + (d.algorithm,)
            h.update(repr(row).encode())
        for op in self.ops:
            deps = tuple(
                (dep.node, dep.gradient) if isinstance(dep, ReadyRef)
                else dep
                for dep in op.deps)
            h.update(repr((op.uid, op.kind, op.node, op.label,
                           op.size.nbytes, op.size.compressed, deps,
                           op.dst, op.grad,
                           sorted(op.attrs.items()) if op.attrs else ())
                          ).encode())
        return h.hexdigest()

    def directive_lines(self) -> Dict[str, int]:
        """1-based line of each directive in the :meth:`format_text` dump.

        Diagnostics (:mod:`repro.analysis.plancheck` and the verifier)
        use these spans so a finding points straight into the plan dump
        the user can print with ``--dump-sync-plan``.
        """
        base = 1 + (1 if self.meta else 0) + 1  # header [+ meta] + section
        return {name: base + i + 1
                for i, name in enumerate(sorted(self.directives))}

    def op_lines(self) -> Dict[int, int]:
        """1-based line of each op (by uid) in the :meth:`format_text` dump."""
        base = (1 + (1 if self.meta else 0)    # header [+ meta]
                + 1 + len(self.directives)     # directives section
                + 1)                           # ops summary line
        return {op.uid: base + i + 1 for i, op in enumerate(self.ops)}

    def format_text(self) -> str:
        """Human-readable dump (the text form of ``--dump-sync-plan``)."""
        lines = [f"SyncPlan strategy={self.strategy} nodes={self.num_nodes} "
                 f"algorithm={self.algorithm or '-'}"]
        if self.meta:
            lines.append("meta: " + ", ".join(
                f"{k}={self.meta[k]}" for k in sorted(self.meta)))
        lines.append(f"directives ({len(self.directives)}):")
        for name in sorted(self.directives):
            d = self.directives[name]
            algo = f"  algo={d.algorithm}" if d.algorithm is not None else ""
            lines.append(
                f"  {name}: {d.nbytes} B  "
                f"{'compress' if d.compress else 'raw'}  K={d.partitions}"
                f"{algo}")
        counts = self.counts()
        summary = ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
        lines.append(f"ops ({len(self.ops)}): {summary}")
        for op in self.ops:
            deps = []
            for dep in op.deps:
                if isinstance(dep, ReadyRef):
                    deps.append(f"ready({dep.node},{dep.gradient})")
                else:
                    deps.append(f"#{dep}")
            size = ""
            if op.size.nbytes:
                size = f" {op.size.nbytes:.0f}B"
                if op.size.compressed:
                    size += "*"
            dst = f" ->{op.dst}" if op.dst is not None else ""
            flags = "".join(
                f" {k}" for k in sorted(op.attrs) if op.attrs[k] is True)
            lines.append(f"  #{op.uid} {op.kind}@{op.node}{dst}{size} "
                         f"{op.label}{flags} deps=[{', '.join(deps)}]")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<SyncPlan {self.strategy} nodes={self.num_nodes} "
                f"ops={len(self.ops)}>")
