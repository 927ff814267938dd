"""SyncPlan IR: the declarative form of one iteration's synchronization.

Strategies do not hand-assemble executable tasks.  Instead they *emit* a
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
* **ops** -- the expanded operation rows.  Op passes (decode+merge
  fusion, bulk routing) rewrite these, and the verifier checks the final
  graph (every cross-node edge is backed by a matching ``send``, the DAG
  is acyclic, bytes are conserved along each flow).

The ops are a column store: one column per op field, and the
dependencies as compressed rows of integers (``dep_ptr``/``dep_rows``,
each an earlier row or ``-1 - r`` for ready ref ``ref_keys[r]``),
resolved when :meth:`SyncPlan.add` appends the op (or given as rows to
:meth:`SyncPlan.extend`, which appends a block).  Passes edit the
columns through the plan's mutation methods; :class:`Op` is only the
read-only row record :meth:`SyncPlan.op` builds for dumps and
diagnostics.

Sizes are symbolic: a :class:`SizeExpr` names the *raw* byte count plus a
``compressed`` flag; only lowering resolves the wire size through the
active algorithm's size model.  This keeps plans reusable across codecs
for verification and lets :class:`~repro.casync.passes.SelectivePass`
flip compression without recomputing structure.

Plans are dumpable (``to_json`` / ``format_text``; the experiments CLI
exposes ``--dump-sync-plan``) and content-addressed (:meth:`SyncPlan.digest`),
which names the dump files.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

import numpy as np

__all__ = [
    "OP_KINDS",
    "Directive",
    "Op",
    "PlanVerificationError",
    "ReadyRef",
    "Rows",
    "SizeExpr",
    "SyncPlan",
    "gather_rows",
]

#: Abstract operation kinds the IR admits.  ``decode_merge`` is only ever
#: produced by :class:`~repro.casync.passes.FuseDecodeMergePass` (§5's
#: fused decode-and-aggregate kernel); frontends emit the unfused pair.
OP_KINDS = ("encode", "decode", "merge", "decode_merge", "copy", "cpu",
            "send", "barrier")

#: Each kind's code in :attr:`SyncPlan.kinds`.
(ENCODE, DECODE, MERGE, DECODE_MERGE, COPY, CPU, SEND,
 BARRIER) = range(len(OP_KINDS))
_KIND_CODE = {kind: code for code, kind in enumerate(OP_KINDS)}


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

#: Op rows: a NumPy integer vector or a sequence of ints.
Rows = Union[np.ndarray, Sequence[int]]


@dataclass(frozen=True)
class Op:
    """One op of a SyncPlan as a read-only row record.

    Built on demand by :meth:`SyncPlan.op` (and :attr:`SyncPlan.ops`)
    for dumps, diagnostics and analyses; ``deps`` name op uids and ready
    refs.  Editing a plan goes through its mutation methods, never
    through a record.
    """

    uid: int
    kind: str
    node: int
    label: str
    size: SizeExpr = ZERO_SIZE
    deps: Tuple[Dep, ...] = ()
    dst: Optional[int] = None       # send only
    grad: Optional[str] = None      # owning gradient (None for fused work)
    attrs: Mapping[str, object] = field(default_factory=dict)

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


def _rows(rows: Union[int, Iterable[int]]) -> Iterable[int]:
    """A mutation method's ``rows`` argument as an iterable of rows."""
    return (rows,) if isinstance(rows, (int, np.integer)) else rows


def _ints(values: np.ndarray) -> array:
    """A NumPy int vector as a C-int ``array``."""
    return array("i", values.astype(np.intc).tobytes())


def gather_rows(ptr: np.ndarray, rows: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """The entries of compressed rows ``rows``: the positions
    ``ptr[r]:ptr[r + 1]`` of each ``r`` in ``rows``, concatenated in
    order, and each row's entry count."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    ends = np.cumsum(lens)
    positions = np.arange(ends[-1] if len(ends) else 0)
    positions += np.repeat(starts - ends + lens, lens)
    return positions, lens


#: The NumPy dtype :meth:`SyncPlan.arrays` gives a column that is not
#: stored as a typed array.
_ARRAY_DTYPES = {"nbytes": float, "compressed": bool}


class SyncPlan:
    """A declarative synchronization plan for one training iteration.

    Op row ``i`` is entry ``i`` of every column: ``uids``, ``kinds``
    (codes into :data:`OP_KINDS`), ``nodes``, ``labels``, ``nbytes`` (as
    given: an int stays an int), ``compressed``, ``dsts`` (-1 for none),
    ``grads`` and ``attrs`` (a dict, or None for an op without
    attributes).  Row ``i``'s
    dependencies are ``dep_rows[dep_ptr[i]:dep_ptr[i + 1]]``, each an
    earlier row ``j >= 0`` or ``-1 - r`` for ready ref ``ref_keys[r]``
    (keys in first-use order).  Read the columns freely; change them only
    through :meth:`add`, :meth:`extend` and the mutation methods
    (:meth:`update`, :meth:`set_attr`, :meth:`pop_attr`,
    :meth:`set_deps`, :meth:`drop`, :meth:`reorder`), each of which
    drops the plan's verified index.
    """

    def __init__(self, strategy: str, num_nodes: int,
                 algorithm: Optional[str] = None) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.strategy = strategy
        self.num_nodes = num_nodes
        self.algorithm = algorithm
        self.directives: Dict[str, Directive] = {}
        self.meta: Dict[str, object] = {}
        self.uids = array("i")
        self.kinds = array("b")
        self.nodes = array("i")
        self.labels: List[str] = []
        self.nbytes: List[float] = []
        self.compressed = bytearray()
        self.dsts = array("i")
        self.grads: List[Optional[str]] = []
        self.attrs: List[Optional[Dict[str, object]]] = []
        self.dep_ptr = array("i", [0])
        self.dep_rows = array("i")
        self.ref_keys: List[Tuple[int, str]] = []
        self._ref_ids: Dict[Tuple[int, str], int] = {}
        #: uid -> row, rebuilt on demand after a renumbering.
        self._row_of: Optional[Dict[int, int]] = {}
        #: (op uid, dep uid) of every dependency that named no earlier op
        #: when it was added (or whose op a :meth:`drop` removed).
        self.dangling: List[Tuple[int, int]] = []
        self._next_uid = 0
        #: The verified :class:`~repro.casync.index.PlanIndex`, owned
        #: here and dropped by every mutation.
        self._index: Any = None
        self._bind()

    # -- construction -------------------------------------------------------

    def directive(self, gradient: str) -> Directive:
        return self.directives[gradient]

    def add(self, kind: str, node: int, label: str,
            size: SizeExpr = ZERO_SIZE, deps: Iterable[Dep] = (),
            dst: Optional[int] = None, grad: Optional[str] = None,
            **attrs: object) -> int:
        """Append an op; returns its uid (usable as a dependency).

        Each uid dependency is resolved to its row here; one that names
        no earlier op is recorded in :attr:`dangling` (a PC106 finding of
        the verifier), not raised.
        """
        code = _KIND_CODE.get(kind)
        if code is None:
            raise ValueError(f"unknown op kind {kind!r}")
        if dst is None:
            if code == SEND:
                raise ValueError("send ops need a destination node")
            dst = -1
        uid = self._next_uid
        self._next_uid = uid + 1
        row_of = self._row_of
        if row_of is None:
            row_of = self._rows_by_uid()
        dep_rows = self.dep_rows
        for dep in deps:
            if type(dep) is ReadyRef:
                r = self._ref_ids.get((dep.node, dep.gradient))
                if r is None:
                    r = self._ref_id((dep.node, dep.gradient))
                dep_rows.append(-1 - r)
            else:
                j = row_of.get(dep)  # type: ignore[arg-type]
                if j is None:
                    self.dangling.append((uid, dep))  # type: ignore
                else:
                    dep_rows.append(j)
        row_of[uid] = len(self.labels)
        (add_uid, add_kind, add_node, add_label, add_nbytes, add_compressed,
         add_dst, add_grad, add_attrs, add_ptr) = self._appends
        add_uid(uid)
        add_kind(code)
        add_node(node)
        add_label(label)
        add_nbytes(size.nbytes)
        add_compressed(size.compressed)
        add_dst(dst)
        add_grad(grad)
        add_attrs(attrs or None)
        add_ptr(len(dep_rows))
        self._index = None
        return uid

    def extend(self, kinds: Rows, nodes: Rows, labels: Sequence[str],
               nbytes: Sequence[float], compressed: Rows, dsts: Rows,
               grads: Sequence[Optional[str]],
               attrs: Sequence[Optional[Dict[str, object]]],
               dep_counts: Rows, deps: Rows) -> int:
        """Append a block of op rows, one call per column; returns the
        uid of its first row (the block's uids are consecutive).

        Each argument holds one entry per row, as the columns store it:
        ``kinds`` are codes into :data:`OP_KINDS`, ``dsts`` are -1 for
        none, and ``nbytes``, ``grads`` and ``attrs`` (a dict of its own
        per row, or None) are stored as given.  Row ``i``'s dependencies
        are the next ``dep_counts[i]`` entries of ``deps``, each an
        earlier row of the plan or ``-1 - r`` for ready ref ``r`` (an id
        :meth:`_ref_id` gave).  A dependency on the row itself or a later
        one raises ``ValueError`` before any column changes, as do an
        unknown kind and a send without a destination.  The uid -> row
        map is rebuilt on demand afterwards, as after a renumbering.
        """
        kinds = np.asarray(kinds, dtype=np.intp)
        dsts = np.asarray(dsts, dtype=np.intp)
        counts = np.asarray(dep_counts, dtype=np.intp)
        deps = np.asarray(deps, dtype=np.intp)
        m = len(kinds)
        if not (len(nodes) == len(labels) == len(nbytes) == len(compressed)
                == len(dsts) == len(grads) == len(attrs) == len(counts) == m
                and counts.sum() == len(deps)):
            raise ValueError("the block's columns differ in length")
        base = len(self.uids)
        owner = np.repeat(np.arange(base, base + m), counts)
        bad = (deps >= owner) | (deps < -len(self.ref_keys))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"block row {owner[i]} depends on {deps[i]}, "
                             "which is neither an earlier row nor a "
                             "ready ref")
        if ((kinds < 0) | (kinds >= len(OP_KINDS))).any():
            raise ValueError("unknown op kind code in the block")
        if ((kinds == SEND) & (dsts < 0)).any():
            raise ValueError("send ops need a destination node")
        uid = self._next_uid
        self._next_uid = uid + m
        self._row_of = None
        self.uids.frombytes(np.arange(uid, uid + m, dtype=np.intc).tobytes())
        self.kinds.frombytes(kinds.astype(np.int8).tobytes())
        self.nodes.frombytes(np.asarray(nodes, dtype=np.intc).tobytes())
        self.labels.extend(labels)
        self.nbytes.extend(nbytes)
        self.compressed.extend(np.asarray(compressed, dtype=bool).tobytes())
        self.dsts.frombytes(dsts.astype(np.intc).tobytes())
        self.grads.extend(grads)
        self.attrs.extend(attrs)
        ptr = np.cumsum(counts) + self.dep_ptr[-1]
        self.dep_ptr.frombytes(ptr.astype(np.intc).tobytes())
        self.dep_rows.frombytes(deps.astype(np.intc).tobytes())
        self._index = None
        return uid

    # -- mutation methods ---------------------------------------------------
    #
    # Rows, not uids: ints passed to these methods are row positions.

    def update(self, row: int, **fields: Any) -> None:
        """Overwrite fields of op ``row``: any of ``kind``, ``node``,
        ``label``, ``size`` (a :class:`SizeExpr`), ``dst`` and ``grad``.
        Only the kind is validated, as :meth:`add` does; the verifier
        reports any other bad value."""
        for name, value in fields.items():
            if name == "kind":
                code = _KIND_CODE.get(value)
                if code is None:
                    raise ValueError(f"unknown op kind {value!r}")
                self.kinds[row] = code
            elif name == "node":
                self.nodes[row] = value
            elif name == "label":
                self.labels[row] = value
            elif name == "size":
                self.nbytes[row] = value.nbytes
                self.compressed[row] = bool(value.compressed)
            elif name == "dst":
                self.dsts[row] = -1 if value is None else value
            elif name == "grad":
                self.grads[row] = value
            else:
                raise TypeError(f"update() got an unknown field {name!r}")
        self._index = None

    def set_attr(self, rows: Union[int, Iterable[int]], key: str,
                 value: object) -> None:
        """Set attribute ``key`` to ``value`` on op row ``rows`` (an int)
        or on each of the rows ``rows`` iterates."""
        column = self.attrs
        for row in _rows(rows):
            attrs = column[row]
            if attrs is None:
                column[row] = {key: value}
            else:
                attrs[key] = value
        self._index = None

    def pop_attr(self, rows: Union[int, Iterable[int]], key: str) -> None:
        """Remove attribute ``key`` from op row ``rows`` (an int) or from
        each of the rows ``rows`` iterates."""
        column = self.attrs
        for row in _rows(rows):
            attrs = column[row]
            if attrs is not None:
                attrs.pop(key, None)
                if not attrs:
                    column[row] = None
        self._index = None

    def set_deps(self, changes: Mapping[int, Iterable[Union[int, ReadyRef]]]
                 ) -> None:
        """Replace the dependencies of each row in ``changes`` with the
        given rows and ready refs, in one rebuild of the dependency rows.
        A dependency on the row itself or a later one is a PC106 finding
        of the verifier."""
        n_rows = len(self.uids)
        ptr, rows = self.arrays("dep_ptr", "dep_rows")
        lens = np.diff(ptr)
        new: Dict[int, List[int]] = {}
        for r in changes:
            encoded: List[int] = []
            for dep in changes[r]:
                if isinstance(dep, ReadyRef):
                    encoded.append(-1 - self._ref_id((dep.node, dep.gradient)))
                elif 0 <= dep < n_rows:
                    encoded.append(dep)
                else:
                    raise ValueError(f"row {dep} is not a row of the plan")
            new[r] = encoded
        changed = np.array(sorted(new), dtype=np.intp)
        new_lens = lens.copy()
        new_lens[changed] = [len(new[r]) for r in changed.tolist()]
        new_ptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(new_lens, out=new_ptr[1:])
        out = np.empty(new_ptr[-1], dtype=np.intp)
        owner = np.repeat(np.arange(n_rows), lens)
        kept = np.ones(n_rows, dtype=bool)
        kept[changed] = False
        kept = kept[owner]
        moved = new_ptr[owner] + np.arange(len(rows)) - ptr[owner]
        out[moved[kept]] = rows[kept]
        for r, encoded in new.items():
            out[new_ptr[r]:new_ptr[r + 1]] = encoded
        self._set_deps(new_ptr, out)

    def drop(self, redirect: Mapping[int, Optional[int]]) -> None:
        """Remove each row in ``redirect`` and compact the rest, in one
        renumbering.  A dependency on a removed row ``j`` becomes one on
        row ``redirect[j]`` (which must stay), or, for None, a dangling
        dependency (a PC106 finding)."""
        n_rows = len(self.uids)
        target = np.arange(n_rows)
        for j in redirect:
            to = redirect[j]
            if to is not None and to in redirect:
                raise ValueError(f"row {j} is redirected to row {to}, "
                                 "which is dropped too")
            target[j] = -1 if to is None else to
        keep = np.ones(n_rows, dtype=bool)
        keep[np.fromiter(redirect, dtype=np.intp, count=len(redirect))] = False
        self._renumber(np.flatnonzero(keep), target)

    def reorder(self, order: Rows) -> None:
        """Renumber the rows: new row ``k`` is old row ``order[k]`` (a
        permutation).  A dependency that lands on its own or a later row
        is a PC106 finding."""
        order = np.asarray(order, dtype=np.intp)
        if sorted(order.tolist()) != list(range(len(self.uids))):
            raise ValueError("reorder() needs a permutation of the rows")
        self._renumber(order, np.arange(len(self.uids)))

    def _renumber(self, order: np.ndarray, target: np.ndarray) -> None:
        """New row ``k`` is old row ``order[k]``; an edge on old row ``j``
        lands on ``target[j]`` (-1: it dangles)."""
        ptr, rows, uids, kinds, nodes, dsts, compressed = self.arrays(
            "dep_ptr", "dep_rows", "uids", "kinds", "nodes", "dsts",
            "compressed")
        edges, lens = gather_rows(ptr, order)
        deps = rows[edges]
        owner = np.repeat(np.arange(len(order)), lens)
        # One slot past the rows holds the -1 a dangling target reads.
        inv = np.full(len(target) + 1, -1, dtype=np.intp)
        inv[order] = np.arange(len(order))
        on_op = deps >= 0
        new_deps = deps.copy()
        new_deps[on_op] = inv[target[deps[on_op]]]
        lost = on_op & (new_deps < 0)
        pick = order.tolist()
        old_uids = self.uids
        for k, j in zip(owner[lost].tolist(), deps[lost].tolist()):
            self.dangling.append((old_uids[pick[k]], old_uids[j]))
        if self.dangling:
            alive = set(map(old_uids.__getitem__, pick))
            self.dangling = [(u, d) for u, d in self.dangling if u in alive]
        new_ptr = np.zeros(len(order) + 1, dtype=np.intp)
        np.cumsum(np.bincount(owner[~lost], minlength=len(order)),
                  out=new_ptr[1:])
        self.uids = _ints(uids[order])
        self.kinds = array("b", kinds[order].tobytes())
        self.nodes = _ints(nodes[order])
        self.dsts = _ints(dsts[order])
        self.compressed = bytearray(compressed[order])
        self.labels = [self.labels[i] for i in pick]
        self.nbytes = [self.nbytes[i] for i in pick]
        self.grads = [self.grads[i] for i in pick]
        self.attrs = [self.attrs[i] for i in pick]
        self._set_deps(new_ptr, new_deps[~lost])

    def _set_deps(self, ptr: np.ndarray, rows: np.ndarray) -> None:
        """Install new dependency rows, renumbering the ready refs in
        first-use order (refs no row uses any more are dropped)."""
        refs = rows < 0
        used = -1 - rows[refs]
        first = np.full(len(self.ref_keys), len(used))
        np.minimum.at(first, used, np.arange(len(used)))
        keep = np.argsort(first, kind="stable")[
            :np.count_nonzero(first < len(used))]
        remap = np.empty(len(self.ref_keys), dtype=np.intp)
        remap[keep] = np.arange(len(keep))
        rows = rows.copy()
        rows[refs] = -1 - remap[used]
        self.ref_keys = [self.ref_keys[r] for r in keep.tolist()]
        self._ref_ids = {key: r for r, key in enumerate(self.ref_keys)}
        self.dep_ptr = _ints(ptr)
        self.dep_rows = _ints(rows)
        self._row_of = None
        self._index = None
        self._bind()

    def _bind(self) -> None:
        """Cache the column appends :meth:`add` calls, in its order."""
        self._appends = (
            self.uids.append, self.kinds.append, self.nodes.append,
            self.labels.append, self.nbytes.append, self.compressed.append,
            self.dsts.append, self.grads.append, self.attrs.append,
            self.dep_ptr.append)

    def __getstate__(self) -> Dict[str, Any]:
        # The cached appends are builtin methods, which ``copy.deepcopy``
        # would share with the original instead of copying: a copy
        # rebinds them to its own columns.
        state = self.__dict__.copy()
        del state["_appends"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._bind()

    def _ref_id(self, key: Tuple[int, str]) -> int:
        r = self._ref_ids.get(key)
        if r is None:
            r = self._ref_ids[key] = len(self.ref_keys)
            self.ref_keys.append(key)
        return r

    def _rows_by_uid(self) -> Dict[int, int]:
        row_of = self._row_of = dict(zip(self.uids, range(len(self.uids))))
        return row_of

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        """The number of op rows."""
        return len(self.uids)

    def arrays(self, *names: str) -> Tuple[np.ndarray, ...]:
        """NumPy copies of the named columns (``dep_ptr`` and
        ``dep_rows`` included): ``nbytes`` as floats, ``compressed`` as
        bools, the integer columns in their stored width."""
        return tuple(np.array(getattr(self, name),
                              dtype=_ARRAY_DTYPES.get(name))
                     for name in names)

    def row_of(self, uid: int) -> int:
        """The row of the op with ``uid`` (KeyError when there is none)."""
        row_of = self._row_of
        if row_of is None:
            row_of = self._rows_by_uid()
        return row_of[uid]

    def kind(self, row: int) -> str:
        """The kind name of op ``row`` (a placeholder for a code outside
        :data:`OP_KINDS`, which only a corrupted column holds)."""
        code = self.kinds[row]
        return OP_KINDS[code] if 0 <= code < len(OP_KINDS) else f"?{code}"

    def op(self, row: int) -> Op:
        """Op ``row`` as a read-only :class:`Op` record."""
        if row < 0:
            row += len(self.uids)
        uids = self.uids
        refs = self.ref_keys
        deps: List[Dep] = [
            uids[j] if j >= 0 else ReadyRef(*refs[-1 - j])
            for j in self.dep_rows[self.dep_ptr[row]:self.dep_ptr[row + 1]]]
        uid = uids[row]
        deps += [dep for owner, dep in self.dangling if owner == uid]
        dst = self.dsts[row]
        attrs = self.attrs[row]
        return Op(uid=uid, kind=self.kind(row),
                  node=self.nodes[row], label=self.labels[row],
                  size=SizeExpr(self.nbytes[row], bool(self.compressed[row])),
                  deps=tuple(deps), dst=None if dst < 0 else dst,
                  grad=self.grads[row], attrs=dict(attrs) if attrs else {})

    @property
    def ops(self) -> "_OpRows":
        """The op rows as a read-only sequence of :class:`Op` records,
        each built when read."""
        return _OpRows(self)

    def ops_for(self, gradient: str) -> List[Op]:
        return [self.op(i) for i, grad in enumerate(self.grads)
                if grad == gradient]

    def counts(self) -> Dict[str, int]:
        return {OP_KINDS[code]: count
                for code, count in Counter(self.kinds).items()}

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

        Hashes the columns as they are stored (typed columns as raw
        bytes) instead of JSON-encoding each op.  Digests are only ever
        compared to other digests computed by this same function, never
        pinned.
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
        for column in (self.uids, self.kinds, self.nodes, self.compressed,
                       self.dsts, self.dep_ptr, self.dep_rows):
            h.update(bytes(column))
        h.update(repr((self.labels, self.nbytes,
                       self.grads, self.ref_keys, self.dangling)).encode())
        h.update(repr([(i, sorted(attrs.items()))
                       for i, attrs in enumerate(self.attrs) if attrs]
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
        return {uid: base + i + 1 for i, uid in enumerate(self.uids)}

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
        lines.append(f"ops ({len(self)}): {summary}")
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
                f"ops={len(self)}>")


class _OpRows(Sequence[Op]):
    """:attr:`SyncPlan.ops`: a read-only view building each :class:`Op`
    record when it is read."""

    __slots__ = ("_plan",)

    def __init__(self, plan: SyncPlan) -> None:
        self._plan = plan

    def __len__(self) -> int:
        return len(self._plan)

    def __getitem__(self, i: int) -> Op:  # type: ignore[override]
        if not -len(self) <= i < len(self):
            raise IndexError("op row out of range")
        return self._plan.op(i)
