"""Block expand: a frontend's instance template, laid out over a model.

Every strategy is the same few primitives at every partition, bucket or
gradient: an instance's ops' kinds, nodes, destinations, sizes and
dependency rows depend only on a small key (the aggregator and codec
choice for CaSync-PS, the chunk's starting node for CaSync-ring, the
server for BytePS, a bucket's gradient count for a ring bucket), its
labels only on the instance's own label, and every row of an instance
touches the instance's buffer region.  A frontend describes each
key's rows once as a :class:`Template`, :meth:`Blocks.place` lays out
one instance per partition in plan order, and :meth:`Blocks.extend`
appends every instance's rows to the plan in one
:meth:`~repro.casync.ir.SyncPlan.extend` call, offsetting each
instance's rows by its first row.
"""

from __future__ import annotations

from array import array
from typing import (Any, Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..casync.ir import FLAG_BIT, OP_KINDS, SyncPlan, gather_rows
from ..models import GradientSpec

__all__ = ["Blocks", "Template", "one_node_barriers"]


class Template:
    """The op rows of one instance, numbered from 0.

    A row's dependencies are earlier rows of the template or ``-1 - s``
    for ready slot ``s``: with ``G`` ready gradients (:meth:`Blocks.place`),
    slot ``w * G + g`` is worker ``w``'s ready ref of gradient ``g`` (so
    slot ``w`` when there is one), and after them the rows of the
    previous instance :meth:`chain` adds.  Its label is ``prefix +
    instance label + suffix``; its size is the instance's (``sized``) or
    0.0; ``flags`` name its flags (:data:`~repro.casync.ir.FLAGS`) and
    ``attrs`` holds its other attributes, if any.
    """

    def __init__(self) -> None:
        self.kinds: List[int] = []
        self.nodes: List[int] = []
        self.dsts: List[int] = []
        self.sized: List[bool] = []
        self.compressed: List[bool] = []
        self.flags: List[int] = []
        self.attrs: List[Optional[Dict[str, object]]] = []
        self.affixes: List[Tuple[str, str]] = []
        self.deps: List[List[int]] = []
        #: Per row: the rows of the previous instance it also waits on.
        self.chained: List[List[int]] = []

    def row(self, kind: str, node: int, prefix: str, suffix: str,
            deps: Sequence[int], dst: int = -1, sized: bool = True,
            compressed: bool = False, flags: Sequence[str] = (),
            attrs: Optional[Dict[str, object]] = None) -> int:
        """Append a row; returns its number (usable as a dependency)."""
        bits = 0
        for flag in flags:
            bits |= FLAG_BIT[flag]
        self.kinds.append(OP_KINDS.index(kind))
        self.nodes.append(node)
        self.dsts.append(dst)
        self.sized.append(sized)
        self.compressed.append(compressed)
        self.flags.append(bits)
        self.attrs.append(attrs)
        self.affixes.append((prefix, suffix))
        self.deps.append(list(deps))
        self.chained.append([])
        return len(self.kinds) - 1

    def chain(self, row: int, prev: int) -> None:
        """Make ``row`` also wait on row ``prev`` of the previous instance
        (which must exist), after its other dependencies."""
        self.chained[row].append(prev)

    def ready_order(self) -> List[int]:
        """The ready slots the rows use, in first-use order."""
        return list(dict.fromkeys(-1 - d for deps in self.deps for d in deps
                                  if d < 0))


class Blocks:
    """Template instances, in plan order, for one :meth:`extend`.

    ``template(key)`` builds the template of a key, once per key.
    Every template must use each of its ready slots.
    """

    def __init__(self, plan: SyncPlan,
                 template: Callable[[Any], Template]) -> None:
        self.plan = plan
        self._template = template
        self._ids: Dict[Hashable, int] = {}
        self.templates: List[Template] = []
        # Per instance: its template, the position of its slot 0 in
        # ``_refs``, region, label, gradient and size.
        self._of = array("i")
        self._ref_at = array("i")
        self._regions = array("i")
        self._labels: List[str] = []
        self._grads: List[Optional[str]] = []
        self._sizes: List[float] = []
        #: Per :meth:`place` call: the ready-ref id of each slot.
        self._refs = array("i")

    def place(self, grad: Optional[str], size: float,
              keys: Sequence[Hashable], labels: Sequence[str],
              regions: Optional[Sequence[int]] = None,
              ready: Optional[Sequence[str]] = None) -> None:
        """Lay out the next instances, each of ``size`` bytes (an int
        stays an int while every placed size is one): one of
        ``keys[i]``'s template per label ``labels[i]``, their rows owned
        by gradient ``grad`` (None: no gradient) and touching its buffer
        region ``regions[i]`` (None: the whole buffer, -1).  Their ready
        slots are the ready refs of the gradients ``ready`` (default:
        ``[grad]``)."""
        ids = self._ids
        for key in keys:
            if key not in ids:
                ids[key] = len(self.templates)
                self.templates.append(self._template(key))
        of = [ids[key] for key in keys]
        if not of:
            return
        if ready is None:
            ready = [grad]  # type: ignore[list-item]
        # The first instance registers the ready refs, in the order its
        # rows first use them.
        g = len(ready)
        ref_id = self.plan._ref_id
        refs = {s: ref_id((s // g, ready[s % g]))
                for s in self.templates[of[0]].ready_order()}
        if sorted(refs) != list(range(self.plan.num_nodes * g)):
            raise ValueError("a template must use every ready slot")
        k = len(of)
        self._of.extend(of)
        self._ref_at.extend([len(self._refs)] * k)
        self._regions.extend([-1] * k if regions is None else regions)
        self._refs.extend(refs[s] for s in range(len(refs)))
        self._labels.extend(labels)
        self._grads.extend([grad] * k)
        self._sizes.extend([size] * k)

    def extend(self) -> None:
        """Append every placed instance's rows to the plan."""
        if not self._of:
            return
        plan = self.plan
        templates = self.templates

        def column(name: str, dtype: Any = np.intp) -> np.ndarray:
            return np.array([v for t in templates for v in getattr(t, name)],
                            dtype=dtype)

        row_deps = [d + c for t in templates
                    for d, c in zip(t.deps, t.chained)]
        lens = list(map(len, row_deps))
        row_ptr = np.cumsum([0] + [len(t.kinds) for t in templates])
        dep_ptr = np.cumsum([0] + lens)
        of = np.frombuffer(self._of, dtype=np.intc)
        rows, counts = gather_rows(row_ptr, of)
        inst = np.repeat(np.arange(len(of)), counts)
        base = np.cumsum(counts) - counts + len(plan)
        entries, dep_counts = gather_rows(dep_ptr, rows)
        rel = np.array([v for d in row_deps for v in d],
                       dtype=np.intp)[entries]
        owner = np.repeat(inst, dep_counts)
        # An entry past its row's own dependencies is chained: a row of
        # the owner's previous instance.
        own = np.repeat([len(d) for t in templates for d in t.deps], lens)
        prev = (np.arange(dep_ptr[-1]) - np.repeat(dep_ptr[:-1], lens)
                >= own)[entries]
        if (prev & (owner == 0)).any():
            raise ValueError("the first instance has no previous instance")
        deps = rel + base[owner - prev]
        ready = rel < 0
        ref_at = np.frombuffer(self._ref_at, dtype=np.intc)
        deps[ready] = -1 - np.frombuffer(self._refs, dtype=np.intc)[
            ref_at[owner[ready]] - 1 - rel[ready]]
        del entries, rel, owner, prev, ready, base
        # Each row gets a size object of its own, as an op-by-op append
        # gave it; warm rounds read the columns measurably faster so.
        sizes = np.array(self._sizes)[inst]
        if sizes.dtype != float:  # int sizes stay ints
            sizes = sizes.astype(object)
        nbytes = np.where(column("sized", bool)[rows], sizes, 0.0).tolist()
        regions = np.frombuffer(self._regions, dtype=np.intc)[inst]
        del inst
        attrs = None
        if any(any(t.attrs) for t in templates):
            attrs = column("attrs", object)[rows].tolist()
        labels: List[str] = []
        grads: List[Optional[str]] = []
        for t, label, grad in zip(self._of, self._labels, self._grads):
            template = templates[t]
            # ``label.join((prefix, suffix))`` is prefix + label + suffix.
            labels += map(label.join, template.affixes)
            grads += [grad] * len(template.kinds)
        plan.extend(column("kinds")[rows], column("nodes")[rows], labels,
                    nbytes, column("compressed", bool)[rows],
                    column("dsts")[rows], grads, attrs, dep_counts, deps,
                    flags=column("flags", np.uint8)[rows], regions=regions)


def one_node_barriers(plan: SyncPlan,
                      gradients: Sequence[GradientSpec]) -> None:
    """A one-node plan's rows: each gradient's ``done:`` barrier, which
    waits only for the gradient to be ready."""
    t = Template()
    t.row("barrier", 0, "done:", "", [-1], sized=False)
    blocks = Blocks(plan, lambda key: t)
    for grad in gradients:
        blocks.place(grad.name, 0.0, [None], [grad.name])
    blocks.extend()
