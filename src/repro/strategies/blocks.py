"""Block expand: a frontend's partition template, laid out over a model.

A CaSync partition is the same few primitives at every gradient: its
ops' kinds, nodes, destinations, sizes and dependency rows depend only
on a small key (the aggregator and codec choice for CaSync-PS, the
chunk's starting node for CaSync-ring), and its labels only on the
partition's own label.  A frontend describes each key's rows once as a
:class:`Template`, :meth:`Blocks.place` lays out one instance per
partition in plan order, and :meth:`Blocks.extend` appends every
instance's rows to the plan in one :meth:`~repro.casync.ir.SyncPlan.extend`
call, offsetting each instance's rows by its first row.
"""

from __future__ import annotations

from array import array
from typing import (Any, Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..casync.ir import OP_KINDS, SyncPlan, gather_rows

__all__ = ["Blocks", "Template"]


class Template:
    """The op rows of one partition, numbered from 0.

    A row's dependencies are earlier rows of the template or ``-1 - w``
    for worker ``w``'s ready ref of the partition's gradient.  Its label
    is ``prefix + partition label + suffix``; its size is the
    partition's (``sized``) or 0.0; ``flag`` names its one attribute
    (set to True), if any.
    """

    def __init__(self) -> None:
        self.kinds: List[int] = []
        self.nodes: List[int] = []
        self.dsts: List[int] = []
        self.sized: List[bool] = []
        self.compressed: List[bool] = []
        self.flags: List[Optional[str]] = []
        self.affixes: List[Tuple[str, str]] = []
        self.dep_counts: List[int] = []
        self.deps: List[int] = []

    def row(self, kind: str, node: int, prefix: str, suffix: str,
            deps: Sequence[int], dst: int = -1, sized: bool = True,
            compressed: bool = False, flag: Optional[str] = None) -> int:
        """Append a row; returns its number (usable as a dependency)."""
        self.kinds.append(OP_KINDS.index(kind))
        self.nodes.append(node)
        self.dsts.append(dst)
        self.sized.append(sized)
        self.compressed.append(compressed)
        self.flags.append(flag)
        self.affixes.append((prefix, suffix))
        self.dep_counts.append(len(deps))
        self.deps.extend(deps)
        return len(self.kinds) - 1

    def ready_order(self) -> List[int]:
        """The workers whose ready refs the rows use, in first-use order."""
        return list(dict.fromkeys(-1 - d for d in self.deps if d < 0))


class Blocks:
    """Template instances, in plan order, for one :meth:`extend`.

    ``template(key)`` builds the template of a key, once per key.
    Every template must use the ready ref of each of the plan's
    workers.
    """

    def __init__(self, plan: SyncPlan,
                 template: Callable[[Any], Template]) -> None:
        self.plan = plan
        self._template = template
        self._ids: Dict[Hashable, int] = {}
        self.templates: List[Template] = []
        # Per instance: its template, its row of ``_refs``, label,
        # gradient and partition size.
        self._of = array("i")
        self._refs_of = array("i")
        self._labels: List[str] = []
        self._grads: List[str] = []
        self._sizes: List[float] = []
        #: Per :meth:`place` call: the ready-ref id of each worker.
        self._refs: List[List[int]] = []

    def place(self, grad: str, size: float, keys: Sequence[Hashable],
              labels: Sequence[str]) -> None:
        """Lay out gradient ``grad``'s next partitions, each of ``size``
        raw bytes: one instance of ``keys[i]``'s template per label
        ``labels[i]``."""
        ids = self._ids
        for key in keys:
            if key not in ids:
                ids[key] = len(self.templates)
                self.templates.append(self._template(key))
        of = [ids[key] for key in keys]
        if not of:
            return
        # The first partition registers the gradient's ready refs, in
        # the order its rows first use them.
        ref_id = self.plan._ref_id
        refs = {w: ref_id((w, grad))
                for w in self.templates[of[0]].ready_order()}
        n = self.plan.num_nodes
        if sorted(refs) != list(range(n)):
            raise ValueError("a template must use every worker's ready ref")
        self._refs.append([refs[w] for w in range(n)])
        k = len(of)
        self._of.extend(of)
        self._refs_of.extend([len(self._refs) - 1] * k)
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

        row_ptr = np.cumsum([0] + [len(t.kinds) for t in templates])
        dep_ptr = np.concatenate(([0], np.cumsum(column("dep_counts"))))
        of = np.frombuffer(self._of, dtype=np.intc)
        rows, counts = gather_rows(row_ptr, of)
        inst = np.repeat(np.arange(len(of)), counts)
        base = np.cumsum(counts) - counts + len(plan)
        entries, dep_counts = gather_rows(dep_ptr, rows)
        rel = column("deps")[entries]
        owner = np.repeat(inst, dep_counts)
        deps = rel + base[owner]
        ready = rel < 0
        refs_of = np.frombuffer(self._refs_of, dtype=np.intc)
        deps[ready] = -1 - np.array(self._refs)[refs_of[owner[ready]],
                                                -1 - rel[ready]]
        del entries, rel, owner, ready, base
        nbytes = np.where(column("sized", bool)[rows],
                          np.array(self._sizes)[inst], 0.0).tolist()
        del inst
        labels: List[str] = []
        grads: List[str] = []
        attrs: List[Optional[Dict[str, object]]] = []
        for t, label, grad in zip(self._of, self._labels, self._grads):
            template = templates[t]
            # ``label.join((prefix, suffix))`` is prefix + label + suffix.
            labels += map(label.join, template.affixes)
            grads += [grad] * len(template.kinds)
            attrs += [None if flag is None else {flag: True}
                      for flag in template.flags]
        plan.extend(column("kinds")[rows], column("nodes")[rows], labels,
                    nbytes, column("compressed", bool)[rows],
                    column("dsts")[rows], grads, attrs, dep_counts, deps)
