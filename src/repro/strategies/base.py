"""Strategy framework: the per-iteration context and the IR-frontend base.

A :class:`Strategy` turns (model, cluster, algorithm) into a
:class:`~repro.casync.tasks.TaskGraph` for one training iteration by
emitting a :class:`~repro.casync.ir.SyncPlan` that the pass pipeline
rewrites and :mod:`repro.casync.lower` costs and instantiates.  The
graph's sources are per-(node, gradient) *ready refs*, which the
simulated backward pass fires on the graph
(:meth:`~repro.casync.tasks.TaskGraph.make_ready`); its sinks mark each
node's view of "all gradients synchronized".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..algorithms.base import CompressionAlgorithm
from ..casync import lower
from ..casync.decisions import DecisionMap
from ..casync.ir import SyncPlan
from ..casync.passes import MembershipPass, Pass, PassContext
from ..casync.tasks import TaskGraph
from ..cluster import ClusterSpec
from ..models import ModelSpec
from ..sim import Environment

__all__ = ["MembershipBound", "SyncContext", "Strategy", "bind_roster"]


@dataclass
class SyncContext:
    """Everything a strategy needs to build one iteration's task graph."""

    env: Environment
    cluster: ClusterSpec
    algorithm: Optional[CompressionAlgorithm] = None
    #: This iteration's adaptive per-gradient decisions (None = static
    #: path); consumed by :class:`~repro.casync.passes.AdaptivePass` and
    #: content-keyed into the graph cache.
    decisions: Optional[DecisionMap] = None


class Strategy(ABC):
    """A gradient synchronization strategy.

    Strategies are IR frontends: :meth:`expand` emits the structural
    :class:`~repro.casync.ir.SyncPlan` ops for one iteration, and
    :meth:`passes` names the CaSync optimizations to apply to it.
    :meth:`build` runs the whole pipeline -- directive passes,
    expansion, op passes, verification, lowering -- through the graph
    cache (:func:`repro.casync.lower.build_graph`) and returns a
    TaskGraph whose completion means every node has the fully aggregated
    value of every gradient of ``model``.
    """

    name: str = "strategy"
    #: Whether this strategy compresses gradients.
    compression: bool = False

    @abstractmethod
    def expand(self, plan: SyncPlan, pctx: PassContext,
               model: ModelSpec) -> None:
        """Emit this strategy's ops into ``plan`` (after directive passes).

        Must only consult ``pctx`` (cluster/algorithm/decisions) and the
        plan's directives -- never a live Environment -- so expansion stays
        deterministic and cacheable.
        """

    def passes(self) -> List[Pass]:
        """Optimization passes to run over the plan (verify is implicit)."""
        return []

    def cache_token(self) -> tuple:
        """Hashable configuration identity for the graph cache.

        The default captures every scalar (or scalar-tuple) constructor
        attribute, which covers all built-in strategies; override for
        exotic state.
        """
        try:
            attrs = vars(self)
        except TypeError:
            return ()

        def scalar(v):
            return isinstance(v, (bool, int, float, str))

        return tuple((k, v) for k, v in sorted(attrs.items())
                     if scalar(v) or (isinstance(v, tuple)
                                      and all(scalar(x) for x in v)))

    def build(self, ctx: SyncContext, model: ModelSpec) -> TaskGraph:
        """Construct the task graph for one iteration (via the IR pipeline)."""
        return lower.build_graph(self, ctx, model)

    def __repr__(self) -> str:
        return f"<Strategy {self.name}>"


class MembershipBound(Strategy):
    """A strategy bound to one elastic epoch's roster.

    Elastic training re-plans at every roster change instead of reusing
    (and crashing, or silently mis-sizing) the previous epoch's graph.
    This wrapper is how: it delegates expansion and configuration to the
    wrapped strategy -- so ``ring`` stays ``ring`` -- and appends a
    :class:`~repro.casync.passes.MembershipPass` to the pipeline, which
    validates the plan against the roster and keys the graph cache per
    (roster, epoch).  Because the wrapped strategy's ``cache_token`` and
    pass list are folded in unchanged, a bound strategy over the full
    static roster lowers to the *identical* task graph (the golden no-op
    guarantee); only the cache key gains the membership component.
    """

    def __init__(self, inner: Strategy, membership: Pass) -> None:
        self.inner = inner
        self.membership = membership
        #: Delegated identity: the graph cache and the experiment tables
        #: see the wrapped strategy's name/compression flags.
        self.name = inner.name
        self.compression = inner.compression

    def expand(self, plan: SyncPlan, pctx: PassContext,
               model: ModelSpec) -> None:
        self.inner.expand(plan, pctx, model)

    def passes(self) -> List[Pass]:
        return list(self.inner.passes()) + [self.membership]

    def cache_token(self) -> tuple:
        return self.inner.cache_token()

    def __repr__(self) -> str:
        return f"<Strategy {self.name} bound to {self.membership!r}>"


def bind_roster(strategy: Strategy, roster: Sequence[int],
                epoch: int = 0) -> MembershipBound:
    """Bind ``strategy`` to the given member nodes for ``epoch``."""
    return MembershipBound(strategy,
                           MembershipPass(roster=roster, epoch=epoch))
