"""Cluster membership: the *runtime's* view of who is alive.

Ground truth (the :class:`~repro.faults.injector.FaultState`) knows exactly
when a node crashed; real systems do not.  Peers only learn about a death
by timing out on it, which is exactly how this membership service is fed:
the retry layer calls :meth:`declare_dead` after exhausting its attempts.

Membership also owns the *re-plan route*: once ``d`` is declared dead,
``route(d)`` names the surviving node that takes over ``d``'s aggregation
duties (deterministically: the next live rank after ``d``, wrapping).  All
of the graceful-degradation machinery keys off this one mapping.
"""

from __future__ import annotations

from typing import Callable, List, Set, Tuple

__all__ = ["Membership"]


class Membership:
    """Live-node tracking plus deterministic dead-node substitution."""

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_nodes = num_nodes
        self._dead: Set[int] = set()
        self._suspected: Set[int] = set()
        self._on_death: List[Callable[[int], None]] = []

    # -- queries ----------------------------------------------------------

    def is_alive(self, node: int) -> bool:
        return node not in self._dead

    def alive(self) -> Tuple[int, ...]:
        return tuple(n for n in range(self.num_nodes) if n not in self._dead)

    def dead(self) -> Tuple[int, ...]:
        return tuple(sorted(self._dead))

    def suspected(self) -> Tuple[int, ...]:
        return tuple(sorted(self._suspected - self._dead))

    def route(self, node: int) -> int:
        """The node now responsible for ``node``'s duties.

        A live node routes to itself; a dead node routes to the next live
        rank after it (wrapping), chased transitively so cascading deaths
        still converge.  Raises when every node is dead.
        """
        if node not in self._dead:
            return node
        if len(self._dead) >= self.num_nodes:
            raise RuntimeError("every node is dead; nothing to route to")
        candidate = (node + 1) % self.num_nodes
        while candidate in self._dead:
            candidate = (candidate + 1) % self.num_nodes
        return candidate

    # -- state transitions -------------------------------------------------

    def suspect(self, node: int) -> None:
        """Mark ``node`` as suspicious (some retry failed, not yet fatal)."""
        self._check(node)
        self._suspected.add(node)

    def declare_dead(self, node: int) -> bool:
        """Declare ``node`` dead; returns True on the *first* declaration.

        Idempotent: concurrent senders all exhausting retries on the same
        peer trigger the death callbacks exactly once.
        """
        self._check(node)
        if node in self._dead:
            return False
        self._dead.add(node)
        self._suspected.discard(node)
        for callback in list(self._on_death):
            callback(node)
        return True

    def on_death(self, callback: Callable[[int], None]) -> None:
        """Register a callback invoked once per newly declared death."""
        self._on_death.append(callback)

    def clear_callbacks(self) -> None:
        """Drop every death callback once the round using them settled.

        The degradation controller's callback reaches this membership
        again through the engines it re-plans, so keeping it would hold
        the round's task graph in a reference cycle.
        """
        self._on_death.clear()

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside [0, {self.num_nodes})")

    def __repr__(self) -> str:
        return (f"<Membership {len(self.alive())}/{self.num_nodes} alive, "
                f"dead={sorted(self._dead)}>")
