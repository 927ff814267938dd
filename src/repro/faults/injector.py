"""Fault ground truth and the schedule-replaying injector.

Two layers, deliberately separated:

* :class:`FaultState` -- what is *actually* broken right now (dead nodes,
  partitioned / degraded links, pending transient losses), consulted by
  :class:`~repro.net.fabric.Fabric` on every transfer, plus the
  :class:`TransferLog` that makes byte conservation checkable.
* :class:`FaultInjector` -- a callback state machine that replays a
  :class:`~repro.faults.schedule.FaultSchedule` against the live run:
  flipping FaultState, halting crashed nodes' engines, telling its
  ``on_crash`` hooks (a node's compute pass, the heartbeat detector),
  and throttling straggler GPUs.

The runtime's *belief* about all this lives elsewhere, in
:class:`~repro.faults.membership.Membership` -- peers only learn of a crash
by timing out on it (or via the runner's heartbeat detector).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..sim import URGENT, Environment
from .schedule import (
    FaultEvent,
    FaultSchedule,
    GpuSlowdown,
    LinkDegrade,
    LinkPartition,
    LinkRestore,
    NodeCrash,
    NodeJoin,
    NodeLeave,
    NodeRestart,
    TransientSendFailure,
)

__all__ = ["FaultState", "FaultInjector", "TransferLog", "TransferRecord"]


class TransferRecord:
    """One transfer attempt's lifecycle, for conservation accounting."""

    __slots__ = ("id", "src", "dst", "nbytes", "t_issue", "t_end", "outcome",
                 "cause")

    def __init__(self, rec_id: int, t_issue: float, src: int, dst: int,
                 nbytes: float):
        self.id = rec_id
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.t_issue = t_issue
        self.t_end: Optional[float] = None
        self.outcome: Optional[str] = None  # "delivered" | "dropped"
        self.cause: Optional[str] = None

    def deliver(self, at: float) -> None:
        self._finish(at, "delivered", None)

    def drop(self, at: float, cause: str) -> None:
        self._finish(at, "dropped", cause)

    def _finish(self, at: float, outcome: str, cause: Optional[str]) -> None:
        if self.outcome is not None:
            raise RuntimeError(f"transfer record {self.id} finished twice")
        self.t_end = at
        self.outcome = outcome
        self.cause = cause

    def __repr__(self) -> str:
        state = self.outcome or "in-flight"
        return (f"<Transfer#{self.id} {self.src}->{self.dst} "
                f"{self.nbytes:.0f}B {state}>")


class TransferLog:
    """Every transfer attempt with its outcome: the conservation ledger."""

    def __init__(self):
        self.records: List[TransferRecord] = []

    def begin(self, t: float, src: int, dst: int, nbytes: float
              ) -> TransferRecord:
        rec = TransferRecord(len(self.records), t, src, dst, nbytes)
        self.records.append(rec)
        return rec

    def __len__(self) -> int:
        return len(self.records)

    @property
    def attempted_bytes(self) -> float:
        return sum(r.nbytes for r in self.records)

    @property
    def delivered_bytes(self) -> float:
        return sum(r.nbytes for r in self.records if r.outcome == "delivered")

    @property
    def dropped_bytes(self) -> float:
        return sum(r.nbytes for r in self.records if r.outcome == "dropped")

    def dropped(self, cause: Optional[str] = None) -> List[TransferRecord]:
        return [r for r in self.records if r.outcome == "dropped"
                and (cause is None or r.cause == cause)]

    def in_flight(self) -> List[TransferRecord]:
        return [r for r in self.records if r.outcome is None]


class FaultState:
    """Ground truth of cluster health, consulted by the fabric per transfer."""

    def __init__(self, env: Environment, num_nodes: int):
        self.env = env
        self.num_nodes = num_nodes
        self.dead: Set[int] = set()
        self.degraded: Dict[Tuple[int, int], float] = {}
        self.partitioned: Set[Tuple[int, int]] = set()
        self.transient: Dict[Tuple[int, int], int] = {}
        self.log = TransferLog()
        #: (time, event) pairs in application order, for invariant checks.
        self.applied: List[Tuple[float, FaultEvent]] = []
        #: The callbacks waiting for each blocked (src, dst) link.
        self._wait: Dict[Tuple[int, int], List[Callable[[], None]]] = {}

    # -- queries (fabric-facing) ------------------------------------------

    def is_dead(self, node: int) -> bool:
        return node in self.dead

    def blocked(self, src: int, dst: int) -> bool:
        """A (src, dst) transfer cannot make progress right now."""
        return (src, dst) in self.partitioned or dst in self.dead

    def link_factor(self, src: int, dst: int) -> float:
        return self.degraded.get((src, dst), 1.0)

    def take_transient(self, src: int, dst: int) -> bool:
        """Consume one pending transient failure on (src, dst), if any."""
        remaining = self.transient.get((src, dst), 0)
        if remaining <= 0:
            return False
        if remaining == 1:
            del self.transient[(src, dst)]
        else:
            self.transient[(src, dst)] = remaining - 1
        return True

    def on_unblocked(self, src: int, dst: int,
                     callback: Callable[[], None]) -> None:
        """Call ``callback()`` once (src, dst) might be unblocked; re-check
        then.  A restart or restore that may unblock the link pushes one
        entry at ``(now, NORMAL)``, which runs its callbacks in order."""
        self._wait.setdefault((src, dst), []).append(callback)

    def _wake(self, key: Tuple[int, int]) -> None:
        self.env.call_later(0.0, _run_all, self._wait.pop(key))

    # -- mutations (injector-facing) --------------------------------------

    def crash(self, node: int) -> None:
        self.dead.add(node)

    def restart(self, node: int) -> None:
        self.dead.discard(node)
        for key in [k for k in self._wait if k[1] == node]:
            self._wake(key)

    def degrade(self, src: int, dst: int, factor: float) -> None:
        if factor == 1.0:
            self.degraded.pop((src, dst), None)
        else:
            self.degraded[(src, dst)] = factor

    def partition(self, src: int, dst: int) -> None:
        self.partitioned.add((src, dst))

    def restore(self, src: int, dst: int) -> None:
        self.partitioned.discard((src, dst))
        self.degraded.pop((src, dst), None)
        if (src, dst) in self._wait:
            self._wake((src, dst))

    def add_transient(self, src: int, dst: int, count: int) -> None:
        self.transient[(src, dst)] = self.transient.get((src, dst), 0) + count


def _run_all(callbacks: List[Callable[[], None]]) -> None:
    for callback in callbacks:
        callback()


class FaultInjector:
    """Replays a :class:`FaultSchedule` against a live simulation.

    Attach everything the schedule can touch: the fabric (link faults and
    the conservation log), the GPU list (stragglers), the engines (crash
    halts execution), and, through :meth:`on_crash`, anything else that
    must die with its node (a node's compute pass).

    The replay is a callback state machine: a start hop at
    ``(now, URGENT)``, then one agenda entry per wait for the next fault.
    """

    def __init__(self, env: Environment, schedule: FaultSchedule,
                 fabric: Optional[Any] = None,
                 gpus: Optional[Sequence[Any]] = None,
                 engines: Optional[Sequence[Any]] = None,
                 num_nodes: Optional[int] = None):
        if num_nodes is None:
            if fabric is not None:
                num_nodes = fabric.num_nodes
            elif gpus:
                num_nodes = len(gpus)
            else:
                raise ValueError("pass num_nodes when no fabric/gpus given")
        schedule.validate_for(num_nodes)
        for event in schedule:
            if isinstance(event, (NodeJoin, NodeLeave)):
                # Membership events live on the epoch axis and belong to
                # the elastic loop (repro.faults.elastic / the training
                # layer), which lowers mid-epoch departures to NodeCrash
                # before any injector sees them.
                raise ValueError(
                    f"{type(event).__name__} is a membership event, not a "
                    f"fault: drive it through a MembershipSchedule "
                    f"(repro.faults.elastic), not a FaultInjector")
        self.env = env
        self.schedule = schedule
        self.state = FaultState(env, num_nodes)
        self.fabric = fabric
        self.gpus = list(gpus) if gpus is not None else []
        self.engines = list(engines) if engines is not None else []
        self._on_crash: List[Callable[[int], None]] = []
        self._slowdown_token: Dict[int, int] = {}
        if fabric is not None:
            fabric.faults = self.state
        if schedule:
            env.call_later(0.0, self._start, None, URGENT)

    # -- wiring -----------------------------------------------------------

    def on_crash(self, callback: Callable[[int], None]) -> None:
        """Called with the node id at each ground-truth crash, in
        registration order (the hook a node's compute pass and the robust
        runner's heartbeat failure detector use)."""
        self._on_crash.append(callback)

    # -- replay -----------------------------------------------------------

    def _start(self, _value: None) -> None:
        self._replay_from(0)

    def _due(self, index: int) -> None:
        self._apply(self.schedule.events[index])
        self._replay_from(index + 1)

    def _replay_from(self, index: int) -> None:
        """Apply the faults from ``index`` on that are due now; wait for
        the first one that is not."""
        events = self.schedule.events
        for i in range(index, len(events)):
            delay = events[i].at - self.env.now
            if delay > 0:
                self.env.call_later(delay, self._due, i)
                return
            self._apply(events[i])

    def _apply(self, event: FaultEvent) -> None:
        self.state.applied.append((self.env.now, event))
        tel = self.env.telemetry
        if tel is not None:
            from dataclasses import asdict
            attrs = asdict(event)
            attrs.pop("at", None)   # collides with the instant's own `at`
            tel.instant(type(event).__name__, category="fault",
                        track="faults", at=self.env.now, **attrs)
            tel.metrics.counter("faults.injected",
                                kind=type(event).__name__).inc()
        if isinstance(event, NodeCrash):
            self._apply_crash(event.node)
        elif isinstance(event, NodeRestart):
            self.state.restart(event.node)
            if event.node < len(self.engines):
                engine = self.engines[event.node]
                if engine is not None and getattr(engine, "halted", False):
                    engine.resume()
        elif isinstance(event, LinkDegrade):
            self.state.degrade(event.src, event.dst, event.factor)
        elif isinstance(event, LinkPartition):
            self.state.partition(event.src, event.dst)
        elif isinstance(event, LinkRestore):
            self.state.restore(event.src, event.dst)
        elif isinstance(event, TransientSendFailure):
            self.state.add_transient(event.src, event.dst, event.count)
        elif isinstance(event, GpuSlowdown):
            self._apply_slowdown(event)
        else:  # pragma: no cover - schedule validation prevents this
            raise TypeError(f"unknown fault event {event!r}")

    def _apply_crash(self, node: int) -> None:
        if self.state.is_dead(node):
            return
        self.state.crash(node)
        if node < len(self.engines) and self.engines[node] is not None:
            halt = getattr(self.engines[node], "halt", None)
            if halt is not None:
                halt()
        for callback in list(self._on_crash):
            callback(node)

    def _apply_slowdown(self, event: GpuSlowdown) -> None:
        if event.node >= len(self.gpus):
            return
        gpu = self.gpus[event.node]
        token = self._slowdown_token.get(event.node, 0) + 1
        self._slowdown_token[event.node] = token
        gpu.slowdown = event.factor
        if event.duration is not None:
            # The restore's start hop, then its timer.
            self.env.call_later(0.0, self._start_restore,
                                (event.duration, event.node, token), URGENT)

    def _start_restore(self, restore: Tuple[float, int, int]) -> None:
        duration, node, token = restore
        self.env.call_later(duration, self._restore, (node, token))

    def _restore(self, restore: Tuple[int, int]) -> None:
        node, token = restore
        # A newer slowdown supersedes this restore.
        if self._slowdown_token.get(node) == token:
            self.gpus[node].slowdown = 1.0
