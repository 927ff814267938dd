"""Invariant checks over completed (or aborted) simulation traces.

These are the safety properties every fault-injection test asserts, no
matter which strategy or schedule ran:

1. **Byte conservation** -- every byte handed to the fabric was either
   delivered or explicitly dropped by a recorded fault cause; nothing
   vanishes and nothing is double-counted.
2. **Exactly-once completion** -- every task in the graph completed
   exactly once (the ledger has one record per task id), and a successful
   round completed *every* task.
3. **Monotone clocks** -- no transfer or task finishes before it starts,
   faults apply in schedule order, and the completion ledger is
   non-decreasing in time.
4. **Drain-or-raise** -- the simulator either drained past the round
   (finish time is a real timestamp) or raised a typed abort; a report
   can never be both finished and aborted.

Each check raises :class:`InvariantViolation` with a precise message;
:func:`check_all` runs the full battery.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Optional

__all__ = ["InvariantViolation", "check_byte_conservation",
           "check_exactly_once", "check_monotone_clocks",
           "check_drain_or_raise", "check_all"]

#: Drop causes the fault model is allowed to emit.  Anything else in the
#: ledger means the accounting itself has a bug.
KNOWN_DROP_CAUSES = frozenset(
    {"src-dead", "dst-dead", "transient", "abandoned"})


class InvariantViolation(AssertionError):
    """A safety property of the simulation was violated."""


def check_byte_conservation(log: Any, allow_in_flight: bool = False) -> None:
    """attempted == delivered + dropped (+ in-flight only on aborts)."""
    in_flight = log.in_flight()
    if in_flight and not allow_in_flight:
        raise InvariantViolation(
            f"{len(in_flight)} transfers neither delivered nor dropped: "
            f"{in_flight[:5]}")
    in_flight_bytes = sum(r.nbytes for r in in_flight)
    total = log.delivered_bytes + log.dropped_bytes + in_flight_bytes
    if abs(total - log.attempted_bytes) > 1e-6 * max(1.0, log.attempted_bytes):
        raise InvariantViolation(
            f"byte conservation broken: attempted {log.attempted_bytes} != "
            f"delivered {log.delivered_bytes} + dropped {log.dropped_bytes}"
            f" + in-flight {in_flight_bytes}")
    for rec in log.records:
        if rec.outcome == "dropped" and rec.cause not in KNOWN_DROP_CAUSES:
            raise InvariantViolation(
                f"transfer {rec!r} dropped with unrecorded cause {rec.cause!r}")
        if rec.outcome is not None and rec.t_end is None:
            raise InvariantViolation(f"{rec!r} finished without a timestamp")


def check_exactly_once(report: Any, graph: Any) -> None:
    """One completion record per task; a clean round completes them all."""
    counts = Counter(rec.task_id for rec in report.completions)
    duplicated = [tid for tid, n in counts.items() if n > 1]
    if duplicated:
        raise InvariantViolation(
            f"tasks completed more than once: {sorted(duplicated)[:10]}")
    if not report.aborted:
        graph_ids = set(range(graph.num_tasks))
        missing = graph_ids - set(counts)
        if missing:
            raise InvariantViolation(
                f"round finished but {len(missing)} tasks never completed: "
                f"{sorted(missing)[:10]}")
        extra = set(counts) - graph_ids
        if extra:
            raise InvariantViolation(
                f"completions for tasks not in the graph: {sorted(extra)[:10]}")


def check_monotone_clocks(report: Any, log: Optional[Any] = None,
                          applied: Iterable = ()) -> None:
    """Time never runs backwards anywhere in the trace."""
    last = 0.0
    for rec in report.completions:
        if rec.at < last - 1e-12:
            raise InvariantViolation(
                f"completion ledger goes backwards at task {rec.task_id}: "
                f"{rec.at} < {last}")
        last = max(last, rec.at)
    if report.finish_time + 1e-12 < last:
        raise InvariantViolation(
            f"finish time {report.finish_time} precedes last completion {last}")
    if log is not None:
        for rec in log.records:
            if rec.t_end is not None and rec.t_end + 1e-12 < rec.t_issue:
                raise InvariantViolation(
                    f"{rec!r} finished at {rec.t_end} before issue "
                    f"{rec.t_issue}")
    last_fault = 0.0
    for at, event in applied:
        if at + 1e-12 < last_fault:
            raise InvariantViolation(
                f"fault {event!r} applied at {at} after one at {last_fault}")
        if at + 1e-12 < event.at:
            raise InvariantViolation(
                f"fault {event!r} applied at {at}, before its scheduled "
                f"time {event.at}")
        last_fault = max(last_fault, at)


def check_drain_or_raise(report: Any) -> None:
    """A report is finished XOR aborted, never a hung in-between."""
    if report.aborted and not report.abort_reason:
        raise InvariantViolation("aborted report carries no reason")
    if not report.aborted and report.finish_time < 0:
        raise InvariantViolation(
            f"clean report with impossible finish time {report.finish_time}")


def check_all(report: Any, graph: Optional[Any] = None,
              state: Optional[Any] = None) -> None:
    """Run the full invariant battery over one robust round.

    ``state`` is the injector's :class:`~repro.faults.injector.FaultState`
    (for the transfer ledger and the applied-fault record); both it and
    ``graph`` default to the copies the runner attached to the report.
    """
    if graph is None:
        graph = getattr(report, "graph", None)
    if state is None:
        state = getattr(report, "state", None)
    check_drain_or_raise(report)
    if graph is not None:
        check_exactly_once(report, graph)
    log = getattr(state, "log", None) if state is not None else None
    applied = getattr(state, "applied", ()) if state is not None else ()
    check_monotone_clocks(report, log=log, applied=applied)
    if log is not None:
        check_byte_conservation(log, allow_in_flight=report.aborted)
