"""Typed exceptions for the fault-injection subsystem.

The contract the robustness machinery gives every caller: a synchronization
round either completes (possibly degraded, over the surviving workers) or
raises :class:`SyncAborted` -- it never hangs past its deadline and never
dies with an anonymous error.
"""

from __future__ import annotations

from typing import Optional, Tuple

__all__ = ["FaultError", "TransferError", "PeerDeadError", "SyncAborted",
           "DeadlineExceeded"]


class FaultError(Exception):
    """Base class for every injected-fault consequence."""


class TransferError(FaultError):
    """A point-to-point transfer failed (transient fault, partition, crash).

    The fabric hands it to :meth:`~repro.net.fabric.Fabric.issue`'s
    ``on_fail`` with the message's TransferLog drop cause as ``cause``.
    """

    def __init__(self, src: int, dst: int, nbytes: float, cause: str):
        super().__init__(f"transfer {src}->{dst} ({nbytes:.0f} B) failed: {cause}")
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.cause = cause


class PeerDeadError(TransferError):
    """Retries exhausted: the peer has been declared dead."""

    def __init__(self, src: int, dst: int, nbytes: float, attempts: int):
        super().__init__(src, dst, nbytes,
                         f"peer declared dead after {attempts} attempts")
        self.attempts = attempts


class SyncAborted(FaultError):
    """A synchronization round could not be completed.

    Carries enough context for chaos-testing harnesses to assert on *why*:
    the simulated time of the abort, the first underlying fault error (if
    any), and the tasks still unfinished.
    """

    def __init__(self, reason: str, at: float,
                 cause: Optional[BaseException] = None,
                 unfinished: Tuple[str, ...] = ()):
        detail = f"sync aborted at t={at:.6f}s: {reason}"
        if unfinished:
            shown = ", ".join(unfinished[:5])
            more = len(unfinished) - 5
            detail += f" ({len(unfinished)} unfinished: {shown}"
            detail += f", +{more} more)" if more > 0 else ")"
        super().__init__(detail)
        self.reason = reason
        self.at = at
        self.cause = cause
        self.unfinished = unfinished


class DeadlineExceeded(SyncAborted):
    """The round's wall-clock (simulated) deadline passed before completion."""

    def __init__(self, deadline: float, at: float,
                 unfinished: Tuple[str, ...] = ()):
        super().__init__(f"deadline {deadline:.6f}s exceeded", at,
                         unfinished=unfinished)
        self.deadline = deadline
