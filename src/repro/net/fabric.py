"""Network fabric model: full-duplex NICs and point-to-point transfers.

The model generalizes the assumptions the paper's cost analysis (§3.3) is
built on: every node has a full-duplex NIC whose two directions are
independent resources (Ring-allreduce exploits exactly this: each node
sends to its successor while receiving from its predecessor), and sending
an ``m``-byte message costs ``latency + m / bandwidth``.  The paper's
clusters are *uniform* -- one scalar bandwidth for every NIC -- but a
:class:`NetworkSpec` can additionally carry per-NIC capacity profiles:

* :class:`StragglerProfile` -- a deterministically seeded distribution of
  per-node bandwidth multipliers (a fraction of nodes degraded by a
  severity divisor, plus optional jitter on every node);
* :class:`WanTier` -- a deterministically seeded subset of nodes sitting
  behind WAN-grade links: asymmetric up/down bandwidth and millisecond
  latency, the geo-distributed / edge-training regime.

The resolved capacity of node ``i``'s NIC is its :class:`LinkSpec`
(``spec.links(num_nodes)[i]``).  A uniform spec resolves every node to
the same link, and every code path below is bit-identical to the scalar
model in that case.

Contention is modelled by serializing transfers per NIC direction: a
transfer holds the sender's *uplink* at the sender's uplink rate and the
receiver's *downlink* at the receiver's downlink rate.  Wire latency (the
slower endpoint's) is added after serialization and does not occupy
either endpoint, so back-to-back messages pipeline.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..sim import Environment

__all__ = ["LinkSpec", "NetworkSpec", "Nic", "Fabric", "StragglerProfile",
           "TransferStats", "WanTier"]


@dataclass(frozen=True)
class LinkSpec:
    """Resolved capacity of one node's NIC: per-direction rate + latency."""

    up_bytes_per_s: float
    down_bytes_per_s: float
    latency_s: float

    def __post_init__(self) -> None:
        if self.up_bytes_per_s <= 0 or self.down_bytes_per_s <= 0:
            raise ValueError(
                f"link rates must be positive, got "
                f"{self.up_bytes_per_s}/{self.down_bytes_per_s}")
        if self.latency_s < 0:
            raise ValueError(
                f"link latency must be non-negative, got {self.latency_s}")

    @property
    def bottleneck_bytes_per_s(self) -> float:
        """The slower of the two directions."""
        return min(self.up_bytes_per_s, self.down_bytes_per_s)

    def transfer_time(self, nbytes: float) -> float:
        """Uncontended time to move ``nbytes`` through this link's
        slower direction."""
        return self.latency_s + nbytes / self.bottleneck_bytes_per_s


def _profile_rng(tag: str, seed: int, num_nodes: int) -> np.random.Generator:
    """Seeded RNG for a per-node profile draw.

    crc32 (not ``hash()``) keys the generator because str hashing is
    PYTHONHASHSEED-salted; the draw is a pure function of
    ``(tag, seed, num_nodes)``, so profiles resolve identically across
    processes and runs.
    """
    key = f"{tag}:{seed}:{num_nodes}"
    return np.random.default_rng(zlib.crc32(key.encode("utf-8")))


@dataclass(frozen=True)
class StragglerProfile:
    """Deterministic per-node bandwidth-multiplier distribution.

    ``fraction`` of the nodes (chosen by a seeded permutation) have both
    NIC directions slowed by ``severity``; ``jitter`` additionally scales
    *every* node's bandwidth by a uniform draw from ``[1 - jitter, 1)``,
    modelling the background contention real multi-tenant fabrics show.
    ``multipliers(num_nodes)`` is a pure function of
    ``(seed, num_nodes)`` -- same cluster size, same stragglers.
    """

    fraction: float = 0.125
    severity: float = 4.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.fraction <= 1:
            raise ValueError(
                f"straggler fraction must be in [0, 1], got {self.fraction}")
        if self.severity < 1:
            raise ValueError(
                f"straggler severity must be >= 1, got {self.severity}")
        if not 0 <= self.jitter < 1:
            raise ValueError(
                f"straggler jitter must be in [0, 1), got {self.jitter}")

    def count(self, num_nodes: int) -> int:
        """How many nodes are degraded at scale ``num_nodes``."""
        if self.fraction == 0 or self.severity == 1:
            return 0
        return max(1, int(round(self.fraction * num_nodes)))

    def multipliers(self, num_nodes: int) -> Tuple[float, ...]:
        """Per-node bandwidth multipliers in ``(0, 1]``, deterministic."""
        rng = _profile_rng("straggler", self.seed, num_nodes)
        mult = np.ones(num_nodes, dtype=np.float64)
        picks = rng.permutation(num_nodes)[:self.count(num_nodes)]
        mult[picks] = 1.0 / self.severity
        if self.jitter:
            mult *= 1.0 - self.jitter * rng.random(num_nodes)
        return tuple(float(m) for m in mult)


@dataclass(frozen=True)
class WanTier:
    """A deterministically chosen subset of nodes behind WAN-grade links.

    Members keep their node identity but their NIC is replaced by an
    *asymmetric* link -- edge uplinks are typically far narrower than
    downlinks -- with millisecond-class one-way latency.  ``up_gbps`` /
    ``down_gbps`` are line rates; the owning :class:`NetworkSpec`'s
    ``efficiency`` applies to them like to the core links.
    """

    fraction: float = 0.25
    up_gbps: float = 1.0
    down_gbps: float = 4.0
    latency_us: float = 20_000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1:
            raise ValueError(
                f"WAN fraction must be in (0, 1], got {self.fraction}")
        if self.up_gbps <= 0 or self.down_gbps <= 0:
            raise ValueError(
                f"WAN rates must be positive, got "
                f"{self.up_gbps}/{self.down_gbps}")
        if self.latency_us < 0:
            raise ValueError(
                f"WAN latency must be non-negative, got {self.latency_us}")

    def members(self, num_nodes: int) -> Tuple[int, ...]:
        """The WAN-resident node indices, deterministic in
        ``(seed, num_nodes)`` and sorted."""
        count = min(num_nodes, max(1, int(round(self.fraction * num_nodes))))
        rng = _profile_rng("wan", self.seed, num_nodes)
        picks = rng.permutation(num_nodes)[:count]
        return tuple(sorted(int(p) for p in picks))


@dataclass(frozen=True)
class NetworkSpec:
    """Capacity of the inter-node network.

    bandwidth_gbps: per-direction NIC bandwidth in Gigabits/s (marketing
        units, e.g. 100 for the paper's EC2 cluster).
    latency_us: one-way wire latency in microseconds.
    efficiency: achievable fraction of line rate (protocol overheads);
        RDMA fabrics typically reach ~0.9.
    straggler: optional per-node bandwidth-multiplier distribution
        (None = every NIC at full rate).
    wan: optional WAN tier (None = all nodes on the core network).
    link_overrides: optional explicit per-node :class:`LinkSpec` tuple.
        Profiles resolve links as a seeded function of ``num_nodes`` and
        node *index*, so renumbering a roster subset would scramble who
        is slow; an elastic sub-cluster (``ClusterSpec.subset``) instead
        freezes each surviving node's already-resolved link here,
        preserving per-node identity across epochs.  When set it *is*
        the link table: profiles are ignored and ``links(n)`` demands
        ``n == len(link_overrides)``.

    With both profiles and the override None the spec is *uniform* and
    every consumer is bit-identical to the pre-heterogeneity scalar
    model.
    """

    bandwidth_gbps: float
    latency_us: float = 5.0
    efficiency: float = 0.9
    straggler: Optional[StragglerProfile] = None
    wan: Optional[WanTier] = None
    link_overrides: Optional[Tuple[LinkSpec, ...]] = None

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_gbps}")
        if self.latency_us < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency_us}")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.link_overrides is not None:
            links = tuple(self.link_overrides)
            if not links:
                raise ValueError("link_overrides may not be empty")
            for link in links:
                if not isinstance(link, LinkSpec):
                    raise TypeError(
                        f"link_overrides entries must be LinkSpec, "
                        f"got {link!r}")
            object.__setattr__(self, "link_overrides", links)

    @property
    def bytes_per_second(self) -> float:
        """Effective payload bandwidth in bytes/s per direction (the
        *core* rate; per-node profiles modify it -- see :meth:`links`)."""
        return self.bandwidth_gbps * 1e9 / 8 * self.efficiency

    @property
    def latency_s(self) -> float:
        return self.latency_us * 1e-6

    @property
    def is_uniform(self) -> bool:
        """True when every NIC resolves to the same :class:`LinkSpec`."""
        return (self.straggler is None and self.wan is None
                and self.link_overrides is None)

    def links(self, num_nodes: int) -> Tuple[LinkSpec, ...]:
        """Resolve every node's NIC capacity at scale ``num_nodes``.

        Pure in ``(self, num_nodes)``: profile membership and multipliers
        come from seeded draws, so the same spec resolves to the same
        links in every process.  WAN links replace the core rate/latency
        outright; straggler multipliers then apply to whatever rate the
        node ended up with (a WAN node can also be a straggler).  An
        explicit ``link_overrides`` table short-circuits resolution.
        """
        if self.link_overrides is not None:
            if num_nodes != len(self.link_overrides):
                raise ValueError(
                    f"spec pins {len(self.link_overrides)} per-node links "
                    f"but was resolved for {num_nodes} nodes")
            return self.link_overrides
        base = self.bytes_per_second
        lat = self.latency_s
        if self.is_uniform:
            link = LinkSpec(base, base, lat)
            return (link,) * num_nodes
        up = [base] * num_nodes
        down = [base] * num_nodes
        latency = [lat] * num_nodes
        if self.wan is not None:
            wan_up = self.wan.up_gbps * 1e9 / 8 * self.efficiency
            wan_down = self.wan.down_gbps * 1e9 / 8 * self.efficiency
            wan_lat = self.wan.latency_us * 1e-6
            for member in self.wan.members(num_nodes):
                up[member] = wan_up
                down[member] = wan_down
                latency[member] = wan_lat
        if self.straggler is not None:
            for i, mult in enumerate(self.straggler.multipliers(num_nodes)):
                up[i] *= mult
                down[i] *= mult
        return tuple(LinkSpec(u, d, l)
                     for u, d, l in zip(up, down, latency))

    def bottleneck(self, num_nodes: int) -> LinkSpec:
        """The slowest participating capacities at scale ``num_nodes``:
        min uplink rate, min downlink rate, max latency.

        This is what a bottleneck-aware cost model plans against -- under
        BSP, synchronization finishes when the slowest link has.  Uniform
        specs resolve to the core link unchanged.
        """
        if self.is_uniform:
            base = self.bytes_per_second
            return LinkSpec(base, base, self.latency_s)
        links = self.links(num_nodes)
        return LinkSpec(
            min(link.up_bytes_per_s for link in links),
            min(link.down_bytes_per_s for link in links),
            max(link.latency_s for link in links))

    def transfer_time(self, nbytes: float) -> float:
        """Uncontended time to move ``nbytes`` point-to-point over the
        *core* network (per-node profiles excluded; see
        :meth:`bottleneck` for the planning-grade worst case)."""
        return self.latency_s + nbytes / self.bytes_per_second


@dataclass
class TransferStats:
    """Aggregate accounting of fabric usage, for experiment reporting."""

    bytes_sent: float = 0.0
    messages: int = 0
    per_node_bytes: Dict[int, float] = field(default_factory=dict)

    def record(self, src: int, nbytes: float) -> None:
        self.bytes_sent += nbytes
        self.messages += 1
        self.per_node_bytes[src] = self.per_node_bytes.get(src, 0.0) + nbytes


@dataclass(eq=False)
class Attempt:
    """One message issued with a failure callback: the handle
    :meth:`Fabric.issue` returns and :meth:`Fabric.abandon` takes."""

    src: int
    dst: int
    nbytes: float
    handler: Callable[[Any], None]
    on_fail: Callable[[Any, Exception], None]
    token: Any
    span: Any
    #: The message's TransferRecord under a FaultState, else None.
    record: Any = None
    #: The TransferLog drop cause decided at reservation time, if any.
    cause: Optional[str] = None
    abandoned: bool = False


class Nic:
    """A full-duplex network interface.

    Each direction is a FIFO serialization server tracked by a next-free
    timestamp.  Transfers reserve (sender-up, receiver-down) atomically at
    issue time, which models "a node talks to one peer at a time per
    direction" without the hold-and-wait deadlock a two-resource acquire
    would allow.
    """

    def __init__(self, env: Environment, spec: NetworkSpec,
                 link: Optional[LinkSpec] = None) -> None:
        self.env = env
        self.spec = spec
        #: This NIC's resolved capacity (rate per direction + latency).
        #: Defaults to the spec's core link for standalone construction.
        if link is None:
            base = spec.bytes_per_second
            link = LinkSpec(base, base, spec.latency_s)
        self.link = link
        #: Simulated timestamps at which each direction becomes free.
        self.up_free = 0.0
        self.down_free = 0.0
        #: Cumulative seconds each direction spent busy (for utilization).
        self.up_busy = 0.0
        self.down_busy = 0.0


class Fabric:
    """A cluster-wide network of ``num_nodes`` NICs.

    The fabric is the only place that reserves NIC time, and
    :meth:`issue` the only way to move bytes: one message with a
    delivery callback, timed by :meth:`_reserve` and delivered by one
    agenda entry.  Engine sends, coordinator flushes and the retry
    loop all go through it.  With a collector attached it records one
    ``xfer:`` telemetry span and the ``net.*`` metrics per message;
    recording never schedules an event.
    """

    def __init__(self, env: Environment, num_nodes: int,
                 spec: NetworkSpec) -> None:
        if num_nodes < 1:
            raise ValueError(f"need at least 1 node, got {num_nodes}")
        self.env = env
        self.spec = spec
        self.num_nodes = num_nodes
        #: Per-node resolved NIC capacities (uniform specs resolve every
        #: node to the same link; see :meth:`NetworkSpec.links`).
        self.links: Tuple[LinkSpec, ...] = spec.links(num_nodes)
        self.nics = [Nic(env, spec, link)
                     for link in self.links]
        self.stats = TransferStats()
        #: Optional :class:`~repro.faults.injector.FaultState` attached by a
        #: FaultInjector.  None means the pristine (and byte-identical to
        #: the pre-fault-subsystem) transfer path; see :meth:`issue`.
        self.faults: Any = None

    # -- timing-only transfers -------------------------------------------

    def issue(self, src: int, dst: int, nbytes: float,
              handler: Callable[[Any], None], token: Any,
              span_parent: Optional[Any] = None,
              on_fail: Optional[Callable[[Any, Exception], None]] = None
              ) -> Optional[Attempt]:
        """Issue one transfer now; ``handler(token)`` runs at delivery.

        It reserves src's uplink and dst's downlink (:meth:`_reserve`)
        and schedules one delivery entry.  A loopback (src ==
        dst) is free and calls ``handler`` synchronously.
        ``span_parent`` links the message's telemetry span (opened now,
        closed at delivery) under a causing span; it is ignored when no
        collector is attached.

        With a :class:`~repro.faults.injector.FaultState` attached the
        message is logged in its TransferLog from now on and follows the
        fault model: a partitioned link or a dead destination *stalls* it
        (TCP retransmitting into a black hole) until restored, a dead
        source drops it, a transient failure loses it after half its
        uplink serialization, a degraded link stretches serialization by
        its factor, and a destination that dies in flight drops it at
        delivery.  A drop calls ``on_fail(token, error)`` with a
        :class:`~repro.faults.errors.TransferError` instead of
        ``handler``; ``on_fail`` is then required.  Given ``on_fail``,
        faults or not, this returns an :class:`Attempt` that
        :meth:`abandon` can give up, else None.
        """
        self._check(src, dst, nbytes)
        if src == dst:
            handler(token)
            return None
        env = self.env
        tel = env.telemetry
        span = (self._xfer_span(tel, src, dst, nbytes, span_parent)
                if tel is not None else None)
        faults = self.faults
        if on_fail is None:
            if faults is not None:
                raise ValueError("Fabric.issue needs on_fail with a "
                                 "FaultState attached: a message can be "
                                 "dropped")
            env.call_later(self._reserve(src, dst, nbytes), self._deliver,
                           (src, nbytes, handler, token, span))
            return None
        attempt = Attempt(src, dst, nbytes, handler, on_fail, token, span)
        if faults is not None:
            attempt.record = faults.log.begin(env.now, src, dst, nbytes)
        self._advance(attempt)
        return attempt

    def abandon(self, attempt: Attempt) -> None:
        """Give up on a message now: NIC time it reserved stays reserved,
        its pending delivery entry or stall wake-up will do nothing, and under a
        FaultState its bytes are logged as dropped (``"abandoned"``)."""
        attempt.abandoned = True
        if attempt.record is not None:
            attempt.record.drop(self.env.now, "abandoned")
        self._close_failed(attempt.span, "Interrupt")

    def _advance(self, attempt: Attempt) -> None:
        """Move an :class:`Attempt` on from issue, or from a stall."""
        if attempt.abandoned:
            return  # abandoned while stalled
        faults = self.faults
        src, dst = attempt.src, attempt.dst
        delay = 0.0
        if faults is None:
            delay = self._reserve(src, dst, attempt.nbytes)
        elif faults.blocked(src, dst):
            faults.on_unblocked(src, dst,
                                functools.partial(self._advance, attempt))
            return
        elif faults.is_dead(src):
            attempt.cause = "src-dead"
        else:
            lost = faults.take_transient(src, dst)
            if lost:
                attempt.cause = "transient"
            delay = self._reserve(src, dst, attempt.nbytes,
                                  faults.link_factor(src, dst), lost=lost)
        self.env.call_later(delay, self._land, attempt)

    def _land(self, attempt: Attempt) -> None:
        """Delivery callback of an :class:`Attempt`."""
        if attempt.abandoned:
            return
        faults, record = self.faults, attempt.record
        now = self.env.now
        if attempt.cause is None and (faults is None
                                      or not faults.is_dead(attempt.dst)):
            self.stats.record(attempt.src, attempt.nbytes)
            if record is not None:
                record.deliver(now)
            if attempt.span is not None:
                self._record_delivery(self.env.telemetry, attempt.span,
                                      attempt.nbytes)
            attempt.handler(attempt.token)
            return
        from ..faults.errors import TransferError  # local: avoids a cycle
        cause = attempt.cause or "dst-dead"
        record.drop(now, cause)
        self._close_failed(attempt.span, "TransferError")
        attempt.on_fail(attempt.token, TransferError(
            attempt.src, attempt.dst, attempt.nbytes, cause))

    def _reserve(self, src: int, dst: int, nbytes: float,
                 factor: float = 1.0, lost: bool = False) -> float:
        """Reserve both NIC directions for one message; returns the delay
        until it is delivered.

        Each direction is an independent fluid FIFO: the sender's uplink
        and the receiver's downlink each process the bytes when they get
        to them, at their own link's rate (stretched by a degraded link's
        ``factor``), and delivery completes when the slower side has plus
        the slower endpoint's wire latency.  This avoids convoy collapse
        under incast (an idle uplink is never blocked just because the
        peer's downlink is backed up).

        A ``lost`` message (a transient send failure) holds only half its
        uplink serialization and no downlink; the delay returned is until
        the sender gives up on it.
        """
        now = self.env.now
        sender = self.nics[src]
        up_ser = nbytes / sender.link.up_bytes_per_s * factor
        if lost:
            up_ser *= 0.5
        up_finish = max(now, sender.up_free) + up_ser
        sender.up_free = up_finish
        sender.up_busy += up_ser
        if lost:
            return up_finish - now
        receiver = self.nics[dst]
        down_ser = nbytes / receiver.link.down_bytes_per_s * factor
        down_finish = max(now, receiver.down_free) + down_ser
        receiver.down_free = down_finish
        receiver.down_busy += down_ser
        latency = max(sender.link.latency_s, receiver.link.latency_s)
        return max(up_finish, down_finish) + latency - now

    def _deliver(self, message: Tuple[int, float, Callable[[Any], None],
                                      Any, Any]) -> None:
        """Delivery callback of a pristine :meth:`issue`: record the
        message, then hand it over."""
        src, nbytes, handler, token, span = message
        self.stats.record(src, nbytes)
        if span is not None:
            self._record_delivery(self.env.telemetry, span, nbytes)
        handler(token)

    # -- telemetry ---------------------------------------------------------

    def _xfer_span(self, tel: Any, src: int, dst: int, nbytes: float,
                   parent: Optional[Any]) -> Any:
        """Open one message's transfer span at the current instant."""
        return tel.begin(f"xfer:{src}->{dst}", category="transfer",
                         track=f"node{src}/transfer", parent=parent,
                         at=self.env.now, src=src, dst=dst, nbytes=nbytes)

    def _close_failed(self, span: Any, outcome: str) -> None:
        """Close a dropped message's span and count the failure."""
        if span is None:
            return
        tel: Any = self.env.telemetry
        tel.finish(span, self.env.now, outcome=outcome)
        tel.metrics.counter("net.transfer_failures").inc()

    def _record_delivery(self, tel: Any, span: Any, nbytes: float) -> None:
        """Close a delivered message's span and count it in ``net.*``."""
        tel.finish(span, self.env.now, outcome="delivered")
        metrics = tel.metrics
        metrics.counter("net.bytes_sent").inc(nbytes)
        metrics.counter("net.messages").inc()
        metrics.histogram("net.transfer_s").observe(span.duration)

    # -- helpers -----------------------------------------------------------

    def _check(self, src: int, dst: int, nbytes: float) -> None:
        for node in (src, dst):
            if not 0 <= node < self.num_nodes:
                raise ValueError(
                    f"node {node} outside [0, {self.num_nodes})")
        if not nbytes >= 0:  # also rejects NaN
            raise ValueError(
                f"transfer size must be non-negative, got {nbytes}")

    def pair_transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        """Uncontended time to move ``nbytes`` from src to dst through the
        pair's actual links: limited by the slower of src's uplink and
        dst's downlink, plus the slower endpoint's wire latency.  Uniform
        specs reduce this to ``spec.transfer_time(nbytes)`` exactly."""
        a, b = self.links[src], self.links[dst]
        rate = min(a.up_bytes_per_s, b.down_bytes_per_s)
        return max(a.latency_s, b.latency_s) + nbytes / rate

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Mean busy fraction across all NIC directions over ``horizon``."""
        horizon = self.env.now if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        # A left fold, not ``sum``, which rounds differently from
        # Python 3.12.
        busy = 0.0
        for nic in self.nics:
            busy += nic.up_busy + nic.down_busy
        return busy / (2 * self.num_nodes * horizon)
