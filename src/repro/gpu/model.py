"""GPU execution model: kernel cost, streams, and busy-interval accounting.

Gradient-compression kernels are memory-bound scans (the paper, §2.5: they
"scan large gradient matrices multiple times").  Their runtime is therefore
modelled as::

    launch_overhead + bytes_touched / effective_memory_bandwidth

which is also exactly the functional form the paper's selective-compression
cost model profiles for ``T_enc`` / ``T_dec`` (§3.3, "fit the compression
cost curves").  DNN forward/backward compute occupies a separate *compute*
stream; compression kernels run on a *communication* stream, so compression
overlaps DNN compute the way CUDA streams allow (§5: a dedicated queue
schedules encode/decode on GPU).

Each stream is a scalar reservation with one user that runs its kernels
one at a time: the node's forward/backward pass on the compute stream
(:meth:`Gpu.run_compute`, which a crash abandons), the compression
executor on the communication stream (:meth:`Gpu.run_kernel`).  A kernel
starts in its caller's agenda entry and takes one entry of its own, its
finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from ..sim import Environment, SimulationError

__all__ = ["GpuSpec", "Gpu", "IntervalLog", "V100", "GTX1080TI"]


@dataclass(frozen=True)
class GpuSpec:
    """Static capabilities of one GPU.

    mem_bandwidth_gbs: peak memory bandwidth in GB/s.
    kernel_launch_us: fixed per-kernel launch + driver overhead.
    fp32_tflops: peak fp32 throughput (used only for documentation and
        relative compute scaling of model zoo calibration).
    mem_efficiency: achievable fraction of peak bandwidth for streaming
        scans (bank-conflict-free, coalesced kernels reach ~0.6-0.75).
    """

    name: str
    mem_bandwidth_gbs: float
    kernel_launch_us: float = 10.0
    fp32_tflops: float = 15.0
    mem_efficiency: float = 0.65

    def __post_init__(self):
        if self.mem_bandwidth_gbs <= 0:
            raise ValueError("memory bandwidth must be positive")
        if not 0 < self.mem_efficiency <= 1:
            raise ValueError("mem_efficiency must be in (0, 1]")

    @property
    def effective_bytes_per_second(self) -> float:
        return self.mem_bandwidth_gbs * 1e9 * self.mem_efficiency

    def kernel_time(self, bytes_touched: float, kernels: int = 1) -> float:
        """Seconds to run a scan kernel touching ``bytes_touched`` bytes.

        ``kernels`` counts distinct launches (a fused operator is 1).
        ``bytes_touched`` may be an array, costed element by element.
        """
        negative = bytes_touched < 0
        # A Python number compares to a bool; an array to an array, whose
        # first negative entry the error names.  Scalars pay no type test.
        if negative is not False and (negative is True or negative.any()):
            if isinstance(bytes_touched, np.ndarray):
                bytes_touched = bytes_touched[negative][0]
            raise ValueError(f"negative bytes_touched {bytes_touched}")
        if kernels < 1:
            raise ValueError(f"kernels must be >= 1, got {kernels}")
        return (kernels * self.kernel_launch_us * 1e-6
                + bytes_touched / self.effective_bytes_per_second)


#: NVIDIA Tesla V100 (the paper's EC2 p3dn.24xlarge GPUs).
V100 = GpuSpec(name="V100", mem_bandwidth_gbs=900.0, kernel_launch_us=10.0,
               fp32_tflops=15.7, mem_efficiency=0.65)

#: NVIDIA GTX 1080 Ti (the paper's local-cluster GPUs).
GTX1080TI = GpuSpec(name="1080Ti", mem_bandwidth_gbs=484.0,
                    kernel_launch_us=12.0, fp32_tflops=11.3,
                    mem_efficiency=0.60)


class IntervalLog:
    """Busy intervals by category, e.g. 'compute' / 'compression'.

    Powers the Figure-9 GPU-utilization reproduction: the simulator records
    when each stream is busy, and the experiment driver bins the intervals
    into a utilization time series.
    """

    def __init__(self):
        self._intervals: List[Tuple[float, float, str]] = []

    def record(self, start: float, end: float, category: str) -> None:
        if end < start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")
        self._intervals.append((start, end, category))

    @property
    def intervals(self) -> Tuple[Tuple[float, float, str], ...]:
        return tuple(self._intervals)

    def busy_time(self, category: Optional[str] = None,
                  until: Optional[float] = None) -> float:
        total = 0.0
        for start, end, cat in self._intervals:
            if category is not None and cat != category:
                continue
            if until is not None:
                end = min(end, until)
            if end > start:
                total += end - start
        return total

    def utilization_series(self, bin_width: float, horizon: float,
                           category: Optional[str] = None) -> List[float]:
        """Fraction-busy per time bin over [0, horizon)."""
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        nbins = max(1, int(round(horizon / bin_width)))
        bins = [0.0] * nbins
        for start, end, cat in self._intervals:
            if category is not None and cat != category:
                continue
            first = max(0, int(start / bin_width))
            last = min(nbins - 1, int(end / bin_width))
            for b in range(first, last + 1):
                lo = max(start, b * bin_width)
                hi = min(end, (b + 1) * bin_width)
                if hi > lo:
                    bins[b] += hi - lo
        return [min(1.0, b / bin_width) for b in bins]


class _Stream:
    """One stream's reservation and the kernel it runs.

    ``free_at`` is when the last started kernel ends; ``epoch`` counts
    aborts, so a finish entry scheduled before the last abort finds it
    moved and does nothing; ``span`` is the running kernel's telemetry
    span (or None).
    """

    __slots__ = ("track", "free_at", "epoch", "span")

    def __init__(self, track: str, now: float):
        self.track = track
        self.free_at = now
        self.epoch = 0
        self.span = None


class Gpu:
    """One simulated GPU: a compute stream plus a communication stream.

    DNN forward/backward run on :attr:`compute` through
    :meth:`run_compute`; compression kernels run on :attr:`comm` through
    :meth:`run_kernel`.  Both streams log busy intervals into :attr:`log`.
    """

    def __init__(self, env: Environment, spec: GpuSpec, index: int = 0):
        self.env = env
        self.spec = spec
        self.index = index
        self.compute = _Stream("gpu-compute", env.now)
        self.comm = _Stream("gpu-comm", env.now)
        self.log = IntervalLog()
        #: Multiplier applied to every kernel's duration while > 1 -- the
        #: fault injector's straggler model (thermal throttling, a noisy
        #: neighbour, ECC scrubbing).  Exactly 1.0 means pristine timing.
        self.slowdown = 1.0

    def run_compute(self, seconds: float, handler: Callable[[Any], None],
                    token: Any = None, category: str = "compute",
                    span_parent=None) -> None:
        """Run one kernel on the compute stream, then ``handler(token)``.

        Started as :meth:`run_kernel` starts a kernel; a kernel
        :meth:`abort_compute` abandons never calls ``handler``.
        """
        self._request(self.compute, seconds, handler, token, category,
                      span_parent)

    def run_kernel(self, seconds: float, handler: Callable[[Any], None],
                   token: Any = None, category: str = "compression",
                   span_parent=None) -> None:
        """Run one kernel on the communication stream, then ``handler(token)``.

        The kernel starts now, in the caller's agenda entry: it applies
        :attr:`slowdown` and reserves the stream; a *finish* entry logs
        the kernel when it ends.  The caller serializes its kernels: a
        launch while one runs raises :class:`~repro.sim.SimulationError`.
        """
        self._request(self.comm, seconds, handler, token, category,
                      span_parent)

    def abort_compute(self) -> None:
        """Abandon the compute kernel running, if any (a crash).

        The stream is free at once, the kernel logs no busy interval and
        its span closes with outcome ``interrupted``.
        """
        stream = self.compute
        stream.epoch += 1
        stream.free_at = self.env.now
        if stream.span is not None:
            self.env.telemetry.finish(stream.span, self.env.now,
                                      outcome="interrupted")
            stream.span = None

    def _request(self, stream: _Stream, seconds: float,
                 handler: Callable[[Any], None], token: Any, category: str,
                 span_parent) -> None:
        """Start a kernel on ``stream`` now and push its finish entry."""
        if not 0 <= seconds < math.inf:  # also rejects NaN
            problem = "negative" if seconds < 0 else "non-finite"
            raise ValueError(f"gpu{self.index} {stream.track}: {problem} "
                             f"duration {seconds}")
        env = self.env
        start = env.now
        if start < stream.free_at:
            raise SimulationError(
                f"gpu{self.index}: a kernel starts at {start} while the "
                f"{stream.track} stream is reserved until {stream.free_at}")
        if self.slowdown != 1.0:
            seconds *= self.slowdown
        span = None
        tel = env.telemetry
        if tel is not None:
            tel.metrics.counter("sim.resource.requests").inc()
            span = tel.begin(category, category="kernel",
                             track=f"node{self.index}/{stream.track}",
                             parent=span_parent, at=start)
        stream.free_at = start + seconds
        stream.span = span
        env.call_later(seconds, self._finish,
                       (stream, stream.epoch, start, handler, token,
                        category, span))

    def _finish(self, kernel: Tuple) -> None:
        stream, epoch, start, handler, token, category, span = kernel
        if epoch != stream.epoch:
            return
        stream.span = None
        now = self.env.now
        self.log.record(start, now, category)
        if span is not None:
            tel = self.env.telemetry
            tel.finish(span, now)
            tel.metrics.counter("gpu.kernels", category=category).inc()
            tel.metrics.histogram("gpu.kernel_s", category=category
                                  ).observe(span.duration)
        handler(token)
