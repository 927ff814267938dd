"""Measurement-based cost-curve fitting (§3.3's profiling step).

The paper obtains the cost-model primitives by measurement: "we launch the
GPU kernels and peer-to-peer communication tasks with respect to different
gradient sizes to fit the compression and network cost curves".  This
module does exactly that against the simulated hardware: it *runs* encode
kernels on a simulated GPU and point-to-point transfers over a simulated
fabric at several probe sizes, then least-squares fits the affine model

    T(m) = fixed_overhead + m / throughput

that Eqs. (1)–(2) consume.  :class:`FittedCostModel` is a drop-in
replacement for the analytic :class:`~repro.casync.planner.CostModel`,
demonstrating that the planner needs only measurements, not formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..algorithms.base import CompressionAlgorithm, FLOAT_BYTES
from ..casync.planner import CostModel
from ..cluster import ClusterSpec
from ..gpu import Gpu
from ..net import Fabric
from ..sim import Environment

__all__ = ["AffineFit", "measure_encode", "measure_decode", "measure_send",
           "FittedCostModel"]

DEFAULT_PROBES = (256 * 1024, 1 << 20, 4 << 20, 16 << 20, 64 << 20)


@dataclass(frozen=True)
class AffineFit:
    """T(m) = intercept + slope * m, least-squares over probe points."""

    intercept: float
    slope: float

    def __call__(self, nbytes: float) -> float:
        return max(0.0, self.intercept) + self.slope * nbytes

    @staticmethod
    def from_points(sizes: Sequence[float],
                    times: Sequence[float]) -> "AffineFit":
        if len(sizes) != len(times) or len(sizes) < 2:
            raise ValueError("need at least two (size, time) points")
        slope, intercept = np.polyfit(np.asarray(sizes, dtype=np.float64),
                                      np.asarray(times, dtype=np.float64), 1)
        return AffineFit(intercept=float(intercept), slope=float(slope))


def _run_kernel_probe(cluster: ClusterSpec, duration_fn,
                      sizes: Sequence[int]) -> AffineFit:
    """Probe every distinct GPU model and keep the worst time per size.

    BSP planning must cost against the slowest participant; on a
    homogeneous cluster there is exactly one model, so the measured
    curve is identical to the single-GPU probe this generalizes.
    """
    times = []
    for nbytes in sizes:
        worst = 0.0
        for node_spec in cluster.distinct_nodes():
            env = Environment()
            gpu = Gpu(env, node_spec.gpu)
            proc = env.process(
                gpu.run_kernel(duration_fn(nbytes, node_spec.gpu)))
            env.run_until_complete(proc)
            worst = max(worst, env.now)
        times.append(worst)
    return AffineFit.from_points(list(sizes), times)


def measure_encode(cluster: ClusterSpec, algorithm: CompressionAlgorithm,
                   sizes: Sequence[int] = DEFAULT_PROBES) -> AffineFit:
    """Fit T_enc by actually running encode kernels on the simulated GPU."""
    return _run_kernel_probe(
        cluster, lambda m, gpu: algorithm.encode_time(m, gpu), sizes)


def measure_decode(cluster: ClusterSpec, algorithm: CompressionAlgorithm,
                   sizes: Sequence[int] = DEFAULT_PROBES) -> AffineFit:
    return _run_kernel_probe(
        cluster, lambda m, gpu: algorithm.decode_time(m, gpu), sizes)


def measure_send(cluster: ClusterSpec,
                 sizes: Sequence[int] = DEFAULT_PROBES) -> AffineFit:
    """Fit T_send by running point-to-point transfers over the fabric.

    The probed pair is the *bottleneck* pair -- the narrowest uplink
    sending to the narrowest downlink (excluding itself) -- so straggler
    and WAN links dominate the fitted curve exactly as they dominate real
    synchronization steps.  On a uniform network the pair is (0, 1) and
    the measurement matches the two-node probe this generalizes.
    """
    num = max(2, cluster.num_nodes)
    links = cluster.network.links(num)
    src = min(range(num), key=lambda i: links[i].up_bytes_per_s)
    dst = min((i for i in range(num) if i != src),
              key=lambda i: links[i].down_bytes_per_s)
    times = []
    for nbytes in sizes:
        env = Environment()
        Fabric(env, num, cluster.network).issue(src, dst, nbytes,
                                                lambda _token: None, None)
        env.run()
        times.append(env.now)
    return AffineFit.from_points(list(sizes), times)


class FittedCostModel(CostModel):
    """A CostModel whose primitives come from measurements, not formulas.

    Compression rate is measured too: real probe gradients are encoded and
    the (compressed/original) ratio fitted per size.
    """

    def __init__(self, cluster: ClusterSpec,
                 algorithm: CompressionAlgorithm,
                 strategy: str = "ps_colocated",
                 probe_sizes: Sequence[int] = DEFAULT_PROBES):
        super().__init__(cluster, algorithm, strategy=strategy)
        self._enc_fit = measure_encode(cluster, algorithm, probe_sizes)
        self._dec_fit = measure_decode(cluster, algorithm, probe_sizes)
        self._send_fit = measure_send(cluster, probe_sizes)

    def t_send(self, nbytes: float) -> float:
        return self._send_fit(nbytes)

    def t_enc(self, nbytes: float) -> float:
        return self._enc_fit(nbytes)

    def t_dec(self, nbytes: float) -> float:
        return self._dec_fit(nbytes)
