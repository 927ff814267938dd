"""Selective compression and partitioning (§3.3): cost model and planner.

For every gradient the planner compares the synchronization time without
compression (Eq. 1) against the time with compression (Eq. 2)::

    T_orig(m, K) = alpha * T_send(m / K)
    T_cpr(m, K)  = alpha * T_send(r * m / K)
                 + beta * T_enc(m / K) + gamma * T_dec(r * m / K)

where (alpha, beta, gamma) count the serial communication steps and the
non-overlapped encode/decode operators of the chosen synchronization
strategy (Table 3), and r, T_enc, T_dec come from profiling the
compression algorithm on the target GPU.  The planner picks, per gradient,
whether to compress and the partition count K that minimizes the cost --
"avoid over-compression penalties and further leverage parallelism".

Step-count presets:

* ``ring``:         alpha = 2(N-1), beta = N,     gamma = N        (Table 3)
* ``ps``:           alpha = 2N,     beta = K + 1, gamma = N + 1    (Table 3)
* ``ps_colocated``: alpha = 2(N-1), beta = K,     gamma = N        (§6.1's
  deployment, where a worker never talks to its co-located aggregator)

Eqs. (1)-(2) have one implementation, the array form on
:class:`CostModel` (``t_sync_orig_array`` / ``t_sync_compressed_array``),
which costs every gradient at one K in one NumPy pass.
:meth:`SelectivePlanner.plan_model` is the one costing path: it fills a
(gradients, 2 * max K) table one K at a time and picks each gradient's
cheapest cell with one ``argmin``.  ``plan_gradient`` and
``compression_threshold`` are one ``plan_model`` call each, and the
scalar ``t_sync_*`` calls one-element calls of the array form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from ..algorithms.base import CompressionAlgorithm, FLOAT_BYTES
from ..cluster import ClusterSpec
from ..models import GradientSpec
from ..net import LinkSpec

__all__ = ["StepCounts", "STEP_COUNT_PRESETS", "PLANNER_KINDS", "CostModel",
           "GradientPlan", "SelectivePlanner", "plans_to_json"]


@dataclass(frozen=True)
class StepCounts:
    """(alpha, beta, gamma) for a synchronization strategy at scale N."""

    alpha: int
    beta: int
    gamma: int


def _ring_counts(n: int, k: int) -> StepCounts:
    return StepCounts(alpha=2 * (n - 1), beta=n, gamma=n)


def _ps_counts(n: int, k: int) -> StepCounts:
    return StepCounts(alpha=2 * n, beta=k + 1, gamma=n + 1)


def _ps_colocated_counts(n: int, k: int) -> StepCounts:
    return StepCounts(alpha=2 * (n - 1), beta=max(k, 1), gamma=n)


STEP_COUNT_PRESETS: Dict[str, Callable[[int, int], StepCounts]] = {
    "ring": _ring_counts,
    "ps": _ps_counts,
    "ps_colocated": _ps_colocated_counts,
}

#: Strategy-registry name -> the step-count preset its plans are costed
#: with.  :class:`~repro.casync.passes.SelectivePass` plans only these.
PLANNER_KINDS: Dict[str, str] = {"casync-ps": "ps_colocated",
                                 "casync-ring": "ring"}


class CostModel:
    """Evaluates Eqs. (1)-(2) for one (cluster, algorithm, strategy) triple.

    On a heterogeneous cluster the model plans against the *bottleneck*:
    the slowest participating link for ``t_send`` and the slowest GPU for
    ``t_enc`` / ``t_dec``, because under BSP every synchronization step
    finishes when the slowest participant has.  The per-node variants
    (``t_send_at`` / ``t_enc_at`` / ``t_dec_at``) expose each node's own
    cost for diagnostics and per-node scheduling.  On a homogeneous
    cluster with a uniform network every path is bit-identical to the
    scalar model this generalizes.
    """

    def __init__(self, cluster: ClusterSpec,
                 algorithm: CompressionAlgorithm,
                 strategy: str = "ps_colocated") -> None:
        if strategy not in STEP_COUNT_PRESETS:
            raise ValueError(
                f"unknown strategy {strategy!r}; "
                f"available: {sorted(STEP_COUNT_PRESETS)}")
        self.cluster = cluster
        self.algorithm = algorithm
        self.strategy = strategy
        self._counts = STEP_COUNT_PRESETS[strategy]
        #: Slowest participating link capacities (== the core link on a
        #: uniform network, so homogeneous costing is unchanged).
        self._bottleneck = cluster.network.bottleneck(cluster.num_nodes)
        #: Distinct GPU models, computed once (cost evaluation is in the
        #: planner's K-search inner loop; iterating num_nodes GPUs per
        #: call would be O(N) for what is usually one distinct model).
        self._distinct_gpus = tuple(
            {spec.gpu: None for spec in cluster.distinct_nodes()})
        self._links: Optional[Tuple[LinkSpec, ...]] = None

    def _node_link(self, node: int) -> LinkSpec:
        if self._links is None:
            self._links = self.cluster.network.links(self.cluster.num_nodes)
        return self._links[node]

    # -- profiled primitives (Table 2) ---------------------------------------

    def t_send(self, nbytes: float) -> float:
        """Send cost through the slowest participating link."""
        return self._bottleneck.transfer_time(nbytes)

    def t_enc(self, nbytes: float) -> float:
        """Encode cost on the slowest participating GPU."""
        if len(self._distinct_gpus) == 1:
            return self.algorithm.encode_time(nbytes, self._distinct_gpus[0])
        return max(self.algorithm.encode_time(nbytes, gpu)
                   for gpu in self._distinct_gpus)

    def t_dec(self, nbytes: float) -> float:
        """Decode cost, parameterized by the *original* gradient size, on
        the slowest participating GPU."""
        if len(self._distinct_gpus) == 1:
            return self.algorithm.decode_time(nbytes, self._distinct_gpus[0])
        return max(self.algorithm.decode_time(nbytes, gpu)
                   for gpu in self._distinct_gpus)

    # -- per-node primitives ---------------------------------------------------

    def t_send_at(self, node: int, nbytes: float) -> float:
        """Uncontended send cost through node ``node``'s own link."""
        return self._node_link(node).transfer_time(nbytes)

    def t_enc_at(self, node: int, nbytes: float) -> float:
        """Encode cost on node ``node``'s own GPU model."""
        return self.algorithm.encode_time(
            nbytes, self.cluster.node_at(node).gpu)

    def t_dec_at(self, node: int, nbytes: float) -> float:
        """Decode cost on node ``node``'s own GPU model."""
        return self.algorithm.decode_time(
            nbytes, self.cluster.node_at(node).gpu)

    def compression_rate(self, nbytes: float) -> float:
        elements = max(1, int(nbytes) // FLOAT_BYTES)
        return self.algorithm.compression_rate(elements)

    # -- Eq. (1) and Eq. (2) ----------------------------------------------------

    def t_sync_orig_array(self, nbytes: np.ndarray,
                          partitions: int) -> np.ndarray:
        """Eq. (1) at K = ``partitions`` for every size in ``nbytes``."""
        counts = self._counts(self.cluster.num_nodes, partitions)
        return counts.alpha * self.t_send(nbytes / partitions)

    def t_sync_compressed_array(self, nbytes: np.ndarray,
                                partitions: int) -> np.ndarray:
        """Eq. (2) at K = ``partitions`` for every size in ``nbytes``.

        One element count per partition serves r, T_enc and T_dec, and the
        codec sizes each distinct count once.
        """
        counts = self._counts(self.cluster.num_nodes, partitions)
        part = nbytes / partitions
        elements = np.maximum(np.floor(part / FLOAT_BYTES), 1)
        distinct, inverse = np.unique(elements, return_inverse=True)
        compressed = np.array(
            [self.algorithm.compressed_nbytes(e)
             for e in distinct.astype(np.int64).tolist()],
            dtype=np.float64)[inverse]
        rate = compressed / (elements * FLOAT_BYTES)
        profile = self.algorithm.profile
        t_enc = np.maximum.reduce([
            profile.encode_time(part, gpu, output_nbytes=compressed)
            for gpu in self._distinct_gpus])
        t_dec = np.maximum.reduce([
            profile.decode_time(compressed, gpu, output_nbytes=part)
            for gpu in self._distinct_gpus])
        # K beyond N is grouped into ceil(K/N) pipelined batches (§3.3).
        groups = -(-partitions // self.cluster.num_nodes)
        return groups * (counts.alpha * self.t_send(rate * part)
                         + counts.beta * t_enc
                         + counts.gamma * t_dec)

    def t_sync_orig(self, nbytes: float, partitions: int) -> float:
        return self.t_sync_orig_array(
            np.array([nbytes], dtype=np.float64), partitions).item()

    def t_sync_compressed(self, nbytes: float, partitions: int) -> float:
        return self.t_sync_compressed_array(
            np.array([nbytes], dtype=np.float64), partitions).item()


@dataclass(frozen=True)
class GradientPlan:
    """The planner's verdict for one gradient (Table 7 tuples)."""

    name: str
    nbytes: int
    compress: bool
    partitions: int
    predicted_time: float

    @property
    def partition_nbytes(self) -> float:
        return self.nbytes / self.partitions


class SelectivePlanner:
    """Produces per-gradient <compress?, K> plans (§3.3, Table 7).

    ``max_partitions`` defaults to N (the paper explores K in [1, N], with
    an extension to K > N via batch grouping).
    """

    def __init__(self, cost_model: CostModel,
                 max_partitions: Optional[int] = None) -> None:
        self.cost_model = cost_model
        n = cost_model.cluster.num_nodes
        # §3.3 relaxes K beyond N by grouping partitions into ceil(K/N)
        # pipelined batches, so the search space extends past N.
        self.max_partitions = max_partitions if max_partitions else max(n, 16)

    def plan_model(self, gradients: Iterable[GradientSpec]
                   ) -> Dict[str, GradientPlan]:
        """Every gradient's cheapest <compress?, K>, in one table.

        Column ``2(K-1)`` holds Eq. (1) at K and the next column Eq. (2),
        so ``argmin``'s first minimum is the smallest K, uncompressed
        before compressed, on a tie.
        """
        gradients = list(gradients)
        if not gradients:
            return {}
        sizes = np.array([g.nbytes for g in gradients], dtype=np.float64)
        table = np.empty((len(gradients), 2 * self.max_partitions))
        for k in range(1, self.max_partitions + 1):
            table[:, 2 * k - 2] = self.cost_model.t_sync_orig_array(sizes, k)
            table[:, 2 * k - 1] = self.cost_model.t_sync_compressed_array(
                sizes, k)
        best = table.argmin(axis=1)
        costs = table[np.arange(len(gradients)), best].tolist()
        return {g.name: GradientPlan(name=g.name, nbytes=g.nbytes,
                                     compress=bool(cell % 2),
                                     partitions=cell // 2 + 1,
                                     predicted_time=cost)
                for g, cell, cost in zip(gradients, best.tolist(), costs)}

    def plan_gradient(self, gradient: GradientSpec) -> GradientPlan:
        return self.plan_model([gradient])[gradient.name]

    def compression_threshold(self, probe_sizes: Iterable[int] = ()
                              ) -> Optional[int]:
        """Smallest probed gradient size for which compression wins.

        Used by the experiments to report the "compress gradients larger
        than X" thresholds of §6.1.
        """
        sizes = sorted(probe_sizes) or [
            1 << s for s in range(10, 31)]  # 1KB .. 1GB
        plans = self.plan_model(
            GradientSpec(name=str(i), nbytes=int(nbytes))
            for i, nbytes in enumerate(sizes))
        return next((plan.nbytes for plan in plans.values() if plan.compress),
                    None)


# -- plan persistence ---------------------------------------------------------

def plans_to_json(plans: Dict[str, GradientPlan]) -> str:
    """Serialize a plan table (the §5 planner's output artifact)."""
    import json
    return json.dumps({
        name: {"nbytes": plan.nbytes, "compress": plan.compress,
               "partitions": plan.partitions,
               "predicted_time": plan.predicted_time}
        for name, plan in plans.items()}, indent=1, sort_keys=True)

