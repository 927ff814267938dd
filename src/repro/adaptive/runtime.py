"""Multi-iteration policy execution: the control loop around the simulator.

:func:`run_policy` is the adaptive counterpart of
:func:`repro.experiments.common.run_system`: it simulates ``iterations``
BSP iterations of one (model, cluster, strategy) under a
:class:`~repro.adaptive.policy.CompressionPolicy`, closing the loop --
``controller.decide -> simulate_iteration(decisions=...) ->
controller.observe`` -- each iteration.

* A **fixed** policy takes the original static path (no AdaptivePass, no
  DecisionMap): plans, graphs, and trace hashes are bit-identical to
  ``algorithm=``.
* An **adaptive** policy passes each iteration's DecisionMap to
  ``simulate_iteration(decisions=...)``, which runs
  :class:`~repro.casync.passes.AdaptivePass` in the static §3.3
  SelectivePass's place (:func:`~repro.casync.passes.strategy_pipeline`).
  Each distinct map is content-keyed into the graph cache (identical maps
  replay warm; see ``docs/ADAPTIVE.md``).

Replay: pass ``replay=DecisionLog`` (e.g. parsed from a previous run's
``log.to_json()``) to re-execute the exact recorded decisions without a
controller -- byte-identical results, no signal stream, no observation
feedback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..casync.planner import PLANNER_KINDS
from ..errors import ConfigError
from ..models import MODEL_NAMES, get_model
from ..strategies import get_strategy
from ..telemetry import TelemetryCollector
from ..training import simulate_iteration
from .controller import DecisionLog, PolicyController
from .policy import CompressionPolicy, resolve_policy

__all__ = ["PLANNER_KINDS", "PolicyRun", "run_policy"]


@dataclass
class PolicyRun:
    """Results of one multi-iteration policy run."""

    policy: CompressionPolicy
    strategy: str
    results: Tuple  # IterationResult per iteration
    log: DecisionLog

    @property
    def iteration_times(self) -> List[float]:
        return [r.iteration_time for r in self.results]

    @property
    def mean_iteration_time(self) -> float:
        times = self.iteration_times
        return sum(times) / len(times) if times else 0.0

    @property
    def mean_throughput(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.throughput for r in self.results) / len(self.results)

    def to_json_obj(self) -> Dict:
        """JSON payload (what the experiment artifact's jobs return)."""
        compressed = []
        for entry in self.log.entries:
            compressed.append(sum(
                1 for d in entry["decisions"].values() if d["compress"]))
        return {
            "policy": self.policy.describe(),
            "policy_kind": self.policy.kind,
            "strategy": self.strategy,
            "iterations": len(self.results),
            "iteration_times": self.iteration_times,
            "mean_iteration_time": self.mean_iteration_time,
            "mean_throughput": self.mean_throughput,
            "comm_ratios": [r.comm_ratio for r in self.results],
            "measured_bandwidth_gbps": [
                r.measured_link_bandwidth * 8.0 / 1e9 for r in self.results],
            "compressed_per_iteration": compressed,
        }


def run_policy(model, cluster, policy,
               strategy: str = "casync-ps",
               iterations: int = 8,
               pipelining: bool = True,
               bulk: bool = True,
               telemetry: Optional[TelemetryCollector] = None,
               replay: Optional[DecisionLog] = None) -> PolicyRun:
    """Run ``iterations`` BSP iterations under a compression policy.

    ``model`` is a ModelSpec or zoo name; ``policy`` a
    :class:`CompressionPolicy` or CLI policy string
    (:func:`~repro.adaptive.policy.parse_policy`); ``strategy`` must be a
    CaSync strategy (the adaptive pass is a SyncPlan-pipeline stage).
    """
    if isinstance(model, str):
        try:
            model = get_model(model)
        except KeyError:
            raise ConfigError("model", model, MODEL_NAMES) from None
    policy = resolve_policy(policy)
    if iterations < 1:
        raise ConfigError("iterations", iterations, [],
                          hint="need at least one iteration")
    if strategy not in PLANNER_KINDS:
        raise ConfigError(
            "strategy", strategy, PLANNER_KINDS,
            hint="policies run through the SyncPlan pipeline; use a "
                 "CaSync strategy")

    results = []
    strat = get_strategy(strategy, pipelining=pipelining, bulk=bulk)
    if policy.is_fixed:
        # The static path, untouched: the same (decisions-free)
        # graph-cache keys as algorithm=.
        algorithm = policy.fixed_algorithm().instantiate()
        log = DecisionLog(policy)
        for _ in range(iterations):
            results.append(simulate_iteration(
                model, cluster, strat, algorithm=algorithm,
                telemetry=telemetry))
        return PolicyRun(policy=policy, strategy=strategy,
                         results=tuple(results), log=log)

    controller = PolicyController(policy, model, cluster,
                                  planner_kind=PLANNER_KINDS[strategy])
    # The plan-wide default codec: only consulted for ops outside any
    # gradient's decision (e.g. ring raw buckets); decisions always name
    # their palette entry explicitly.
    default_algorithm = controller.palette[policy.primary_key]
    replay_maps = replay_bandwidth = None
    if replay is not None:
        replay_maps = controller.replay_maps(replay)
        replay_bandwidth = {e["iteration"]: e.get("bandwidth_gbps")
                            for e in replay.entries}
    for i in range(iterations):
        if replay_maps is not None:
            try:
                decisions = replay_maps[i]
            except KeyError:
                raise ConfigError(
                    "replay iteration", i, sorted(replay_maps),
                    hint="the decision log does not cover this run's "
                         "iteration count") from None
            controller.log.record(i, decisions,
                                  bandwidth_gbps=replay_bandwidth.get(i))
        else:
            decisions = controller.decide(i)
        result = simulate_iteration(
            model, cluster, strat, algorithm=default_algorithm,
            decisions=decisions, telemetry=telemetry)
        if replay_maps is None:
            controller.observe(i, result)
        results.append(result)
    return PolicyRun(policy=policy, strategy=strategy,
                     results=tuple(results), log=controller.log)
