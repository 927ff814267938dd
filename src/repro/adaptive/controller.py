"""The policy controller: signals in, per-gradient decisions out.

:class:`PolicyController` turns a frozen
:class:`~repro.adaptive.policy.CompressionPolicy` into one
:class:`~repro.casync.decisions.DecisionMap` per iteration:

* it instantiates the policy's codec palette once;
* partition counts and compress-at-all verdicts come from the §3.3
  selective planner, run per palette codec (and, for the bandwidth
  policy, per quantized bandwidth estimate) and memoized -- the adaptive
  plane *composes with* the paper's cost model instead of replacing it;
* regime signals come from the deterministic
  :class:`~repro.adaptive.signals.SyntheticGradientStream`, bandwidth
  from the :class:`~repro.adaptive.signals.BandwidthTracker` fed by
  ``observe()``.

Decisions are deterministic given (policy, model, cluster, seed) and the
observed iteration results, and every ``decide()`` is recorded in a
:class:`DecisionLog` -- a JSON-round-trippable record from which a run
can be *replayed* bit-identically without re-running the controller
(``run_policy(..., replay=log)``).

Statefulness contract: ``decide(i)`` / ``observe(i, result)`` must be
called in iteration order (the accordion EMA baselines and the bandwidth
EMA are sequential by nature); replay has no such constraint.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..casync.decisions import DecisionMap, GradientDecision
from ..casync.planner import CostModel, SelectivePlanner
from ..errors import ConfigError
from .accordion import AccordionController
from .policy import CompressionPolicy
from .signals import BandwidthTracker, SyntheticGradientStream

__all__ = ["DecisionLog", "PolicyController"]


class DecisionLog:
    """Append-only record of one run's decisions (replay + telemetry).

    Each entry is ``{"iteration", "decisions", "bandwidth_gbps"}``; the
    palette is *not* stored (codec instances aren't JSON) -- replay
    re-instantiates it from the policy, which is part of the log header.
    """

    def __init__(self, policy: Optional[CompressionPolicy] = None):
        self.policy = policy
        self.entries: List[Dict] = []

    def record(self, iteration: int, decisions: DecisionMap,
               bandwidth_gbps: Optional[float] = None) -> None:
        self.entries.append({
            "iteration": int(iteration),
            "decisions": decisions.to_json_obj(),
            "bandwidth_gbps": bandwidth_gbps,
        })

    def decision_maps(self, palette: Dict[str, object]
                      ) -> Dict[int, DecisionMap]:
        """Reconstruct each iteration's DecisionMap against ``palette``."""
        maps: Dict[int, DecisionMap] = {}
        for entry in self.entries:
            decisions = {
                name: GradientDecision.from_json_obj(obj)
                for name, obj in entry["decisions"].items()}
            maps[entry["iteration"]] = DecisionMap(decisions, palette)
        return maps

    def to_json_obj(self) -> Dict:
        header = None
        if self.policy is not None:
            header = {
                "kind": self.policy.kind,
                "palette": [[k, s.name, list(s.params)]
                            for k, s in self.policy.palette],
                "knobs": [list(kv) for kv in self.policy.knobs],
                "seed": self.policy.seed,
            }
        return {"policy": header, "entries": self.entries}

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_json_obj(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DecisionLog":
        obj = json.loads(text)
        policy = None
        header = obj.get("policy")
        if header is not None:
            from .policy import AlgoSpec
            policy = CompressionPolicy(
                kind=header["kind"],
                palette=tuple(
                    (k, AlgoSpec(name,
                                 tuple(tuple(p) for p in params)))
                    for k, name, params in header["palette"]),
                knobs=tuple(tuple(kv) for kv in header["knobs"]),
                seed=header["seed"])
        log = cls(policy)
        log.entries = [
            {"iteration": int(e["iteration"]),
             "decisions": e["decisions"],
             "bandwidth_gbps": e.get("bandwidth_gbps")}
            for e in obj.get("entries", [])]
        for entry in log.entries:  # a malformed decision fails the load
            for decision in entry["decisions"].values():
                GradientDecision.from_json_obj(decision)
        return log

    def __len__(self) -> int:
        return len(self.entries)


class PolicyController:
    """Runtime decision-maker for one (policy, model, cluster) run."""

    def __init__(self, policy: CompressionPolicy, model, cluster,
                 planner_kind: str = "ps_colocated",
                 stream: Optional[SyntheticGradientStream] = None):
        self.policy = policy
        self.model = model
        self.cluster = cluster
        self.planner_kind = planner_kind
        self.palette = policy.instantiate_palette()
        self.stream = stream if stream is not None else \
            SyntheticGradientStream(model, seed=policy.seed)
        self.log = DecisionLog(policy)
        self._plans_cache: Dict[tuple, Dict] = {}
        self.tracker: Optional[BandwidthTracker] = None
        self.regime: Optional[AccordionController] = None
        if policy.kind == "bandwidth":
            # Track the *bottleneck* link: under BSP the slowest NIC paces
            # synchronization, so that is the rate the measured goodput
            # converges to.  On a uniform network this is exactly the core
            # rate the tracker always used.
            bottleneck = cluster.network.bottleneck(cluster.num_nodes)
            self.tracker = BandwidthTracker(
                bottleneck.bottleneck_bytes_per_s,
                smoothing=policy.knob("smoothing", 0.5),
                quantum_gbps=policy.knob("quantum_gbps", 2.0))
        elif policy.kind == "accordion":
            self.regime = AccordionController(
                threshold=policy.knob("threshold", 0.5),
                smoothing=policy.knob("smoothing", 0.8))

    # -- planner composition -------------------------------------------------

    def _plans_for(self, key: str, gbps: Optional[float] = None) -> Dict:
        """§3.3 <compress?, K> plans under palette codec ``key`` (memoized;
        ``gbps`` re-plans under a measured-bandwidth override)."""
        cache_key = (key, gbps)
        plans = self._plans_cache.get(cache_key)
        if plans is None:
            if gbps is None:
                cluster = self.cluster
            elif self.cluster.network.wan is not None:
                # A WAN tier has absolute link rates, so "set the core to
                # gbps" is ambiguous (with_bandwidth raises ConfigError);
                # treat the measurement as congestion scaling every link
                # proportionally instead.
                cluster = self.cluster.with_bandwidth_scale(
                    gbps / self.cluster.network.bandwidth_gbps)
            else:
                cluster = self.cluster.with_bandwidth(gbps)
            cost = CostModel(cluster, self.palette[key],
                             strategy=self.planner_kind)
            plans = SelectivePlanner(cost).plan_model(self.model.gradients)
            self._plans_cache[cache_key] = plans
        return plans

    def _decision(self, name: str, key: Optional[str],
                  gbps: Optional[float] = None) -> GradientDecision:
        """Fold the planner's verdict under codec ``key`` into a decision
        (``key=None`` = the policy chose not to compress at all)."""
        if key is None:
            return GradientDecision(compress=False)
        gplan = self._plans_for(key, gbps)[name]
        if not gplan.compress:
            # The cost model says compression doesn't pay for this
            # gradient even with the chosen codec -- honor it (§3.3).
            return GradientDecision(compress=False,
                                    partitions=gplan.partitions)
        return GradientDecision(compress=True, algorithm=key,
                                partitions=gplan.partitions)

    # -- the control loop ----------------------------------------------------

    def decide(self, iteration: int) -> Optional[DecisionMap]:
        """This iteration's DecisionMap (None for fixed = static path)."""
        if self.policy.is_fixed:
            return None
        if self.policy.kind == "size":
            decisions = self._decide_size(iteration)
            bandwidth = None
        elif self.policy.kind == "bandwidth":
            bandwidth = self.tracker.planning_gbps()
            decisions = self._decide_bandwidth(iteration, bandwidth)
        else:
            decisions = self._decide_accordion(iteration)
            bandwidth = None
        dmap = DecisionMap(decisions, self.palette)
        self.log.record(iteration, dmap, bandwidth_gbps=bandwidth)
        return dmap

    def observe(self, iteration: int, result) -> None:
        """Feed one iteration's outcome back into the signal trackers."""
        if self.tracker is not None:
            self.tracker.update(
                getattr(result, "measured_link_bandwidth", 0.0))

    def _decide_size(self, iteration: int) -> Dict[str, GradientDecision]:
        threshold = self.policy.knob("threshold_bytes", float(1 << 20))
        small_compresses = "small" in self.palette
        decisions = {}
        for grad in self.model.gradients:
            if grad.nbytes >= threshold:
                key = "large"
            else:
                key = "small" if small_compresses else None
            decisions[grad.name] = self._decision(grad.name, key)
        return decisions

    def _decide_bandwidth(self, iteration: int,
                          gbps: float) -> Dict[str, GradientDecision]:
        return {grad.name: self._decision(grad.name, "algorithm", gbps)
                for grad in self.model.gradients}

    def _decide_accordion(self, iteration: int
                          ) -> Dict[str, GradientDecision]:
        signals = self.stream.signals(iteration)
        decisions = {}
        for grad in self.model.gradients:  # model order: deterministic EMA
            sig = signals[grad.name]
            critical = self.regime.observe_norm(grad.name, sig.norm)
            # Regime-detector extension over the hipress original: dense
            # gradients (low sparsity) carry critical-regime information
            # even when the norm trend is flat.
            critical = critical or sig.sparsity < 0.6
            key = "conservative" if critical else "aggressive"
            decisions[grad.name] = self._decision(grad.name, key)
        return decisions

    def replay_maps(self, log: DecisionLog) -> Dict[int, DecisionMap]:
        """DecisionMaps for a recorded log, bound to *this* palette."""
        if (log.policy is not None
                and log.policy.token() != self.policy.token()):
            raise ConfigError(
                "decision log", log.policy.describe(),
                [self.policy.describe()],
                hint="the log was recorded under a different policy")
        return log.decision_maps(self.palette)
