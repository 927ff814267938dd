"""Shared infrastructure for the paper-reproduction experiment drivers.

Defines the *systems under test* exactly as §6.1 configures them:

* ``byteps`` / ``ring`` -- the no-compression baselines.  BytePS runs over
  TCP on EC2 (it "does not support the Elastic Fabric Adapter", §6.1) and
  over RDMA on the local cluster; everything else uses RDMA everywhere.
* ``byteps-oss`` -- BytePS(OSS-onebit)-style bolted-on compression.
* ``ring-oss`` -- Ring(OSS-DGC)-style coarse compressed allgather.
* ``hipress-ps`` / ``hipress-ring`` -- HiPress: CaSync with pipelining,
  bulk synchronization (coordinator + batch compression), and selective
  compression/partitioning, using CompLL-profiled algorithms.

``run_system`` is the single entry every table/figure driver uses, and
``make_plans`` the one way a driver reads the §3.3 planner's verdict
table (a run plans inside its own plan build).
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from ..algorithms import available_algorithms, get_algorithm
from ..algorithms.base import CompressionAlgorithm
from ..casync.planner import PLANNER_KINDS
from ..cluster import ClusterSpec, ec2_v100_cluster, local_1080ti_cluster
from ..errors import ConfigError
from ..models import MODEL_NAMES, ModelSpec, get_model
from ..strategies import Strategy, get_strategy
from ..telemetry import TelemetryCollector
from ..training import IterationResult, make_plans, simulate_iteration

__all__ = ["SystemConfig", "SYSTEMS", "run_system", "make_plans",
           "default_algorithm", "ec2_tcp_network", "format_table",
           "JobSpec", "CLUSTER_FACTORIES", "canonical_json",
           "execute_job", "execute_serial"]

#: §6.1 default algorithm parameters ("we inherit the parameter settings
#: from their original papers").
ALGORITHM_DEFAULTS: Dict[str, Dict] = {
    "onebit": {},
    "dgc": {"rate": 0.001},
    "terngrad": {"bitwidth": 2},
    "tbq": {"threshold": 0.05},
    "graddrop": {"keep_rate": 0.01},
}


def default_algorithm(name: str, **overrides) -> CompressionAlgorithm:
    params = dict(ALGORITHM_DEFAULTS.get(name, {}))
    params.update(overrides)
    return get_algorithm(name, **params)


def ec2_tcp_network(cluster: ClusterSpec) -> ClusterSpec:
    """BytePS-on-EC2 network: TCP over the 100 Gbps ENA, no RDMA."""
    return replace(cluster, network=replace(
        cluster.network, efficiency=0.35, latency_us=40.0))


@dataclass(frozen=True)
class SystemConfig:
    """One system under test, as configured in §6.1.

    ``strategy`` is a strategy-registry name; the config resolves it
    through :func:`repro.strategies.get_strategy` at run time, so
    registering a new strategy and adding a SystemConfig is all a new
    system needs.  Everything else a run needs -- whether it compresses,
    its planner preset, and (through the lowered plan) whether it runs
    bulk synchronization -- follows from the strategy.
    """

    key: str
    label: str
    strategy: str                        # strategy-registry name
    tcp_on_ec2: bool = False

    def strategy_factory(self) -> Strategy:
        """Instantiate this system's strategy from the registry."""
        return get_strategy(self.strategy)

    @property
    def compression(self) -> bool:
        """Whether this system's strategy compresses gradients."""
        return self.strategy_factory().compression

    @property
    def planner_kind(self) -> Optional[str]:
        """The strategy's §3.3 selective-planning preset, if it plans."""
        return PLANNER_KINDS.get(self.strategy)


SYSTEMS: Dict[str, SystemConfig] = {c.key: c for c in (
    SystemConfig("byteps", "BytePS", "byteps", tcp_on_ec2=True),
    SystemConfig("ring", "Ring", "ring"),
    SystemConfig("byteps-oss", "BytePS(OSS)", "byteps-oss", tcp_on_ec2=True),
    SystemConfig("ring-oss", "Ring(OSS)", "ring-oss"),
    SystemConfig("hipress-ps", "HiPress-CaSync-PS", "casync-ps"),
    SystemConfig("hipress-ring", "HiPress-CaSync-Ring", "casync-ring"),
)}


def run_system(system: str, model, cluster: ClusterSpec,
               algorithm: Optional[str] = None,
               algorithm_params: Optional[Dict] = None,
               on_ec2: bool = True,
               telemetry: Optional[TelemetryCollector] = None
               ) -> IterationResult:
    """Simulate one iteration of ``model`` under a named system.

    ``model`` may be a ModelSpec or a zoo name.  ``algorithm`` is required
    for compression-enabled systems.  Unknown system/model/algorithm names
    raise :class:`~repro.errors.ConfigError` listing the valid choices.
    ``telemetry`` attaches a collector for this run (see
    :mod:`repro.telemetry`).  A compression policy runs through
    :func:`repro.adaptive.run_policy` instead.
    """
    try:
        config = SYSTEMS[system]
    except KeyError:
        raise ConfigError("system", system, SYSTEMS) from None
    if isinstance(model, str):
        try:
            model = get_model(model)
        except KeyError:
            raise ConfigError("model", model, MODEL_NAMES) from None
    if config.tcp_on_ec2 and on_ec2:
        cluster = ec2_tcp_network(cluster)
    algo = None
    if config.compression:
        if algorithm is None:
            raise ConfigError(
                "algorithm", algorithm, available_algorithms(),
                hint=f"system {system!r} compresses and needs one")
        try:
            algo = default_algorithm(algorithm, **(algorithm_params or {}))
        except KeyError:
            raise ConfigError("algorithm", algorithm,
                              available_algorithms()) from None
    strategy = config.strategy_factory()
    return simulate_iteration(
        model, cluster, strategy, algorithm=algo, telemetry=telemetry)


# -- job manifests -----------------------------------------------------------
#
# Every figure/table module decomposes its work into independent *jobs*
# (one per strategy x model x cluster point, typically) by declaring a
# ``jobs(**kwargs)`` manifest of :class:`JobSpec` rows.  A job is executed
# by calling ``<module>.<call>(**params)`` in any process -- the params
# are JSON values, the payload it returns must be a JSON value too -- and
# the module's ``assemble(payloads, **kwargs)`` folds the payloads back
# into the structured results its ``run()`` returns.  ``run()`` itself is
# ``assemble(execute_serial(jobs(...)), ...)``, so the serial path and the
# process-parallel :mod:`repro.experiments.runner` execute the *same*
# decomposition; the conformance suite then proves the outputs are
# bit-identical across serial, parallel, cached and interrupted-then-rerun
# runs.  A job's cache key is its code and its params, so a codec is
# named in ``params`` (or fixed in the job's code), never beside them.

#: Cluster presets jobs may reference by name (factories are not JSON).
CLUSTER_FACTORIES = {
    "ec2": ec2_v100_cluster,
    "local": local_1080ti_cluster,
}


@dataclass(frozen=True)
class JobSpec:
    """One independently executable unit of a figure/table regeneration.

    ``params`` must contain only JSON values (numbers, strings, bools,
    lists, dicts, None) so the spec can cross a process boundary and be
    digested into a stable cache key.
    """

    artifact: str                 # e.g. "fig7"
    job_id: str                   # unique within a manifest, e.g. "fig7/vgg19-ring-n4"
    module: str                   # dotted module, e.g. "repro.experiments.fig7"
    params: Mapping[str, Any] = field(default_factory=dict)
    call: str = "run_job"
    timeout_s: Optional[float] = None

    def resolve(self):
        """The callable this job runs."""
        module = importlib.import_module(self.module)
        return getattr(module, self.call)


def canonical_json(value) -> str:
    """Canonical JSON encoding: sorted keys, no whitespace, exact floats."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def execute_job(spec: JobSpec):
    """Run one job in-process and return its JSON-normalized payload.

    The round trip through :func:`canonical_json` pins the contract that
    payloads are JSON values: the serial path sees exactly what a worker
    process or a cache hit would deliver (tuples become lists, numpy
    scalars are rejected loudly rather than silently drifting).
    """
    payload = spec.resolve()(**dict(spec.params))
    return json.loads(canonical_json(payload))


def execute_serial(specs) -> Dict[str, Any]:
    """Reference executor: every job in manifest order, in this process."""
    results: Dict[str, Any] = {}
    for spec in specs:
        if spec.job_id in results:
            raise ValueError(f"duplicate job id {spec.job_id!r}")
        results[spec.job_id] = execute_job(spec)
    return results


def format_table(headers, rows) -> str:
    """Plain-text table renderer used by every experiment driver."""
    headers = [str(h) for h in headers]
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))
    sep = "-+-".join("-" * w for w in widths)
    lines = [fmt(headers), sep]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)
