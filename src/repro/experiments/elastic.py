"""Compression win/loss under membership churn (elastic training).

Not a paper artifact: this driver exercises the elastic-membership
subsystem (``docs/ELASTIC.md``).  The paper's §6 clusters are static;
the unreliable-internet setting the Hivemind line of work targets has
nodes joining and leaving mid-run, and "On the Utility of Gradient
Compression" argues the compress-or-not verdict must be re-judged there.
Each job runs :func:`repro.training.run_elastic` over one (cluster
profile, churn schedule, system) point:

* profiles -- ``baseline`` (homogeneous EC2), ``wan`` (a quarter of the
  nodes behind WAN links), ``mixed`` (mixed-generation fleet);
* churn -- ``static`` (nobody moves: the elastic no-op), ``light`` and
  ``heavy`` seeded join/leave histories, including mid-epoch
  fail-stops;
* systems -- the uncompressed ``ring`` baseline vs ``hipress-ring``
  (CaSync + selective DGC), as in the ``heterogeneous`` artifact.

The churn schedule travels **inside the job params** as explicit JSON
events, so the PR-5 result cache keys on the schedule's content:
flipping a single join/leave event is a digest miss, replaying the
identical schedule is a hit (tests/test_elastic.py proves both).  The
assembled table feeds ``python -m repro.advisor``, which turns these
goodput numbers into end-to-end time-to-target verdicts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster import ClusterSpec, get_cluster
from ..faults.elastic import (MembershipSchedule, random_membership_schedule,
                              static_membership)
from ..models import get_model
from ..strategies import get_strategy
from ..training import run_elastic
from .common import (SYSTEMS, JobSpec, default_algorithm, execute_serial,
                     format_table)

__all__ = ["SYSTEMS_UNDER_TEST", "CHURNS", "PROFILES", "churn_schedule",
           "profile_cluster", "jobs", "run_job", "run", "assemble",
           "render"]

#: (system key, compression algorithm) -- same pair as the
#: ``heterogeneous`` artifact, so the advisor can compare regimes.
SYSTEMS_UNDER_TEST: Tuple[Tuple[str, Optional[str]], ...] = (
    ("ring", None),
    ("hipress-ring", "dgc"),
)

#: churn key -> (seed, churn_rate); None means the static schedule.
CHURNS: Dict[str, Optional[Tuple[int, float]]] = {
    "static": None,
    "light": (101, 1.0),
    "heavy": (202, 3.0),
}

#: The three cluster profiles under churn.
PROFILES: Tuple[str, ...] = ("baseline", "wan", "mixed")


def profile_cluster(profile: str, num_nodes: int) -> ClusterSpec:
    """Materialize one profile's cluster from its JSON params."""
    if profile == "baseline":
        return get_cluster("ec2-v100", num_nodes=num_nodes)
    if profile == "wan":
        return get_cluster("wan-edge", num_nodes=num_nodes)
    if profile == "mixed":
        return get_cluster("hetero-mixed", num_nodes=num_nodes)
    raise ValueError(f"unknown cluster profile {profile!r}")


def churn_schedule(churn: str, num_nodes: int,
                   epochs: int) -> MembershipSchedule:
    """The named churn history for a fleet of ``num_nodes``."""
    params = CHURNS[churn]
    if params is None:
        return static_membership(num_nodes)
    seed, rate = params
    return random_membership_schedule(
        seed=seed, num_nodes=num_nodes, epochs=epochs, churn_rate=rate)


def jobs(num_nodes: int = 16, epochs: int = 3, model: str = "vgg19",
         profiles: Sequence[str] = PROFILES,
         churns: Sequence[str] = ("static", "light", "heavy")
         ) -> List[JobSpec]:
    """One job per (profile, churn, system) point."""
    specs: List[JobSpec] = []
    for profile in profiles:
        for churn in churns:
            schedule = churn_schedule(churn, num_nodes, epochs)
            for system, algorithm in SYSTEMS_UNDER_TEST:
                specs.append(JobSpec(
                    artifact="elastic",
                    job_id=f"elastic/{profile}-{churn}-{system}",
                    module="repro.experiments.elastic",
                    params={
                        "model": model,
                        "system": system,
                        "algorithm": algorithm,
                        "profile": profile,
                        "num_nodes": num_nodes,
                        "epochs": epochs,
                        "schedule": schedule.to_json_obj(),
                    }))
    return specs


def run_job(model: str, system: str, algorithm: Optional[str], profile: str,
            num_nodes: int, epochs: int,
            schedule: Mapping[str, Any]) -> Dict[str, Any]:
    """Run one system through one churn history on one profile."""
    cluster = profile_cluster(profile, num_nodes)
    membership = MembershipSchedule.from_json_obj(schedule)
    config = SYSTEMS[system]
    algo = None if algorithm is None else default_algorithm(algorithm)
    report = run_elastic(
        get_model(model), cluster, get_strategy(config.strategy),
        membership, epochs=epochs, algorithm=algo)
    return {
        "cluster": cluster.name,
        "num_nodes": cluster.num_nodes,
        "schedule_token": report.schedule_token,
        "total_time_s": report.total_time_s,
        "samples": report.samples,
        "goodput": report.goodput,
        "completed_epochs": report.completed_epochs,
        "mean_roster_size": report.mean_roster_size,
        "epochs": [
            {"epoch": e.epoch, "roster": list(e.roster),
             "status": e.status, "elapsed_s": e.elapsed_s,
             "departures": [[n, f] for n, f in e.departures]}
            for e in report.epochs],
    }


def assemble(payloads: Mapping[str, Dict],
             num_nodes: int = 16, epochs: int = 3, model: str = "vgg19",
             profiles: Sequence[str] = PROFILES,
             churns: Sequence[str] = ("static", "light", "heavy")
             ) -> Dict[str, Dict]:
    """Fold job payloads into the per-(profile, churn) win/loss table."""
    plain_system = SYSTEMS_UNDER_TEST[0][0]
    compressed_system = SYSTEMS_UNDER_TEST[1][0]
    results: Dict[str, Dict] = {}
    for profile in profiles:
        for churn in churns:
            key = f"{profile}-{churn}"
            plain = payloads[f"elastic/{key}-{plain_system}"]
            compressed = payloads[f"elastic/{key}-{compressed_system}"]
            results[key] = {
                "profile": profile,
                "churn": churn,
                "model": model,
                "num_nodes": num_nodes,
                "systems": {plain_system: plain,
                            compressed_system: compressed},
                "speedup": (plain["total_time_s"]
                            / compressed["total_time_s"]),
                "compression_wins": (compressed["total_time_s"]
                                     < plain["total_time_s"]),
                "mean_roster_size": compressed["mean_roster_size"],
            }
    return results


def run(num_nodes: int = 16, epochs: int = 3, model: str = "vgg19",
        profiles: Sequence[str] = PROFILES,
        churns: Sequence[str] = ("static", "light", "heavy")
        ) -> Dict[str, Dict]:
    kwargs = dict(num_nodes=num_nodes, epochs=epochs, model=model,
                  profiles=profiles, churns=churns)
    return assemble(execute_serial(jobs(**kwargs)), **kwargs)


def render(results: Dict[str, Dict]) -> str:
    plain_system = SYSTEMS_UNDER_TEST[0][0]
    compressed_system = SYSTEMS_UNDER_TEST[1][0]
    first = next(iter(results.values()))
    parts = [
        f"Compression win/loss under membership churn "
        f"({first['num_nodes']}-node fleet, {first['model']}): "
        f"{plain_system} vs {compressed_system}"]
    table = []
    for key, result in results.items():
        systems = result["systems"]
        table.append([
            key,
            f"{result['mean_roster_size']:.1f}",
            f"{systems[plain_system]['total_time_s'] * 1e3:.1f}",
            f"{systems[compressed_system]['total_time_s'] * 1e3:.1f}",
            f"{result['speedup']:.2f}x",
            "win" if result["compression_wins"] else "loss",
        ])
    parts.append(format_table(
        ["profile-churn", "roster", f"{plain_system} (ms)",
         f"{compressed_system} (ms)", "speedup", "compression"], table))
    return "\n".join(parts)
