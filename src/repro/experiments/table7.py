"""Table 7: selective compression & partitioning plans for CompLL-onebit.

For 4MB / 16MB / 392MB gradients on 4- and 16-node EC2 clusters, under
CaSync-PS and CaSync-Ring: does the planner compress, and into how many
partitions does it split?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..algorithms import OneBit
from ..casync import CostModel, SelectivePlanner
from ..cluster import ec2_v100_cluster
from ..models import MB, GradientSpec
from .common import JobSpec, execute_serial, format_table

__all__ = ["PAPER", "jobs", "run", "run_job", "assemble", "render"]

#: Paper Table 7: (strategy, nodes, size MB) -> (compress?, partitions).
PAPER: Dict[Tuple[str, int, int], Tuple[bool, int]] = {
    ("ps", 4, 4): (True, 2), ("ps", 16, 4): (True, 1),
    ("ps", 4, 16): (True, 4), ("ps", 16, 16): (True, 6),
    ("ps", 4, 392): (True, 12), ("ps", 16, 392): (True, 16),
    ("ring", 4, 4): (True, 1), ("ring", 16, 4): (False, 16),
    ("ring", 4, 16): (True, 4), ("ring", 16, 16): (True, 5),
    ("ring", 4, 392): (True, 4), ("ring", 16, 392): (True, 16),
}

SIZES_MB = (4, 16, 392)
NODE_COUNTS = (4, 16)


@dataclass(frozen=True)
class Table7Row:
    strategy: str
    nodes: int
    size_mb: int
    compress: bool
    partitions: int
    paper_compress: bool
    paper_partitions: int


PRESETS = {"ps": "ps_colocated", "ring": "ring"}


def jobs() -> List[JobSpec]:
    """One job per (strategy, cluster size, gradient size) plan query."""
    return [
        JobSpec(artifact="table7",
                job_id=f"table7/{strategy}-n{nodes}-{size_mb}mb",
                module=__name__,
                params={"strategy": strategy, "nodes": nodes,
                        "size_mb": size_mb})
        for strategy in PRESETS
        for nodes in NODE_COUNTS
        for size_mb in SIZES_MB
    ]


def run_job(strategy: str, nodes: int, size_mb: int) -> Dict:
    planner = SelectivePlanner(CostModel(
        ec2_v100_cluster(nodes), OneBit(), strategy=PRESETS[strategy]))
    plan = planner.plan_gradient(GradientSpec(f"g{size_mb}", size_mb * MB))
    return {"compress": plan.compress, "partitions": plan.partitions}


def assemble(payloads: Mapping[str, Dict]) -> List[Table7Row]:
    rows = []
    for spec in jobs():
        strategy = spec.params["strategy"]
        nodes, size_mb = spec.params["nodes"], spec.params["size_mb"]
        payload = payloads[spec.job_id]
        p_compress, p_parts = PAPER[(strategy, nodes, size_mb)]
        rows.append(Table7Row(
            strategy=strategy, nodes=nodes, size_mb=size_mb,
            compress=payload["compress"], partitions=payload["partitions"],
            paper_compress=p_compress, paper_partitions=p_parts))
    return rows


def run() -> List[Table7Row]:
    return assemble(execute_serial(jobs()))


def render(rows: List[Table7Row]) -> str:
    def tup(compress, parts):
        return f"<{'yes' if compress else 'no'},{parts}>"

    table = format_table(
        ["strategy", "nodes", "gradient", "paper", "ours"],
        [[f"CaSync-{r.strategy.upper()}", r.nodes, f"{r.size_mb}MB",
          tup(r.paper_compress, r.paper_partitions),
          tup(r.compress, r.partitions)] for r in rows])
    return ("Table 7 -- compression & partitioning plans "
            "(CompLL-onebit)\n" + table)
