"""Table 1: the motivating measurement.

Training Bert-large (BytePS +/- onebit) and Transformer (Ring +/- DGC) on
16 EC2 nodes / 128 V100s, reporting scaling efficiency and communication
ratio.  The paper's point: even with compression bolted on, scaling barely
improves -- compression needs system support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..cluster import ec2_v100_cluster
from .common import JobSpec, execute_serial, format_table, run_system

__all__ = ["PAPER", "jobs", "run", "run_job", "assemble", "render"]

#: Paper values: (scaling efficiency, communication ratio).
PAPER: Dict[Tuple[str, str], Tuple[float, float]] = {
    ("transformer", "ring"): (0.47, 0.768),
    ("transformer", "ring-oss"): (0.61, 0.703),
    ("bert-large", "byteps"): (0.71, 0.636),
    ("bert-large", "byteps-oss"): (0.76, 0.609),
}

ROWS = [
    ("transformer", "ring", None),
    ("transformer", "ring-oss", "dgc"),
    ("bert-large", "byteps", None),
    ("bert-large", "byteps-oss", "onebit"),
]


@dataclass(frozen=True)
class Table1Row:
    model: str
    system: str
    efficiency: float
    comm_ratio: float
    paper_efficiency: float
    paper_comm_ratio: float


def jobs(num_nodes: int = 16) -> List[JobSpec]:
    """One job per (model, system) row of the table."""
    return [
        JobSpec(artifact="table1",
                job_id=f"table1/{model}-{system}-n{num_nodes}",
                module=__name__,
                params={"model": model, "system": system,
                        "algorithm": algorithm, "num_nodes": num_nodes})
        for model, system, algorithm in ROWS
    ]


def run_job(model: str, system: str, algorithm, num_nodes: int) -> Dict:
    result = run_system(system, model, ec2_v100_cluster(num_nodes),
                        algorithm=algorithm)
    return {"efficiency": result.scaling_efficiency,
            "comm_ratio": result.comm_ratio}


def assemble(payloads: Mapping[str, Dict],
             num_nodes: int = 16) -> List[Table1Row]:
    rows = []
    for spec in jobs(num_nodes=num_nodes):
        payload = payloads[spec.job_id]
        model, system = spec.params["model"], spec.params["system"]
        paper_eff, paper_comm = PAPER[(model, system)]
        rows.append(Table1Row(
            model=model, system=system,
            efficiency=payload["efficiency"],
            comm_ratio=payload["comm_ratio"],
            paper_efficiency=paper_eff, paper_comm_ratio=paper_comm))
    return rows


def run(num_nodes: int = 16) -> List[Table1Row]:
    return assemble(execute_serial(jobs(num_nodes=num_nodes)),
                    num_nodes=num_nodes)


def render(rows: List[Table1Row]) -> str:
    table = format_table(
        ["model", "system", "scaling eff (paper)", "scaling eff (ours)",
         "comm ratio (paper)", "comm ratio (ours)"],
        [[r.model, r.system, f"{r.paper_efficiency:.2f}",
          f"{r.efficiency:.2f}", f"{r.paper_comm_ratio:.1%}",
          f"{r.comm_ratio:.1%}"] for r in rows])
    return "Table 1 -- motivation: compression without system support\n" + table
