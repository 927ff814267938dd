"""Figure 12: impact of network bandwidth and compression rate.

(a) Bert-base with HiPress-CaSync-PS(onebit) on high vs low bandwidth
    (EC2 100/25 Gbps, local 56/10 Gbps): the paper's point is that the
    *speedup over the non-compression baseline* stays similar, i.e.
    HiPress does not need an expensive network.
(b) VGG19 with CaSync-PS, varying TernGrad bitwidth (2/4/8) and DGC rate
    (0.1%/1%/5%): higher rates cost throughput but HiPress still syncs
    fast.  Paper: TernGrad loses 12.8%/23.6% going 2->4->8 bits; DGC loses
    6.7%/11.3% going 0.1%->1%->5%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..cluster import ec2_v100_cluster, local_1080ti_cluster
from .common import JobSpec, execute_serial, format_table, run_system

__all__ = ["PAPER", "jobs", "run_job", "assemble", "run_bandwidth",
           "run_rate", "render"]

#: Fig. 12a grid: (cluster preset, bandwidth settings in Gbps).
BANDWIDTH_GRID = (("ec2", (100.0, 25.0)), ("local", (56.0, 10.0)))
#: Fig. 12b grid.
TERNGRAD_BITWIDTHS = (2, 4, 8)
DGC_RATES = (0.001, 0.01, 0.05)

PAPER = {
    "terngrad_drop": (0.128, 0.236),   # bitwidth 4, 8 vs 2
    "dgc_drop": (0.067, 0.113),        # rate 1%, 5% vs 0.1%
}


@dataclass(frozen=True)
class BandwidthPoint:
    cluster: str
    bandwidth_gbps: float
    hipress_throughput: float
    baseline_throughput: float

    @property
    def speedup(self) -> float:
        return self.hipress_throughput / self.baseline_throughput


def _bandwidth_jobs(num_nodes: int) -> List[JobSpec]:
    specs = []
    for cluster_name, bandwidths in BANDWIDTH_GRID:
        for gbps in bandwidths:
            for system, algo in (("hipress-ps", "onebit"), ("ring", None)):
                specs.append(JobSpec(
                    artifact="fig12",
                    job_id=(f"fig12/bw-{cluster_name}-{gbps:g}gbps-"
                            f"{system}-n{num_nodes}"),
                    module=__name__,
                    params={"kind": "bandwidth", "cluster": cluster_name,
                            "gbps": gbps, "system": system,
                            "algorithm": algo, "num_nodes": num_nodes}))
    return specs


def _rate_jobs(num_nodes: int) -> List[JobSpec]:
    specs = []
    for bitwidth in TERNGRAD_BITWIDTHS:
        specs.append(JobSpec(
            artifact="fig12",
            job_id=f"fig12/rate-terngrad-{bitwidth}bit-n{num_nodes}",
            module=__name__,
            params={"kind": "rate", "algorithm": "terngrad",
                    "algorithm_params": {"bitwidth": bitwidth},
                    "num_nodes": num_nodes}))
    for rate in DGC_RATES:
        specs.append(JobSpec(
            artifact="fig12",
            job_id=f"fig12/rate-dgc-{rate:g}-n{num_nodes}",
            module=__name__,
            params={"kind": "rate", "algorithm": "dgc",
                    "algorithm_params": {"rate": rate},
                    "num_nodes": num_nodes}))
    return specs


def jobs(num_nodes: int = 16) -> List[JobSpec]:
    """Both panels: bandwidth grid plus compression-rate grid."""
    return _bandwidth_jobs(num_nodes) + _rate_jobs(num_nodes)


def run_job(kind: str, **params) -> Dict:
    if kind == "bandwidth":
        factory = (ec2_v100_cluster if params["cluster"] == "ec2"
                   else local_1080ti_cluster)
        cluster = factory(params["num_nodes"],
                          bandwidth_gbps=params["gbps"])
        result = run_system(params["system"], "bert-base", cluster,
                            algorithm=params["algorithm"],
                            on_ec2=params["cluster"] == "ec2")
        return {"throughput": result.throughput}
    if kind == "rate":
        cluster = local_1080ti_cluster(params["num_nodes"])
        result = run_system("hipress-ps", "vgg19", cluster,
                            algorithm=params["algorithm"],
                            algorithm_params=params["algorithm_params"],
                            on_ec2=False)
        return {"throughput": result.throughput}
    raise ValueError(f"unknown fig12 job kind {kind!r}")


def _assemble_bandwidth(payloads: Mapping[str, Dict],
                        num_nodes: int) -> List[BandwidthPoint]:
    points = []
    for cluster_name, bandwidths in BANDWIDTH_GRID:
        for gbps in bandwidths:
            stem = f"fig12/bw-{cluster_name}-{gbps:g}gbps"
            points.append(BandwidthPoint(
                cluster=cluster_name, bandwidth_gbps=gbps,
                hipress_throughput=payloads[
                    f"{stem}-hipress-ps-n{num_nodes}"]["throughput"],
                baseline_throughput=payloads[
                    f"{stem}-ring-n{num_nodes}"]["throughput"]))
    return points


def _assemble_rate(payloads: Mapping[str, Dict],
                   num_nodes: int) -> List["RatePoint"]:
    points = []
    for bitwidth in TERNGRAD_BITWIDTHS:
        payload = payloads[f"fig12/rate-terngrad-{bitwidth}bit-n{num_nodes}"]
        points.append(RatePoint("terngrad", f"{bitwidth}-bit",
                                payload["throughput"]))
    for rate in DGC_RATES:
        payload = payloads[f"fig12/rate-dgc-{rate:g}-n{num_nodes}"]
        points.append(RatePoint("dgc", f"{rate:.1%}", payload["throughput"]))
    return points


def assemble(payloads: Mapping[str, Dict], num_nodes: int = 16
             ) -> Tuple[List[BandwidthPoint], List["RatePoint"]]:
    return (_assemble_bandwidth(payloads, num_nodes),
            _assemble_rate(payloads, num_nodes))


def run_bandwidth(num_nodes: int = 16) -> List[BandwidthPoint]:
    """Fig. 12a: Bert-base HiPress vs Ring at high/low bandwidth."""
    return _assemble_bandwidth(execute_serial(_bandwidth_jobs(num_nodes)),
                               num_nodes)


@dataclass(frozen=True)
class RatePoint:
    algorithm: str
    setting: str
    throughput: float


def run_rate(num_nodes: int = 16) -> List[RatePoint]:
    """Fig. 12b: VGG19 CaSync-PS at several compression rates.

    Runs on the local cluster -- the paper uses "the same setup as
    Figure 10", where VGG19's synchronization is not fully hidden, so the
    extra volume of weaker compression actually shows up.
    """
    return _assemble_rate(execute_serial(_rate_jobs(num_nodes)), num_nodes)


def render(bandwidth: List[BandwidthPoint], rates: List[RatePoint]) -> str:
    parts = ["Figure 12a -- HiPress vs Ring at different bandwidths "
             "(paper: HiPress achieves near-optimal performance without "
             "high-end networks)"]
    parts.append(format_table(
        ["cluster", "bandwidth", "HiPress", "Ring", "speedup"],
        [[p.cluster, f"{p.bandwidth_gbps:.0f} Gbps",
          f"{p.hipress_throughput:,.0f}", f"{p.baseline_throughput:,.0f}",
          f"{p.speedup:.2f}x"] for p in bandwidth]))
    by_cluster = {}
    for p in bandwidth:
        by_cluster.setdefault(p.cluster, []).append(p)
    for cluster, points in by_cluster.items():
        high = max(points, key=lambda p: p.bandwidth_gbps)
        low = min(points, key=lambda p: p.bandwidth_gbps)
        drop = 1 - low.hipress_throughput / high.hipress_throughput
        base_drop = 1 - low.baseline_throughput / high.baseline_throughput
        parts.append(
            f"  {cluster}: cutting bandwidth {high.bandwidth_gbps:.0f}->"
            f"{low.bandwidth_gbps:.0f} Gbps costs HiPress {drop:.1%} "
            f"throughput (Ring loses {base_drop:.1%})")

    parts.append("\nFigure 12b -- compression-rate impact on VGG19 "
                 "(throughput, CaSync-PS)")
    parts.append(format_table(
        ["algorithm", "setting", "throughput"],
        [[p.algorithm, p.setting, f"{p.throughput:,.0f}"] for p in rates]))
    tern = [p.throughput for p in rates if p.algorithm == "terngrad"]
    dgc = [p.throughput for p in rates if p.algorithm == "dgc"]
    if len(tern) == 3:
        parts.append(
            f"  terngrad drop 2->4: ours {1 - tern[1] / tern[0]:.1%} "
            f"(paper {PAPER['terngrad_drop'][0]:.1%}); "
            f"2->8: ours {1 - tern[2] / tern[0]:.1%} "
            f"(paper {PAPER['terngrad_drop'][1]:.1%})")
    if len(dgc) == 3:
        parts.append(
            f"  dgc drop 0.1%->1%: ours {1 - dgc[1] / dgc[0]:.1%} "
            f"(paper {PAPER['dgc_drop'][0]:.1%}); "
            f"0.1%->5%: ours {1 - dgc[2] / dgc[0]:.1%} "
            f"(paper {PAPER['dgc_drop'][1]:.1%})")
    return "\n".join(parts)
