"""Advanced features: Accordion-style adaptive compression and SSP.

Two extensions the paper's related-work section points at:

1. *Adaptive compression rates* (Accordion): detect critical learning
   regimes from gradient-norm dynamics and compress conservatively inside
   them, aggressively outside -- "can be employed by HiPress as an
   advanced feature" (§7).  Here an accordion policy re-decides every
   gradient's codec each iteration of a simulated CaSync-PS run, next to
   the two codecs it switches between used on their own.
2. *Stale-synchronous training* (SSP): HiPress "is expected to work with
   other synchronization methods such as ASP and SSP" -- validated here
   with real numerical training under bounded staleness, with
   compression.

Run:  python examples/adaptive_and_ssp.py
"""

import numpy as np

from repro.adaptive import run_policy
from repro.algorithms import TernGrad
from repro.cluster import ec2_v100_cluster
from repro.experiments.common import format_table
from repro.minidnn import (
    ClassificationData,
    Dense,
    ReLU,
    Sequential,
    StalenessTrainer,
)

WORKERS = 4
ACCORDION = "accordion:conservative=terngrad,aggressive=dgc,threshold=0.5"


def builder(data, seed=7):
    rng = np.random.default_rng(seed)

    def build():
        return Sequential(Dense(data.dim, 64, rng=rng), ReLU(),
                          Dense(64, data.num_classes, rng=rng))

    return build


def adaptive_demo():
    print("=== 1. Accordion-style adaptive compression ===")
    # A 10 Gbps fabric, where the two codecs' wire sizes matter.
    cluster = ec2_v100_cluster(WORKERS).with_bandwidth(10.0)
    rows = []
    for spec in (ACCORDION, "fixed:terngrad", "fixed:dgc"):
        run = run_policy("vgg19", cluster, spec, iterations=24)
        share = "static"
        if run.log.entries:
            first, last = (
                sum(d["algorithm"] == "conservative"
                    for d in entry["decisions"].values())
                / sum(d["compress"] for d in entry["decisions"].values())
                for entry in (run.log.entries[0], run.log.entries[-1]))
            share = f"{first:.0%} -> {last:.0%}"
        rows.append([run.policy.describe(),
                     f"{run.iteration_times[0] * 1e3:.2f}",
                     f"{run.iteration_times[-1] * 1e3:.2f}",
                     f"{run.mean_iteration_time * 1e3:.2f}", share])
    print(format_table(["policy", "first iter (ms)", "last iter (ms)",
                        "mean (ms)", "conservative share"], rows))
    print("  the controller tracks per-gradient norm dynamics: early, "
          "critical iterations send the high-fidelity codec; once norms "
          "settle, most gradients switch to aggressive sparsification "
          "and each iteration's plan follows the decisions.")


def ssp_demo(data):
    print("\n=== 2. Stale-synchronous parallel with compression ===")
    for staleness in (0, 2, None):
        trainer = StalenessTrainer(builder(data), num_workers=WORKERS,
                                   lr=0.08, momentum=0.9,
                                   algorithm=TernGrad(bitwidth=4, seed=1),
                                   feedback="error", staleness=staleness,
                                   seed=5)
        shards = [data.shard(w, WORKERS) for w in range(WORKERS)]
        done = trainer.run(shards, total_ticks=600, batch_size=16,
                           skew=[1, 1, 2, 6])  # worker 3 runs 6x faster
        acc = trainer.accuracy(data.test_x, data.test_y)
        label = "ASP (unbounded)" if staleness is None else f"SSP s={staleness}"
        print(f"  {label:16s}: {done:3d}/600 productive ticks, "
              f"{trainer.blocked_ticks:3d} staleness-blocked, "
              f"max lag {trainer.max_observed_lag}, accuracy {acc:.3f}")
    print("  tighter staleness bounds block fast workers more but keep "
          "updates fresher; all settings converge on this task.")


if __name__ == "__main__":
    data = ClassificationData(num_classes=8, dim=20, train_size=1200,
                              noise=1.3, seed=4)
    adaptive_demo()
    ssp_demo(data)
