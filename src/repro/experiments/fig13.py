"""Figure 13: convergence validation with real numerical training.

The paper trains LSTM (to a target perplexity) and ResNet50 (to a target
accuracy) on the local cluster and shows that HiPress with DGC/TernGrad
converges to the same quality in the same number of iterations -- but up
to 28.6% less wall time, because each iteration is faster.

Here the substitution (per DESIGN.md): real NumPy data-parallel training
on small models with the *actual* compression codecs + error feedback
plays the statistical role; the wall-time axis comes from the throughput
simulator's per-iteration times for the corresponding systems on the
local-cluster profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..algorithms import DGC, TernGrad
from ..cluster import local_1080ti_cluster
from ..minidnn import (
    ClassificationData,
    DataParallelTrainer,
    Dense,
    Embedding,
    MarkovTextData,
    ReLU,
    Sequential,
)
from .common import JobSpec, execute_serial, format_table, run_system

__all__ = ["ConvergenceCurve", "jobs", "run", "run_job", "assemble",
           "render", "PAPER"]

PAPER = {"time_saving": 0.286}  # "up to 28.6% less time"


@dataclass(frozen=True)
class ConvergenceCurve:
    task: str                   # "lm-perplexity" or "classifier-accuracy"
    system: str                 # "baseline" or "hipress"
    iteration_time: float       # seconds/iteration from the simulator
    steps: Tuple[int, ...]
    metric: Tuple[float, ...]   # perplexity (lower better) or accuracy
    target: float
    steps_to_target: int        # -1 if never reached

    @property
    def time_to_target(self) -> float:
        if self.steps_to_target < 0:
            return float("inf")
        return self.steps_to_target * self.iteration_time


def _train_lm(algorithm, feedback: str, steps: int, eval_every: int,
              workers: int, seed: int):
    data = MarkovTextData(train_tokens=8000, test_tokens=1500, vocab=48,
                          context=3, seed=1)
    rng_model = np.random.default_rng(21)

    def build():
        return Sequential(
            Embedding(data.vocab, 12, rng=rng_model),
            Dense(12 * data.context, 96, rng=rng_model), ReLU(),
            Dense(96, data.vocab, rng=rng_model))

    trainer = DataParallelTrainer(build, num_workers=workers, lr=0.25,
                                  momentum=0.9, algorithm=algorithm,
                                  feedback=feedback, seed=seed)
    shards = [data.shard(w, workers) for w in range(workers)]
    test_x, test_y = data.windows(data.test_stream)
    rng = np.random.default_rng(seed + 100)
    points = []
    for step in range(1, steps + 1):
        batch = []
        for x, y in shards:
            idx = rng.integers(0, len(x), size=32)
            batch.append((x[idx], y[idx]))
        trainer.step(batch)
        if step % eval_every == 0:
            points.append((step, trainer.perplexity(test_x, test_y)))
    return points


def _train_classifier(algorithm, feedback: str, steps: int,
                      eval_every: int, workers: int, seed: int):
    data = ClassificationData(num_classes=8, dim=24, train_size=1600,
                              noise=1.6, seed=2)
    rng_model = np.random.default_rng(22)

    def build():
        return Sequential(
            Dense(data.dim, 96, rng=rng_model), ReLU(),
            Dense(96, data.num_classes, rng=rng_model))

    trainer = DataParallelTrainer(build, num_workers=workers, lr=0.12,
                                  momentum=0.9, algorithm=algorithm,
                                  feedback=feedback, seed=seed)
    shards = [data.shard(w, workers) for w in range(workers)]
    rng = np.random.default_rng(seed + 200)
    points = []
    for step in range(1, steps + 1):
        batch = []
        for x, y in shards:
            idx = rng.integers(0, len(x), size=16)
            batch.append((x[idx], y[idx]))
        trainer.step(batch)
        if step % eval_every == 0:
            points.append((step, trainer.accuracy(data.test_x, data.test_y)))
    return points


def _steps_to(points, target, lower_is_better) -> int:
    for step, value in points:
        if (value <= target) if lower_is_better else (value >= target):
            return step
    return -1


#: Simulator runs giving the wall-time axis: LSTM-role task syncs via
#: Ring vs HiPress-CaSync-Ring(DGC); classifier-role via Ring vs
#: HiPress-CaSync-PS(TernGrad), as in the paper.
SIM_GRID = (
    ("lm", "baseline", "ring", "lstm", None),
    ("lm", "hipress", "hipress-ring", "lstm", "dgc"),
    ("cls", "baseline", "ring", "resnet50", None),
    ("cls", "hipress", "hipress-ps", "resnet50", "terngrad"),
)


def jobs(steps: int = 300, eval_every: int = 15, workers: int = 4,
         num_nodes: int = 16) -> List[JobSpec]:
    """Four simulator jobs (wall-time axis) + four training jobs."""
    specs = []
    for task, role, system, model, algo in SIM_GRID:
        specs.append(JobSpec(
            artifact="fig13",
            job_id=f"fig13/sim-{task}-{role}-n{num_nodes}",
            module=__name__,
            params={"kind": "sim", "system": system, "model": model,
                    "algorithm": algo, "num_nodes": num_nodes}))
    for task in ("lm", "cls"):
        for role in ("baseline", "hipress"):
            specs.append(JobSpec(
                artifact="fig13",
                job_id=f"fig13/train-{task}-{role}",
                module=__name__,
                params={"kind": "train", "task": task, "role": role,
                        "steps": steps, "eval_every": eval_every,
                        "workers": workers}))
    return specs


def run_job(kind: str, **params) -> object:
    if kind == "sim":
        cluster = local_1080ti_cluster(params["num_nodes"])
        result = run_system(params["system"], params["model"], cluster,
                            algorithm=params["algorithm"], on_ec2=False)
        return {"iteration_time": result.iteration_time}
    if kind == "train":
        steps = params["steps"]
        eval_every = params["eval_every"]
        workers = params["workers"]
        task, role = params["task"], params["role"]
        if task == "lm":
            if role == "baseline":
                points = _train_lm(None, "none", steps, eval_every,
                                   workers, 7)
            else:
                # DGC's published 0.1% rate is tuned to multi-hundred-MB
                # models; its own paper warms up with gentler rates on
                # small ones.  This LM has ~10k parameters, so the
                # equivalent working rate is far higher.
                points = _train_lm(DGC(rate=0.25), "dgc", steps,
                                   eval_every, workers, 7)
        else:
            if role == "baseline":
                points = _train_classifier(None, "none", steps, eval_every,
                                           workers, 9)
            else:
                points = _train_classifier(TernGrad(bitwidth=2, seed=5),
                                           "error", steps, eval_every,
                                           workers, 9)
        return [[step, float(value)] for step, value in points]
    raise ValueError(f"unknown fig13 job kind {kind!r}")


def assemble(payloads: Mapping[str, object], steps: int = 300,
             eval_every: int = 15, workers: int = 4, num_nodes: int = 16
             ) -> Dict[str, List[ConvergenceCurve]]:
    iter_times = {
        (task, role): payloads[f"fig13/sim-{task}-{role}-n{num_nodes}"]
        ["iteration_time"]
        for task, role, _, _, _ in SIM_GRID
    }
    points = {
        (task, role): [(step, value) for step, value in
                       payloads[f"fig13/train-{task}-{role}"]]
        for task in ("lm", "cls")
        for role in ("baseline", "hipress")
    }

    # Targets: what the baseline reaches by the end (the paper uses the
    # model-zoo reference numbers the baseline attains).
    lm_target = min(v for _, v in points[("lm", "baseline")]) * 1.05
    cls_target = max(v for _, v in points[("cls", "baseline")]) * 0.98

    def curve(task_label, task, role, target, lower):
        pts = points[(task, role)]
        system = "baseline" if role == "baseline" else "hipress"
        return ConvergenceCurve(
            task=task_label, system=system,
            iteration_time=iter_times[(task, role)],
            steps=tuple(s for s, _ in pts),
            metric=tuple(v for _, v in pts),
            target=target,
            steps_to_target=_steps_to(pts, target, lower))

    return {
        "lm-perplexity": [
            curve("lm-perplexity", "lm", "baseline", lm_target, True),
            curve("lm-perplexity", "lm", "hipress", lm_target, True),
        ],
        "classifier-accuracy": [
            curve("classifier-accuracy", "cls", "baseline", cls_target,
                  False),
            curve("classifier-accuracy", "cls", "hipress", cls_target,
                  False),
        ],
    }


def run(steps: int = 300, eval_every: int = 15, workers: int = 4,
        num_nodes: int = 16) -> Dict[str, List[ConvergenceCurve]]:
    return assemble(
        execute_serial(jobs(steps=steps, eval_every=eval_every,
                            workers=workers, num_nodes=num_nodes)),
        steps=steps, eval_every=eval_every, workers=workers,
        num_nodes=num_nodes)


def render(results: Dict[str, List[ConvergenceCurve]]) -> str:
    parts = ["Figure 13 -- convergence: compressed training reaches the "
             "same target quality, in less wall time"]
    rows = []
    for task, curves in results.items():
        base, hipress = curves
        for c in curves:
            reached = (f"step {c.steps_to_target}"
                       if c.steps_to_target > 0 else "not reached")
            rows.append([task, c.system, f"{c.target:.3f}", reached,
                         f"{c.iteration_time * 1000:.0f} ms/iter",
                         (f"{c.time_to_target:.1f} s"
                          if c.time_to_target != float("inf") else "-")])
        if base.time_to_target > 0 and hipress.steps_to_target > 0:
            saving = 1 - hipress.time_to_target / base.time_to_target
            rows.append([task, "=> time saving", "", "", "",
                         f"{saving:.1%} (paper: up to "
                         f"{PAPER['time_saving']:.1%})"])
    parts.append(format_table(
        ["task", "system", "target", "reached at", "iter time",
         "time to target"], rows))
    return "\n".join(parts)
