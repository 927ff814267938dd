"""Tests for plan serialization and the Adam optimizer extension."""

import json

import numpy as np
import pytest

from repro.casync import plans_to_json
from repro.cluster import ec2_v100_cluster
from repro.hipress import TrainingJob
from repro.minidnn import Adam, ClassificationData, Dense, Parameter, ReLU, \
    Sequential
from repro.minidnn.parallel import DataParallelTrainer


# ---------------------------------------------------------------- plans

def _table(plans):
    return {name: {"nbytes": p.nbytes, "compress": p.compress,
                   "partitions": p.partitions,
                   "predicted_time": p.predicted_time}
            for name, p in plans.items()}


def test_plans_roundtrip_json():
    job = TrainingJob("resnet50", algorithm="onebit",
                      cluster=ec2_v100_cluster(2))
    assert json.loads(plans_to_json(job.plans)) == _table(job.plans)


def test_job_save_plans_exports_the_planner_table(tmp_path):
    cluster = ec2_v100_cluster(2)
    job = TrainingJob("resnet50", algorithm="onebit", cluster=cluster)
    path = tmp_path / "plans.json"
    job.save_plans(path)
    saved = json.loads(path.read_text())
    assert saved == _table(job.plans)
    assert set(saved) == {g.name for g in job.model.gradients}
    # The export is what a fresh job on the same inputs plans.
    fresh = TrainingJob("resnet50", algorithm="onebit", cluster=cluster)
    assert _table(fresh.plans) == saved


# ---------------------------------------------------------------- Adam

def test_adam_descends_quadratic():
    p = Parameter(np.asarray([10.0], dtype=np.float32))
    opt = Adam([p], lr=0.5)
    for _ in range(100):
        p.zero_grad()
        p.grad += 2 * p.value
        opt.step()
    assert abs(p.value[0]) < 0.1


def test_adam_scale_invariance():
    """Adam's per-coordinate normalization makes progress on badly scaled
    gradients where plain SGD at the same lr crawls."""
    def run(opt_cls, **kw):
        p = Parameter(np.asarray([1.0, 1.0], dtype=np.float32))
        opt = opt_cls([p], **kw)
        for _ in range(200):
            p.zero_grad()
            p.grad += np.asarray([2e-3 * p.value[0], 2e3 * p.value[1]],
                                 dtype=np.float32)
            opt.step()
        return np.abs(p.value)

    from repro.minidnn import SGD
    adam = run(Adam, lr=0.05)
    sgd = run(SGD, lr=1e-5)  # largest stable lr for the stiff coordinate
    assert adam[0] < sgd[0]


def test_adam_validation():
    with pytest.raises(ValueError):
        Adam([], lr=0)
    with pytest.raises(ValueError):
        Adam([], beta1=1.0)


def test_trainer_with_adam_and_compression():
    from repro.algorithms import TernGrad
    data = ClassificationData(train_size=600, num_classes=6, dim=16,
                              noise=1.0, seed=3)
    rng = np.random.default_rng(5)

    def build():
        return Sequential(Dense(data.dim, 48, rng=rng), ReLU(),
                          Dense(48, data.num_classes, rng=rng))

    trainer = DataParallelTrainer(build, num_workers=2, lr=0.01,
                                  optimizer="adam",
                                  algorithm=TernGrad(bitwidth=4, seed=1),
                                  feedback="error", seed=3)
    shards = [data.shard(w, 2) for w in range(2)]
    rng2 = np.random.default_rng(9)
    for _ in range(150):
        batch = []
        for x, y in shards:
            idx = rng2.integers(0, len(x), size=16)
            batch.append((x[idx], y[idx]))
        trainer.step(batch)
    assert trainer.accuracy(data.test_x, data.test_y) > 0.8


def test_trainer_unknown_optimizer():
    data = ClassificationData(train_size=50, seed=1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="optimizer"):
        DataParallelTrainer(
            lambda: Sequential(Dense(data.dim, 4, rng=rng)),
            optimizer="lion")
