"""Tests for the ``TrainingJob`` facade (``repro.hipress.framework``)."""

import pytest

from repro.casync import CostModel
from repro.cluster import ec2_v100_cluster, local_1080ti_cluster
from repro.hipress import TrainingJob


def small_job(**kw):
    defaults = dict(model="resnet50", algorithm="onebit",
                    strategy="casync-ps", cluster=ec2_v100_cluster(2))
    defaults.update(kw)
    return TrainingJob(**defaults)


# ---------------------------------------------------------------- TrainingJob

def test_job_runs_and_reports():
    job = small_job()
    result = job.run()
    assert result.iteration_time > 0
    assert 0 < result.scaling_efficiency <= 1.05
    assert "resnet50" in job.summary()


def test_job_profile_monotone():
    profile = small_job().profile()
    assert list(profile.t_enc) == sorted(profile.t_enc)
    assert list(profile.t_send) == sorted(profile.t_send)
    assert all(0 < r < 1 for r in profile.compression_rate)


def test_job_profile_rate_clamps_a_sub_element_probe():
    job = small_job()
    cost = CostModel(job.cluster, job.algorithm, strategy="ps_colocated")
    profile = job.profile(probe_sizes=(2, 1 << 20))
    assert profile.compression_rate == (cost.compression_rate(2),
                                        cost.compression_rate(1 << 20))
    assert profile.compression_rate[0] == job.algorithm.compression_rate(1)


def test_job_profile_cached():
    job = small_job()
    assert job.profile() is job.profile()


def test_job_plans_cover_model():
    job = small_job()
    assert len(job.plans) == job.model.num_gradients


def test_job_ring_strategy():
    job = small_job(strategy="casync-ring", algorithm="dgc")
    result = job.run()
    assert result.strategy == "casync-ring"


def test_job_unknown_strategy():
    with pytest.raises(ValueError):
        small_job(strategy="casync-mesh")


def test_job_accepts_algorithm_instance():
    from repro.algorithms import TernGrad
    job = small_job(algorithm=TernGrad(bitwidth=4))
    assert job.algorithm.bitwidth == 4


def test_job_ablation_flags():
    job = small_job(model="vgg19", cluster=local_1080ti_cluster(4))
    full = job.run()
    degraded = job.run(pipelining=False, bulk=False, selective=False)
    assert full.iteration_time <= degraded.iteration_time * 1.05


def test_job_compll_generated_algorithm():
    """A DSL-compiled codec plugs into HiPress like a built-in one."""
    from repro.compll import build
    job = small_job(algorithm=build("onebit"))
    result = job.run()
    assert result.iteration_time > 0
