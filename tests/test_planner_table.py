"""The table planner against the scalar K search it replaced.

``SelectivePlanner.plan_model`` costs every (gradient, K, compress?) cell
of Eqs. (1)-(2) in one NumPy pass per K; ``tests/scalar_planner.py``
keeps the one-call-per-cell loop as the oracle.  Verdicts and predicted
times must agree exactly, as must the §6.1 compression thresholds.  The
array-safe kernel-cost primitives the table relies on are checked
against their scalar calls here too.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import available_algorithms, get_algorithm
from repro.casync import CostModel, SelectivePlanner, STEP_COUNT_PRESETS
from repro.cluster import ClusterSpec, ec2_v100_cluster, get_cluster
from repro.compll.library import build
from repro.gpu import GTX1080TI, V100
from repro.models import MB, GradientSpec, get_model

from tests import scalar_planner

CODECS = tuple(available_algorithms()) + ("compll-terngrad",)
PRESETS = tuple(sorted(STEP_COUNT_PRESETS))

#: Realistic sizes (every VGG19 and LSTM gradient) plus the edges of the
#: element-count clamp and float sizes that split unevenly.
GRADIENTS = (
    tuple(get_model("vgg19").gradients) + tuple(get_model("lstm").gradients)
    + tuple(GradientSpec(f"edge{i}", size) for i, size in enumerate(
        (1, 2, 3, 4, 5, 7, 8, 63, 1023, 4097, 65537, 1.5, 1000.25,
         3 * MB + 0.5, 392 * MB))))

CLUSTERS = {
    **{f"uniform-{n}": ec2_v100_cluster(n) for n in (1, 4, 16, 32)},
    "straggler": get_cluster("ec2-v100-straggler", num_nodes=8,
                             severity=4.0),
    "wan": get_cluster("wan-edge", num_nodes=8, wan_up_gbps=1.0),
    "hetero-mixed": get_cluster("hetero-mixed", num_nodes=8),
}
# The same fleet with the 1080 Ti nodes first, so the slowest GPU is not
# always the last distinct one.
CLUSTERS["mixed-slow-first"] = ClusterSpec.heterogeneous(
    name="mixed-slow-first",
    nodes=tuple(reversed(CLUSTERS["hetero-mixed"].nodes)),
    network=CLUSTERS["hetero-mixed"].network)

_CODEC_CACHE = {}


def codec(name):
    if name not in _CODEC_CACHE:
        _CODEC_CACHE[name] = (build("terngrad") if name == "compll-terngrad"
                              else get_algorithm(name))
    return _CODEC_CACHE[name]


def assert_same_plans(got, want):
    assert list(got) == list(want)
    for name, plan in want.items():
        mine = got[name]
        assert (mine.compress, mine.partitions, repr(mine.predicted_time),
                mine.nbytes) == (plan.compress, plan.partitions,
                                 repr(plan.predicted_time), plan.nbytes), name


@pytest.mark.parametrize("cluster", sorted(CLUSTERS))
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("codec_name", CODECS)
def test_plan_model_equals_scalar_oracle(codec_name, preset, cluster):
    planner = SelectivePlanner(
        CostModel(CLUSTERS[cluster], codec(codec_name), strategy=preset))
    assert_same_plans(planner.plan_model(GRADIENTS),
                      scalar_planner.plan_model(planner, GRADIENTS))
    assert (planner.compression_threshold()
            == scalar_planner.compression_threshold(planner))


@pytest.mark.parametrize("cluster", ["uniform-4", "hetero-mixed"])
@pytest.mark.parametrize("preset", PRESETS)
def test_max_partitions_above_n_equals_scalar_oracle(preset, cluster):
    spec = CLUSTERS[cluster]
    planner = SelectivePlanner(
        CostModel(spec, codec("onebit"), strategy=preset),
        max_partitions=5 * spec.num_nodes + 3)
    assert planner.max_partitions > max(spec.num_nodes, 16)
    assert_same_plans(planner.plan_model(GRADIENTS),
                      scalar_planner.plan_model(planner, GRADIENTS))
    probes = [1 << s for s in range(2, 34, 3)]
    assert (planner.compression_threshold(probes)
            == scalar_planner.compression_threshold(planner, probes))


def test_plan_gradient_and_scalar_eqs_are_one_cell_calls():
    cost = CostModel(CLUSTERS["hetero-mixed"], codec("dgc"), strategy="ps")
    planner = SelectivePlanner(cost)
    for gradient in GRADIENTS[:8]:
        assert planner.plan_gradient(gradient) == scalar_planner.plan_gradient(
            planner, gradient)
        for k in (1, 3, 8, 13):
            assert repr(cost.t_sync_orig(gradient.nbytes, k)) == repr(
                scalar_planner.t_sync_orig(cost, gradient.nbytes, k))
            assert repr(cost.t_sync_compressed(gradient.nbytes, k)) == repr(
                scalar_planner.t_sync_compressed(cost, gradient.nbytes, k))


class FlatCostModel(CostModel):
    """Every cell costs the same, so only the tie-break picks."""

    def t_sync_orig_array(self, nbytes, partitions):
        return np.ones_like(nbytes)

    t_sync_compressed_array = t_sync_orig_array


def test_a_tie_goes_to_the_smallest_k_uncompressed():
    planner = SelectivePlanner(FlatCostModel(ec2_v100_cluster(4),
                                             codec("onebit")))
    plan = planner.plan_gradient(GradientSpec("g", MB))
    assert (plan.compress, plan.partitions) == (False, 1)


def test_empty_model_plans_nothing():
    assert SelectivePlanner(
        CostModel(ec2_v100_cluster(4), codec("onebit"))).plan_model([]) == {}


SIZES = st.one_of(st.integers(min_value=1, max_value=1 << 40),
                  st.floats(min_value=1.0, max_value=float(1 << 40),
                            allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(SIZES, min_size=1, max_size=6),
       codec_name=st.sampled_from(CODECS),
       preset=st.sampled_from(PRESETS),
       cluster=st.sampled_from(sorted(CLUSTERS)))
def test_random_sizes_equal_scalar_oracle(sizes, codec_name, preset, cluster):
    planner = SelectivePlanner(
        CostModel(CLUSTERS[cluster], codec(codec_name), strategy=preset))
    gradients = [GradientSpec(f"g{i}", size) for i, size in enumerate(sizes)]
    assert_same_plans(planner.plan_model(gradients),
                      scalar_planner.plan_model(planner, gradients))
    assert (planner.compression_threshold(sizes)
            == scalar_planner.compression_threshold(planner, sizes))


# -- array-safe kernel costs ---------------------------------------------------

BYTES = np.array([0.0, 1.0, 3.5, 4096.0, 12345.678, float(1 << 30)])


@pytest.mark.parametrize("gpu", [V100, GTX1080TI])
def test_kernel_time_on_an_array_equals_scalar_calls(gpu):
    for kernels in (1, 3):
        got = gpu.kernel_time(BYTES, kernels=kernels)
        want = [gpu.kernel_time(b, kernels=kernels) for b in BYTES.tolist()]
        assert got.tolist() == want


@pytest.mark.parametrize("codec_name", CODECS)
def test_profile_times_on_an_array_equal_scalar_calls(codec_name):
    profile = codec(codec_name).profile
    out = BYTES / 7
    for gpu in (V100, GTX1080TI):
        assert profile.encode_time(BYTES, gpu).tolist() == [
            profile.encode_time(b, gpu) for b in BYTES.tolist()]
        assert profile.encode_time(BYTES, gpu, output_nbytes=out).tolist() == [
            profile.encode_time(b, gpu, output_nbytes=o)
            for b, o in zip(BYTES.tolist(), out.tolist())]
        assert profile.decode_time(out, gpu, output_nbytes=BYTES).tolist() == [
            profile.decode_time(o, gpu, output_nbytes=b)
            for b, o in zip(BYTES.tolist(), out.tolist())]


def test_negative_array_entry_raises_the_scalar_error():
    with pytest.raises(ValueError) as scalar:
        V100.kernel_time(-2.0)
    with pytest.raises(ValueError) as array:
        V100.kernel_time(np.array([1.0, -2.0, -3.0]))
    assert str(array.value) == str(scalar.value)
    with pytest.raises(ValueError) as numpy_scalar:
        V100.kernel_time(np.float64(-2.0))
    assert str(numpy_scalar.value) == str(scalar.value)
    profile = codec("onebit").profile
    with pytest.raises(ValueError, match="negative bytes_touched"):
        profile.encode_time(np.array([4.0, -8.0]), V100)
    with pytest.raises(ValueError, match="negative bytes_touched"):
        profile.decode_time(np.array([1.0, 1.0]), V100,
                            output_nbytes=np.array([4.0, -8.0]))
