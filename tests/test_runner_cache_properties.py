"""Property-based tests for the runner's content-addressed job digests.

The cache key must be *sound* (identical inputs always produce the
identical digest -- else warm caches miss) and *sensitive* (any
perturbation of the job's parameters, the cluster point, or the
compression algorithm's parameters produces a different digest -- else
stale payloads get served for changed configurations).  Like every
experiment driver, a spec here names its codec in ``params``.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.experiments.common import JobSpec
from repro.experiments.runner import job_digest

scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(min_value=-1e6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    st.text(min_size=0, max_size=12),
    st.booleans(),
    st.none(),
)

param_dicts = st.dictionaries(
    st.text(min_size=1, max_size=12), scalars, min_size=1, max_size=6)

#: Valid (name, params) per registered algorithm family.
algorithms = st.one_of(
    st.just(("onebit", {})),
    st.builds(lambda r: ("dgc", {"rate": r}),
              st.floats(min_value=0.001, max_value=0.5)),
    st.builds(lambda b: ("terngrad", {"bitwidth": b}),
              st.sampled_from([2, 4, 8])),
    st.builds(lambda t: ("tbq", {"threshold": t}),
              st.floats(min_value=0.01, max_value=0.9)),
)


def spec_from(params, algorithm=None, algorithm_params=None,
              job_id="p/0", call="run_job"):
    if algorithm is not None:
        params = {**params, "algorithm": algorithm,
                  "algorithm_params": algorithm_params}
    return JobSpec(artifact="p", job_id=job_id,
                   module="tests.test_runner", params=params, call=call)


@given(params=param_dicts, algo=st.none() | algorithms)
@settings(max_examples=60, deadline=None)
def test_identical_inputs_never_change_the_digest(params, algo):
    name, algo_params = algo if algo else (None, None)
    a = spec_from(dict(params), name, algo_params)
    b = spec_from(dict(params), name,
                  None if algo_params is None else dict(algo_params))
    assert job_digest(a) == job_digest(b)


@given(params=param_dicts, key=st.text(min_size=1, max_size=12),
       value=scalars)
@settings(max_examples=60, deadline=None)
def test_any_param_perturbation_changes_the_digest(params, key, value):
    assume(params.get(key, object()) != value)
    perturbed = dict(params)
    perturbed[key] = value
    assert job_digest(spec_from(params)) != job_digest(spec_from(perturbed))


@given(params=param_dicts)
@settings(max_examples=30, deadline=None)
def test_dropping_a_param_changes_the_digest(params):
    smaller = dict(params)
    smaller.popitem()
    assert job_digest(spec_from(params)) != job_digest(spec_from(smaller))


@given(nodes=st.integers(min_value=1, max_value=64),
       other=st.integers(min_value=1, max_value=64))
@settings(max_examples=30, deadline=None)
def test_cluster_point_is_part_of_the_identity(nodes, other):
    assume(nodes != other)
    a = spec_from({"num_nodes": nodes})
    b = spec_from({"num_nodes": other})
    assert job_digest(a) != job_digest(b)


@given(a=algorithms, b=algorithms)
@settings(max_examples=60, deadline=None)
def test_algorithm_identity_is_part_of_the_digest(a, b):
    assume(a != b)
    spec_a = spec_from({"x": 1}, a[0], a[1])
    spec_b = spec_from({"x": 1}, b[0], b[1])
    assert job_digest(spec_a) != job_digest(spec_b)


@given(algo=algorithms)
@settings(max_examples=30, deadline=None)
def test_algorithm_presence_is_part_of_the_digest(algo):
    plain = spec_from({"x": 1})
    with_algo = spec_from({"x": 1}, algo[0], algo[1])
    assert job_digest(plain) != job_digest(with_algo)


@given(call=st.sampled_from(["run_job", "other_call"]),
       job_id=st.text(min_size=1, max_size=16))
@settings(max_examples=30, deadline=None)
def test_callable_and_job_id_are_part_of_the_digest(call, job_id):
    base = spec_from({"x": 1})
    renamed = spec_from({"x": 1}, job_id=job_id, call=call)
    if job_id == base.job_id and call == base.call:
        assert job_digest(base) == job_digest(renamed)
    else:
        assert job_digest(base) != job_digest(renamed)
