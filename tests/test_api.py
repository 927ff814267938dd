"""Tests for the public API surface: repro.api, registries, ConfigError.

The facade contract: ``from repro import TrainingJob`` works (lazily),
every name in ``repro.api.__all__`` resolves, and unknown configuration
strings raise a typed :class:`ConfigError` that names the valid choices.
"""

import pkgutil
import re
from pathlib import Path

import pytest

import repro
import repro.api
from repro import (
    SYSTEMS,
    ConfigError,
    TrainingJob,
    ec2_v100_cluster,
    get_cluster,
    get_strategy,
    list_algorithms,
    list_models,
    list_strategies,
    run_system,
)
from repro.strategies import (
    CaSyncPS,
    Strategy,
    available_strategies,
    register_strategy,
)
from repro.strategies.registry import _REGISTRY


# -- facade -----------------------------------------------------------------

def test_api_all_names_resolve():
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None, name


def test_package_reexports_lazily():
    for name in repro.api.__all__:
        assert getattr(repro, name) is getattr(repro.api, name), name


def test_package_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        repro.nonsense


def test_list_helpers():
    assert "onebit" in list_algorithms()
    assert set(list_strategies()) >= {"byteps", "ring", "casync-ps",
                                      "casync-ring"}
    assert "bert-large" in list_models()


# -- ConfigError ------------------------------------------------------------

def test_config_error_is_a_value_error_with_choices():
    err = ConfigError("model", "nope", ["b", "a"], hint="try harder")
    assert isinstance(err, ValueError)
    assert err.kind == "model" and err.given == "nope"
    assert err.choices == ("a", "b")
    assert "valid choices: a, b" in str(err)
    assert "try harder" in str(err)


@pytest.mark.parametrize("kwargs,kind", [
    (dict(system="nope", model="resnet50"), "system"),
    (dict(system="ring", model="nope"), "model"),
    (dict(system="hipress-ps", model="resnet50", algorithm="nope"),
     "algorithm"),
    (dict(system="hipress-ps", model="resnet50", algorithm=None),
     "algorithm"),
])
def test_run_system_raises_typed_config_errors(kwargs, kind):
    with pytest.raises(ConfigError) as exc:
        run_system(cluster=ec2_v100_cluster(2), **kwargs)
    assert exc.value.kind == kind
    assert exc.value.choices            # names the valid options


@pytest.mark.parametrize("kwargs,kind", [
    (dict(model="nope"), "model"),
    (dict(model="resnet50", algorithm="nope"), "algorithm"),
    (dict(model="resnet50", strategy="nope"), "strategy"),
    (dict(model="resnet50", cluster="nope"), "cluster"),
])
def test_training_job_raises_typed_config_errors(kwargs, kind):
    with pytest.raises(ConfigError) as exc:
        TrainingJob(**kwargs)
    assert exc.value.kind == kind
    assert exc.value.choices


# -- strategy registry ------------------------------------------------------

def test_get_strategy_builds_fresh_instances_with_params():
    a = get_strategy("casync-ps", pipelining=False)
    b = get_strategy("casync-ps")
    assert isinstance(a, CaSyncPS) and isinstance(b, CaSyncPS)
    assert a is not b
    assert a.pipelining is False and b.pipelining is True


def test_get_strategy_unknown_name_lists_choices():
    with pytest.raises(KeyError, match="casync-ps"):
        get_strategy("nope")


def test_register_strategy_rejects_duplicates():
    class Custom(Strategy):
        name = "custom-test"

        def expand(self, plan, pctx, model):  # pragma: no cover
            raise NotImplementedError

    register_strategy("custom-test", Custom)
    try:
        assert "custom-test" in available_strategies()
        assert isinstance(get_strategy("custom-test"), Custom)
        with pytest.raises(ValueError, match="already registered"):
            register_strategy("custom-test", Custom)
        register_strategy("custom-test", Custom, overwrite=True)
    finally:
        _REGISTRY.pop("custom-test", None)


_HIPRESS_SYSTEMS = {"hipress-ps": "casync-ps", "hipress-ring": "casync-ring"}


def test_hipress_names_are_systems_not_strategies():
    # "hipress-ps" / "hipress-ring" name SYSTEMS entries only; the
    # strategy registry knows the CaSync names alone.
    for name in _HIPRESS_SYSTEMS:
        assert name in SYSTEMS
        with pytest.raises(KeyError, match=f"unknown strategy '{name}'"):
            get_strategy(name)


def test_training_job_rejects_hipress_strategy_names():
    for name, canonical in _HIPRESS_SYSTEMS.items():
        with pytest.raises(ConfigError) as exc:
            TrainingJob("resnet50", strategy=name)
        assert exc.value.kind == "strategy"
        assert canonical in exc.value.choices
        job = TrainingJob("resnet50", strategy=canonical)
        assert job.strategy_name == canonical


# -- systems + clusters -----------------------------------------------------

def test_systems_resolve_through_strategy_registry():
    for key, config in SYSTEMS.items():
        assert config.strategy in available_strategies(), key
        assert isinstance(config.strategy_factory(), Strategy)


def test_get_cluster_presets():
    cluster = get_cluster("ec2-v100", num_nodes=4)
    assert cluster.num_nodes == 4
    assert get_cluster("local-1080ti").node.gpus_per_node == 2
    with pytest.raises(KeyError, match="ec2-v100"):
        get_cluster("nope")


def test_training_job_string_cluster_roundtrip():
    job = TrainingJob("resnet50", cluster="ec2-v100")
    assert job.cluster.name.startswith("ec2-v100")


def test_quickstart_flow_through_facade():
    job = TrainingJob(model="resnet50", algorithm="terngrad",
                      strategy="casync-ps",
                      cluster=ec2_v100_cluster(num_nodes=2))
    result = job.run()
    baseline = run_system("ring", "resnet50", ec2_v100_cluster(num_nodes=2))
    assert result.iteration_time > 0
    assert baseline.iteration_time > 0


# -- docs -------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = ([ROOT / name for name in ("README.md", "DESIGN.md",
                                       "EXPERIMENTS.md")]
             + sorted((ROOT / "docs").glob("*.md")))
CODE_SPAN = re.compile(r"`([^`\n]+)`")
MODULE_REF = re.compile(r"(?<![\w.])repro(?:\.\w+)+")


def _resolves(dotted):
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def test_module_references_in_docs_resolve():
    refs = {(path.relative_to(ROOT).as_posix(), name)
            for path in DOC_FILES
            for span in CODE_SPAN.findall(path.read_text(encoding="utf-8"))
            for name in MODULE_REF.findall(span)}
    assert refs
    assert sorted(ref for ref in refs if not _resolves(ref[1])) == []
