"""Import closure: the simulator entry loads no experiment driver.

``repro.experiments`` eagerly imports only :mod:`repro.experiments.common`
(where ``run_system`` lives); the runner, ``throughput`` and every paper
driver resolve on first use.  The closure probes run in a fresh
interpreter, so modules that pytest or an earlier test already imported
cannot hide a leak.  Every assertion is on module names, never on time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments as experiments
from repro.experiments.runner import artifact_plans

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every artifact driver, ``repro.experiments.<name>``.
DRIVERS = frozenset({
    "adaptive", "elastic", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "heterogeneous", "kernel_speed", "table1", "table5",
    "table6", "table7",
})

#: Modules a single simulation has no use for.
NOT_LOADED_BY_SIMULATOR = (
    {"repro.adaptive", "repro.compll", "repro.minidnn", "repro.advisor",
     "repro.experiments.runner", "multiprocessing",
     "concurrent.futures.process"}
    | {f"repro.experiments.{name}" for name in DRIVERS})

#: The imports one ``run_system`` call needs: those of the e2e
#: benchmark's ``SimWorkload.setup``.
SIMULATOR_IMPORTS = """
import repro.experiments.common
from repro.casync.lower import default_graph_cache
from repro.cluster import ec2_v100_cluster
from repro.models import get_model
from repro.training import make_plans
"""

#: Prints the modules and registries after the simulator imports, then
#: the registries as the full public surface reports them.
REGISTRY_PROBE = SIMULATOR_IMPORTS + """
import json, sys
from repro.algorithms import available_algorithms
from repro.casync.passes import list_passes
from repro.experiments.common import SYSTEMS
from repro.models import MODEL_NAMES
from repro.strategies import available_strategies

minimal = {"algorithms": available_algorithms(), "passes": list_passes(),
           "strategies": available_strategies(), "systems": sorted(SYSTEMS),
           "models": sorted(MODEL_NAMES)}
loaded = sorted(sys.modules)

import repro.api as api, repro.advisor, repro.experiments.runner
full = {"algorithms": api.list_algorithms(), "passes": api.list_passes(),
        "strategies": api.list_strategies(), "systems": sorted(api.SYSTEMS),
        "models": api.list_models()}
print(json.dumps({"loaded": loaded, "minimal": minimal, "full": full}))
"""

SWEEP_PROBE = """
import json, sys
from repro.experiments.runner import artifact_plans
artifact_plans(quick=True)["heterogeneous"].specs()
print(json.dumps(sorted(sys.modules)))
"""


def _probe(code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def registry_probe():
    return _probe(REGISTRY_PROBE)


def test_simulator_imports_load_no_driver(registry_probe):
    leaked = NOT_LOADED_BY_SIMULATOR & set(registry_probe["loaded"])
    assert not leaked, sorted(leaked)


def test_registries_complete_after_simulator_imports(registry_probe):
    # Registration happens at import; the minimal closure must already
    # hold every strategy, algorithm, pass, system and model.
    assert registry_probe["minimal"] == registry_probe["full"]
    assert all(registry_probe["minimal"].values())


def test_artifact_plan_loads_only_its_driver():
    loaded = set(_probe(SWEEP_PROBE))
    drivers = {name for name in DRIVERS
               if f"repro.experiments.{name}" in loaded}
    assert drivers == {"heterogeneous"}


# -- the lazy namespace ---------------------------------------------------


def test_all_names_resolve_and_are_listed():
    listed = set(dir(experiments))
    for name in experiments.__all__:
        assert getattr(experiments, name) is not None, name
        assert name in listed, name


def test_star_import_binds_all_names():
    namespace: dict = {}
    exec("from repro.experiments import *", namespace)
    assert set(experiments.__all__) <= set(namespace)
    for name in experiments.__all__:
        assert namespace[name] is getattr(experiments, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match=r"'repro\.experiments' has no attribute "
                             r"'no_such_driver'"):
        experiments.no_such_driver


def test_example_names_resolve():
    # examples/distributed_training_speedup.py is too slow for CI; pin
    # the names it imports.
    from repro.experiments import SYSTEMS, format_table, render_sweep, sweep
    from repro.experiments.common import SYSTEMS as common_systems
    from repro.experiments.throughput import render_sweep as throughput_render

    assert SYSTEMS is common_systems
    assert render_sweep is throughput_render
    assert callable(format_table) and callable(sweep)


def test_artifact_plans_resolve_drivers_by_name():
    plans = artifact_plans()
    assert set(plans) == DRIVERS
    for name, plan in plans.items():
        driver = plan.driver
        assert driver is sys.modules[f"repro.experiments.{name}"]
        assert driver is getattr(experiments, name)
        for attr in ("jobs", "assemble", "render"):
            assert callable(getattr(driver, attr)), (name, attr)
