"""Golden snapshots of the SyncPlan IR, per strategy x algorithm.

Each case builds the full frontend pipeline (directive passes -> expand
-> op passes -> verify) for a fixed model on a 4-node EC2 cluster and
compares the complete JSON dump against a checked-in golden file under
``tests/golden/sync_ir/``.  Any change to a strategy frontend, a pass, or
the IR encoding shows up as a readable JSON diff here -- alongside the
behavioural check in ``test_graph_equivalence.py`` which hashes the
executed timeline.

Regenerate after an intentional IR change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_sync_ir_golden.py

and review the diff like any other code change.
"""

import json
import os
from pathlib import Path

import pytest

from repro.casync.passes import PassContext, build_plan
from repro.cluster import ec2_v100_cluster
from repro.experiments.common import default_algorithm
from repro.models import GradientSpec, ModelSpec
from repro.strategies import (
    BytePS,
    BytePSOSSCompression,
    CaSyncPS,
    CaSyncRing,
    RingAllreduce,
    RingOSSCompression,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "sync_ir"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"
NUM_NODES = 4
MB = 1024 * 1024

#: (case name, strategy factory, algorithm name)
CASES = [
    ("byteps", BytePS, None),
    ("ring", RingAllreduce, None),
]
for _algo in ("tbq", "dgc", "onebit"):
    CASES.extend([
        (f"casync-ps-{_algo}", CaSyncPS, _algo),
        (f"casync-ring-{_algo}", CaSyncRing, _algo),
        (f"byteps-oss-{_algo}", BytePSOSSCompression, _algo),
        (f"ring-oss-{_algo}", RingOSSCompression, _algo),
    ])


def golden_model() -> ModelSpec:
    """Fixed workload: sizes straddle the partition (4MB) and
    bulk-eligibility (256KB) thresholds so every pass has work to do."""
    sizes = (8 * MB, 3 * MB, 192 * 1024, 48 * 1024)
    grads = tuple(GradientSpec(f"gold.g{i}", s)
                  for i, s in enumerate(sizes))
    return ModelSpec(name="gold", gradients=grads, batch_size=4,
                     batch_unit="images", v100_iteration_s=0.002)


def build_case(strategy_cls, algo_name):
    cluster = ec2_v100_cluster(NUM_NODES)
    algorithm = default_algorithm(algo_name) if algo_name else None
    pctx = PassContext(num_nodes=NUM_NODES, cluster=cluster,
                       algorithm=algorithm)
    return build_plan(strategy_cls(), pctx, golden_model())


@pytest.mark.parametrize("name,strategy_cls,algo", CASES,
                         ids=[c[0] for c in CASES])
def test_ir_matches_golden(name, strategy_cls, algo):
    plan = build_case(strategy_cls, algo)
    dumped = json.loads(plan.to_json())
    path = GOLDEN_DIR / f"{name}-n{NUM_NODES}.json"
    if REGEN:
        # Atomic replace: under pytest-xdist several workers may
        # regenerate concurrently; a reader must never see a torn file.
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(plan.to_json() + "\n")
        os.replace(tmp, path)
        return
    assert path.exists(), (
        f"missing golden {path.name}; regenerate with REPRO_REGEN_GOLDEN=1")
    golden = json.loads(path.read_text())
    assert dumped == golden, (
        f"SyncPlan IR for {name} drifted from {path.name}; if intentional, "
        "regenerate with REPRO_REGEN_GOLDEN=1 and review the diff")


def test_golden_dir_has_no_stale_files():
    if REGEN:
        # Mid-regeneration another xdist worker may not have written its
        # cases yet; the check only means something against a settled dir.
        pytest.skip("regenerating goldens; stale check needs a settled dir")
    expected = {f"{c[0]}-n{NUM_NODES}.json" for c in CASES}
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual == expected


def test_golden_plans_are_deterministic():
    a = build_case(CaSyncPS, "tbq")
    b = build_case(CaSyncPS, "tbq")
    assert a.digest() == b.digest()
