"""Tests for PlanCheck (the whole-plan analyzer) and the PlanIndex.

Four layers:

* the golden sweep -- every CLI case must prove clean, and the
  pass-mutant corpus must be caught with its expected typed finding
  while ``verify_plan`` (the local verifier) misses all of them;
* hand-built plans that pin the structural (PC100-PC110), buffer-race
  (PC201/PC202) and lowered-recipe cost (PC605/PC606) rules, one by one
  (lowering's spec-per-op identity is pinned in ``tests/test_sync_ir.py``);
* the strict-admission surface: ``raise_if_failed`` raising the typed
  ``PlanCheckError``, the ``REPRO_PLANCHECK`` override, and the
  end-to-end gated build;
* the plan's own PlanIndex: built once per cold build + lower + check,
  its dependency encodings reused by lowering by identity, and dropped
  by every mutation method, so an edited plan is re-checked.
"""

import copy
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import planmutants
from repro.analysis.plancheck import (
    PLANCHECK_RULES,
    PlanCheckError,
    check_plan,
    iter_cases,
)
from repro.analysis.plancheck import main as plancheck_main
from repro.casync.index import PlanIndex, plan_index
from repro.casync.ir import (
    Directive,
    PlanVerificationError,
    ReadyRef,
    SizeExpr,
    SyncPlan,
)
from repro.casync.lower import GraphCache, default_graph_cache, lower_plan
from repro.casync.passes import PassContext, build_plan, verify_plan
from repro.cluster import ec2_v100_cluster
from repro.experiments.common import default_algorithm
from repro.models import GradientSpec, ModelSpec
from repro.strategies import BytePS, CaSyncPS, CaSyncRing
from repro.training import simulate_iteration
from tests.rowwise_expand import add

MB = 1024 * 1024


def small_model(sizes=(8 * MB, MB, 64 * 1024), name="m"):
    grads = tuple(GradientSpec(f"{name}.g{i}", s)
                  for i, s in enumerate(sizes))
    return ModelSpec(name=name, gradients=grads, batch_size=4,
                     batch_unit="images", v100_iteration_s=0.002)


def pctx_for(n=3, algorithm="tbq"):
    return PassContext(
        num_nodes=n, cluster=ec2_v100_cluster(n),
        algorithm=default_algorithm(algorithm) if algorithm else None)


def built_plan(n=3, **flags):
    """A real, pipeline-verified CaSync-PS plan plus its context."""
    flags.setdefault("selective", False)
    pctx = pctx_for(n)
    return build_plan(CaSyncPS(**flags), pctx, small_model()), pctx


# -- the golden sweep and the mutant corpus ----------------------------------

CASES = list(iter_cases())


def test_case_matrix_shape():
    names = [name for name, _ in CASES]
    assert len(names) == len(set(names))
    assert len(names) >= 28
    assert any(name.startswith("adaptive:") for name in names)


@pytest.mark.parametrize("case_name,build", CASES,
                         ids=[name for name, _ in CASES])
def test_golden_case_proves_clean(case_name, build):
    plan, pctx, recipe = build()
    report = check_plan(plan, pctx=pctx, recipe=recipe, name=case_name)
    assert report.ok(strict=True), report.render_text()
    assert report.diagnostics == ()
    assert report.num_ops == len(plan.ops)


@pytest.mark.parametrize("case_name,build", CASES,
                         ids=[name for name, _ in CASES])
def test_findings_do_not_depend_on_labels(case_name, build):
    # Regions come from the plan's regions column, never from a label:
    # renaming every op moves no finding.
    plan, pctx, recipe = build()

    def findings():
        report = check_plan(plan, pctx=pctx, recipe=recipe, name=case_name)
        return [(d.rule, d.line) for d in report.diagnostics]

    before = findings()
    for i in range(len(plan)):
        plan.update(i, label=f"op{i}")
    assert findings() == before


def test_mutant_corpus_caught_with_typed_findings():
    results = planmutants.run_corpus()
    assert len(results) == len(planmutants.MUTANTS) == 6
    for result in results:
        assert result.verify_missed, (
            f"{result.name}: verify_plan rejected it -- not a PlanCheck "
            f"mutant any more")
        assert result.caught, (
            f"{result.name}: expected {result.expected_rule}, "
            f"got {result.rules}")
        assert result.expected_rule in PLANCHECK_RULES
    # The six mutants must exercise six *distinct* rules (one per class
    # of seeded pass bug), not six hits on one blanket check.
    assert len({r.expected_rule for r in results}) == 6


def test_build_mutant_invalidates_stale_index():
    # build_mutant corrupts the plan *after* the pipeline indexed it,
    # through mutation methods, which drop that index.
    plan, pctx = planmutants.build_mutant("bulk-ineligible-route")
    report = check_plan(plan, pctx=pctx)
    assert "PC501" in {d.rule for d in report.diagnostics}


# -- hand-built buffer-race plans (PC201/PC202) ------------------------------

def _race_plan():
    """A structurally valid single-node plan to hang accesses off."""
    plan = SyncPlan("hand", num_nodes=1)
    plan.directives["m.g0"] = Directive("m.g0", nbytes=1024, compress=True)
    return plan


def _rules(plan, pctx=None):
    return {d.rule for d in check_plan(plan, pctx=pctx).diagnostics}


def test_unordered_read_write_pair_is_pc202():
    plan = _race_plan()
    size = SizeExpr(1024, compressed=True)
    add(plan, "encode", 0, "m.g0.enc", size=size,
        deps=(ReadyRef(0, "m.g0"),), grad="m.g0")
    add(plan, "decode", 0, "m.g0.dec", size=size,
        deps=(ReadyRef(0, "m.g0"),), grad="m.g0")
    assert _rules(plan) == {"PC202"}


def test_ordered_read_write_pair_is_clean():
    plan = _race_plan()
    size = SizeExpr(1024, compressed=True)
    enc = add(plan, "encode", 0, "m.g0.enc", size=size,
              deps=(ReadyRef(0, "m.g0"),), grad="m.g0")
    add(plan, "decode", 0, "m.g0.dec", size=size, deps=(enc,),
        grad="m.g0")
    assert _rules(plan) == set()


def test_unordered_write_write_pair_is_pc201():
    plan = _race_plan()
    size = SizeExpr(1024, compressed=True)
    for copy in range(2):
        add(plan, "decode", 0, f"m.g0.dec{copy}", size=size,
            deps=(ReadyRef(0, "m.g0"),), grad="m.g0")
    assert _rules(plan) == {"PC201"}


def test_disjoint_partition_writes_do_not_alias():
    # Same gradient, different regions: unordered writes are fine.
    plan = _race_plan()
    size = SizeExpr(512, compressed=True)
    for part in range(2):
        add(plan, "decode", 0, "m.g0.dec", size=size,
            deps=(ReadyRef(0, "m.g0"),), grad="m.g0", region=part)
    assert _rules(plan) == set()


def test_incomplete_aggregation_is_pc301_past_64_nodes():
    # More nodes than one 64-bit word holds: reach sets are Python ints.
    pctx = pctx_for(66)
    plan = build_plan(CaSyncPS(selective=False, pipelining=False), pctx,
                      small_model(sizes=(MB,)))
    assert _rules(plan, pctx) == set()
    enc_out = next(i for i, op in enumerate(plan.ops)
                   if op.label.startswith("enc-out:"))
    merges = [plan.row_of(dep) for dep in plan.op(enc_out).deps]
    plan.set_deps({enc_out: merges[1:]})  # one contribution dropped
    assert "PC301" in _rules(plan, pctx)


# -- structural rules (PC100-PC110), one hand-built break each ---------------

def _structural_plan():
    """A structurally valid two-node push: encode -> send -> decode.  Its
    deep analysis would report PC301 (node 0 has no sink), so a report
    holding only the structural rule proves the short-circuit."""
    plan = SyncPlan("hand", num_nodes=2)
    plan.directives["g"] = Directive("g", nbytes=64, compress=True)
    size = SizeExpr(64, compressed=True)
    enc = add(plan, "encode", 0, "g.enc", size=size,
              deps=(ReadyRef(0, "g"),), grad="g")
    snd = add(plan, "send", 0, "g.push", size=size, deps=(enc,), dst=1,
              grad="g")
    add(plan, "decode", 1, "g.dec", size=size, deps=(snd,), grad="g")
    return plan


def _corrupt(plan, column, row, value):
    """Write one entry of a plan column directly: no mutation method
    admits a duplicate uid or an unknown kind code."""
    getattr(plan, column)[row] = value
    plan._index = None


#: (case id, message substring, corruption); the rule is the id's prefix.
#: plan.ops is [encode uid 0, send uid 1, decode uid 2].
STRUCTURAL_BREAKS = [
    ("PC100", "partitions must be >= 1",
     lambda p: setattr(p.directives["g"], "partitions", 0)),
    ("PC101", "duplicate op uid", lambda p: _corrupt(p, "uids", 2, 0)),
    ("PC102", "unknown op kind", lambda p: _corrupt(p, "kinds", 2, 99)),
    ("PC103", "node out of range", lambda p: add(p, "barrier", 2, "far")),
    ("PC104", "self-send",  # consumed on its own node: no PC108/PC109
     lambda p: add(p, "barrier", 0, "after", deps=(
         add(p, "send", 0, "loop", size=SizeExpr(8), dst=0),))),
    ("PC105", "negative or non-finite size",
     lambda p: add(p, "copy", 0, "neg", size=SizeExpr(-1))),
    ("PC106", "unknown or later op",
     lambda p: add(p, "barrier", 1, "dangling", deps=(17,))),
    ("PC106-self-dependency", "unknown or later op",
     lambda p: add(p, "barrier", 0, "self", deps=(3,))),  # its own uid
    ("PC107", "node-local",
     lambda p: add(p, "barrier", 1, "remote", deps=(ReadyRef(0, "g"),))),
    ("PC108", "not a send targeting",
     lambda p: add(p, "barrier", 1, "cross", deps=(0,))),
    ("PC109", "never consumed",
     lambda p: add(p, "send", 0, "orphan", size=SizeExpr(8), dst=1)),
    ("PC110", "not compressed",
     lambda p: p.update(1, size=SizeExpr(64))),
]


@pytest.mark.parametrize("case,message,corrupt", STRUCTURAL_BREAKS,
                         ids=[case for case, _, _ in STRUCTURAL_BREAKS])
def test_structural_rule_fires_alone(case, message, corrupt):
    plan = _structural_plan()
    corrupt(plan)
    assert _rules(plan) == {case[:5]}
    with pytest.raises(PlanVerificationError, match=message) as excinfo:
        verify_plan(plan)
    assert {d.rule for d in excinfo.value.diagnostics} == {case[:5]}


@pytest.mark.parametrize("nbytes", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("where", ["encode", "decode"])
def test_non_finite_or_negative_size_is_pc105(nbytes, where):
    # On the decode, a NaN or inf size used to read as a PC110 byte
    # mismatch against its send (or pass unflagged and crash lowering).
    plan = _structural_plan()
    row = {"encode": 0, "decode": 2}[where]
    plan.update(row, size=SizeExpr(nbytes, compressed=True))
    with pytest.raises(PlanVerificationError,
                       match="negative or non-finite size") as excinfo:
        verify_plan(plan)
    (diag,) = excinfo.value.diagnostics
    assert diag.rule == "PC105"
    assert diag.line == plan.op_lines()[plan.uids[row]]
    with pytest.raises(PlanVerificationError):
        lower_plan(plan, pctx_for(2))


def test_dangling_dep_is_a_typed_pc106_error():
    plan = _structural_plan()
    add(plan, "barrier", 1, "dangling", deps=(17,))
    with pytest.raises(PlanVerificationError) as excinfo:
        lower_plan(plan, pctx_for(2))
    assert [d.rule for d in excinfo.value.diagnostics] == ["PC106"]


# -- lowered-recipe costs (PC605/PC606) --------------------------------------

def _lowered():
    plan, pctx = built_plan()
    return plan, pctx, lower_plan(plan, pctx)


#: The recipe column of each task cost field.
_COLUMNS = {"duration": "durations", "launch_overhead": "launch_overheads",
            "nbytes": "nbytes", "out_nbytes": "out_nbytes"}


def _tampered(recipe, k, **changes):
    """A copy of ``recipe`` with task ``k``'s cost fields replaced."""
    bad = copy.copy(recipe)
    for field, value in changes.items():
        column = list(getattr(recipe, _COLUMNS[field]))
        column[k] = value
        setattr(bad, _COLUMNS[field], column)
    return bad


def _recipe_rules(plan, recipe, pctx):
    return {d.rule
            for d in check_plan(plan, pctx=pctx, recipe=recipe).diagnostics}


def test_negative_cost_is_pc605():
    plan, pctx, recipe = _lowered()
    bad = _tampered(recipe, 3, duration=-1.0)
    assert _recipe_rules(plan, bad, pctx) == {"PC605"}


@pytest.mark.parametrize("field,value", [
    ("duration", float("nan")), ("duration", float("inf")),
    ("launch_overhead", float("nan")), ("nbytes", float("inf")),
    ("nbytes", float("nan")), ("out_nbytes", float("inf"))])
def test_non_finite_cost_is_pc605(field, value):
    # ``nan < 0`` is False: a sign test alone lets NaN through.
    plan, pctx, recipe = _lowered()
    k = next(k for k, kind in enumerate(recipe.kinds) if kind != "send")
    bad = _tampered(recipe, k, **{field: value})
    assert _recipe_rules(plan, bad, pctx) == {"PC605"}


def test_wire_size_drift_is_pc606():
    plan, pctx, recipe = _lowered()
    k = recipe.kinds.index("send")
    bad = _tampered(recipe, k, nbytes=recipe.nbytes[k] * 3 + 7)
    assert _recipe_rules(plan, bad, pctx) == {"PC606"}


def test_recipe_of_another_plan_is_a_caller_error():
    plan, pctx, recipe = _lowered()
    short = copy.copy(recipe)
    short.rows = recipe.rows[:-1]
    with pytest.raises(ValueError, match="tasks but the plan has"):
        check_plan(plan, pctx=pctx, recipe=short)


# -- strict admission ---------------------------------------------------------

def test_raise_if_failed_is_typed_and_catchable():
    plan, pctx = planmutants.build_mutant("fanin-dropped-dep")
    report = check_plan(plan, pctx=pctx)
    with pytest.raises(PlanCheckError) as excinfo:
        report.raise_if_failed()
    # Subclasses the verifier's error so existing guards keep working,
    # and carries the structured findings.
    assert isinstance(excinfo.value, PlanVerificationError)
    assert excinfo.value.diagnostics
    clean, pctx2 = built_plan()
    check_plan(clean, pctx=pctx2).raise_if_failed(strict=True)


def test_admission_policy_and_env_override(monkeypatch):
    monkeypatch.delenv("REPRO_PLANCHECK", raising=False)
    assert GraphCache().strict_admission() is False
    assert GraphCache(admission="strict").strict_admission() is True
    with pytest.raises(ValueError):
        GraphCache(admission="paranoid")
    monkeypatch.setenv("REPRO_PLANCHECK", "1")
    assert GraphCache().strict_admission() is True
    monkeypatch.setenv("REPRO_PLANCHECK", "off")
    assert GraphCache(admission="strict").strict_admission() is False


def test_strict_admission_end_to_end(monkeypatch):
    # With the override on, the cold build routes through check_plan
    # before the recipe is admitted; a clean plan must still build.
    monkeypatch.setenv("REPRO_PLANCHECK", "strict")
    default_graph_cache().clear()
    model = small_model()
    cluster = ec2_v100_cluster(3)
    result = simulate_iteration(model, cluster, CaSyncPS(selective=False),
                                algorithm=default_algorithm("tbq"))
    assert result.iteration_time > 0
    default_graph_cache().clear()


# -- pipeline-output property -------------------------------------------------

@st.composite
def _pipeline_inputs(draw):
    num_nodes = draw(st.integers(2, 5))
    sizes = tuple(draw(st.lists(
        st.sampled_from((16 * 1024, 300 * 1024, MB, 6 * MB)),
        min_size=1, max_size=4)))
    kind = draw(st.sampled_from(("ps", "ring", "byteps")))
    pipelining = draw(st.booleans())
    bulk = draw(st.booleans())
    selective = draw(st.booleans())
    return num_nodes, sizes, kind, pipelining, bulk, selective


@settings(max_examples=20, deadline=None)
@given(_pipeline_inputs())
def test_pipeline_output_always_proves_clean(inputs):
    """Whatever the pass pipeline emits, PlanCheck proves clean --
    the mutants show the rules have teeth; this shows they are not
    over-eager on any valid (strategy, shape, flags) point."""
    num_nodes, sizes, kind, pipelining, bulk, selective = inputs
    if kind == "byteps":
        strategy, algorithm = BytePS(), None
    else:
        cls = CaSyncPS if kind == "ps" else CaSyncRing
        strategy = cls(selective=selective, pipelining=pipelining,
                       bulk=bulk)
        algorithm = default_algorithm("tbq")
    pctx = PassContext(
        num_nodes=num_nodes, cluster=ec2_v100_cluster(num_nodes),
        algorithm=algorithm)
    plan = build_plan(strategy, pctx, small_model(sizes))
    recipe = lower_plan(plan, pctx)
    report = check_plan(plan, pctx=pctx, recipe=recipe)
    assert report.ok(strict=True), report.render_text()
    assert report.diagnostics == ()


# -- the shared PlanIndex -----------------------------------------------------

def test_lowering_reuses_index_encodings_by_identity():
    plan, pctx = built_plan()
    idx = plan_index(plan)
    recipe = lower_plan(plan, pctx)
    csr = recipe.csr
    assert csr.dep_ptr is idx.dep_ptr and csr.dep_rows is idx.dep_rows
    assert csr.ref_keys is idx.ref_keys
    assert len(csr) == idx.num_ops == len(plan.ops)
    assert recipe.rows == idx.task_rows.tolist()
    assert len(recipe.rows) == sum(op.kind != "barrier" for op in plan.ops)


def test_index_structure_matches_plan():
    plan, _ = built_plan()
    idx = plan_index(plan)
    assert isinstance(idx, PlanIndex)
    assert idx.num_ops == len(plan) and not idx.findings
    for i, op in enumerate(plan.ops):
        assert plan.row_of(op.uid) == i
        encoded = [
            -1 - idx.ref_keys.index((dep.node, dep.gradient))
            if isinstance(dep, ReadyRef) else plan.row_of(dep)
            for dep in op.deps]
        assert all(j < i for j in encoded)
        deps = idx.dep_rows[idx.dep_ptr[i]:idx.dep_ptr[i + 1]]
        assert deps.tolist() == encoded
        assert (i in idx.task_rows) == (op.kind != "barrier")


def test_cold_build_lower_and_strict_check_index_once():
    with mock.patch.object(PlanIndex, "build",
                           wraps=PlanIndex.build) as build:
        plan, pctx = built_plan()
        recipe = lower_plan(plan, pctx)
        assert check_plan(plan, pctx=pctx, recipe=recipe).ok(strict=True)
    build.assert_called_once_with(plan)


def test_index_cached_per_plan_and_rebuilt_on_growth():
    plan, _ = built_plan()
    idx = plan_index(plan)
    assert plan_index(plan) is idx
    add(plan, "barrier", 0, "late.barrier")
    rebuilt = plan_index(plan)
    assert rebuilt is not idx
    assert rebuilt.num_ops == idx.num_ops + 1


def test_invalidate_makes_in_place_mutation_visible():
    plan, pctx = built_plan()
    idx = plan_index(plan)
    victim = next(i for i, op in enumerate(plan.ops) if op.kind == "send")
    plan.set_attr(victim, "bulk", True)  # same op count
    plan.pop_attr(victim, "bulk_eligible")
    fresh = plan_index(plan)
    assert fresh is not idx
    assert plan_index(plan) is fresh
    rules = {d.rule
             for d in check_plan(plan, pctx=pctx).diagnostics}
    assert "PC501" in rules


# -- CLI ----------------------------------------------------------------------

def test_cli_list_and_single_case_json(tmp_path, capsys):
    assert plancheck_main(["--list"]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert [name for name, _ in CASES] == listed

    name = listed[0]
    out = tmp_path / "findings.json"
    assert plancheck_main(["--case", name, "--format", "json",
                           "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["summary"] == {
        "cases": 1, "ok": True,
        "counts": {"error": 0, "warning": 0, "info": 0}}
    assert payload["cases"][0]["name"] == name
    assert payload["cases"][0]["diagnostics"] == []


def test_cli_case_matching_nothing_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        plancheck_main(["--strict", "--case", "no-such-case"])
    assert excinfo.value.code == 2
    assert "matches no case" in capsys.readouterr().err


def test_cli_mutant_mode_passes(capsys):
    assert plancheck_main(["--mutants"]) == 0
    out = capsys.readouterr().out
    assert "6/6 mutants caught" in out
