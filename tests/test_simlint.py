"""Tests for the determinism linter (repro.analysis.simlint)."""

import json
from pathlib import Path

from repro.analysis.simlint import (
    Allowlist, lint_file, lint_paths, load_allowlist, main as simlint_main,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_snippet(tmp_path, source, filename="mod.py"):
    target = tmp_path / filename
    target.write_text(source, encoding="utf-8")
    return lint_file(target)


def rules_of(diagnostics):
    return [d.rule for d in diagnostics]


# -- SIM101: wall clock -------------------------------------------------------

def test_sim101_time_time_in_strategy(tmp_path):
    # The injected-violation scenario: a sync strategy stamping results
    # with the host clock instead of simulated time.
    diags = lint_snippet(tmp_path, """
import time

class RingAllReduce:
    def finish(self, result):
        result.finished_at = time.time()
""")
    assert rules_of(diags) == ["SIM101"]
    assert diags[0].severity == "error"
    assert diags[0].line == 6


def test_sim101_datetime_and_aliases(tmp_path):
    diags = lint_snippet(tmp_path, """
from datetime import datetime
import time as clock

a = datetime.now()
b = clock.perf_counter()
c = clock.monotonic()
""")
    assert rules_of(diags) == ["SIM101", "SIM101", "SIM101"]


def test_sim101_ignores_unrelated_attributes(tmp_path):
    diags = lint_snippet(tmp_path, """
class Env:
    def time(self):
        return self.now

def use(env):
    return env.time()
""")
    assert diags == []


# -- SIM102: unseeded RNG -----------------------------------------------------

def test_sim102_unseeded_default_rng(tmp_path):
    diags = lint_snippet(tmp_path, """
import numpy as np

rng = np.random.default_rng()
""")
    assert rules_of(diags) == ["SIM102"]


def test_sim102_seeded_rng_is_fine(tmp_path):
    diags = lint_snippet(tmp_path, """
import numpy as np
import random

rng = np.random.default_rng(1234)
r = random.Random(7)
""")
    assert diags == []


def test_sim102_global_module_functions(tmp_path):
    diags = lint_snippet(tmp_path, """
import numpy as np
import random

a = np.random.randn(10)
b = random.random()
random.shuffle([1, 2])
""")
    assert rules_of(diags) == ["SIM102", "SIM102", "SIM102"]


def test_sim102_instance_methods_not_flagged(tmp_path):
    diags = lint_snippet(tmp_path, """
import random

rng = random.Random(0)
x = rng.random()
y = rng.shuffle([1])
""")
    assert diags == []


# -- SIM103: mutable defaults -------------------------------------------------

def test_sim103_mutable_default(tmp_path):
    diags = lint_snippet(tmp_path, """
def accumulate(item, bucket=[]):
    bucket.append(item)
    return bucket

def index(key, table={}):
    return table.get(key)
""")
    assert rules_of(diags) == ["SIM103", "SIM103"]


def test_sim103_none_default_ok(tmp_path):
    diags = lint_snippet(tmp_path, """
def accumulate(item, bucket=None, names=()):
    bucket = bucket if bucket is not None else []
    return bucket
""")
    assert diags == []


# -- SIM104: set iteration ----------------------------------------------------

def test_sim104_for_over_set(tmp_path):
    diags = lint_snippet(tmp_path, """
names = {"a", "b"}
for name in {"x", "y"}:
    print(name)
result = [n for n in set(["p", "q"])]
""")
    assert rules_of(diags) == ["SIM104", "SIM104"]
    assert all(d.severity == "warning" for d in diags)


def test_sim104_sorted_wrapper_ok(tmp_path):
    diags = lint_snippet(tmp_path, """
for name in sorted({"x", "y"}):
    print(name)
""")
    assert diags == []


# -- SIM105: telemetry guard --------------------------------------------------

def test_sim105_unguarded_telemetry(tmp_path):
    diags = lint_snippet(tmp_path, """
def run(self):
    self.env.telemetry.counter("tasks", 1)
""")
    assert rules_of(diags) == ["SIM105"]


def test_sim105_guarded_telemetry_ok(tmp_path):
    diags = lint_snippet(tmp_path, """
def run(self):
    if self.env.telemetry is not None:
        self.env.telemetry.counter("tasks", 1)

def other(self):
    if self.telemetry:
        self.telemetry.finish(span)
""")
    assert diags == []


def test_sim105_telemetry_package_exempt(tmp_path):
    pkg = tmp_path / "telemetry"
    pkg.mkdir()
    target = pkg / "core.py"
    target.write_text("def f(sink):\n    sink.telemetry.emit(1)\n",
                      encoding="utf-8")
    assert lint_file(target) == []


# -- SIM107: builtin sum over simulated values ---------------------------------

def _lint_in(tmp_path, package, source):
    """Lint ``source`` as a module of ``repro/<package>``."""
    directory = tmp_path / "src" / "repro" / package
    directory.mkdir(parents=True)
    return lint_snippet(directory, source)


def test_sim107_float_sum_in_simulation_code(tmp_path):
    for package in ("sim", "casync", "net", "gpu", "training"):
        diags = _lint_in(tmp_path, package, """
def busy(intervals):
    return sum(end - start for start, end in intervals)

total = sum([0.1] * 10, 0.0)
""")
        assert rules_of(diags) == ["SIM107", "SIM107"], package
        assert diags[0].severity == "warning" and diags[0].line == 3


def test_sim107_counts_and_other_packages_are_clean(tmp_path):
    assert _lint_in(tmp_path, "casync", """
done = sum(1 for task in range(8) if task % 2)
items = sum(len(batch) for batch in [[1], [2, 3]])
total = 0.0
for x in [0.1] * 10:
    total += x
""") == []
    # Outside the simulated-value packages a sum is not flagged.
    assert _lint_in(tmp_path, "experiments", "m = sum([0.5, 0.25])\n") == []
    # A shadowing import is not the builtin.
    assert _lint_in(tmp_path, "net", "from math import fsum as sum\n"
                    "t = sum([0.1] * 10)\n") == []


def test_sim107_allowlist_entry_is_honoured(tmp_path):
    pkg = tmp_path / "repro" / "training"
    pkg.mkdir(parents=True)
    (pkg / "stats.py").write_text("mean = sum([0.1, 0.2]) / 2\n",
                                  encoding="utf-8")
    allow = tmp_path / ".simlint-allow"
    allow.write_text("repro/training/stats.py SIM107 a reported "
                     "statistic, never fed back into the event loop\n",
                     encoding="utf-8")
    findings, suppressed = lint_paths([tmp_path / "repro"],
                                      allowlist=load_allowlist(allow))
    assert rules_of(suppressed) == ["SIM107"]
    assert findings == []


# -- SIM108: writes to the simulated clock -----------------------------------

def test_sim108_clock_write_outside_the_kernel(tmp_path):
    diags = _lint_in(tmp_path, "casync", """
def skip_ahead(env, graph):
    env.now = 3.0
    graph.env.now += 1.0
    env.now, graph.started = 0.0, True
    now = env.now  # a read, and a plain name: fine
""")
    assert rules_of(diags) == ["SIM108"] * 3
    assert diags[0].severity == "error" and diags[0].line == 3


def test_sim108_the_kernel_may_set_its_clock(tmp_path):
    directory = tmp_path / "src" / "repro" / "sim"
    directory.mkdir(parents=True)
    source = """
class Environment:
    def step(self, key):
        self.now = key[0]
"""
    assert lint_snippet(directory, source, "core.py") == []
    # Elsewhere in the kernel's own package it is a finding.
    assert rules_of(lint_snippet(directory, source, "gcpause.py")) == [
        "SIM108"]


# -- SIM109: the agenda's private attributes ---------------------------------

def test_sim109_agenda_internals_outside_the_kernel(tmp_path):
    diags = _lint_in(tmp_path, "casync", """
def peek_ahead(env, graph):
    urgent = env._lanes[0]
    graph.env._future.clear()
    env._times = []
    lanes = env.lanes  # the documented read-only view: fine
    return graph._lanes_seen, graph.times  # other names: fine
""")
    assert rules_of(diags) == ["SIM109"] * 3
    assert diags[0].severity == "error" and diags[0].line == 3
    assert "`_lanes`" in diags[0].message


def test_sim109_the_kernel_may_touch_its_agenda(tmp_path):
    directory = tmp_path / "src" / "repro" / "sim"
    directory.mkdir(parents=True)
    source = """
class Environment:
    def __init__(self):
        self._lanes, self._future, self._times = [[], []], {}, []
"""
    assert lint_snippet(directory, source, "core.py") == []
    # Elsewhere in the kernel's own package it is a finding.
    assert rules_of(lint_snippet(directory, source, "gcpause.py")) == [
        "SIM109"] * 3


# -- allowlist ----------------------------------------------------------------

def test_allowlist_suppresses_and_reports_unused(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "clocky.py").write_text(
        "import time\nT = time.time()\n", encoding="utf-8")
    allow = tmp_path / ".simlint-allow"
    allow.write_text(
        "pkg/clocky.py SIM101 operator-facing display only\n"
        "pkg/ghost.py SIM102 stale entry\n", encoding="utf-8")
    findings, suppressed = lint_paths([src],
                                      allowlist=load_allowlist(allow))
    assert rules_of(suppressed) == ["SIM101"]
    assert rules_of(findings) == ["SIM900"]  # stale entry, info only
    assert findings[0].severity == "info"


def test_allowlist_requires_justification(tmp_path):
    allow = tmp_path / ".simlint-allow"
    allow.write_text("pkg/clocky.py SIM101\n", encoding="utf-8")
    parsed = load_allowlist(allow)
    assert parsed.entries == []
    assert rules_of(parsed.parse_diagnostics) == ["SIM000"]


def test_allowlist_discovered_from_parent(tmp_path):
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    (nested / "clocky.py").write_text(
        "import time\nT = time.time()\n", encoding="utf-8")
    (tmp_path / ".simlint-allow").write_text(
        "*/clocky.py SIM101 display only\n", encoding="utf-8")
    findings, suppressed = lint_paths([nested])
    assert rules_of(findings) == []
    assert rules_of(suppressed) == ["SIM101"]


# -- CLI ----------------------------------------------------------------------

def test_cli_strict_exit_codes(tmp_path, capsys):
    target = tmp_path / "warny.py"
    target.write_text("for x in {1, 2}:\n    pass\n", encoding="utf-8")
    assert simlint_main([str(target)]) == 0      # warning, lax
    capsys.readouterr()
    assert simlint_main(["--strict", str(target)]) == 1


def test_cli_json_format(tmp_path, capsys):
    target = tmp_path / "clocky.py"
    target.write_text("import time\nT = time.time()\n", encoding="utf-8")
    code = simlint_main(["--format", "json", str(target)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["counts"]["error"] == 1
    assert payload["diagnostics"][0]["rule"] == "SIM101"


def test_cli_missing_path(tmp_path, capsys):
    assert simlint_main([str(tmp_path / "nope.py")]) == 2


def test_syntax_error_reported_not_raised(tmp_path):
    diags = lint_snippet(tmp_path, "def broken(:\n")
    assert rules_of(diags) == ["SIM000"]


# -- dogfood: the repo's own sources stay clean --------------------------------

def test_src_repro_is_clean_in_strict_mode():
    src = REPO_ROOT / "src" / "repro"
    # Linted alongside src/ in CI; its allow entry must stay load-bearing.
    bench = REPO_ROOT / "benchmarks" / "bench_sim_core.py"
    allowlist = load_allowlist(REPO_ROOT / ".simlint-allow")
    findings, suppressed = lint_paths([src, bench], allowlist=allowlist,
                                      root=REPO_ROOT)
    failing = [d for d in findings if d.severity in ("error", "warning")]
    assert failing == [], "\n".join(d.render() for d in failing)
    # The allowlist is minimal and justified: every entry is used.
    assert all(entry.used for entry in allowlist.entries)
    assert suppressed  # the suppressions are load-bearing
