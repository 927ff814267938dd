"""simlint: determinism linter for the simulator's own Python sources.

The repo's core promise is that every experiment is a *deterministic*
discrete-event simulation: identical inputs produce bit-identical
figures, and the differential/property harnesses depend on replaying
runs exactly.  That promise is easy to break with one innocuous line --
a ``time.time()`` timestamp, an unseeded ``default_rng()``, an iteration
over a ``set`` whose order depends on hash seeds.  simlint walks the
Python AST of ``src/repro`` and enforces the determinism contract:

* ``SIM101`` (error): wall-clock reads (``time.time``/``monotonic``/
  ``perf_counter``/``time_ns``, ``datetime.now``/``utcnow``/``today``).
  Simulated time comes from the event loop, never the host clock.
* ``SIM102`` (error): nondeterministically seeded RNG --
  ``np.random.default_rng()`` with no seed, the global ``np.random.*``
  module functions, module-level ``random.*`` functions, or
  ``random.Random()``/``np.random.RandomState()`` without a seed.
* ``SIM103`` (error): mutable default argument (list/dict/set) -- state
  leaks across calls and across test orderings.
* ``SIM104`` (warning): direct iteration over an unordered ``set``
  (literal, comprehension, or ``set(...)`` call) in a ``for`` loop,
  comprehension, or ``list``/``tuple`` conversion.  Iteration order
  depends on ``PYTHONHASHSEED`` for str/bytes elements; wrap in
  ``sorted(...)``.
* ``SIM105`` (warning): a ``.telemetry.<method>(...)`` call not guarded
  by the zero-cost one-pointer-test pattern (an enclosing
  ``if ... is not None`` / truthiness test).  Unguarded calls make the
  telemetry-off path pay attribute/call overhead and can raise when the
  sink is absent.  ``repro/telemetry/`` itself is exempt.
* ``SIM106`` (warning): iteration whose *order* leaks into an identity
  -- looping over ``os.environ`` anywhere (the env block's order is
  inherited from the parent process), or over ``dict.items()`` /
  ``.keys()`` / ``.values()`` / ``vars(...)`` inside a function that
  builds a cache key, token, digest, fingerprint, or content identity.
  Dict order is insertion order, which varies across code paths that
  populate the dict differently, so two equal-content inputs can hash
  to different keys; wrap the iterable in ``sorted(...)``.
* ``SIM107`` (warning): a builtin ``sum(...)`` call in simulated-value
  code (``repro/sim``, ``repro/casync``, ``repro/net``, ``repro/gpu``
  and ``repro/training``).  From Python 3.12 ``sum`` of floats uses
  compensated summation, so a float sum there rounds differently across
  interpreters and silently moves simulated results; write a left fold
  (``total = 0.0; for x in xs: total += x``).  Integer counts, whose
  sums are exact everywhere, are exempt: ``sum(1 for ...)`` and
  ``sum(len(x) for ...)``.
* ``SIM108`` (error): an assignment to an attribute named ``now``
  outside ``repro/sim/core.py``.  ``Environment.now`` is a plain
  attribute, and only the kernel's ``step`` and ``run`` may move the
  clock; a write anywhere else silently reorders simulated time.
* ``SIM109`` (error): a reference to one of the agenda's private
  attributes (``_lanes``, ``_future``, ``_times``) outside
  ``repro/sim/core.py``.  The agenda's total order rests on invariants
  only the kernel keeps; a reader of the current instant's lanes uses the
  read-only ``Environment.lanes``.
* ``SIM900`` (info): an allowlist entry matched nothing -- stale
  suppressions rot.
* ``SIM000`` (error): a file simlint could not parse.

Findings can be suppressed via an allowlist file (``.simlint-allow`` at
the repo root, discovered by walking up from the scanned paths).  Each
line is::

    <path-glob> <RULE> <justification...>

and the justification is mandatory -- a suppression without a reason is
itself a finding.  Blank lines and ``#`` comments are ignored.

Run::

    python -m repro.analysis.simlint src/repro
    python -m repro.analysis.simlint --strict --format json src/repro
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .diagnostics import (
    Diagnostic, ERROR, INFO, WARNING, exit_code, render_json, render_text,
    sort_diagnostics,
)

__all__ = ["Allowlist", "lint_file", "lint_paths", "load_allowlist", "main"]

ALLOWLIST_FILENAME = ".simlint-allow"

#: Canonical dotted names whose *call* reads the host wall clock.
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: numpy.random module-level functions driven by the hidden global state.
_NP_RANDOM_GLOBAL = {
    "rand", "randn", "random", "randint", "random_sample", "ranf",
    "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "exponential", "poisson", "binomial", "seed",
    "random_integers", "sample", "bytes",
}

#: stdlib random module-level functions driven by the hidden global state.
_PY_RANDOM_GLOBAL = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "betavariate", "gammavariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "seed",
    "getrandbits", "randbytes",
}

#: Constructors that are deterministic only when given a seed argument.
_SEEDABLE_CONSTRUCTORS = {
    "numpy.random.default_rng", "numpy.random.RandomState",
    "random.Random",
}

#: Packages whose values are simulated results (SIM107), as path parts.
_SUM_CHECKED = ("/repro/sim/", "/repro/casync/", "/repro/net/",
                "/repro/gpu/", "/repro/training/")

#: The simulation kernel: the one module that may write a ``now``
#: attribute (SIM108) or touch the agenda's private attributes (SIM109).
_KERNEL = "/repro/sim/core.py"

#: The agenda's private attributes (SIM109).
_AGENDA_PRIVATE = frozenset({"_lanes", "_future", "_times"})

#: Function names that build an identity: a cache key, plan digest,
#: content token, fingerprint.  Iteration order inside these functions
#: becomes part of the identity (SIM106).
_KEYFUNC_RE = re.compile(
    r"(^|_)(key|keys|token|tokens|digest|fingerprint|content|identity)"
    r"($|_)")


@dataclass
class _AllowEntry:
    pattern: str
    rule: str
    justification: str
    lineno: int
    used: bool = False


@dataclass
class Allowlist:
    """Parsed ``.simlint-allow`` file plus use tracking."""

    path: Optional[Path] = None
    entries: List[_AllowEntry] = field(default_factory=list)
    parse_diagnostics: List[Diagnostic] = field(default_factory=list)

    def suppresses(self, file_posix: str, rule: str) -> bool:
        hit = False
        for entry in self.entries:
            if entry.rule != rule:
                continue
            if (fnmatch.fnmatch(file_posix, entry.pattern)
                    or fnmatch.fnmatch(file_posix, "*/" + entry.pattern)):
                entry.used = True
                hit = True
        return hit

    def unused_entries(self) -> List[Diagnostic]:
        stale = []
        for entry in self.entries:
            if not entry.used:
                stale.append(Diagnostic(
                    rule="SIM900", severity=INFO,
                    file=str(self.path) if self.path else ALLOWLIST_FILENAME,
                    line=entry.lineno,
                    message=(f"allowlist entry "
                             f"{entry.pattern!r} {entry.rule} matched no "
                             f"finding"),
                    hint="delete stale suppressions"))
        return stale


def load_allowlist(path: Path) -> Allowlist:
    allow = Allowlist(path=path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return allow
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            allow.parse_diagnostics.append(Diagnostic(
                rule="SIM000", severity=ERROR, file=str(path), line=lineno,
                message=("malformed allowlist entry: expected "
                         "'<path-glob> <RULE> <justification>'"),
                hint="every suppression needs a justification"))
            continue
        pattern, rule, justification = parts
        allow.entries.append(_AllowEntry(
            pattern=pattern, rule=rule, justification=justification,
            lineno=lineno))
    return allow


def discover_allowlist(paths: Sequence[Path]) -> Optional[Path]:
    """Walk up from each scanned path looking for ``.simlint-allow``."""
    for start in paths:
        probe = start.resolve()
        if probe.is_file():
            probe = probe.parent
        for directory in (probe, *probe.parents):
            candidate = directory / ALLOWLIST_FILENAME
            if candidate.is_file():
                return candidate
    return None


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path: str, telemetry_exempt: bool,
                 sum_checked: bool = False, kernel: bool = False):
        self.path = path
        self.telemetry_exempt = telemetry_exempt
        self.sum_checked = sum_checked
        self.kernel = kernel
        self.diagnostics: List[Diagnostic] = []
        #: local name -> canonical dotted module path
        self.aliases: Dict[str, str] = {}
        #: nesting depth of `is not None` / truthiness guards
        self._guard_depth = 0
        #: enclosing function names, innermost last (for SIM106)
        self._func_stack: List[str] = []

    # -- helpers -------------------------------------------------------------

    def _emit(self, rule: str, severity: str, node: ast.AST,
              message: str, hint: str = "") -> None:
        self.diagnostics.append(Diagnostic(
            rule=rule, severity=severity, file=self.path,
            line=getattr(node, "lineno", 0),
            column=getattr(node, "col_offset", -1) + 1,
            message=message, hint=hint))

    def _canonical(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute chain to its imported dotted path."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._canonical(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    # -- imports -------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.aliases[local] = target
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                self.aliases[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    # -- SIM103: mutable default arguments ------------------------------------

    def _check_defaults(self, node) -> None:
        args = node.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d]
        for default in defaults:
            if self._is_mutable_literal(default):
                self._emit(
                    "SIM103", ERROR, default,
                    f"mutable default argument in {node.name}(): the "
                    f"object is shared across every call",
                    hint="default to None and create the container "
                         "inside the function")

    @staticmethod
    def _is_mutable_literal(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "dict", "set")
                and not node.args and not node.keywords)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    # -- SIM104: unordered set iteration --------------------------------------

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            # set algebra: s1 | s2, s1 & s2, s1 - s2 on literal sets
            return (_FileLinter._is_set_expr(node.left)
                    or _FileLinter._is_set_expr(node.right))
        return False

    def _check_set_iteration(self, iter_node: ast.AST, where: str) -> None:
        if self._is_set_expr(iter_node):
            self._emit(
                "SIM104", WARNING, iter_node,
                f"iteration over an unordered set in {where}: order "
                f"depends on PYTHONHASHSEED for str elements",
                hint="iterate over sorted(...) or a tuple instead")

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter, "a for loop")
        self._check_ordering_iteration(node.iter, "a for loop")
        self.generic_visit(node)

    def _visit_comprehension_generators(self, node) -> None:
        for gen in node.generators:
            self._check_set_iteration(gen.iter, "a comprehension")
            self._check_ordering_iteration(gen.iter, "a comprehension")

    # -- SIM106: iteration order leaking into an identity ----------------------

    def _in_keyfunc(self) -> bool:
        return any(_KEYFUNC_RE.search(name) for name in self._func_stack)

    def _check_ordering_iteration(self, iter_node: ast.AST,
                                  where: str) -> None:
        target = iter_node
        view = ""
        if (isinstance(iter_node, ast.Call)
                and isinstance(iter_node.func, ast.Attribute)
                and iter_node.func.attr in ("items", "keys", "values")
                and not iter_node.args and not iter_node.keywords):
            target = iter_node.func.value
            view = f".{iter_node.func.attr}()"
        if self._canonical(target) == "os.environ":
            self._emit(
                "SIM106", WARNING, iter_node,
                f"iteration over os.environ{view} in {where}: the "
                f"environment block's order is inherited from the "
                f"parent process, not reproducible",
                hint="look up the variables you need explicitly, or "
                     "iterate over sorted(os.environ)")
            return
        if not self._in_keyfunc():
            return
        if view:
            self._emit(
                "SIM106", WARNING, iter_node,
                f"dict{view} iteration in {where} inside "
                f"{self._func_stack[-1]}(): insertion order leaks into "
                f"the identity this function builds",
                hint="iterate over sorted(...) so equal-content inputs "
                     "produce equal keys")
        elif (isinstance(iter_node, ast.Call)
                and isinstance(iter_node.func, ast.Name)
                and iter_node.func.id == "vars"):
            self._emit(
                "SIM106", WARNING, iter_node,
                f"vars(...) iteration in {where} inside "
                f"{self._func_stack[-1]}(): attribute insertion order "
                f"leaks into the identity this function builds",
                hint="iterate over sorted(vars(...)) instead")

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension_generators(node)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension_generators(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension_generators(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension_generators(node)
        self.generic_visit(node)

    # -- SIM108 / SIM109: the kernel's clock and agenda ----------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Store context: an assignment, augmented or unpacking target.
        if (node.attr == "now" and isinstance(node.ctx, ast.Store)
                and not self.kernel):
            self._emit(
                "SIM108", ERROR, node,
                "assignment to a `now` attribute: only the simulation "
                "kernel moves the clock",
                hint="schedule the work with env.call_later(delay, ...)")
        if node.attr in _AGENDA_PRIVATE and not self.kernel:
            self._emit(
                "SIM109", ERROR, node,
                f"reference to the agenda's private `{node.attr}`: only "
                f"the simulation kernel reads or writes it",
                hint="read the current instant's lanes through the "
                     "read-only env.lanes")
        self.generic_visit(node)

    # -- guards (for SIM105) ---------------------------------------------------

    @staticmethod
    def _is_presence_test(test: ast.AST) -> bool:
        """Does ``test`` gate on something being present / not None?"""
        if isinstance(test, ast.Compare):
            return any(isinstance(op, (ast.IsNot, ast.Is))
                       for op in test.ops)
        if isinstance(test, (ast.Name, ast.Attribute)):
            return True  # truthiness test: `if self.telemetry:`
        if isinstance(test, ast.BoolOp):
            return any(_FileLinter._is_presence_test(v)
                       for v in test.values)
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return _FileLinter._is_presence_test(test.operand)
        return False

    def visit_If(self, node: ast.If) -> None:
        guarded = self._is_presence_test(node.test)
        if guarded:
            self._guard_depth += 1
        for child in node.body:
            self.visit(child)
        if guarded:
            self._guard_depth -= 1
        self.visit(node.test)
        for child in node.orelse:
            self.visit(child)

    # -- calls: SIM101 / SIM102 / SIM105 / SIM107 ------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        canonical = self._canonical(node.func)
        if canonical in _WALL_CLOCK:
            self._emit(
                "SIM101", ERROR, node,
                f"wall-clock read {canonical}(): simulated time must "
                f"come from the event loop, not the host clock",
                hint="thread the simulation clock (env.now / result "
                     "timings) through instead")
        elif canonical is not None:
            self._check_rng(node, canonical)
        self._check_telemetry(node)
        if self.sum_checked:
            self._check_sum(node)
        self.generic_visit(node)

    def _check_sum(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "sum"
                and "sum" not in self.aliases):
            return
        first = node.args[0] if len(node.args) == 1 else None
        if isinstance(first, (ast.GeneratorExp, ast.ListComp)):
            elt = first.elt
            if isinstance(elt, ast.Constant) and type(elt.value) is int:
                return  # sum(1 for ...): a count
            if (isinstance(elt, ast.Call) and isinstance(elt.func, ast.Name)
                    and elt.func.id == "len" and "len" not in self.aliases):
                return  # sum(len(x) for ...): a count of items
        self._emit(
            "SIM107", WARNING, node,
            "builtin sum() in simulated-value code: float sums round "
            "differently from Python 3.12 (compensated summation)",
            hint="write a left fold (total += x in a loop)")

    def _check_rng(self, node: ast.Call, canonical: str) -> None:
        if canonical in _SEEDABLE_CONSTRUCTORS:
            if not node.args and not node.keywords:
                self._emit(
                    "SIM102", ERROR, node,
                    f"{canonical}() without a seed draws entropy from "
                    f"the OS; runs become unrepeatable",
                    hint="pass an explicit seed derived from the "
                         "experiment configuration")
            return
        if canonical == "random.SystemRandom":
            self._emit(
                "SIM102", ERROR, node,
                "random.SystemRandom is nondeterministic by design",
                hint="use random.Random(seed)")
            return
        parts = canonical.split(".")
        if (len(parts) == 3 and parts[0] == "numpy"
                and parts[1] == "random"
                and parts[2] in _NP_RANDOM_GLOBAL):
            self._emit(
                "SIM102", ERROR, node,
                f"{canonical}() uses numpy's hidden global RNG state",
                hint="use a Generator from np.random.default_rng(seed)")
        elif (len(parts) == 2 and parts[0] == "random"
                and parts[1] in _PY_RANDOM_GLOBAL):
            self._emit(
                "SIM102", ERROR, node,
                f"{canonical}() uses the interpreter-global RNG state",
                hint="use an explicit random.Random(seed) instance")

    def _check_telemetry(self, node: ast.Call) -> None:
        if self.telemetry_exempt:
            return
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "telemetry"):
            return
        if self._guard_depth > 0:
            return
        self._emit(
            "SIM105", WARNING, node,
            f".telemetry.{func.attr}(...) call without a presence "
            f"guard: the telemetry-off path must stay a single "
            f"pointer test",
            hint="wrap in `if <owner>.telemetry is not None:` (the "
                 "zero-cost pattern from repro.telemetry)")


def lint_file(path: Path, root: Optional[Path] = None) -> List[Diagnostic]:
    """Lint one Python file; ``root`` only affects reported paths."""
    display = str(path)
    if root is not None:
        try:
            display = str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            pass
    posix = path.resolve().as_posix()
    telemetry_exempt = "/telemetry/" in posix or posix.endswith(
        "/telemetry.py")
    sum_checked = any(part in posix for part in _SUM_CHECKED)
    kernel = posix.endswith(_KERNEL)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=display)
    except (OSError, SyntaxError) as exc:
        return [Diagnostic(
            rule="SIM000", severity=ERROR, file=display,
            line=getattr(exc, "lineno", 0) or 0,
            message=f"cannot lint: {exc}")]
    linter = _FileLinter(display, telemetry_exempt, sum_checked, kernel)
    linter.visit(tree)
    return linter.diagnostics


def _iter_python_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def lint_paths(paths: Sequence[Path],
               allowlist: Optional[Allowlist] = None,
               root: Optional[Path] = None
               ) -> Tuple[List[Diagnostic], List[Diagnostic]]:
    """Lint files/trees; returns (findings, suppressed)."""
    if allowlist is None:
        found = discover_allowlist(paths)
        allowlist = (load_allowlist(found) if found is not None
                     else Allowlist())
    findings: List[Diagnostic] = list(allowlist.parse_diagnostics)
    suppressed: List[Diagnostic] = []
    for path in _iter_python_files(paths):
        posix = path.resolve().as_posix()
        for diagnostic in lint_file(path, root=root):
            if allowlist.suppresses(posix, diagnostic.rule):
                suppressed.append(diagnostic)
            else:
                findings.append(diagnostic)
    findings.extend(allowlist.unused_entries())
    return sort_diagnostics(findings), sort_diagnostics(suppressed)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.simlint",
        description="Determinism linter for the simulator sources: "
                    "wall-clock reads, unseeded RNG, mutable defaults, "
                    "unordered-set iteration, unguarded telemetry, float "
                    "sums in simulated values, writes to the clock.")
    parser.add_argument("paths", nargs="+",
                        help="Python files or directories to lint")
    parser.add_argument("--allowlist", type=Path, default=None,
                        help=f"suppression file (default: nearest "
                             f"{ALLOWLIST_FILENAME} above the paths)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as failures")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print allowlisted findings")
    args = parser.parse_args(argv)

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: "
              f"{', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2
    allowlist = (load_allowlist(args.allowlist)
                 if args.allowlist is not None else None)
    findings, suppressed = lint_paths(paths, allowlist=allowlist)

    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
        if args.show_suppressed and suppressed:
            print(f"-- {len(suppressed)} suppressed by allowlist:")
            print(render_text(suppressed, summary=False))
    return exit_code(findings, strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
