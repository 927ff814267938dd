"""The typing gate: strict mypy on the SyncPlan core (skips without mypy).

``tools/check_typing.py`` is the single entry point CI runs; this test
makes the gate part of the local suite wherever a type checker is
installed, and pins the gate's own plumbing (baseline parsing, error
normalization) everywhere.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
import typing
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_typing  # noqa: E402

HAVE_MYPY = importlib.util.find_spec("mypy") is not None


def test_normalize_drops_line_numbers():
    norm = check_typing.normalize(
        "src/repro/foo.py:42: error: boom  [assignment]")
    assert norm == ("src/repro/foo.py", "boom  [assignment]")
    assert check_typing.normalize(
        "src/repro/foo.py:42:7: error: boom") == ("src/repro/foo.py", "boom")
    assert check_typing.normalize("note: something") is None
    assert check_typing.normalize("src/repro/foo.py:42: note: hm") is None


def test_strict_files_exist():
    for rel in check_typing.STRICT_FILES:
        assert (REPO_ROOT / rel).is_file(), rel


def _annotated_objects(module):
    """Every class, function and method defined in ``module``."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("rel", check_typing.STRICT_FILES)
def test_strict_annotations_resolve(rel):
    # Runs without mypy: a name used in an annotation but never imported
    # (hidden at runtime by ``from __future__ import annotations``) fails
    # here even where the typing gate is skipped.
    module = importlib.import_module(
        rel[len("src/"):-len(".py")].replace("/", "."))
    unresolved = []
    for name, obj in _annotated_objects(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert not unresolved, unresolved


@pytest.mark.skipif(not HAVE_MYPY, reason="mypy not installed")
def test_typing_gate_passes():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_typing.py")],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
