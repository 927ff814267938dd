"""Tests for the algorithm validation harness."""

import numpy as np
import pytest

from repro.algorithms import (
    DGC,
    AdaComp,
    CompressionAlgorithm,
    GradDrop,
    KernelProfile,
    OneBit,
    TBQ,
    TernGrad,
    ThreeLC,
)
from repro.compll import build
from repro.compll.verify import validate_algorithm


ALL = [OneBit(), TBQ(threshold=0.25), TernGrad(seed=0), DGC(),
       GradDrop(), AdaComp(), ThreeLC()]


@pytest.mark.parametrize("algo", ALL, ids=lambda a: a.name)
def test_handwritten_algorithms_validate(algo):
    report = validate_algorithm(algo)
    assert report.ok, report.render()


@pytest.mark.parametrize("name", ["onebit", "tbq", "dgc", "graddrop",
                                  "terngrad", "adacomp", "threelc"])
def test_dsl_generated_algorithms_validate(name):
    report = validate_algorithm(build(name))
    assert report.ok, report.render()


def test_report_render_contains_checks():
    report = validate_algorithm(OneBit())
    text = report.render()
    assert "PASS" in text
    assert "roundtrip" in text
    assert report.failures == []


class _BrokenShape(CompressionAlgorithm):
    """Decode drops an element -- must be caught."""

    name = "broken-shape"
    profile = KernelProfile(1, 1)

    def encode(self, gradient):
        if gradient.size == 0:
            raise ValueError("empty")
        return np.asarray(gradient, dtype=np.float32).view(np.uint8).copy()

    def decode(self, compressed):
        full = compressed.view(np.float32)
        return full[:-1].copy() if full.size > 1 else full.copy()

    def compressed_nbytes(self, num_elements):
        return num_elements * 4


class _Amplifier(CompressionAlgorithm):
    """Decode doubles values -- violates the no-amplification contract."""

    name = "amplifier"
    profile = KernelProfile(1, 1)

    def encode(self, gradient):
        if gradient.size == 0:
            raise ValueError("empty")
        return np.asarray(gradient, dtype=np.float32).view(np.uint8).copy()

    def decode(self, compressed):
        return compressed.view(np.float32) * 2.0

    def compressed_nbytes(self, num_elements):
        return num_elements * 4


def test_catches_shape_bug():
    report = validate_algorithm(_BrokenShape())
    assert not report.ok
    assert any("roundtrip" in c.name for c in report.failures)


def test_catches_amplification_bug():
    report = validate_algorithm(_Amplifier())
    assert not report.ok
    assert any("amplification" in c.name for c in report.failures)


class _NoEmptyCheck(_BrokenShape):
    name = "no-empty-check"

    def encode(self, gradient):
        return np.asarray(gradient, dtype=np.float32).view(np.uint8).copy()

    def decode(self, compressed):
        return compressed.view(np.float32).copy()


def test_catches_missing_empty_rejection():
    report = validate_algorithm(_NoEmptyCheck())
    failures = {c.name for c in report.failures}
    assert "rejects empty gradient" in failures
