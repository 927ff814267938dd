"""Tests for the Accordion-style critical-regime detector."""

import numpy as np
import pytest

from repro.hipress import AccordionController


def observe(ctrl, name, gradient):
    return ctrl.observe_norm(name, float(np.linalg.norm(gradient)))


# ---------------------------------------------------------------- controller

def test_first_observation_is_critical():
    ctrl = AccordionController()
    assert observe(ctrl, "t", np.ones(10, dtype=np.float32))


def test_stable_norms_relax():
    ctrl = AccordionController(threshold=0.5)
    g = np.ones(10, dtype=np.float32)
    observe(ctrl, "t", g)
    assert not observe(ctrl, "t", g * 1.01)
    assert not observe(ctrl, "t", g * 0.99)


def test_norm_jump_is_critical():
    ctrl = AccordionController(threshold=0.5)
    g = np.ones(10, dtype=np.float32)
    observe(ctrl, "t", g)
    assert observe(ctrl, "t", g * 3.0)
    assert observe(ctrl, "t", g * 0.1)


def test_tensors_tracked_independently():
    ctrl = AccordionController(threshold=0.5)
    g = np.ones(10, dtype=np.float32)
    observe(ctrl, "a", g)
    observe(ctrl, "b", g)
    assert not observe(ctrl, "a", g)
    assert observe(ctrl, "b", g * 10)


def test_controller_validation():
    with pytest.raises(ValueError):
        AccordionController(threshold=0)
