"""Accordion-style critical-regime detection (Agarwal et al., 2020).

The paper's related-work section notes that Accordion -- which
"dynamically sets compression rates to balance accuracy and performance"
-- "can be employed by HiPress as an advanced feature".  This module is
that feature, folded into the adaptive control plane: the
:func:`repro.adaptive.CompressionPolicy.accordion` policy drives
:class:`AccordionController` from the per-iteration gradient signals and
picks the conservative codec inside critical regimes, the aggressive one
outside.

:class:`AdaptiveAlgorithm` is the older *codec-level* form of the same
idea -- two codecs behind one :class:`~repro.algorithms.base.
CompressionAlgorithm` API with a one-byte mode header -- retained because
it drops into the planner and the data-parallel trainer unchanged.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..algorithms.base import CompressionAlgorithm, KernelProfile
from ..algorithms.packing import ByteReader, ByteWriter

__all__ = ["AccordionController", "AdaptiveAlgorithm"]


class AccordionController:
    """Critical-regime detector over per-tensor gradient norms.

    A tensor is *critical* when its gradient norm changed by more than
    ``threshold`` (relatively) since the last observation -- the heuristic
    Accordion uses at epoch granularity, applied here per call.
    The very first observation of a tensor is treated as critical
    (training starts in a critical regime).
    """

    def __init__(self, threshold: float = 0.5, smoothing: float = 0.8):
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if not 0 <= smoothing < 1:
            raise ValueError(
                f"smoothing must be in [0, 1), got {smoothing}")
        self.threshold = float(threshold)
        self.smoothing = float(smoothing)
        self._norms: Dict[str, float] = {}
        self.critical_calls = 0
        self.relaxed_calls = 0

    def is_critical(self, name: str, gradient: np.ndarray) -> bool:
        return self.observe_norm(name, float(np.linalg.norm(gradient)))

    def observe_norm(self, name: str, norm: float) -> bool:
        """Regime verdict from a precomputed norm (the control-plane path:
        the policy controller feeds signal-stream norms, no tensor data)."""
        baseline = self._norms.get(name)
        if baseline is None:
            self._norms[name] = norm
            self.critical_calls += 1
            return True
        # Compare against an EMA baseline: minibatch norms are noisy, and
        # Accordion's regime signal is the trend, not per-step jitter.
        critical = abs(norm - baseline) / max(baseline, 1e-12) \
            > self.threshold
        self._norms[name] = (self.smoothing * baseline
                             + (1 - self.smoothing) * norm)
        if critical:
            self.critical_calls += 1
        else:
            self.relaxed_calls += 1
        return critical

    def reset(self) -> None:
        self._norms.clear()
        self.critical_calls = 0
        self.relaxed_calls = 0


class AdaptiveAlgorithm(CompressionAlgorithm):
    """Two-codec adaptive compression behind the standard API.

    Buffer layout: ``mode:u1 | inner buffer`` where mode 0 = conservative,
    1 = aggressive.  Tensor identity for regime tracking comes from the
    gradient's size (callers that need exact identity can pass ``name`` to
    :meth:`encode_named`, which the data-parallel trainer does through the
    error-feedback wrapper's name argument).
    """

    name = "adaptive"
    category = "adaptive"

    def __init__(self, conservative: CompressionAlgorithm,
                 aggressive: CompressionAlgorithm,
                 controller: Optional[AccordionController] = None):
        self.conservative = conservative
        self.aggressive = aggressive
        self.controller = controller or AccordionController()
        # Cost-model kernels follow the aggressive codec (the steady
        # state); sizes are planned conservatively (see compressed_nbytes).
        self.profile: KernelProfile = aggressive.profile

    # -- core API -----------------------------------------------------------

    def encode(self, gradient: np.ndarray) -> np.ndarray:
        grad = np.ascontiguousarray(gradient, dtype=np.float32).ravel()
        return self.encode_named(f"anon:{grad.size}", grad)

    def encode_named(self, name: str, gradient: np.ndarray) -> np.ndarray:
        grad = np.ascontiguousarray(gradient, dtype=np.float32).ravel()
        if grad.size == 0:
            raise ValueError("cannot compress an empty gradient")
        critical = self.controller.is_critical(name, grad)
        codec = self.conservative if critical else self.aggressive
        mode = 0 if critical else 1
        return (ByteWriter()
                .scalar(mode, "u1")
                .array(codec.encode(grad))
                .finish())

    def decode(self, compressed: np.ndarray) -> np.ndarray:
        reader = ByteReader(compressed)
        mode = int(reader.scalar("u1"))
        codec = self.conservative if mode == 0 else self.aggressive
        return codec.decode(reader.rest())

    def compressed_nbytes(self, num_elements: int) -> int:
        # Plan with the larger (conservative) codec's size: critical-regime
        # traffic is the worst case the synchronizer must absorb.
        return 1 + max(self.conservative.compressed_nbytes(num_elements),
                       self.aggressive.compressed_nbytes(num_elements))

    # -- introspection ---------------------------------------------------------

    @property
    def critical_fraction(self) -> float:
        total = (self.controller.critical_calls
                 + self.controller.relaxed_calls)
        if total == 0:
            return 0.0
        return self.controller.critical_calls / total
