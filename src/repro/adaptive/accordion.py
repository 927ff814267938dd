"""Accordion-style critical-regime detection (Agarwal et al., 2020).

The paper's related-work section notes that Accordion -- which
"dynamically sets compression rates to balance accuracy and performance"
-- "can be employed by HiPress as an advanced feature".  This module is
that feature's regime detector: the
:func:`repro.adaptive.CompressionPolicy.accordion` policy drives
:class:`AccordionController` from the per-iteration gradient signals and
picks the conservative codec inside critical regimes, the aggressive one
outside (``run_policy(..., "accordion:...")``).
"""

from __future__ import annotations

from typing import Dict

__all__ = ["AccordionController"]


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

    def observe_norm(self, name: str, norm: float) -> bool:
        """Regime verdict for tensor ``name`` from its gradient norm (the
        policy controller feeds signal-stream norms, no tensor data)."""
        baseline = self._norms.get(name)
        if baseline is None:
            self._norms[name] = norm
            return True
        # Compare against an EMA baseline: minibatch norms are noisy, and
        # Accordion's regime signal is the trend, not per-step jitter.
        critical = abs(norm - baseline) / max(baseline, 1e-12) \
            > self.threshold
        self._norms[name] = (self.smoothing * baseline
                             + (1 - self.smoothing) * norm)
        return critical
