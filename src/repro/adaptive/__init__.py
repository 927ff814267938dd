"""Adaptive compression control plane.

Picks the compression algorithm and its parameters **per gradient, per
iteration** from observed signals -- measured link bandwidth, gradient
norm/sparsity regime, and layer size -- behind the typed
:class:`CompressionPolicy` surface.  See ``docs/ADAPTIVE.md``.
"""

from .accordion import AccordionController
from .controller import DecisionLog, PolicyController
from .policy import POLICY_KINDS, AlgoSpec, CompressionPolicy, parse_policy
from .runtime import PLANNER_KINDS, PolicyRun, run_policy
from .signals import BandwidthTracker, GradientSignal, SyntheticGradientStream

__all__ = [
    "AccordionController",
    "AlgoSpec",
    "BandwidthTracker",
    "CompressionPolicy",
    "DecisionLog",
    "GradientSignal",
    "PLANNER_KINDS",
    "POLICY_KINDS",
    "PolicyController",
    "PolicyRun",
    "SyntheticGradientStream",
    "parse_policy",
    "run_policy",
]
