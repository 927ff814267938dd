"""The typed policy surface of the adaptive control plane.

A :class:`CompressionPolicy` is a frozen, hashable *description* of how
compression should be chosen -- which codecs are on the palette, which
signals drive the choice, and the knobs of the chooser.  A policy enters
a run through :func:`repro.adaptive.run_policy` (or its CLI, which reads
:func:`parse_policy`'s grammar); ``run_system`` and ``TrainingJob`` take
one codec through ``algorithm=`` / ``algorithm_params=``.

Four constructors:

* :meth:`CompressionPolicy.fixed` -- one codec, statically, for every
  gradient: *exactly* the pre-adaptive behaviour.  A fixed policy runs
  the original static pipeline (no AdaptivePass, no DecisionMap), so its
  plans and trace hashes are bit-identical to ``algorithm=``.
* :meth:`CompressionPolicy.size_adaptive` -- Hivemind-style
  ``SizeAdaptiveCompression`` switching (SNIPPETS.md §1): gradients at or
  above ``threshold_bytes`` use the ``large`` codec, the rest use
  ``small`` (often ``None`` = don't compress: for small tensors the
  encode/decode latency exceeds the bytes saved).
* :meth:`CompressionPolicy.bandwidth_adaptive` -- re-runs the §3.3
  selective planner under the *measured* (EMA-smoothed, quantized) link
  bandwidth each iteration, so compression turns itself off when the
  fabric is fast and back on under congestion.
* :meth:`CompressionPolicy.accordion` -- Accordion regime switching
  (:mod:`repro.adaptive.accordion`): the conservative codec inside
  critical regimes (rapid norm change), the aggressive one outside.

Policies are pure data: instantiating codecs, planners, and trackers is
:class:`repro.adaptive.controller.PolicyController`'s job.  Each
constructor checks its knobs: thresholds and the bandwidth quantum must
be finite and positive, smoothing factors finite and in [0, 1).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ConfigError

__all__ = ["AlgoSpec", "CompressionPolicy", "POLICY_KINDS", "parse_policy",
           "resolve_policy"]

POLICY_KINDS = ("fixed", "size", "bandwidth", "accordion")

#: Policy kind -> its primary palette key (see CompressionPolicy.primary_key).
_PRIMARY_KEYS = {"fixed": "algorithm", "size": "large",
                 "bandwidth": "algorithm", "accordion": "conservative"}


def _knob(name: str, value, smoothing: bool = False) -> float:
    """``value`` as a float, or a typed error: finite and > 0, or, for a
    ``smoothing`` factor, finite and in [0, 1)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if smoothing:
        valid, bound = 0 <= number < 1, "a number in [0, 1)"
    else:
        valid, bound = math.isfinite(number) and number > 0, \
            "a finite number > 0"
    if not valid:
        raise ConfigError(name, value, [], hint=f"{name} must be {bound}")
    return number


def _params_tuple(params: Optional[Dict]) -> Tuple:
    if not params:
        return ()
    for key, value in params.items():
        if not isinstance(value, (bool, int, float, str)):
            raise ConfigError(
                "algorithm param", f"{key}={value!r}", [],
                hint="policy algorithm params must be JSON scalars")
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class AlgoSpec:
    """One palette entry: a registry codec name plus parameter overrides.

    ``name=None`` means *no compression* (the decision point emits a raw
    transfer) -- adaptive policies legitimately choose it, per "On the
    Utility of Gradient Compression in Distributed Training Systems".
    """

    name: Optional[str]
    params: Tuple = ()

    @classmethod
    def of(cls, spec, params: Optional[Dict] = None) -> "AlgoSpec":
        """Coerce ``spec`` (AlgoSpec | name | None) into an AlgoSpec."""
        if isinstance(spec, AlgoSpec):
            return spec
        if spec is None or (isinstance(spec, str)
                            and spec.lower() in ("none", "raw")):
            return cls(name=None)
        if not isinstance(spec, str):
            raise ConfigError(
                "algorithm", spec, [],
                hint="palette entries are registry names, None, or "
                     "AlgoSpec objects")
        return cls(name=spec, params=_params_tuple(params))

    def instantiate(self):
        """Build the codec (None for raw) via the experiment defaults."""
        if self.name is None:
            return None
        # Deferred: repro.experiments.common imports the training stack.
        from ..experiments.common import default_algorithm
        try:
            return default_algorithm(self.name, **dict(self.params))
        except KeyError:
            from ..algorithms import available_algorithms
            raise ConfigError("algorithm", self.name,
                              available_algorithms()) from None


@dataclass(frozen=True)
class CompressionPolicy:
    """A frozen description of how compression is chosen per gradient.

    ``palette`` maps role keys (policy-kind specific: ``algorithm``,
    ``small`` / ``large``, ``conservative`` / ``aggressive``) to
    :class:`AlgoSpec` entries; ``knobs`` holds the chooser's scalar
    parameters; ``seed`` keys the synthetic gradient-signal stream, so
    two runs with the same policy object make identical decisions.
    """

    kind: str
    palette: Tuple = ()          # ((key, AlgoSpec), ...)
    knobs: Tuple = ()            # ((name, scalar), ...)
    seed: str = "adaptive"

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ConfigError("policy kind", self.kind, POLICY_KINDS)

    # -- constructors -------------------------------------------------------

    @classmethod
    def fixed(cls, algorithm: str,
              params: Optional[Dict] = None) -> "CompressionPolicy":
        """Today's behaviour: one codec, statically, for every gradient."""
        spec = AlgoSpec.of(algorithm, params)
        if spec.name is None:
            raise ConfigError(
                "algorithm", algorithm, [],
                hint="fixed(None) is meaningless -- use an uncompressed "
                     "system (e.g. run_system('byteps', ...)) instead")
        return cls(kind="fixed", palette=(("algorithm", spec),))

    @classmethod
    def size_adaptive(cls, small=None, large: str = "dgc",
                      threshold_bytes: float = 1 << 20,
                      small_params: Optional[Dict] = None,
                      large_params: Optional[Dict] = None,
                      seed: str = "adaptive") -> "CompressionPolicy":
        """Hivemind-style switching on layer size (SNIPPETS.md §1)."""
        threshold_bytes = _knob("threshold_bytes", threshold_bytes)
        large_spec = AlgoSpec.of(large, large_params)
        if large_spec.name is None:
            raise ConfigError(
                "algorithm", large, [],
                hint="size_adaptive needs a compressing 'large' codec")
        return cls(
            kind="size",
            palette=(("large", large_spec),
                     ("small", AlgoSpec.of(small, small_params))),
            knobs=(("threshold_bytes", threshold_bytes),),
            seed=seed)

    @classmethod
    def bandwidth_adaptive(cls, algorithm: str = "dgc",
                           params: Optional[Dict] = None,
                           smoothing: float = 0.5,
                           quantum_gbps: float = 2.0,
                           seed: str = "adaptive") -> "CompressionPolicy":
        """Re-plan <compress?, K> under the measured link bandwidth."""
        smoothing = _knob("smoothing", smoothing, smoothing=True)
        quantum_gbps = _knob("quantum_gbps", quantum_gbps)
        spec = AlgoSpec.of(algorithm, params)
        if spec.name is None:
            raise ConfigError(
                "algorithm", algorithm, [],
                hint="bandwidth_adaptive needs a compressing codec to "
                     "fall back on under congestion")
        return cls(
            kind="bandwidth",
            palette=(("algorithm", spec),),
            knobs=(("smoothing", smoothing), ("quantum_gbps", quantum_gbps)),
            seed=seed)

    @classmethod
    def accordion(cls, conservative: str = "terngrad",
                  aggressive: str = "dgc",
                  conservative_params: Optional[Dict] = None,
                  aggressive_params: Optional[Dict] = None,
                  threshold: float = 0.5, smoothing: float = 0.8,
                  seed: str = "adaptive") -> "CompressionPolicy":
        """Accordion regime switching (conservative codec when critical)."""
        threshold = _knob("threshold", threshold)
        smoothing = _knob("smoothing", smoothing, smoothing=True)
        cons = AlgoSpec.of(conservative, conservative_params)
        aggr = AlgoSpec.of(aggressive, aggressive_params)
        if cons.name is None or aggr.name is None:
            raise ConfigError(
                "algorithm", conservative if cons.name is None else aggressive,
                [], hint="accordion switches between two compressing "
                         "codecs; use size_adaptive for a raw tier")
        return cls(
            kind="accordion",
            palette=(("conservative", cons), ("aggressive", aggr)),
            knobs=(("threshold", threshold), ("smoothing", smoothing)),
            seed=seed)

    # -- accessors ----------------------------------------------------------

    @property
    def is_fixed(self) -> bool:
        return self.kind == "fixed"

    @property
    def primary_key(self) -> str:
        """The palette key that stands for the whole policy.

        Its codec is the plan-wide default (ops outside any gradient's
        decision) and the one planning/profiling accessors cost against.
        """
        return _PRIMARY_KEYS[self.kind]

    def palette_dict(self) -> Dict[str, AlgoSpec]:
        return dict(self.palette)

    def knob(self, name: str, default=None):
        for key, value in self.knobs:
            if key == name:
                return value
        return default

    def fixed_algorithm(self) -> AlgoSpec:
        if not self.is_fixed:
            raise ValueError(f"{self!r} is not a fixed policy")
        return self.palette_dict()["algorithm"]

    def instantiate_palette(self) -> Dict[str, object]:
        """Instantiated codecs for every *compressing* palette entry."""
        return {key: spec.instantiate()
                for key, spec in self.palette if spec.name is not None}

    def token(self) -> Tuple:
        """Hashable identity (experiment-cache / job-digest keying)."""
        return (self.kind,
                tuple((k, s.name, s.params) for k, s in self.palette),
                self.knobs, self.seed)

    def describe(self) -> str:
        entries = ", ".join(
            f"{key}={spec.name or 'raw'}" for key, spec in self.palette)
        knobs = ", ".join(f"{k}={v:g}" if isinstance(v, float)
                          else f"{k}={v}" for k, v in self.knobs)
        return f"{self.kind}({entries}{'; ' + knobs if knobs else ''})"

    def __repr__(self) -> str:
        return f"<CompressionPolicy {self.describe()}>"


def parse_policy(text: str) -> CompressionPolicy:
    """Parse the CLI policy syntax into a :class:`CompressionPolicy`.

    Grammar: ``kind[:key=value,...]`` where bare values fill the kind's
    positional role, e.g.::

        fixed:onebit
        fixed:dgc,rate=0.01
        size:small=none,large=dgc,threshold_bytes=1048576
        bandwidth:dgc
        accordion:conservative=terngrad,aggressive=dgc,threshold=0.5
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in POLICY_KINDS:
        raise ConfigError("policy kind", kind, POLICY_KINDS,
                          hint="policy syntax is kind:key=value,...")
    named: Dict[str, str] = {}
    bare = []
    for part in filter(None, (p.strip() for p in rest.split(","))):
        if "=" in part:
            key, _, value = part.partition("=")
            named[key.strip()] = value.strip()
        else:
            bare.append(part)

    def coerce(value: str):
        for cast in (int, float):
            try:
                return cast(value)
            except ValueError:
                continue
        if value.lower() in ("true", "false"):
            return value.lower() == "true"
        return value

    if kind == "fixed":
        algorithm = bare[0] if bare else named.pop("algorithm", None)
        if algorithm is None:
            raise ConfigError(
                "policy", text, [],
                hint="fixed needs an algorithm, e.g. fixed:onebit")
        params = {k: coerce(v) for k, v in named.items()}
        return CompressionPolicy.fixed(algorithm, params or None)
    if bare:
        named.setdefault(_PRIMARY_KEYS[kind], bare[0])
    build = {"size": CompressionPolicy.size_adaptive,
             "bandwidth": CompressionPolicy.bandwidth_adaptive,
             "accordion": CompressionPolicy.accordion}[kind]
    known = inspect.signature(build).parameters
    for key in named:
        if key not in known:
            raise ConfigError(f"{kind} policy knob", key, known,
                              hint=f"in policy {text!r}")
    return build(**{k: coerce(v) for k, v in named.items()})


def resolve_policy(policy) -> CompressionPolicy:
    """``policy`` (a :class:`CompressionPolicy` or policy string) as a
    policy; anything else is a typed error."""
    if isinstance(policy, str):
        policy = parse_policy(policy)
    if not isinstance(policy, CompressionPolicy):
        raise ConfigError(
            "policy", policy, ["CompressionPolicy", "policy string"],
            hint="build one via CompressionPolicy.fixed/size_adaptive/"
                 "bandwidth_adaptive/accordion")
    return policy
