"""Strategy registry: name -> factory, mirroring the algorithm registry.

Strategies used to be hand-wired into ``repro.experiments.common.SYSTEMS``;
this registry makes them first-class lookups, so new synchronization
strategies integrate the same way new compression algorithms do::

    from repro.strategies.registry import register_strategy, get_strategy

    register_strategy("my-sync", MySyncStrategy)
    strategy = get_strategy("my-sync", pipelining=False)
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .base import Strategy

__all__ = [
    "available_strategies",
    "get_strategy",
    "register_strategy",
]

_REGISTRY: Dict[str, Callable[..., Strategy]] = {}


def register_strategy(name: str, factory: Callable[..., Strategy],
                      overwrite: bool = False) -> None:
    """Register a strategy factory under ``name``."""
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"strategy {name!r} is already registered")
    _REGISTRY[name] = factory


def get_strategy(name: str, **params) -> Strategy:
    """Instantiate a registered strategy by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**params)


def available_strategies() -> List[str]:
    """Registered names, sorted."""
    return sorted(_REGISTRY)
