"""Gradient synchronization strategies: baselines and CaSync variants.

All concrete strategies are registered in the strategy registry
(:mod:`repro.strategies.registry`), so callers can look them up by name
("byteps", "ring", "byteps-oss", "ring-oss", "casync-ps", "casync-ring")
the same way compression algorithms are looked up.
"""

from .base import MembershipBound, Strategy, SyncContext, bind_roster
from .casync import CaSyncPS, CaSyncRing
from .oss import BytePSOSSCompression, RingOSSCompression
from .ps import BytePS, partition_sizes
from .registry import available_strategies, get_strategy, register_strategy
from .ring import RingAllreduce, bucketize

register_strategy("byteps", BytePS)
register_strategy("ring", RingAllreduce)
register_strategy("byteps-oss", BytePSOSSCompression)
register_strategy("ring-oss", RingOSSCompression)
register_strategy("casync-ps", CaSyncPS)
register_strategy("casync-ring", CaSyncRing)

__all__ = [
    "BytePS",
    "BytePSOSSCompression",
    "CaSyncPS",
    "CaSyncRing",
    "MembershipBound",
    "RingAllreduce",
    "RingOSSCompression",
    "Strategy",
    "SyncContext",
    "available_strategies",
    "bind_roster",
    "bucketize",
    "get_strategy",
    "partition_sizes",
    "register_strategy",
]
