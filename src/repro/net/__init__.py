"""Network fabric model (full-duplex NICs, point-to-point transfers)."""

from .fabric import (Fabric, LinkSpec, NetworkSpec, Nic, StragglerProfile,
                     TransferStats, WanTier)

__all__ = ["Fabric", "LinkSpec", "NetworkSpec", "Nic", "StragglerProfile",
           "TransferStats", "WanTier"]
