"""Compression-algorithm abstraction: the paper's unified encode/decode API.

CompLL's unified API (§4.1, Fig. 4) is::

    void encode(float* input, uint8* output, params);
    void decode(uint8* input, float* output, params);

Here that becomes :class:`CompressionAlgorithm`, whose ``encode`` turns a
float32 gradient into a self-describing uint8 buffer and whose ``decode``
inverts it.  Compressed gradients are deliberately *not* aggregatable --
aggregation must decode, merge, re-encode, which is the root of the
synchronization overhead CaSync manages (§2.5).

Each algorithm also carries a :class:`KernelProfile` -- how many scan passes
and kernel launches encode/decode need, and the expected compressed size --
which is all the information the selective-compression cost model (§3.3) and
the GPU simulator need.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Type

import numpy as np

from ..gpu import GpuSpec

__all__ = [
    "CompressionAlgorithm",
    "KernelProfile",
    "register_algorithm",
    "get_algorithm",
    "available_algorithms",
    "FLOAT_BYTES",
]

#: Gradients are fp32 throughout, matching the paper's evaluation.
FLOAT_BYTES = 4


@dataclass(frozen=True)
class KernelProfile:
    """Cost-model description of an algorithm's encode/decode kernels.

    encode_passes / decode_passes: effective number of times the input
        buffer is streamed through GPU memory (a fused multi-op scan over
        the same data counts once per actual pass).
    encode_kernels / decode_kernels: number of kernel launches.
    """

    encode_passes: float
    decode_passes: float
    encode_kernels: int = 1
    decode_kernels: int = 1

    def encode_time(self, nbytes: float, gpu: GpuSpec,
                    output_nbytes: Optional[float] = None) -> float:
        """Seconds to compress an ``nbytes`` gradient on ``gpu``.

        Sizes may be arrays, as for :meth:`GpuSpec.kernel_time`.
        """
        touched = self.encode_passes * nbytes + (
            0.0 if output_nbytes is None else output_nbytes)
        return gpu.kernel_time(touched, kernels=self.encode_kernels)

    def decode_time(self, compressed_nbytes: float, gpu: GpuSpec,
                    output_nbytes: float = 0.0) -> float:
        """Seconds to decompress on ``gpu``.

        Decode reads the compressed buffer and writes the full-size output,
        so the output traffic dominates for high-ratio codecs.
        """
        touched = self.decode_passes * compressed_nbytes + output_nbytes
        return gpu.kernel_time(touched, kernels=self.decode_kernels)


class CompressionAlgorithm(ABC):
    """Base class for gradient compression codecs.

    Subclasses implement :meth:`encode` / :meth:`decode` over 1-D float32
    arrays and report their expected compressed size for the cost model.
    N-D gradients are flattened by callers; compression is layer-wise
    (§3.3), so shape restoration is the caller's concern.
    """

    #: Short identifier, e.g. "onebit".
    name: str = "base"
    #: "quantization" or "sparsification".
    category: str = "quantization"
    #: Kernel cost profile for the simulator / cost model.
    profile: KernelProfile = KernelProfile(encode_passes=1, decode_passes=1)

    @abstractmethod
    def encode(self, gradient: np.ndarray) -> np.ndarray:
        """Compress a 1-D float32 gradient into a uint8 buffer."""

    @abstractmethod
    def decode(self, compressed: np.ndarray) -> np.ndarray:
        """Decompress a buffer produced by :meth:`encode` back to float32."""

    @abstractmethod
    def compressed_nbytes(self, num_elements: int) -> int:
        """Expected compressed size in bytes for an ``num_elements`` gradient.

        For data-dependent codecs (sparsifiers) this is the size at the
        algorithm's nominal selection rate; the simulator uses it as the
        planning estimate, exactly as the paper profiles ``r`` (§3.3).
        """

    # -- cost-model conveniences -------------------------------------------

    def compression_rate(self, num_elements: int) -> float:
        """``r`` from Table 2: compressed bytes / original bytes."""
        if num_elements <= 0:
            raise ValueError(f"need a positive element count, got {num_elements}")
        return self.compressed_nbytes(num_elements) / (num_elements * FLOAT_BYTES)

    def encode_time(self, nbytes: float, gpu: GpuSpec) -> float:
        """T_enc(m) for an m-byte gradient (§3.3, Table 2)."""
        out = self.compressed_nbytes(max(1, int(nbytes // FLOAT_BYTES)))
        return self.profile.encode_time(nbytes, gpu, output_nbytes=out)

    def decode_time(self, nbytes: float, gpu: GpuSpec) -> float:
        """T_dec for a compressed gradient whose *original* size is nbytes."""
        comp = self.compressed_nbytes(max(1, int(nbytes // FLOAT_BYTES)))
        return self.profile.decode_time(comp, gpu, output_nbytes=nbytes)

    # -- verification helper -----------------------------------------------

    def roundtrip(self, gradient: np.ndarray) -> np.ndarray:
        """decode(encode(g)) -- used pervasively by tests."""
        return self.decode(self.encode(np.asarray(gradient, dtype=np.float32)))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


# Registry ----------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., CompressionAlgorithm]] = {}


def register_algorithm(name: str, factory: Callable[..., CompressionAlgorithm],
                       overwrite: bool = False) -> None:
    """Register an algorithm factory under ``name``.

    CompLL's code generator calls this to auto-integrate generated codecs
    (§4: "automatically integrated into DNN systems with little human
    intervention").
    """
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"algorithm {name!r} is already registered")
    _REGISTRY[name] = factory


def get_algorithm(name: str, **params) -> CompressionAlgorithm:
    """Instantiate a registered algorithm by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**params)


def available_algorithms() -> list:
    return sorted(_REGISTRY)
