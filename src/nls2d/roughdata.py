"""Seeded random initial data with prescribed Sobolev regularity.

The coefficient at mode k is ``c * (1 + |k|^2)**(-(s + 1 + eps)/2) * g_k``
where g_k has independent real and imaginary parts uniform on [-1, 1) and c
normalizes the L2 norm to ``target_l2``.  The resulting field lies in H^q
for every q < s + eps and in no H^q with q > s + eps, so ``s`` is an honest
smoothness dial (with eps of slack).

Randomness is pinned to a fixed, platform-independent algorithm, so equal
seeds give bit-identical draws everywhere:

* stream generator: SplitMix64.  Draw i (0-based) for a 64-bit seed value
  is ``mix(seed + (i+1) * 0x9E3779B97F4A7C15 mod 2**64)`` where ``mix`` is
  ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2**64);
* each 64-bit output maps to [-1, 1) through its top 53 bits:
  ``2 * ((z >> 11) * 2**-53) - 1``;
* draws are consumed in row-major mode order (k1 outer, k2 inner, both
  ascending), real part first, imaginary part second.

Every datum is drawn by :func:`generate_stack`, which builds the data of
consecutive seeds at once: one (count, 2*N*N) block of the stream, one
decay weight, and one ``l2_norm`` per slice.  :func:`generate` is its
one-slice case.  The uint64 arithmetic and the scaling are elementwise, so
each slice is bit for bit the datum of its seed drawn alone.  ``l2_norm``
sums in a fixed order, so the datum, scale included, is the same bits under
any BLAS thread count.  :func:`uniform_block` gives the stream of one seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .spectral import l2_norm, mode_ksq

__all__ = ["RoughDataSpec", "uniform_block", "generate", "generate_stack"]

logger = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _uniform(seeds: np.ndarray, count: int) -> np.ndarray:
    """First ``count`` draws for each uint64 seed in ``seeds``, shape ``(*seeds.shape, count)``."""
    i = np.arange(1, count + 1, dtype=np.uint64)
    z = seeds[..., None] + i * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return 2.0 * ((z >> np.uint64(11)).astype(np.float64) * 2.0**-53) - 1.0


def uniform_block(seed: int, count: int) -> np.ndarray:
    """First ``count`` draws of the stream for ``seed``, as a float array."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return _uniform(np.asarray(seed & _MASK64, dtype=np.uint64), count)


@dataclass(frozen=True)
class RoughDataSpec:
    """Recipe for one random datum.

    Attributes
    ----------
    s : float
        Smoothness dial, > 0.
    seed : int
        Stream seed, reduced mod 2**64.
    n_modes : int
        Lattice size N (even, >= 2); all modes in [-N/2, N/2 - 1]^2 are
        populated.
    eps : float
        Extra decay margin, > 0.
    target_l2 : float
        L2 norm of the generated field, > 0.
    """

    s: float
    seed: int
    n_modes: int
    eps: float = 0.01
    target_l2: float = 0.1

    def __post_init__(self) -> None:
        if not (self.s > 0.0):
            raise ValueError(f"s must be > 0, got {self.s}")
        if not (self.eps > 0.0):
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not (self.target_l2 > 0.0):
            raise ValueError(f"target_l2 must be positive, got {self.target_l2}")
        if self.n_modes < 2 or self.n_modes % 2 != 0:
            raise ValueError(f"n_modes must be an even integer >= 2, got {self.n_modes}")


def _decayed(draws: np.ndarray, spec: RoughDataSpec) -> np.ndarray:
    """Decay-weighted coefficients (..., N, N) from interleaved draws (..., 2*N*N)."""
    n = spec.n_modes
    shape = (*draws.shape[:-1], n, n)
    g = draws[..., 0::2].reshape(shape) + 1j * draws[..., 1::2].reshape(shape)
    return (1.0 + mode_ksq(n)) ** (-(spec.s + 1.0 + spec.eps) / 2.0) * g


def generate(spec: RoughDataSpec) -> np.ndarray:
    """The (N, N) datum described by ``spec``: the one-slice :func:`generate_stack`.

    Deterministic: equal specs give bit-identical coefficient arrays.  The
    normalization is exact up to one rounding of the scale factor.
    """
    return generate_stack(spec, 1)[0]


def generate_stack(spec: RoughDataSpec, count: int) -> np.ndarray:
    """The data of seeds ``spec.seed .. spec.seed + count - 1``, as one (count, N, N) stack.

    One (count, 2*N*N) block of the stream, one decay weight, and each
    slice scaled by its own ``l2_norm``; these are elementwise, so slice m
    is bit for bit the datum of seed ``spec.seed + m`` alone.  In the
    (practically unreachable) event that every draw of a slice is zero,
    its seed is bumped by one and the slice drawn again, with a warning.
    """
    n = spec.n_modes

    def draw(seeds: list[int]) -> np.ndarray:
        return _decayed(_uniform(np.array([x & _MASK64 for x in seeds], dtype=np.uint64),
                                 2 * n * n), spec)

    raw = draw(list(range(spec.seed, spec.seed + count)))
    # Every norm's temporaries are freed before ``out`` exists, and scaling
    # into a new array, not in place, lets glibc malloc reuse warm pages.
    norms = [l2_norm(c) for c in raw]
    out = np.empty_like(raw)
    for m, (c, norm) in enumerate(zip(raw, norms)):
        seed = spec.seed + m
        while norm == 0.0:
            logger.warning("all draws zero for seed %d; retrying with seed %d", seed, seed + 1)
            seed += 1
            norm = l2_norm(c := draw([seed])[0])
        np.multiply(c, spec.target_l2 / norm, out=out[m])
    return out
