"""Spectral fields on the 2D torus and the operations connecting them.

Conventions used throughout the package:

* A spectral field stores the coefficients ``c[k1, k2]`` of the expansion
  ``u(x) = sum_k c_k exp(i<k, x>)`` over the centered integer lattice
  ``k1, k2 in [-N/2, N/2 - 1]``.  Arrays are indexed in natural (ascending)
  mode order, row-major: ``coeffs[i, j]`` holds ``k = (i - N/2, j - N/2)``.
* Grid values are a plain complex (N, N) array of samples at the uniform
  collocation nodes ``x_{jl} = (2*pi*j/N, 2*pi*l/N)`` with
  ``j, l in [-N/2, N/2 - 1]``, again in ascending index order.
* The forward transform is normalized so that the coefficient array of the
  trigonometric interpolant is the raw DFT divided by ``N**2``.  With that
  scaling a pure mode ``exp(i<k, x>)`` sampled on its own grid transforms to
  a single unit coefficient at ``k``.
* ``l2_norm`` is the true L2(T^2) norm, ``(4*pi^2 * sum |c_k|^2)**0.5``; a
  one-mode field with coefficient ``a`` has norm ``2*pi*|a|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonFiniteFieldError",
    "SpectralField",
    "mode_values",
    "mode_ksq",
    "dft_forward",
    "synthesize",
    "synthesize_array",
    "project",
    "project_array",
    "embed",
    "restrict",
    "l2_norm",
    "sobolev_norm",
    "l2h_norm",
]


class NonFiniteFieldError(ValueError):
    """Raised when a field would store NaN or Inf values."""


def _validate_square(arr: np.ndarray, n: int, what: str, lead: tuple[int, ...] = ()) -> None:
    if n < 2 or n % 2 != 0:
        raise ValueError(f"{what} size must be an even integer >= 2, got {n}")
    if arr.shape != (*lead, n, n):
        raise ValueError(f"{what} array must have shape {(*lead, n, n)}, got {arr.shape}")
    if not np.isfinite(arr.real).all() or not np.isfinite(arr.imag).all():
        raise NonFiniteFieldError(f"{what} contains non-finite values")


@dataclass(frozen=True)
class SpectralField:
    """Coefficients of a band-limited field on the centered mode lattice.

    Attributes
    ----------
    n_modes : int
        Lattice size N (even, >= 2); modes run over [-N/2, N/2 - 1]^2.
    coeffs : np.ndarray
        Complex (N, N) array, natural mode order, row-major.
    """

    n_modes: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        _validate_square(arr, self.n_modes, "coefficient")
        object.__setattr__(self, "coeffs", arr)


def mode_values(n: int) -> np.ndarray:
    """Integer mode values -N/2 .. N/2-1 in storage order."""
    return np.arange(-(n // 2), n // 2)


def mode_ksq(n: int) -> np.ndarray:
    """Squared wavenumbers ``|k|^2 = k1^2 + k2^2`` on the N-mode lattice, as floats."""
    k = mode_values(n).astype(np.float64)
    return k[:, None] ** 2 + k[None, :] ** 2


def dft_forward(values: np.ndarray) -> SpectralField:
    """Forward transform of grid samples to interpolant coefficients.

    Computes ``sum_{j,l} v_{jl} exp(-2*pi*i*(k1*j + k2*l)/N) / N**2`` for
    every mode k on the centered lattice.  The result is the coefficient
    array of the trigonometric interpolant: the unique field supported on
    the N-mode lattice whose synthesis reproduces the samples at every
    collocation node.

    Parameters
    ----------
    values : np.ndarray
        Complex (N, N) samples on the collocation grid; N even, all finite.

    Returns
    -------
    SpectralField
        Interpolant coefficients on the same lattice size.
    """
    values = np.asarray(values, dtype=np.complex128)
    n = len(values)
    _validate_square(values, n, "grid value")
    raw = np.fft.fft2(np.fft.ifftshift(values))
    return SpectralField(n, np.fft.fftshift(raw) / (n * n))


def synthesize(f: SpectralField, n_points: int | None = None) -> np.ndarray:
    """Evaluate a spectral field on a collocation grid.

    Parameters
    ----------
    f : SpectralField
        Field to evaluate.
    n_points : int, optional
        Target grid size M >= n_modes, even.  Defaults to n_modes.
        Evaluation on a finer grid zero-pads the coefficients, which leaves
        the represented function (and its norms) unchanged.

    Returns
    -------
    np.ndarray
        Complex (M, M) values ``u(x_{jl})`` on the grid.
    """
    return synthesize_array(f.coeffs, n_points)


def synthesize_array(coeffs: np.ndarray, n_points: int | None = None) -> np.ndarray:
    """:func:`synthesize` over the last two axes of a (..., N, N) coefficient array."""
    n = coeffs.shape[-1]
    m = n if n_points is None else n_points
    if m < n:
        raise ValueError(f"target grid {m} is coarser than the mode lattice {n}")
    if m % 2 != 0:
        raise ValueError(f"target grid size must be even, got {m}")
    c = coeffs if m == n else _zero_pad(coeffs, m)
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(c, (-2, -1))), (-2, -1)) * (m * m)


def project(f: SpectralField, theta: float) -> SpectralField:
    """Zero all coefficients outside the square frequency window of theta.

    Keeps the coefficient at k iff ``-cutoff <= ki < cutoff`` holds for
    both components (half-open window), with ``cutoff = theta**-0.5``.  The
    comparison is a strict floating-point comparison against the integer
    mode values; theta = 4/N^2 gives cutoff = N/2 exactly, so the filter is
    then the identity on an N-mode lattice.  Orthogonal projection:
    idempotent, self-adjoint, norm non-increasing.
    """
    return SpectralField(f.n_modes, project_array(f.coeffs, theta))


def project_array(coeffs: np.ndarray, theta: float) -> np.ndarray:
    """:func:`project` over the last two axes of a (..., N, N) coefficient array."""
    if not (theta > 0.0) or not np.isfinite(theta):
        raise ValueError(f"theta must be a positive finite number, got {theta}")
    cutoff = float(theta) ** -0.5
    k = mode_values(coeffs.shape[-1])
    keep = (k >= -cutoff) & (k < cutoff)
    return np.where(keep[:, None] & keep[None, :], coeffs, 0.0)


def _zero_pad(coeffs: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros((*coeffs.shape[:-2], m, m), dtype=np.complex128)
    lo = (m - coeffs.shape[-1]) // 2
    out[..., lo : m - lo, lo : m - lo] = coeffs
    return out


def embed(f: SpectralField, n_modes: int) -> SpectralField:
    """Zero-pad onto a larger mode lattice; the represented field is unchanged."""
    n, m = f.n_modes, n_modes
    if m < n:
        raise ValueError(f"cannot embed lattice {n} into smaller lattice {m}")
    if m % 2 != 0:
        raise ValueError(f"target lattice size must be even, got {m}")
    return SpectralField(m, _zero_pad(f.coeffs, m))


def restrict(f: SpectralField, n_modes: int) -> SpectralField:
    """Keep the central block of modes; inverse of :func:`embed` there.

    Coefficients outside [-n/2, n/2 - 1]^2 are dropped, so apply a frequency
    projection first when the truncation must be lossless.
    """
    n, m = n_modes, f.n_modes
    if n > m:
        raise ValueError(f"cannot restrict lattice {m} to larger lattice {n}")
    if n % 2 != 0 or n < 2:
        raise ValueError(f"target lattice size must be an even integer >= 2, got {n}")
    lo = m // 2 - n // 2
    return SpectralField(n, f.coeffs[lo : lo + n, lo : lo + n].copy())


def l2_norm(f: SpectralField) -> float:
    """L2(T^2) norm, ``(4*pi^2 * sum_k |c_k|^2)**0.5``."""
    return 2.0 * np.pi * float(np.sqrt(np.vdot(f.coeffs, f.coeffs).real))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Sobolev H^s norm with weights ``(1 + |k|^2)**s`` on ``|c_k|^2``.

    Reduces to :func:`l2_norm` at s = 0; a one-mode field with coefficient
    a at k has norm ``2*pi*|a|*(1 + |k|^2)**(s/2)``.
    """
    ksq = mode_ksq(f.n_modes)
    total = float(np.sum((1.0 + ksq) ** s * (f.coeffs.real**2 + f.coeffs.imag**2)))
    return 2.0 * np.pi * float(np.sqrt(total))


def l2h_norm(values: np.ndarray) -> float:
    """Discrete l2 norm of grid samples, ``(h^2 * sum |v_{jl}|^2)**0.5``.

    ``h = 1/N`` is the mesh weight of the N x N grid.  With the 2*pi factor
    of the torus measure, ``2*pi*l2h_norm`` is the rectangle-rule quadrature
    of the L2 norm, exact for band-limited fields sampled without aliasing.
    """
    values = np.asarray(values, dtype=np.complex128)
    _validate_square(values, len(values), "grid value")
    return float(np.sqrt(np.vdot(values, values).real)) / len(values)
