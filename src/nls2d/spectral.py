"""Fourier coefficient arrays on the 2D torus and the operations connecting them.

Conventions used throughout the package:

* A field is a complex (N, N) array of the coefficients ``c[k1, k2]`` of
  the expansion ``u(x) = sum_k c_k exp(i<k, x>)`` over the centered integer
  lattice ``k1, k2 in [-N/2, N/2 - 1]``, N even and >= 2.  Arrays are
  indexed in natural (ascending) mode order, row-major: ``coeffs[i, j]``
  holds ``k = (i - N/2, j - N/2)``.  N is read from ``shape[-1]``, and
  leading axes, where a function allows them, stack fields that it treats
  slice by slice, each bit for bit as alone.
* Grid values are a plain complex (N, N) array of samples at the uniform
  collocation nodes ``x_{jl} = (2*pi*j/N, 2*pi*l/N)`` with
  ``j, l in [-N/2, N/2 - 1]``, again in ascending index order.
* The forward transform is normalized so that the coefficient array of the
  trigonometric interpolant is the raw DFT divided by ``N**2``.  With that
  scaling a pure mode ``exp(i<k, x>)`` sampled on its own grid transforms to
  a single unit coefficient at ``k``.
* ``l2_norm`` is the true L2(T^2) norm, ``(4*pi^2 * sum |c_k|^2)**0.5``; a
  one-mode field with coefficient ``a`` has norm ``2*pi*|a|``.  Each norm
  sums in a fixed order, never through BLAS, so no thread count moves a bit.

Values are checked where they enter from outside the program: grid samples
in :func:`dft_forward` and :func:`l2h_norm`, snapshot files in
:func:`nls2d.snapshot.load_field`.  Arrays the program computes itself are
not checked again.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "NonFiniteFieldError",
    "mode_values",
    "mode_ksq",
    "free_phase",
    "dft_forward",
    "synthesize",
    "project",
    "window_mask",
    "restrict",
    "l2_norm",
    "sobolev_norm",
    "l2h_norm",
]


class NonFiniteFieldError(ValueError):
    """Raised when a field from outside the program holds NaN or Inf values."""


def _validate_square(arr: np.ndarray, what: str, lead: tuple[int, ...] = ()) -> None:
    n = arr.shape[-1] if arr.ndim else 0
    if n < 2 or n % 2 != 0:
        raise ValueError(f"{what} size must be an even integer >= 2, got {n}")
    if arr.shape != (*lead, n, n):
        raise ValueError(f"{what} array must have shape {(*lead, n, n)}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteFieldError(f"{what} contains non-finite values")


def mode_values(n: int) -> np.ndarray:
    """Integer mode values -N/2 .. N/2-1 in storage order."""
    return np.arange(-(n // 2), n // 2)


def mode_ksq(n: int) -> np.ndarray:
    """Squared wavenumbers ``|k|^2 = k1^2 + k2^2`` on the N-mode lattice, as floats."""
    k = mode_values(n).astype(np.float64)
    return k[:, None] ** 2 + k[None, :] ** 2


@lru_cache(maxsize=64)
def free_phase(n: int, t: float) -> np.ndarray:
    """Free-flow phase ``exp(-i*t*|k|^2)`` on the N-mode lattice, natural order.

    Cached, because the integrator and the probe ensembles reuse the same
    (n, t) pairs call after call.  Every caller shares the cached array, so
    it is read-only: compute a product into a new array, never in place.
    """
    phase = np.exp(-1j * t * mode_ksq(n))
    phase.flags.writeable = False
    return phase


def dft_forward(values: np.ndarray) -> np.ndarray:
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
    np.ndarray
        The (N, N) interpolant coefficients.
    """
    values = np.asarray(values, dtype=np.complex128)
    _validate_square(values, "grid value")
    n = len(values)
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(values))) / (n * n)


def synthesize(coeffs: np.ndarray, n_points: int | None = None) -> np.ndarray:
    """Evaluate (..., N, N) coefficients on a collocation grid, slice by slice.

    Parameters
    ----------
    coeffs : np.ndarray
        Coefficients to evaluate.
    n_points : int, optional
        Target grid size M >= N, even.  Defaults to N.  Evaluation on a
        finer grid zero-pads the coefficients, which leaves the represented
        function (and its norms) unchanged.

    Returns
    -------
    np.ndarray
        Complex (..., M, M) values ``u(x_{jl})`` on the grid, in natural
        node order: the ``fftshift`` of the FFT-ordered ``_grid``.
    """
    n = coeffs.shape[-1]
    m = n if n_points is None else n_points
    if m < n:
        raise ValueError(f"target grid {m} is coarser than the mode lattice {n}")
    if m % 2 != 0:
        raise ValueError(f"target grid size must be even, got {m}")
    return np.fft.fftshift(_grid(coeffs, m), axes=(-2, -1))


def _grid(coeffs: np.ndarray, m: int) -> np.ndarray:
    """:func:`synthesize` on an even M >= N grid, left in FFT order (node j at slot j mod M).

    ``M**2`` times the ``ifftn`` of the zero-padded array, bit for bit: its
    passes run in ``ifftn``'s order (axis -1, then axis -2), in place, but
    the axis -1 pass skips the M - N rows that hold no coefficient, which
    are zero and stay zero.
    """
    # Mode k goes to slot k mod m: the ifftshift of the zero-padded array,
    # built without padding or rolling.
    h = coeffs.shape[-1] // 2
    c = np.zeros((*coeffs.shape[:-2], m, m), dtype=np.complex128)
    c[..., :h, :h] = coeffs[..., h:, h:]
    c[..., :h, m - h:] = coeffs[..., h:, :h]
    c[..., m - h:, :h] = coeffs[..., :h, h:]
    c[..., m - h:, m - h:] = coeffs[..., :h, :h]
    for rows in (c[..., :h, :], c[..., m - h:, :]):
        np.fft.ifft(rows, axis=-1, out=rows)
    np.fft.ifft(c, axis=-2, out=c)
    c *= m * m
    return c


def project(coeffs: np.ndarray, theta: float) -> np.ndarray:
    """Zero all coefficients outside the square frequency window of theta.

    Keeps the coefficient at k iff ``-cutoff <= ki < cutoff`` holds for
    both components (half-open window), with ``cutoff = theta**-0.5``.  The
    comparison is a strict floating-point comparison against the integer
    mode values; theta = 4/N^2 gives cutoff = N/2 exactly, so the filter is
    then the identity on an N-mode lattice.  Orthogonal projection:
    idempotent, self-adjoint, norm non-increasing.  Applies over the last
    two axes of a (..., N, N) array and returns a new array.
    """
    keep = window_mask(coeffs.shape[-1], theta)
    return np.where(keep[:, None] & keep[None, :], coeffs, 0.0)


def window_mask(n: int, theta: float) -> np.ndarray:
    """The N booleans ``-cutoff <= k < cutoff`` of :func:`project` along one axis."""
    if not (theta > 0.0) or not np.isfinite(theta):
        raise ValueError(f"theta must be a positive finite number, got {theta}")
    cutoff = float(theta) ** -0.5
    k = mode_values(n)
    return (k >= -cutoff) & (k < cutoff)


def restrict(coeffs: np.ndarray, n_modes: int) -> np.ndarray:
    """Keep the central n_modes block of each slice; inverse of zero padding there.

    Coefficients outside [-n/2, n/2 - 1]^2 are dropped, so apply a frequency
    projection first when the truncation must be lossless.  Returns a new
    (..., n, n) array.
    """
    n, m = n_modes, coeffs.shape[-1]
    if n > m:
        raise ValueError(f"cannot restrict lattice {m} to larger lattice {n}")
    if n % 2 != 0 or n < 2:
        raise ValueError(f"target lattice size must be an even integer >= 2, got {n}")
    lo = m // 2 - n // 2
    return coeffs[..., lo : lo + n, lo : lo + n].copy()


def _slice_sums(x: np.ndarray) -> np.ndarray:
    """Pairwise ``np.sum`` over the last two axes of a real array; each slice as if alone."""
    return np.sum(x.reshape(*x.shape[:-2], -1), axis=-1)


def l2_norm(coeffs: np.ndarray) -> float:
    """L2(T^2) norm of one field, ``(4*pi^2 * sum_k |c_k|^2)**0.5``, summed on its float64 view."""
    x = np.ascontiguousarray(coeffs, dtype=np.complex128).view(np.float64)
    return 2.0 * np.pi * float(np.sqrt(_slice_sums(x * x)))


def sobolev_norm(coeffs: np.ndarray, s: float):
    """Sobolev H^s norm with weights ``(1 + |k|^2)**s`` on ``|c_k|^2``, slice by slice.

    Reduces to :func:`l2_norm` at s = 0; a one-mode field with coefficient
    a at k has norm ``2*pi*|a|*(1 + |k|^2)**(s/2)``.  A float for one
    (N, N) field, an array of the leading shape for a stack.
    """
    x = (1.0 + mode_ksq(coeffs.shape[-1])) ** s * (coeffs.real**2 + coeffs.imag**2)
    norms = 2.0 * np.pi * np.sqrt(_slice_sums(x))
    return float(norms) if norms.ndim == 0 else norms


def l2h_norm(values: np.ndarray) -> float:
    """Discrete l2 norm of grid samples, ``(h^2 * sum |v_{jl}|^2)**0.5``.

    ``h = 1/N`` is the mesh weight of the N x N grid.  With the 2*pi factor
    of the torus measure, ``2*pi*l2h_norm`` is the rectangle-rule quadrature
    of the L2 norm, exact for band-limited fields sampled without aliasing.
    """
    values = np.asarray(values, dtype=np.complex128)
    _validate_square(values, "grid value")
    return l2_norm(values) / (2.0 * np.pi * len(values))
