"""Independent slow-path oracles used across the test suite.

Everything here except :func:`composed_lie_step` and
:func:`twisted_bourgain_norm` is written against the documented definitions
with direct summation only: no FFT, no shared code paths with the package
internals beyond the field containers.

Those two are built from the package's public transforms instead.
:func:`composed_lie_step` composes the filtered Lie step stage by stage, as
the scheme is written down, to check the fused loop in ``evolve``;
:func:`twisted_bourgain_norm` is an equivalent form of ``bourgain_norm``
used to cross-check it.
"""

from __future__ import annotations

import numpy as np

from nls2d.bourgain import Trajectory, time_space_transform
from nls2d.spectral import SpectralField, dft_forward, project, synthesize
from nls2d.splitting import SchemeParams, free_flow


def centered_indices(n: int) -> np.ndarray:
    return np.arange(-(n // 2), n // 2)


def naive_dft(values: np.ndarray, n: int) -> np.ndarray:
    """Direct O(N^4) evaluation of the forward transform, scaled by 1/N^2."""
    j = centered_indices(n)
    out = np.zeros((n, n), dtype=np.complex128)
    for a, k1 in enumerate(j):
        for b, k2 in enumerate(j):
            phase = np.exp(-2j * np.pi * (k1 * j[:, None] + k2 * j[None, :]) / n)
            out[a, b] = np.sum(values * phase)
    return out / (n * n)


def naive_synthesize(coeffs: np.ndarray, n: int, m: int) -> np.ndarray:
    """Direct evaluation of sum_k c_k exp(i<k, x>) on the m x m grid."""
    k = centered_indices(n)
    x = 2.0 * np.pi * centered_indices(m) / m
    out = np.zeros((m, m), dtype=np.complex128)
    for a, k1 in enumerate(k):
        for b, k2 in enumerate(k):
            out += coeffs[a, b] * np.exp(1j * (k1 * x[:, None] + k2 * x[None, :]))
    return out


def quadrature_l2(values: np.ndarray) -> float:
    """Rectangle-rule L2 norm of (N, N) grid samples over the torus."""
    cell = (2.0 * np.pi / len(values)) ** 2
    return float(np.sqrt(cell * np.sum(np.abs(values) ** 2)))


def plane_wave(n: int, amplitude: complex, k: tuple[int, int]) -> SpectralField:
    coeffs = np.zeros((n, n), dtype=np.complex128)
    coeffs[n // 2 + k[0], n // 2 + k[1]] = amplitude
    return SpectralField(n, coeffs)


def plane_wave_solution(amplitude: complex, k: tuple[int, int], mu: int, t: float) -> complex:
    """Exact coefficient of the single-mode solution at time t."""
    ksq = k[0] ** 2 + k[1] ** 2
    return amplitude * np.exp(1j * (mu * abs(amplitude) ** 2 - ksq) * t)


def nonlinear_phase(v: np.ndarray, tau: float, mu: int) -> np.ndarray:
    """Exact pointwise flow of the cubic nonlinearity over one step.

    Maps each grid sample v to ``exp(i*mu*tau*|v|^2) * v``; every modulus
    |v| is unchanged, so the grid l2 norm is preserved exactly.
    """
    absq = v.real**2 + v.imag**2
    return np.exp(1j * (mu * tau) * absq) * v


def composed_lie_step(f: SpectralField, params: SchemeParams) -> SpectralField:
    """One filtered Lie step: filter, grid nonlinearity, interpolate, filter, free flow."""
    w = nonlinear_phase(synthesize(project(f, params.theta)), params.tau, params.mu)
    return free_flow(project(dft_forward(w), params.theta), params.tau)


def brute_force_bourgain_norm(tr, s: float, b: float) -> float:
    """Direct summation of the weighted space-time norm definition."""
    m = len(tr.fields)
    n = tr.n_modes
    tau = tr.tau
    k = centered_indices(n).astype(np.float64)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    total = 0.0
    for mp in range(-(m // 2), m - m // 2):
        sigma = 2.0 * np.pi * mp / (m * tau)
        transform = np.zeros((n, n), dtype=np.complex128)
        for idx in range(m):
            transform += tr.fields[idx].coeffs * np.exp(1j * idx * tau * sigma)
        transform *= tau
        dsq = 4.0 * np.sin(0.5 * tau * (sigma - ksq)) ** 2 / tau**2
        weight = (1.0 + ksq) ** s * (1.0 + dsq) ** b
        total += float(np.sum(weight * np.abs(transform) ** 2))
    dsigma = 2.0 * np.pi / (m * tau)
    return float(np.sqrt(2.0 * np.pi * dsigma * total))


def twisted_bourgain_norm(tr: Trajectory, s: float, b: float) -> float:
    """Equivalent-norm variant of ``bourgain_norm`` via the free-flow-twisted sequence.

    Applies the weight ``(1 + |k|^2)**s * (1 + |d(sigma)|^2)**b`` to the
    transform of ``v_m = free_flow(u_m, -m*tau)`` (whose backward difference
    quotient is the discrete twisted derivative).  Equivalent to
    ``bourgain_norm`` up to (s, b)-dependent constants, and identical at
    b = 0.
    """
    tau = tr.tau
    twisted = Trajectory(tau, tuple(free_flow(f, -m * tau) for m, f in enumerate(tr.fields)))
    t = time_space_transform(twisted)
    k = centered_indices(tr.n_modes).astype(np.float64)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    dsq = 4.0 * np.sin(0.5 * tau * t.sigmas) ** 2 / tau**2
    weight = (1.0 + ksq[None, :, :]) ** s * (1.0 + dsq[:, None, None]) ** b
    dsigma = 2.0 * np.pi / (len(t.sigmas) * tau)
    return float(np.sqrt(2.0 * np.pi * dsigma * np.sum(weight * np.abs(t.values) ** 2)))


def splitmix64_reference(seed: int, count: int) -> list[float]:
    """Pure-integer restatement of the pinned uniform stream."""
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        out.append(2.0 * ((z >> 11) * 2.0**-53) - 1.0)
    return out
