"""Independent slow-path oracles used across the test suite.

Fields are plain (N, N) coefficient arrays, as in the package.
Everything here except :func:`free_flow`, :func:`embed`,
:func:`evolve_field`, :func:`composed_lie_step`,
:func:`embedded_l2_error`, :func:`twisted_bourgain_norm` and the
``snapshot_*`` functions is written against the documented definitions
with direct summation only: no FFT, no shared code paths with the package
internals.

Those are built from the package's single-field functions instead
(``snapshot_ensemble`` also reuses the private ``bourgain._envelope``).
:func:`reference_synthesize` and :func:`reference_l4_sum` keep the
earlier formulas of ``synthesize`` and ``Trajectory.l4_sum`` (one
``ifftn`` over the whole zero-padded grid, ``fftshift`` of the complex
values, ``|u|^2`` in natural order), which the FFT-ordered code must
reproduce bit for bit.
:func:`free_flow` and :func:`embed` are the single-field free propagator
and zero padding, which only the tests use;
:func:`evolve_field` runs ``evolve`` on one field and raises
``BlowupError`` as ``compute_reference`` and ``nls2d run`` do.
:func:`composed_lie_step` composes the filtered Lie step stage by stage, as
the scheme is written down, to check the fused loop in ``evolve``;
:func:`embedded_l2_error` is the study's error measure through ``embed``,
to check ``harness.l2_error``;
:func:`twisted_bourgain_norm` is an equivalent form of ``bourgain_norm``
used to cross-check it.  The ``snapshot_*`` functions evaluate the
trajectory functionals one (N, N) snapshot at a time, straight from the
single-field definitions; the stacked code in ``bourgain`` must reproduce
them bit for bit.
"""

from __future__ import annotations

import numpy as np

from nls2d.bourgain import ProbeRow, Trajectory, _envelope, bourgain_norm, time_space_transform
from nls2d.roughdata import RoughDataSpec, generate
from nls2d.spectral import dft_forward, free_phase, l2_norm, project, sobolev_norm, synthesize
from nls2d.splitting import BlowupError, SchemeParams, evolve


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


def reference_synthesize(coeffs: np.ndarray, m: int) -> np.ndarray:
    """``synthesize`` as a full ``ifftn`` of the zero-padded (..., m, m) array, shifted after."""
    n = coeffs.shape[-1]
    lo = m // 2 - n // 2
    c = np.zeros((*coeffs.shape[:-2], m, m), dtype=np.complex128)
    c[..., lo:lo + n, lo:lo + n] = coeffs
    c = np.fft.ifftshift(c, axes=(-2, -1))
    np.fft.ifftn(c, axes=(-2, -1), out=c)
    c *= m * m
    return np.fft.fftshift(c, axes=(-2, -1))


def reference_l4_sum(coeffs: np.ndarray) -> float:
    """``Trajectory.l4_sum`` from the natural-order values of :func:`reference_synthesize`."""
    g = reference_synthesize(coeffs, 2 * coeffs.shape[-1])
    v = g.real**2 + g.imag**2
    cell = (2.0 * np.pi / g.shape[-1]) ** 2
    total = 0.0
    for q in np.sum((v * v).reshape(len(v), -1), axis=-1):
        total += cell * float(q)
    return total


def quadrature_l2(values: np.ndarray) -> float:
    """Rectangle-rule L2 norm of (N, N) grid samples over the torus."""
    cell = (2.0 * np.pi / len(values)) ** 2
    return float(np.sqrt(cell * np.sum(np.abs(values) ** 2)))


def plane_wave(n: int, amplitude: complex, k: tuple[int, int]) -> np.ndarray:
    coeffs = np.zeros((n, n), dtype=np.complex128)
    coeffs[n // 2 + k[0], n // 2 + k[1]] = amplitude
    return coeffs


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


def free_flow(f: np.ndarray, t: float) -> np.ndarray:
    """Exact free propagator over time t: the coefficient at k times ``exp(-i*t*|k|^2)``."""
    return f * free_phase(f.shape[-1], t)


def embed(f: np.ndarray, n_modes: int) -> np.ndarray:
    """Zero-pad onto a larger mode lattice; the represented field is unchanged."""
    n, m = f.shape[-1], n_modes
    if m < n:
        raise ValueError(f"cannot embed lattice {n} into smaller lattice {m}")
    if m % 2 != 0:
        raise ValueError(f"target lattice size must be even, got {m}")
    out = np.zeros((m, m), dtype=np.complex128)
    lo = (m - n) // 2
    out[lo : m - lo, lo : m - lo] = f
    return out


def evolve_field(u0: np.ndarray, params: SchemeParams, observer=None, observer_every=1):
    """``evolve`` on one field, raising on a blow-up; returns the final field."""
    final, blowup = evolve(u0, params, observer=observer, observer_every=observer_every)
    if blowup >= 0:
        raise BlowupError(int(blowup))
    return final


def composed_lie_step(f: np.ndarray, params: SchemeParams) -> np.ndarray:
    """One filtered Lie step: filter, grid nonlinearity, interpolate, filter, free flow."""
    w = nonlinear_phase(synthesize(project(f, params.theta)), params.tau, params.mu)
    return free_flow(project(dft_forward(w), params.theta), params.tau)


def embedded_l2_error(coarse: np.ndarray, reference: np.ndarray) -> float:
    """L2 distance of the coarse field zero-padded by ``embed`` onto the reference lattice."""
    return l2_norm(embed(coarse, reference.shape[-1]) - reference)


def brute_force_bourgain_norm(tr, s: float, b: float) -> float:
    """Direct summation of the weighted space-time norm definition."""
    m = len(tr)
    n = tr.n_modes
    tau = tr.tau
    k = centered_indices(n).astype(np.float64)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    total = 0.0
    for mp in range(-(m // 2), m - m // 2):
        sigma = 2.0 * np.pi * mp / (m * tau)
        transform = np.zeros((n, n), dtype=np.complex128)
        for idx in range(m):
            transform += tr.coeffs[idx] * np.exp(1j * idx * tau * sigma)
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
    twisted = Trajectory(tau, np.stack([free_flow(f, -m * tau) for m, f in enumerate(tr.coeffs)]))
    values = time_space_transform(twisted)
    m = len(tr)
    sigmas = 2.0 * np.pi * np.arange(-(m // 2), m - m // 2) / (m * tau)
    k = centered_indices(tr.n_modes).astype(np.float64)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    dsq = 4.0 * np.sin(0.5 * tau * sigmas) ** 2 / tau**2
    weight = (1.0 + ksq[None, :, :]) ** s * (1.0 + dsq[:, None, None]) ** b
    dsigma = 2.0 * np.pi / (m * tau)
    return float(np.sqrt(2.0 * np.pi * dsigma * np.sum(weight * np.abs(values) ** 2)))


def snapshot_ensemble(count: int, tau: float, n_modes: int, window: int, seed0: int = 0):
    """``probe_ensemble`` built one field at a time through ``free_flow``."""
    for i in range(count):
        seed = seed0 + i
        base = seed * 1_000_003
        if i % 2 == 0:
            fields = [generate(RoughDataSpec(s=1.0, seed=base + m, n_modes=n_modes))
                      for m in range(window)]
        else:
            v = generate(RoughDataSpec(s=1.0, seed=base, n_modes=n_modes))
            env = _envelope(base + 7, window)
            fields = [env[m] * free_flow(v, m * tau) for m in range(window)]
        yield seed, Trajectory(tau, np.stack(fields))


def snapshot_sup_sobolev(tr: Trajectory, s: float) -> float:
    """The largest ``sobolev_norm`` over the snapshots."""
    return max(sobolev_norm(f, s) for f in tr.coeffs)


def snapshot_l4(tr: Trajectory) -> float:
    """l4-in-time L4 norm: doubled-grid ``synthesize`` quadrature per snapshot."""
    total = 0.0
    for f in tr.coeffs:
        g = synthesize(f, 2 * len(f))
        v = g.real**2 + g.imag**2
        cell = (2.0 * np.pi / len(g)) ** 2
        total += cell * float(np.sum(v * v))
    return float((tr.tau * total) ** 0.25)


def snapshot_project(tr: Trajectory, theta: float) -> Trajectory:
    """The trajectory with ``project`` applied to each snapshot."""
    return Trajectory(tr.tau, np.stack([project(f, theta) for f in tr.coeffs]))


def snapshot_probe_rows(trajectories, estimate_id: str, s: float = 1.0, b: float = 0.6):
    """``estimate_probe`` rows with each lhs from the per-snapshot oracles above."""
    rows = []
    for seed, tr in trajectories:
        if estimate_id == "embedding_inf_Hs":
            lhs, rhs = snapshot_sup_sobolev(tr, s), bourgain_norm(tr, s, b)
        else:
            lhs = snapshot_l4(snapshot_project(tr, tr.tau))
            rhs = bourgain_norm(tr, s / 2.0, 1.0 - b)
        rows.append(ProbeRow(estimate_id, tr.tau, seed, lhs, rhs, lhs / rhs))
    return tuple(rows)


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
