"""Discrete space-time norms and estimate probes for solver trajectories.

A trajectory is a finite window of M spectral snapshots taken every tau,
extended by zero outside the window.  Its time-space transform is

    F(sigma, k) = tau * sum_{m=0}^{M-1} c_m(k) * exp(i*m*tau*sigma),

a (2*pi/tau)-periodic function of sigma sampled on the uniform grid
``sigma_m = 2*pi*m / (M*tau)`` with m running over the centered integer
window (-M/2 .. M/2-1 for even M).  The weighted space-time norm is

    || u ||^2 = 2*pi * dsigma * sum_{sigma, k} W(sigma, k) * |F(sigma, k)|^2

with ``dsigma = 2*pi/(M*tau)`` and weights

    W = (1 + |k|^2)**s * (1 + |d(sigma - |k|^2)|^2)**b,
    d(x) = (exp(i*tau*x) - 1) / tau.

The overall 2*pi ties the sigma quadrature to the 4*pi^2 torus measure of
``l2_norm``: at s = b = 0 the norm collapses exactly to the step-weighted
l2-in-time, L2-in-space norm ``(tau * sum_m l2_norm(u_m)**2)**0.5``.  The
weights are >= 1 and increasing in both s and b, so the norm is monotone in
(s, b); it is absolutely 1-homogeneous in the trajectory.

The transform window is the trajectory length M; to extend the window by
zeros, append zero snapshots to the trajectory.  Window length matters:
the zero extension introduces edge transitions whose weighted content
grows with b, so comparisons across window lengths are only meaningful at
fixed M.  All probe sweeps here hold M fixed while tau varies.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .roughdata import RoughDataSpec, generate, uniform_block
from .spectral import SpectralField, l2_norm, mode_ksq, project, sobolev_norm, synthesize
from .splitting import free_flow

__all__ = [
    "Trajectory",
    "TimeSpaceTransform",
    "time_space_transform",
    "bourgain_norm",
    "trajectory_l2",
    "trajectory_sup_sobolev",
    "trajectory_l4",
    "ESTIMATE_IDS",
    "ProbeRow",
    "ProbeResult",
    "estimate_probe",
    "probe_ensemble",
    "write_probe_report",
]


@dataclass(frozen=True)
class Trajectory:
    """Snapshots u_0 .. u_{M-1} taken every tau, all on one lattice."""

    tau: float
    fields: tuple[SpectralField, ...]

    def __post_init__(self) -> None:
        if not (self.tau > 0.0) or not np.isfinite(self.tau):
            raise ValueError(f"tau must be a positive finite number, got {self.tau}")
        fields = tuple(self.fields)
        if len(fields) < 1:
            raise ValueError("a trajectory needs at least one snapshot")
        n = fields[0].n_modes
        if any(f.n_modes != n for f in fields):
            raise ValueError("all snapshots must share one lattice size")
        object.__setattr__(self, "fields", fields)

    @property
    def n_modes(self) -> int:
        return self.fields[0].n_modes

    def __len__(self) -> int:
        return len(self.fields)

    def scaled(self, factor: complex) -> "Trajectory":
        return Trajectory(self.tau, tuple(
            SpectralField(f.n_modes, factor * f.coeffs) for f in self.fields
        ))


@dataclass(frozen=True)
class TimeSpaceTransform:
    """Sampled transform values with their frequency grids."""

    tau: float
    sigmas: np.ndarray  # (M,) time frequencies, ascending
    values: np.ndarray  # (M, N, N) transform samples, natural mode order


def _sigma_grid(window: int, tau: float) -> np.ndarray:
    m = np.arange(-(window // 2), window - window // 2, dtype=np.float64)
    return 2.0 * np.pi * m / (window * tau)


def time_space_transform(tr: Trajectory) -> TimeSpaceTransform:
    """Transform a trajectory onto its sigma grid; the window is ``len(tr)``.

    Exact on the grid: circularly shifting the snapshots multiplies the
    samples by ``exp(i*tau*sigma)`` per step, and a single-snapshot
    trajectory transforms to the constant ``tau * c_0(k)`` in sigma.
    """
    window = len(tr)
    n = tr.n_modes
    stack = np.zeros((window, n, n), dtype=np.complex128)
    for i, f in enumerate(tr.fields):
        stack[i] = f.coeffs
    vals = np.fft.ifft(stack, axis=0) * (tr.tau * window)
    return TimeSpaceTransform(tr.tau, _sigma_grid(window, tr.tau), np.fft.fftshift(vals, axes=0))


def bourgain_norm(tr: Trajectory, s: float, b: float) -> float:
    """Weighted space-time norm with exponents (s, b) of a zero-extended trajectory.

    See the module docstring for the exact quadrature.  Dispersive weight
    ``(1 + |d(sigma - |k|^2)|^2)**b`` is smallest where sigma tracks the
    free dispersion relation, so free-flow trajectories score low for b > 0.
    """
    t = time_space_transform(tr)
    ksq = mode_ksq(tr.n_modes)
    arg = t.sigmas[:, None, None] - ksq[None, :, :]
    dsq = 4.0 * np.sin(0.5 * t.tau * arg) ** 2 / (t.tau * t.tau)
    w = (1.0 + ksq[None, :, :]) ** s * (1.0 + dsq) ** b
    dsigma = 2.0 * np.pi / (len(t.sigmas) * t.tau)
    total = float(np.sum(w * (t.values.real**2 + t.values.imag**2)))
    return float(np.sqrt(2.0 * np.pi * dsigma * total))


def trajectory_l2(tr: Trajectory) -> float:
    """Step-weighted l2-in-time, L2-in-space norm."""
    return float(np.sqrt(tr.tau * sum(l2_norm(f) ** 2 for f in tr.fields)))


def trajectory_sup_sobolev(tr: Trajectory, s: float) -> float:
    """Largest H^s norm over the window."""
    return max(sobolev_norm(f, s) for f in tr.fields)


def trajectory_l4(tr: Trajectory) -> float:
    """Step-weighted l4-in-time, L4-in-space norm.

    Each spatial integral uses quadrature on a doubled grid, which is exact
    for the quartic product of band-limited snapshots.
    """
    total = 0.0
    for f in tr.fields:
        g = synthesize(f, 2 * f.n_modes)
        v = g.real**2 + g.imag**2
        cell = (2.0 * np.pi / len(g)) ** 2
        total += cell * float(np.sum(v * v))
    return float((tr.tau * total) ** 0.25)


ESTIMATE_IDS = ("embedding_inf_Hs", "strichartz_l4")


@dataclass(frozen=True)
class ProbeRow:
    estimate_id: str
    tau: float
    seed: int
    lhs: float
    rhs: float
    ratio: float


@dataclass(frozen=True)
class ProbeResult:
    estimate_id: str
    rows: tuple[ProbeRow, ...]
    skipped: int = 0

    @property
    def ratios(self) -> np.ndarray:
        return np.array([r.ratio for r in self.rows], dtype=np.float64)

    @property
    def max_ratio(self) -> float:
        if not self.rows:
            raise ValueError("probe produced no usable trajectories")
        return float(self.ratios.max())


def estimate_probe(
    trajectories: Iterable[tuple[int, Trajectory]],
    estimate_id: str,
    s: float = 1.0,
    b: float = 0.6,
) -> ProbeResult:
    """Measure lhs/rhs ratios of one inequality over an ensemble.

    ``embedding_inf_Hs`` compares the sup-in-time H^s norm against the
    (s, b) space-time norm and needs b > 1/2.  ``strichartz_l4`` compares
    the l4-in-time L4 norm of the trajectory filtered at theta = tau
    against the (s/2, 1-b) space-time norm.  Both inequalities hold with
    constants independent of tau, which is what the ratio statistics are
    meant to exercise; zero trajectories are skipped.

    Parameters mirror the standing exponent ranges: s > 0 and
    1/2 < b < max(3/4, 1/2 + s/4), leaving 1 - b in (1/4, 1/2).
    """
    if estimate_id not in ESTIMATE_IDS:
        raise ValueError(f"unknown estimate_id {estimate_id!r}, expected one of {ESTIMATE_IDS}")
    if not (0.5 < b < 1.0):
        raise ValueError(f"b must lie in (1/2, 1), got {b}")
    if not (s > 0.0):
        raise ValueError(f"s must be > 0, got {s}")
    rows: list[ProbeRow] = []
    skipped = 0
    for seed, tr in trajectories:
        if estimate_id == "embedding_inf_Hs":
            lhs = trajectory_sup_sobolev(tr, s)
            rhs = bourgain_norm(tr, s, b)
        else:
            filtered = Trajectory(tr.tau, tuple(project(f, tr.tau) for f in tr.fields))
            lhs = trajectory_l4(filtered)
            rhs = bourgain_norm(tr, s / 2.0, 1.0 - b)
        if rhs == 0.0:
            if lhs == 0.0:
                skipped += 1
                continue
            raise RuntimeError(
                f"internal error: zero space-time norm with nonzero lhs ({estimate_id})"
            )
        rows.append(ProbeRow(estimate_id, tr.tau, seed, lhs, rhs, lhs / rhs))
    return ProbeResult(estimate_id, tuple(rows), skipped)


def _envelope(seed: int, window: int) -> np.ndarray:
    # Smooth random modulation: low-order trig series in the step index.
    draws = uniform_block(seed, 6)
    m = np.arange(window, dtype=np.float64)
    phase = 2.0 * np.pi * m / window
    env = 1.0 + 0.5 * (
        draws[0] * np.cos(phase)
        + draws[1] * np.sin(phase)
        + draws[2] * np.cos(2 * phase)
        + draws[3] * np.sin(2 * phase)
    )
    return env + 1j * 0.25 * (draws[4] * np.sin(phase) + draws[5] * np.cos(2 * phase))


def probe_ensemble(
    count: int,
    tau: float,
    n_modes: int,
    window: int,
    seed0: int = 0,
) -> Iterator[tuple[int, Trajectory]]:
    """Deterministic trajectory ensemble for the estimate probes.

    Alternates two families of s = 1 rough data: snapshot sequences of
    independent rough fields (temporally rough) and randomly modulated free
    flows (temporally coherent, concentrated near the dispersion relation).
    Seeds derive from ``seed0`` so equal arguments reproduce the ensemble
    exactly.
    """
    for i in range(count):
        seed = seed0 + i
        base = seed * 1_000_003
        if i % 2 == 0:
            fields = tuple(
                generate(RoughDataSpec(s=1.0, seed=base + m, n_modes=n_modes))
                for m in range(window)
            )
        else:
            v = generate(RoughDataSpec(s=1.0, seed=base, n_modes=n_modes))
            env = _envelope(base + 7, window)
            fields = tuple(
                SpectralField(n_modes, env[m] * free_flow(v, m * tau).coeffs)
                for m in range(window)
            )
        yield seed, Trajectory(tau, fields)


def write_probe_report(results: Sequence[ProbeResult], path: str | Path) -> None:
    """Write probe rows as CSV: estimate_id, tau, seed, lhs, rhs, ratio."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimate_id", "tau", "seed", "lhs", "rhs", "ratio"])
        for result in results:
            for r in result.rows:
                writer.writerow([r.estimate_id, repr(r.tau), r.seed,
                                 repr(r.lhs), repr(r.rhs), repr(r.ratio)])
