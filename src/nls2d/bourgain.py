"""Discrete space-time norms and estimate probes for solver trajectories.

A trajectory is a finite window of M snapshots taken every tau, held as
one complex (M, N, N) coefficient stack and extended by zero outside the
window.  Every functional below evaluates the whole stack with array
operations, not one snapshot at a time; the per-snapshot ones are the
stacked forms of :func:`nls2d.spectral.sobolev_norm` and of the L4
quadrature on the doubled grid of :func:`nls2d.spectral.synthesize`,
which :attr:`Trajectory.l4_sum` forms on the FFT-ordered grid, bit for
bit.  Its time-space transform is

    F(sigma, k) = tau * sum_{m=0}^{M-1} c_m(k) * exp(i*m*tau*sigma),

a (2*pi/tau)-periodic function of sigma sampled on the uniform grid
``sigma_m = 2*pi*m / (M*tau)`` with m running over the centered integer
window (-M/2 .. M/2-1 for even M).  :func:`time_space_transform` returns
the (M, N, N) samples in ascending sigma.  The weighted space-time norm is

    || u ||^2 = 2*pi * dsigma * sum_{sigma, k} W(sigma, k) * |F(sigma, k)|^2

with ``dsigma = 2*pi/(M*tau)`` and weights

    W = (1 + |k|^2)**s * (1 + |d(sigma - |k|^2)|^2)**b,
    d(x) = (exp(i*tau*x) - 1) / tau.

The weight depends only on (M, tau, N, s, b), so it is built once per
ensemble and cached as a read-only array that every call shares.

The overall 2*pi ties the sigma quadrature to the 4*pi^2 torus measure of
``l2_norm``: at s = b = 0 the norm collapses exactly to the step-weighted
l2-in-time, L2-in-space norm ``(tau * sum_m l2_norm(u_m)**2)**0.5``.  The
weights are >= 1 and increasing in both s and b, so the norm is monotone in
(s, b); it is absolutely 1-homogeneous in the trajectory.

The transform window is the trajectory length M; to extend the window by
zeros, append zero slices to the stack.  Window length matters:
the zero extension introduces edge transitions whose weighted content
grows with b, so comparisons across window lengths are only meaningful at
fixed M.  The probe sweeps here hold M fixed while tau varies.  That is
valid for time-rough trajectories, like the synthetic ensemble of
:func:`probe_ensemble`, whose envelope varies on the step scale at every
tau.  It is not valid for the scheme's own trajectories, which vary on a
fixed time scale: at M = 16 their window M*tau shrinks with tau, and
their ratios grow by up to 14x below tau = 2^-8.  Probe those over a
fixed time window M*tau instead.
:func:`probe_ensemble` draws each seed once for every step of a sweep:
temporally rough probes share one :func:`nls2d.roughdata.generate_stack`
stack, and free flows take an (M, N, N) phase stack of
:func:`nls2d.spectral.free_phase` built once per step.
:func:`estimate_probe` evaluates every estimate in one pass, reusing a
shared stack's tau-free values, and each trajectory caches its ``|F|^2``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .roughdata import RoughDataSpec, generate, generate_stack, uniform_block
from .snapshot import staged
from .spectral import (_grid, _slice_sums, _validate_square, free_phase, mode_ksq, project,
                       sobolev_norm, window_mask)

__all__ = [
    "Trajectory",
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
    """Snapshots u_0 .. u_{M-1} taken every tau, as one complex (M, N, N) stack.

    Values derived from the stack are cached: do not change it once built.
    """

    tau: float
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if not (self.tau > 0.0) or not np.isfinite(self.tau):
            raise ValueError(f"tau must be a positive finite number, got {self.tau}")
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 3 or len(arr) < 1:
            raise ValueError(f"a trajectory needs an (M, N, N) stack with M >= 1, got {arr.shape}")
        _validate_square(arr, "trajectory", arr.shape[:1])
        object.__setattr__(self, "coeffs", arr)

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[-1]

    def __len__(self) -> int:
        return len(self.coeffs)

    def scaled(self, factor: complex) -> "Trajectory":
        return Trajectory(self.tau, factor * self.coeffs)

    @cached_property
    def power(self) -> np.ndarray:
        """``|F|^2`` of :func:`time_space_transform`, computed once per trajectory."""
        values = time_space_transform(self)
        return values.real**2 + values.imag**2

    @cached_property
    def l4_sum(self) -> float:
        """The tau-free sum of :func:`trajectory_l4`: ``trajectory_l4 = (tau * l4_sum)**0.25``.

        Sums ``cell * |u|^4`` over each snapshot's doubled grid, in natural
        node order and slice by slice, then over the snapshots.  ``|u|^4`` is
        formed on the FFT-ordered grid of ``spectral._grid`` and only the real
        result is shifted, so the sum is bit for bit that of the
        :func:`nls2d.spectral.synthesize` values.
        """
        g = _grid(self.coeffs, 2 * self.n_modes)
        v = g.real * g.real
        v += g.imag * g.imag
        v *= v
        cell = (2.0 * np.pi / g.shape[-1]) ** 2
        total = 0.0
        for q in _slice_sums(np.fft.fftshift(v, axes=(-2, -1))):
            total += cell * float(q)
        return total


def _sigma_grid(window: int, tau: float) -> np.ndarray:
    m = np.arange(-(window // 2), window - window // 2, dtype=np.float64)
    return 2.0 * np.pi * m / (window * tau)


def time_space_transform(tr: Trajectory) -> np.ndarray:
    """Samples F(sigma_m, k) of a trajectory's transform, as an (M, N, N) array.

    The window is ``len(tr)``; row m holds the m-th sigma of the ascending
    grid (``_sigma_grid``), natural mode order within.  Exact on the grid:
    circularly shifting the snapshots multiplies the samples by
    ``exp(i*tau*sigma)`` per step, and a single-snapshot trajectory
    transforms to the constant ``tau * c_0(k)`` in sigma.
    """
    window = len(tr)
    vals = np.fft.ifft(tr.coeffs, axis=0) * (tr.tau * window)
    return np.fft.fftshift(vals, axes=0)


@lru_cache(maxsize=32)
def _bourgain_weight(window: int, tau: float, n: int, s: float, b: float) -> np.ndarray:
    """The (M, N, N) weight ``(1 + |k|^2)**s * (1 + |d(sigma - |k|^2)|^2)**b``.

    Cached, because every trajectory of an ensemble shares (window, n) and
    a probe needs two (s, b) pairs per tau; a seed-major sweep visits every
    tau per seed, so the cache holds sweeps of up to 16 steps.  Every
    caller shares the cached array, so it is read-only.
    """
    ksq = mode_ksq(n)
    arg = _sigma_grid(window, tau)[:, None, None] - ksq[None, :, :]
    dsq = 4.0 * np.sin(0.5 * tau * arg) ** 2 / (tau * tau)
    w = (1.0 + ksq[None, :, :]) ** s * (1.0 + dsq) ** b
    w.flags.writeable = False
    return w


def bourgain_norm(tr: Trajectory, s: float, b: float) -> float:
    """Weighted space-time norm with exponents (s, b) of a zero-extended trajectory.

    See the module docstring for the exact quadrature.  Dispersive weight
    ``(1 + |d(sigma - |k|^2)|^2)**b`` is smallest where sigma tracks the
    free dispersion relation, so free-flow trajectories score low for b > 0.
    """
    tau, window = tr.tau, len(tr)
    w = _bourgain_weight(window, tau, tr.n_modes, s, b)
    dsigma = 2.0 * np.pi / (window * tau)
    total = float(np.sum(w * tr.power))
    return float(np.sqrt(2.0 * np.pi * dsigma * total))


def trajectory_l2(tr: Trajectory) -> float:
    """Step-weighted l2-in-time, L2-in-space norm."""
    return 2.0 * np.pi * float(np.sqrt(tr.tau * np.sum(tr.coeffs.real**2 + tr.coeffs.imag**2)))


def trajectory_sup_sobolev(tr: Trajectory, s: float) -> float:
    """Largest H^s norm (``spectral.sobolev_norm``) over the window."""
    return float(sobolev_norm(tr.coeffs, s).max())


def trajectory_l4(tr: Trajectory) -> float:
    """Step-weighted l4-in-time, L4-in-space norm.

    Each spatial integral uses quadrature on a doubled grid, which is exact
    for the quartic product of band-limited snapshots.
    """
    return float((tr.tau * tr.l4_sum) ** 0.25)


ESTIMATE_IDS = ("embedding_inf_Hs", "strichartz_l4")


@dataclass(frozen=True)
class ProbeRow:
    seed: int
    lhs: float
    rhs: float
    ratio: float


@dataclass(frozen=True)
class ProbeResult:
    estimate_id: str
    tau: float
    rows: tuple[ProbeRow, ...]
    skipped: int

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
    estimate_ids: Sequence[str],
    s: float = 1.0,
    b: float = 0.6,
) -> tuple[ProbeResult, ...]:
    """Measure lhs/rhs ratios of each named inequality over an ensemble.

    One pass over ``trajectories`` evaluates every id in ``estimate_ids``
    and returns one result per (id, tau): in the order of the ids, and per
    id in the order each tau first appears.  Consecutive trajectories on
    one stack (a rough seed of :func:`probe_ensemble`) share its tau-free
    values.

    ``embedding_inf_Hs`` compares the sup-in-time H^s norm against the
    (s, b) space-time norm and needs b > 1/2.  ``strichartz_l4`` compares
    the l4-in-time L4 norm of the trajectory filtered at theta = tau
    against the (s/2, 1-b) space-time norm.  Both inequalities hold with
    constants independent of tau, which is what the ratio statistics are
    meant to exercise; zero trajectories are skipped.

    Parameters mirror the standing exponent ranges: s > 0 and
    1/2 < b < max(3/4, 1/2 + s/4), leaving 1 - b in (1/4, 1/2).
    """
    if isinstance(estimate_ids, str) or not estimate_ids:
        raise ValueError(f"estimate_ids must be a non-empty sequence of ids, got {estimate_ids!r}")
    for estimate_id in estimate_ids:
        if estimate_id not in ESTIMATE_IDS:
            raise ValueError(
                f"unknown estimate_id {estimate_id!r}, expected one of {ESTIMATE_IDS}")
    if not (0.5 < b < 1.0):
        raise ValueError(f"b must lie in (1/2, 1), got {b}")
    if not (s > 0.0):
        raise ValueError(f"s must be > 0, got {s}")
    rows: dict[float, list[list[ProbeRow]]] = {}  # per tau, one list per id
    skipped: dict[float, list[int]] = {}
    stack = None
    for seed, tr in trajectories:
        if tr.tau not in rows:
            rows[tr.tau], skipped[tr.tau] = [[] for _ in estimate_ids], [0] * len(estimate_ids)
        if tr.coeffs is not stack:  # a new stack: drop the last one's tau-free values
            stack, sup, l4_sums = tr.coeffs, None, {}
        for j, estimate_id in enumerate(estimate_ids):
            if estimate_id == "embedding_inf_Hs":
                lhs = sup = trajectory_sup_sobolev(tr, s) if sup is None else sup
                rhs = bourgain_norm(tr, s, b)
            else:
                window = tuple(window_mask(tr.n_modes, tr.tau).tolist())
                if window in l4_sums:
                    lhs = float((tr.tau * l4_sums[window]) ** 0.25)
                else:  # trajectory_l4 caches the sum on the filtered trajectory
                    filtered = Trajectory(tr.tau, project(tr.coeffs, tr.tau))
                    lhs, l4_sums[window] = trajectory_l4(filtered), filtered.l4_sum
                rhs = bourgain_norm(tr, s / 2.0, 1.0 - b)
            if rhs == 0.0:
                if lhs == 0.0:
                    skipped[tr.tau][j] += 1
                    continue
                raise RuntimeError(
                    f"internal error: zero space-time norm with nonzero lhs ({estimate_id})"
                )
            rows[tr.tau][j].append(ProbeRow(seed, lhs, rhs, lhs / rhs))
    return tuple(ProbeResult(estimate_id, tau, tuple(rows[tau][j]), skipped[tau][j])
                 for j, estimate_id in enumerate(estimate_ids) for tau in rows)


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
    taus: Sequence[float],
    n_modes: int,
    window: int,
    seed0: int = 0,
) -> Iterator[tuple[int, Trajectory]]:
    """Deterministic trajectory ensemble for the estimate probes, seed by seed.

    Alternates two families of s = 1 rough data: snapshot sequences of
    independent rough fields (temporally rough) and randomly modulated free
    flows (temporally coherent, concentrated near the dispersion relation).
    Each seed draws its data once and yields one trajectory per step in
    ``taus``, in that order (a rough seed's share one stack).  Seeds derive
    from ``seed0`` so equal arguments reproduce the ensemble exactly.  An
    empty ensemble, a window of no snapshot, or a repeated or non-positive
    step is rejected before anything is drawn.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    for j, tau in enumerate(taus):
        if not (tau > 0.0 and np.isfinite(tau)):
            raise ValueError(f"tau {tau} is not a positive finite number")
        if tau in taus[:j]:
            raise ValueError(f"tau {tau} is repeated")
    phases = [np.stack([free_phase(n_modes, m * tau) for m in range(window)]) for tau in taus]
    for i in range(count):
        seed = seed0 + i
        spec = RoughDataSpec(s=1.0, seed=seed * 1_000_003, n_modes=n_modes)
        if i % 2 == 0:
            stack = generate_stack(spec, window)
            for tau in taus:
                yield seed, Trajectory(tau, stack)
        else:
            v = generate(spec)
            env = _envelope(spec.seed + 7, window)[:, None, None]
            for tau, phase in zip(taus, phases):
                yield seed, Trajectory(tau, env * (v * phase))


def write_probe_report(results: Sequence[ProbeResult], path: str | Path) -> None:
    """Write probe rows as CSV: estimate_id, tau, seed, lhs, rhs, ratio."""
    with staged(Path(path)) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimate_id", "tau", "seed", "lhs", "rhs", "ratio"])
        for result in results:
            for r in result.rows:
                writer.writerow([result.estimate_id, repr(result.tau), r.seed,
                                 repr(r.lhs), repr(r.rhs), repr(r.ratio)])
