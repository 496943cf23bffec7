"""Filtered Lie splitting for the cubic Schrodinger equation on the torus.

One step of the scheme applies, in order: grid synthesis, the exact
pointwise flow of the cubic nonlinearity over one step, trigonometric
interpolation back to coefficients, the square frequency filter, and the
exact free flow over one step.  The interpolation deliberately folds grid
products back onto the mode lattice; no dealiasing is applied anywhere, and
the filter width is controlled by ``theta`` alone.  :func:`evolve` filters
the datum once and runs the steps as one loop over a coefficient array,
which may hold a stack of data.
Its free-flow phase is :func:`nls2d.spectral.free_phase`, shared with ``bourgain``.

The state after every step is invariant under the filter, and the discrete
mass (squared L2 norm) never increases; it is conserved up to rounding when
the filter is the identity on the lattice, i.e. when theta = 4/N^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import snapshot
from .spectral import SpectralField, free_phase, project_array

__all__ = [
    "SCHEME_VERSION",
    "BlowupError",
    "SchemeParams",
    "default_theta",
    "free_flow",
    "evolve",
    "snapshot_observer",
]

# Bump when any change alters the bit-level output of the integrator.
SCHEME_VERSION = 2

Observer = Callable[[int, SpectralField], None]


class BlowupError(RuntimeError):
    """Solver state became non-finite."""

    def __init__(self, step: int):
        super().__init__(f"non-finite solver state at step {step}")
        self.step = step


def default_theta(tau: float, n_modes: int) -> float:
    """Default filter parameter coupling, ``max(tau, 4/N^2)``."""
    return max(tau, 4.0 / (n_modes * n_modes))


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of one fully discrete run.

    Attributes
    ----------
    tau : float
        Time step, > 0.
    n_modes : int
        Lattice size N (even, >= 2).
    mu : int
        Nonlinearity sign, +1 focusing or -1 defocusing.
    t_final : float
        End time; must be an integer multiple of tau (within one ulp).
    theta : float, optional
        Filter parameter.  Defaults to ``max(tau, 4/N^2)``; override only
        for controlled experiments (e.g. reference runs keep the filter at
        the lattice identity).
    """

    tau: float
    n_modes: int
    mu: int
    t_final: float
    theta: float | None = None

    def __post_init__(self) -> None:
        if not (self.tau > 0.0) or not math.isfinite(self.tau):
            raise ValueError(f"tau must be a positive finite number, got {self.tau}")
        if self.n_modes < 2 or self.n_modes % 2 != 0:
            raise ValueError(f"n_modes must be an even integer >= 2, got {self.n_modes}")
        if self.mu not in (-1, 1):
            raise ValueError(f"mu must be +1 or -1, got {self.mu}")
        if self.t_final < 0.0 or not math.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite and >= 0, got {self.t_final}")
        if self.theta is None:
            object.__setattr__(self, "theta", default_theta(self.tau, self.n_modes))
        elif not (self.theta > 0.0) or not math.isfinite(self.theta):
            raise ValueError(f"theta must be a positive finite number, got {self.theta}")
        steps = round(self.t_final / self.tau)
        tol = math.ulp(self.t_final) if self.t_final > 0.0 else 0.0
        if abs(steps * self.tau - self.t_final) > tol:
            raise ValueError(
                f"t_final={self.t_final} is not an integer multiple of tau={self.tau}"
            )
        object.__setattr__(self, "_n_steps", steps)

    @property
    def n_steps(self) -> int:
        return self._n_steps


def free_flow(f: SpectralField, t: float) -> SpectralField:
    """Exact free propagator over time t.

    Multiplies the coefficient at k by ``exp(-i*t*|k|^2)``.  Diagonal in
    frequency, so it commutes with the square frequency filter and
    preserves every mode modulus.
    """
    return SpectralField(f.n_modes, f.coeffs * free_phase(f.n_modes, t))


def evolve(
    u0: SpectralField | np.ndarray,
    params: SchemeParams,
    observer: Observer | None = None,
    observer_every: int = 1,
):
    """Run the scheme from t = 0 to t = t_final.

    The initial field is passed through the filter before stepping, so the
    whole trajectory is filter-invariant.  The observer, when given, is
    called with ``(step_index, field)`` at step 0, every ``observer_every``
    steps, and at the final step.

    ``u0`` may also be a (..., N, N) coefficient stack in natural order,
    whose slices step together, each bit for bit as alone; the observer
    then sees the stack, and the call returns the final stack and each
    slice's blow-up step (-1 for none).  A slice that blows up is zeroed.

    The state is one coefficient array in unshifted FFT order.  One step
    samples it on the grid, multiplies every sample by its phase
    ``exp(i*mu*tau*|v|^2)``, transforms back, and multiplies by the filtered
    free-flow phase ``exp(-i*tau*|k|^2)``, which applies the filter and the
    free flow at once.  The ``norm="forward"`` transforms carry the
    ``1/N**2`` of :func:`~nls2d.spectral.dft_forward`; they run in place,
    axis by axis in the order of ``ifft2``/``fft2``.  Both products are
    taken in place too, so the operand order of each complex multiply, and
    with it every output bit, is fixed.

    Raises
    ------
    BlowupError
        If a field's state becomes non-finite; the offending step is named.
    ValueError
        On inconsistent arguments (lattice mismatch, bad observer stride).
    """
    if observer_every < 1:
        raise ValueError(f"observer_every must be >= 1, got {observer_every}")
    n = params.n_modes
    single = isinstance(u0, SpectralField)
    coeffs = u0.coeffs[None] if single else np.asarray(u0, dtype=np.complex128)
    if coeffs.shape[-2:] != (n, n):
        raise ValueError(f"field lattice {coeffs.shape[-1]} does not match params.n_modes {n}")
    theta = params.theta
    c = np.fft.ifftshift(project_array(coeffs, theta), axes=(-2, -1))
    prop = np.fft.ifftshift(project_array(free_phase(n, params.tau), theta))
    angle = np.empty(c.shape)
    phase = np.empty_like(c)
    blowup = np.full(c.shape[:-2], -1)
    n_steps = params.n_steps

    def state():
        out = np.fft.fftshift(c, axes=(-2, -1))
        return SpectralField(n, out[0]) if single else out

    if observer is not None:
        observer(0, state())
    for step in range(1, n_steps + 1):
        np.fft.ifft(c, axis=-1, norm="forward", out=c)
        np.fft.ifft(c, axis=-2, norm="forward", out=c)
        np.multiply(c.real, c.real, out=angle)
        np.multiply(c.imag, c.imag, out=phase.real)
        angle += phase.real
        angle *= params.mu * params.tau
        np.cos(angle, out=phase.real)
        np.sin(angle, out=phase.imag)
        c *= phase
        np.fft.fft(c, axis=-1, norm="forward", out=c)
        np.fft.fft(c, axis=-2, norm="forward", out=c)
        c *= prop
        bad = ~np.isfinite(c).all(axis=(-2, -1))
        if bad.any():  # a zeroed slice stays finite, so every bad one is new
            blowup[bad] = step - 1
            c[bad] = 0.0
            if (blowup >= 0).all():
                break
        if observer is not None and (step % observer_every == 0 or step == n_steps):
            observer(step, state())
    if single and blowup[0] >= 0:
        raise BlowupError(int(blowup[0]))
    return state() if single else (state(), blowup)


def snapshot_observer(directory: str | Path, run_id: str) -> Observer:
    """Observer that dumps each observed state to ``{run_id}_{n}.nls2``."""
    directory = Path(directory)

    def _write(step_index: int, f: SpectralField) -> None:
        snapshot.save_field(f, directory / f"{run_id}_{step_index}.nls2")

    return _write
