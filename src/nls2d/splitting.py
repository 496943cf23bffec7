"""Filtered Lie splitting for the cubic Schrodinger equation on the torus.

One step of the scheme applies, in order: grid synthesis, the exact
pointwise flow of the cubic nonlinearity over one step, trigonometric
interpolation back to coefficients, the square frequency filter, and the
exact free flow over one step.  The interpolation deliberately folds grid
products back onto the mode lattice; no dealiasing is applied anywhere, and
the filter width is controlled by ``theta`` alone.  :func:`evolve` filters
the datum once and runs the steps as one loop over a (..., N, N)
coefficient array, which may hold a stack of data and sets N; it takes
and returns arrays only, like every function of :mod:`nls2d.spectral`.
Its free-flow phase is :func:`nls2d.spectral.free_phase`, shared with ``bourgain``.

The state after every step is invariant under the filter, and the discrete
mass (squared L2 norm) never increases; it is conserved up to rounding when
the filter is the identity on the lattice, i.e. when theta = 4/N^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import free_phase, project

__all__ = [
    "SCHEME_VERSION",
    "BlowupError",
    "SchemeParams",
    "default_theta",
    "evolve",
]

# Bump when a change alters the bits of a datum, an integrator output or an error.
SCHEME_VERSION = 3

Observer = Callable[[int, np.ndarray], None]


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
    mu : int
        Nonlinearity sign, +1 focusing or -1 defocusing.
    t_final : float
        End time; must be an integer multiple of tau (within one ulp).
    theta : float, optional
        Filter parameter, or None for ``max(tau, 4/N^2)`` on the lattice of
        the datum :func:`evolve` steps; override only for controlled
        experiments (e.g. reference runs keep the filter at the lattice identity).
    """

    tau: float
    mu: int
    t_final: float
    theta: float | None = None

    def __post_init__(self) -> None:
        if not (self.tau > 0.0) or not math.isfinite(self.tau):
            raise ValueError(f"tau must be a positive finite number, got {self.tau}")
        if self.mu not in (-1, 1):
            raise ValueError(f"mu must be +1 or -1, got {self.mu}")
        if self.t_final < 0.0 or not math.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite and >= 0, got {self.t_final}")
        if self.theta is not None and not 0.0 < self.theta < math.inf:
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


def evolve(
    u0: np.ndarray,
    params: SchemeParams,
    observer: Observer | None = None,
    observer_every: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the scheme from t = 0 to t = t_final on a (..., N, N) coefficient array.

    ``u0`` holds coefficients in natural mode order on a square lattice of
    even size N >= 2, which sets the scheme's N; its leading axes, if any,
    stack data that step together, each slice bit for bit as alone.  The
    filter is ``params.theta``, or ``max(tau, 4/N^2)`` when that is None.
    The datum is passed through the filter before stepping, so the whole
    trajectory is filter-invariant.  Returns the final array and each
    slice's blow-up step, an integer array of the leading shape (0-d for a
    bare (N, N) datum), -1 where the state stayed finite.  A slice whose
    state becomes non-finite is zeroed and stepped on as zero.  The
    observer, when given, is called with ``(step_index, array)`` in natural
    order at step 0, every ``observer_every`` steps, and at the final step.

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
    ValueError
        On a lattice that is not N x N with even N >= 2, or a bad observer stride.
    """
    if observer_every < 1:
        raise ValueError(f"observer_every must be >= 1, got {observer_every}")
    coeffs = np.asarray(u0, dtype=np.complex128)
    n = coeffs.shape[-1] if coeffs.ndim else 0
    if coeffs.shape[-2:] != (n, n) or n < 2 or n % 2 != 0:
        raise ValueError(f"field lattice {coeffs.shape[-2:]} must be N x N with N even and >= 2")
    theta = default_theta(params.tau, n) if params.theta is None else params.theta
    c = np.fft.ifftshift(project(coeffs, theta), axes=(-2, -1))
    prop = np.fft.ifftshift(project(free_phase(n, params.tau), theta))
    angle = np.empty(c.shape)
    phase = np.empty_like(c)
    blowup = np.full(c.shape[:-2], -1)
    n_steps = params.n_steps

    def state():
        return np.fft.fftshift(c, axes=(-2, -1))

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
    return state(), blowup
