"""Filtered Lie splitting for the cubic Schrodinger equation on the 2D torus.

Subpackages: :mod:`nls2d.spectral` (fields, transforms, filters, norms),
:mod:`nls2d.splitting` (the integrator), :mod:`nls2d.roughdata` (seeded
low-regularity data), :mod:`nls2d.bourgain` (discrete space-time norms and
estimate probes), :mod:`nls2d.harness` (convergence studies), and
:mod:`nls2d.snapshot` (binary field I/O).
"""

from .bourgain import (
    Trajectory,
    bourgain_norm,
    estimate_probe,
    probe_ensemble,
    time_space_transform,
)
from .harness import (
    ConvergenceRecord,
    OrderFit,
    ReferenceSpec,
    StudyConfig,
    compute_reference,
    fit_order,
    l2_error,
    run_study,
)
from .roughdata import RoughDataSpec, generate, rng_stream, uniform_block
from .snapshot import load_field, save_field
from .spectral import (
    CutoffSpec,
    GridField,
    NonFiniteFieldError,
    SpectralField,
    dft_forward,
    embed,
    l2_norm,
    l2h_norm,
    project,
    restrict,
    sobolev_norm,
    synthesize,
)
from .splitting import BlowupError, SchemeParams, evolve, free_flow

__version__ = "0.1.0"
