"""Filtered Lie splitting for the cubic Schrodinger equation on the 2D torus.

Subpackages: :mod:`nls2d.spectral` (coefficient arrays, transforms, filters, norms),
:mod:`nls2d.splitting` (the integrator), :mod:`nls2d.roughdata` (seeded
low-regularity data), :mod:`nls2d.bourgain` (discrete space-time norms and
estimate probes), :mod:`nls2d.harness` (convergence studies), and
:mod:`nls2d.snapshot` (binary field I/O).
"""

__version__ = "0.1.0"
