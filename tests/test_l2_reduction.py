"""The fixed-order L2 reduction: thread independence, and agreement with the BLAS dot.

Every L2 number of a study (the datum's normalisation, each record's error,
and through the datum the reference-cache key) is one ``np.sum`` in a fixed
order over the squares of a float64 view.  The tests here check that the
BLAS thread count no longer moves a bit, and pin the results against the
``np.vdot`` formulas they replaced, within rounding.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nls2d.roughdata as roughdata
from nls2d.harness import StudyConfig, grid_for_tau, run_study
from nls2d.roughdata import RoughDataSpec, generate
from nls2d.spectral import l2_norm, restrict
from nls2d.splitting import SchemeParams, evolve

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints one line per datum: its sha256 and the reference-cache key of a
# solve on it.  N = 256 is large enough for a threaded BLAS to split a dot.
_HASH_SCRIPT = """
import hashlib
from nls2d.harness import _reference_key
from nls2d.roughdata import RoughDataSpec, generate
for s in (0.5, 1.0, 2.0):
    for seed in (3, 4, 5):
        u = generate(RoughDataSpec(s, seed, 256))
        print(hashlib.sha256(u.tobytes()).hexdigest(), _reference_key(u, 2.0**-14, 2.0**-4, -1))
"""


def _vdot_l2(c: np.ndarray) -> float:
    """The old L2 norm: a BLAS dot, whose summation order the BLAS chooses."""
    return 2.0 * np.pi * float(np.sqrt(np.vdot(c, c).real))


def _vdot_datum(spec: RoughDataSpec) -> np.ndarray:
    """The datum of ``spec`` as normalised before, by the BLAS dot."""
    n = spec.n_modes
    raw = roughdata._decayed(roughdata.uniform_block(spec.seed, 2 * n * n), spec)
    return raw * (spec.target_l2 / _vdot_l2(raw))


def _vdot_error(coarse: np.ndarray, reference: np.ndarray) -> float:
    """The old study error: the BLAS dot of the zero-padded difference."""
    n, m = coarse.shape[-1], reference.shape[-1]
    diff = np.negative(reference)
    lo = (m - n) // 2
    diff[lo : lo + n, lo : lo + n] += coarse
    return _vdot_l2(diff)


class TestThreadIndependence:
    def test_data_and_cache_keys_ignore_blas_threads(self):
        """One and two BLAS threads give the same data and the same reference keys."""
        out = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
            run = subprocess.run([sys.executable, "-c", _HASH_SCRIPT], env=env,
                                 capture_output=True, text=True, check=True)
            out.append(run.stdout.splitlines())
        assert len(out[0]) == 9
        assert out[0] == out[1]

    def test_norm_is_one_pairwise_sum_of_the_float_view(self):
        """The documented sum, in logical order whatever the memory layout."""
        c = generate(RoughDataSpec(1.0, 3, 64))
        x = c.view(np.float64).ravel()
        assert l2_norm(c) == 2.0 * np.pi * float(np.sqrt(np.sum(x * x)))
        assert l2_norm(np.asfortranarray(c)) == l2_norm(c)


class TestAgainstVdot:
    """The fixed-order sum moves results by rounding only."""

    def test_data(self):
        """Each datum is the vdot-normalised one within 2e-15 of its largest coefficient."""
        for n in (8, 16, 22, 32, 46, 64, 128, 256):
            for s in (0.5, 1.0, 2.0):
                for seed in (1, 2, 3, 4):
                    spec = RoughDataSpec(s, seed, n)
                    new = generate(spec)
                    bound = 2e-15 * np.abs(new).max()
                    assert np.abs(new - _vdot_datum(spec)).max() <= bound, (n, s, seed)

    def test_records(self, tmp_path):
        """Each record's error is the old path's (vdot datum, vdot error) within 1e-14."""
        cfg = StudyConfig(s_values=(1.0, 0.5), tau_list=(2.0**-4, 2.0**-5, 2.0**-6),
                          t_final=0.25, grid_reference=64, tau_reference=2.0**-10,
                          seeds=(1, 2), output_dir=tmp_path, workers=2)
        records = run_study(cfg)
        assert len(records) == 12
        k = cfg.grid_reference
        old = {}
        for s in cfg.s_values:
            for seed in cfg.seeds:
                u0 = _vdot_datum(cfg.datum_spec(s, seed))
                ref, _ = evolve(u0, SchemeParams(cfg.tau_reference, cfg.mu, cfg.t_final,
                                                 theta=4.0 / (k * k)))
                for tau in cfg.tau_list:
                    n = grid_for_tau(tau)
                    final, _ = evolve(restrict(u0, n), SchemeParams(tau, cfg.mu, cfg.t_final))
                    old[(s, tau, seed)] = _vdot_error(final, ref)
        for rec in records:
            want = old[rec.key]
            assert rec.l2_error == pytest.approx(want, rel=1e-14, abs=0.0), rec.key
