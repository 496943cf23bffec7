"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single summary line (visible with ``pytest -s`` or on
failure); the ``pytest -v`` report carries the pass/fail verdict per
criterion.  Criteria 6, 7 and 10 run desk-scale convergence studies and
dominate the runtime (several minutes each); everything else is seconds.
"""

import csv
import time
from contextlib import contextmanager

import numpy as np
import pytest

from nls2d.bourgain import (
    ESTIMATE_IDS,
    Trajectory,
    bourgain_norm,
    estimate_probe,
    probe_ensemble,
    trajectory_l2,
)
from nls2d.cli import EXIT_OK, main
from nls2d.harness import (
    StudyConfig,
    fit_order,
    read_records,
    run_study,
)
from nls2d.roughdata import RoughDataSpec, generate
from nls2d.spectral import (
    dft_forward,
    l2_norm,
    l2h_norm,
    project,
    synthesize,
)
from nls2d.splitting import SchemeParams

from oracles import evolve_field, naive_dft, plane_wave, plane_wave_solution

RNG = np.random.default_rng(7041)


@contextmanager
def _criterion(num: int, label: str, budget_s: float):
    """Time a criterion body, print one verdict line, enforce the budget."""
    info: dict = {}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num:2d} ({label}): FAIL after {elapsed:.1f}s")
        raise
    elapsed = time.perf_counter() - start
    detail = " ".join(f"{k}={v}" for k, v in info.items())
    print(f"criterion {num:2d} ({label}): PASS {detail} [{elapsed:.1f}s]")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def _random_grid(n: int) -> np.ndarray:
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


def _random_field(n: int) -> np.ndarray:
    return _random_grid(n)


# ---------------------------------------------------------------------------
# spectral layer


def test_criterion_01_transform_matches_direct_sum():
    with _criterion(1, "fast transform vs direct summation", 5.0) as info:
        worst = 0.0
        for n in (4, 8, 16):
            for _ in range(50):
                values = _random_grid(n)
                fast = dft_forward(values)
                slow = naive_dft(values, n)
                worst = max(worst, float(np.abs(fast - slow).max()))
        info["max_abs_dev"] = f"{worst:.3e}"
        assert worst <= 1e-10


def test_criterion_02_discrete_parseval():
    with _criterion(2, "discrete Parseval identity", 5.0) as info:
        worst = 0.0
        for n in (8, 64):
            for _ in range(100):
                grid = _random_grid(n)
                lhs = n * n * float(np.sqrt(np.sum(np.abs(dft_forward(grid)) ** 2)))
                rhs = n * n * l2h_norm(grid)
                worst = max(worst, abs(lhs - rhs) / rhs)
        info["max_rel_dev"] = f"{worst:.3e}"
        assert worst <= 1e-12


def test_criterion_03_interpolation_fixes_filtered_fields():
    # coefficient equality up to transform round-trip roundoff (1e-13)
    with _criterion(3, "interpolation identity on filtered fields", 5.0) as info:
        worst = 0.0
        for n in (8, 16, 64):
            for theta in (4.0 / n**2, 12.0 / n**2, 1.0):
                assert theta >= 4.0 / n**2
                for _ in range(10):
                    filtered = project(_random_field(n), theta)
                    back = dft_forward(synthesize(filtered))
                    worst = max(worst, float(np.abs(back - filtered).max()))
        info["max_abs_dev"] = f"{worst:.3e}"
        assert worst <= 1e-13


# ---------------------------------------------------------------------------
# integrator


def test_criterion_04_plane_wave_exactness():
    with _criterion(4, "plane-wave exactness over 2^10 steps", 10.0) as info:
        tau, steps = 2.0**-10, 2**10
        u0 = plane_wave(32, 0.1, (1, 2))
        params = SchemeParams(tau=tau, mu=-1, t_final=tau * steps)
        final = evolve_field(u0, params)
        exact = plane_wave(32, plane_wave_solution(0.1, (1, 2), -1, tau * steps), (1, 2))
        err = l2_norm(final - exact)
        info["l2_err"] = f"{err:.3e}"
        assert err <= 1e-10


def test_criterion_05_mass_law():
    with _criterion(5, "mass conservation and decay", 30.0) as info:
        # identity-filter regime: theta = 4/N^2 >= tau, mass is conserved
        n, tau, steps = 16, 2.0**-8, 1000
        assert 4.0 / n**2 >= tau
        masses: list[float] = []
        u0 = generate(RoughDataSpec(s=1.0, seed=5, n_modes=n))
        evolve_field(u0, SchemeParams(tau=tau, mu=-1, t_final=tau * steps),
                     observer=lambda _, f: masses.append(l2_norm(f)))
        drift = max(abs(m - masses[0]) for m in masses) / masses[0]
        info["rel_drift"] = f"{drift:.3e}"
        assert len(masses) == steps + 1
        assert drift <= 1e-12

        # aggressive-filter regime: tau > 4/N^2, mass is non-increasing
        n, tau = 32, 2.0**-4
        assert tau > 4.0 / n**2
        masses = []
        u0 = generate(RoughDataSpec(s=1.0, seed=2, n_modes=n))
        evolve_field(u0, SchemeParams(tau=tau, mu=1, t_final=2.0),
                     observer=lambda _, f: masses.append(l2_norm(f)))
        steps_up = sum(1 for a, b in zip(masses, masses[1:]) if b > a + 1e-14)
        drop = masses[0] - masses[-1]
        info["increases"] = steps_up
        info["total_drop"] = f"{drop:.3e}"
        assert steps_up == 0
        assert drop > 1e-13  # the filter really dissipates here


# ---------------------------------------------------------------------------
# convergence studies (the heavy criteria)

STUDY_TAUS = "2^-12, 2^-11, 2^-10, 2^-9, 2^-8"

STUDY_CONFIG = """\
s_values = {s}
tau_list = {taus}
T = 0.25
grid_reference = 256
tau_reference = 2^-16
seeds = 1, 2, 3
output_dir = {out}
cache_dir = {cache}
workers = 4
"""


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance_cache")


@pytest.fixture(scope="module")
def study_s2(tmp_path_factory, shared_cache):
    """The s = 2 study, run through the CLI so criterion 10 can repeat it."""
    root = tmp_path_factory.mktemp("study_s2")
    config = root / "study.cfg"
    out = root / "out_a"
    config.write_text(STUDY_CONFIG.format(s="2.0", taus=STUDY_TAUS,
                                          out=out, cache=shared_cache))
    start = time.perf_counter()
    assert main(["converge", "--config", str(config)]) == EXIT_OK
    elapsed = time.perf_counter() - start
    return config, out, elapsed


@pytest.mark.slow
def test_criterion_06_convergence_order_smooth(study_s2):
    with _criterion(6, "convergence order at s=2", 900.0) as info:
        config, out, elapsed = study_s2
        fit = fit_order(read_records(out / "records.csv"))
        info["slope"] = f"{fit.slope:.4f}"
        info["residual"] = f"{fit.residual:.4f}"
        info["study_s"] = f"{elapsed:.0f}"
        assert fit.n_points == 5
        assert 0.80 <= fit.slope <= 1.20
        assert elapsed < 900.0


@pytest.mark.slow
def test_criterion_07_convergence_order_rough(tmp_path_factory, shared_cache):
    with _criterion(7, "convergence order at s=1 and monotonicity at s=0.5", 900.0) as info:
        root = tmp_path_factory.mktemp("study_rough")

        def study(s: float):
            cfg = StudyConfig(
                s_values=(s,),
                tau_list=tuple(2.0**p for p in range(-12, -7)),
                t_final=0.25,
                grid_reference=256,
                tau_reference=2.0**-16,
                seeds=(1, 2, 3),
                output_dir=root / f"s{s:g}",
                cache_dir=shared_cache,
                workers=4,
            )
            return run_study(cfg)

        fit = fit_order(study(1.0))
        info["slope_s1"] = f"{fit.slope:.4f}"
        assert 0.35 <= fit.slope <= 0.65

        # below s = 0.5 the asserted property is monotone error decay:
        # the median error must not increase as tau shrinks
        records = study(0.5)
        by_tau: dict[float, list[float]] = {}
        for r in records:
            assert not r.failed
            by_tau.setdefault(r.tau, []).append(r.l2_error)
        taus = sorted(by_tau)
        medians = [float(np.median(by_tau[t])) for t in taus]
        info["medians_s05"] = "<".join(f"{m:.2e}" for m in medians)
        assert all(a <= b for a, b in zip(medians, medians[1:]))


# ---------------------------------------------------------------------------
# space-time norms


def test_criterion_08_spacetime_norm_reductions():
    with _criterion(8, "space-time norm reductions", 30.0) as info:
        worst_flat = worst_hom = 0.0
        lo, hi_s, hi_b = (0.5, 0.25), (1.5, 0.25), (0.5, 0.75)
        for _ in range(100):
            tr = Trajectory(0.25, np.stack([_random_field(8) for _ in range(6)]))
            flat = bourgain_norm(tr, 0.0, 0.0)
            worst_flat = max(worst_flat, abs(flat - trajectory_l2(tr)) / trajectory_l2(tr))
            base = bourgain_norm(tr, *lo)
            assert bourgain_norm(tr, *hi_s) >= base
            assert bourgain_norm(tr, *hi_b) >= base
            worst_hom = max(worst_hom,
                            abs(bourgain_norm(tr.scaled(2.5), *lo) - 2.5 * base) / (2.5 * base))
        info["flat_rel_dev"] = f"{worst_flat:.3e}"
        info["hom_rel_dev"] = f"{worst_hom:.3e}"
        assert worst_flat <= 1e-12
        assert worst_hom <= 1e-12


def test_criterion_09_estimate_probes():
    with _criterion(9, "estimate probe tau-uniformity", 120.0) as info:
        taus = (2.0**-4, 2.0**-6, 2.0**-8)
        for estimate_id in ESTIMATE_IDS:
            maxima = []
            for tau in taus:
                ensemble = list(probe_ensemble(100, (tau,), 16, window=16))
                res = estimate_probe(ensemble, (estimate_id,))[0]
                assert len(res.rows) == 100 and res.skipped == 0
                assert np.isfinite(res.ratios).all()
                scaled = estimate_probe(
                    [(seed, tr.scaled(17.0)) for seed, tr in ensemble], (estimate_id,))[0]
                np.testing.assert_allclose(scaled.ratios, res.ratios, rtol=1e-12)
                maxima.append(res.max_ratio)
            factor = max(maxima) / min(maxima)
            info[estimate_id] = f"{factor:.3f}"
            assert factor < 4.0


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.slow
def test_criterion_10_converge_is_deterministic(study_s2, tmp_path_factory):
    # records are compared without the wall_time column, the only
    # intentionally nondeterministic field in the schema
    with _criterion(10, "repeat run determinism", 900.0) as info:
        config, out_a, _ = study_s2
        out_b = tmp_path_factory.mktemp("study_repeat") / "out_b"
        assert main(["converge", "--config", str(config), "--out", str(out_b)]) == EXIT_OK

        def rows_sans_wall(path):
            with open(path, newline="") as fh:
                return [row[:6] for row in csv.reader(fh)]

        rows_a = rows_sans_wall(out_a / "records.csv")
        rows_b = rows_sans_wall(out_b / "records.csv")
        assert rows_a == rows_b
        plot_a = (out_a / "plot_s2.csv").read_bytes()
        plot_b = (out_b / "plot_s2.csv").read_bytes()
        assert plot_a == plot_b
        info["rows"] = len(rows_a) - 1
        info["plot_bytes"] = len(plot_a)


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
