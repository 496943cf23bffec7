"""Tests for the discrete space-time norms and the estimate probes."""

import csv

import numpy as np
import pytest

import nls2d.bourgain as bourgain
from nls2d.bourgain import (
    ESTIMATE_IDS,
    Trajectory,
    _bourgain_weight,
    _sigma_grid,
    bourgain_norm,
    estimate_probe,
    probe_ensemble,
    time_space_transform,
    trajectory_l2,
    trajectory_l4,
    trajectory_sup_sobolev,
    write_probe_report,
)
from nls2d.roughdata import RoughDataSpec, generate
from nls2d.spectral import NonFiniteFieldError, l2_norm, project, sobolev_norm, window_mask

from oracles import (
    brute_force_bourgain_norm,
    free_flow,
    plane_wave,
    snapshot_ensemble,
    snapshot_l4,
    snapshot_probe_rows,
    snapshot_project,
    snapshot_sup_sobolev,
    twisted_bourgain_norm,
)

RNG = np.random.default_rng(2203)


def random_trajectory(tau: float, n: int, m: int) -> Trajectory:
    return Trajectory(tau, np.stack([
        RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)) for _ in range(m)
    ]))


def zero_padded(tr: Trajectory, window: int) -> Trajectory:
    """The trajectory followed by zero snapshots up to ``window`` in all."""
    zero = np.zeros((tr.n_modes, tr.n_modes), dtype=np.complex128)
    return Trajectory(tr.tau, np.stack([*tr.coeffs, *[zero] * (window - len(tr))]))


class TestContainers:
    def test_trajectory_validation(self):
        c = plane_wave(4, 1.0, (1, 0))
        for tau in (0.0, float("nan")):
            with pytest.raises(ValueError, match="tau"):
                Trajectory(tau, c[None])
        with pytest.raises(ValueError, match="M >= 1"):
            Trajectory(0.5, c)  # one (N, N) snapshot without its stack axis
        with pytest.raises(ValueError, match="M >= 1"):
            Trajectory(0.5, np.zeros((0, 4, 4)))
        with pytest.raises(ValueError, match="even"):
            Trajectory(0.5, np.zeros((2, 5, 5)))
        with pytest.raises(ValueError, match="shape"):
            Trajectory(0.5, np.zeros((2, 4, 6)))
        with pytest.raises(ValueError, match="shape"):
            Trajectory(0.5, np.zeros((2, 6, 4)))
        for bad in (np.nan, np.inf, 1j * np.inf):
            stack = np.stack([c, c])
            stack[1, 0, 0] = bad
            with pytest.raises(NonFiniteFieldError):
                Trajectory(0.5, stack)

    def test_scaled(self):
        tr = random_trajectory(0.25, 4, 3)
        doubled = tr.scaled(2.0)
        assert np.array_equal(doubled.coeffs[1], 2.0 * tr.coeffs[1])


class TestTransform:
    def test_single_snapshot_is_constant_in_sigma(self):
        """One snapshot transforms to tau * c_0 at every sigma sample."""
        f = plane_wave(8, 0.3 + 0.4j, (2, -1))
        values = time_space_transform(zero_padded(Trajectory(0.125, f[None]), 16))
        assert values.shape == (16, 8, 8)
        for row in values:
            np.testing.assert_allclose(row, 0.125 * f, rtol=0, atol=1e-15)

    def test_sigma_grid(self):
        step = 2.0 * np.pi / (8 * 0.25)
        np.testing.assert_allclose(_sigma_grid(8, 0.25), step * np.arange(-4, 4),
                                   rtol=0, atol=1e-12)

    def test_circular_shift_multiplies_by_phase(self):
        """Advancing every snapshot index by one multiplies each sample by
        exp(i*tau*sigma); moduli are untouched."""
        tau, n, m = 0.5, 4, 8
        tr = random_trajectory(tau, n, m)
        rolled = Trajectory(tau, np.stack([tr.coeffs[-1], *tr.coeffs[:-1]]))
        t0 = time_space_transform(tr)
        t1 = time_space_transform(rolled)
        phase = np.exp(1j * tau * _sigma_grid(m, tau))[:, None, None]
        np.testing.assert_allclose(t1, phase * t0, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(np.abs(t1), np.abs(t0), rtol=1e-12, atol=1e-12)


class TestNormReductions:
    def test_flat_norm_equals_l2_in_time(self):
        """s = b = 0 collapses to the step-weighted l2-in-time L2 norm."""
        for tau, n, m in [(0.25, 8, 6), (2.0**-6, 4, 12), (1.0, 16, 5)]:
            tr = random_trajectory(tau, n, m)
            flat = bourgain_norm(tr, 0.0, 0.0)
            assert abs(flat - trajectory_l2(tr)) <= 1e-12 * trajectory_l2(tr)

    def test_manual_parseval_from_transform(self):
        """Summing |transform|^2 over the sigma grid reproduces the
        step-weighted time sum exactly (discrete Parseval in time)."""
        tr = random_trajectory(0.5, 4, 8)
        values = time_space_transform(tr)
        dsigma = 2.0 * np.pi / (len(values) * tr.tau)
        lhs = dsigma / (2.0 * np.pi) * np.sum(np.abs(values) ** 2)
        rhs = tr.tau * sum(np.sum(np.abs(c) ** 2) for c in tr.coeffs)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_monotone_in_s_and_b(self):
        tr = random_trajectory(0.25, 8, 6)
        base = bourgain_norm(tr, 0.5, 0.25)
        assert bourgain_norm(tr, 1.0, 0.25) >= base
        assert bourgain_norm(tr, 0.5, 0.75) >= base
        assert bourgain_norm(tr, 0.0, 0.0) <= base

    def test_homogeneous(self):
        tr = random_trajectory(0.25, 8, 5)
        base = bourgain_norm(tr, 1.0, 0.6)
        assert abs(bourgain_norm(tr.scaled(3.0), 1.0, 0.6) - 3.0 * base) <= 1e-12 * base
        assert abs(bourgain_norm(tr.scaled(1j), 1.0, 0.6) - base) <= 1e-12 * base

    def test_matches_direct_summation(self):
        """FFT evaluation agrees with the no-FFT direct sum of the
        definition for several exponent pairs and zero extensions."""
        tr = random_trajectory(0.125, 4, 6)
        for s, b, window in [(0.0, 0.0, 6), (1.0, 0.6, 6), (0.5, 0.4, 8), (2.0, 1.0, 13)]:
            padded = zero_padded(tr, window)
            got = bourgain_norm(padded, s, b)
            want = brute_force_bourgain_norm(padded, s, b)
            assert abs(got - want) <= 1e-10 * want

    def test_cached_weight_is_read_only(self):
        w = _bourgain_weight(8, 0.25, 8, 1.0, 0.6)
        assert w.shape == (8, 8, 8)
        with pytest.raises(ValueError, match="read-only"):
            w *= 2.0
        assert _bourgain_weight(8, 0.25, 8, 1.0, 0.6) is w

    def test_window_extension_changes_weighted_norm(self):
        # zero extension adds edge content once b > 0, so extended windows
        # are a different (finite) number, not a refinement
        tr = random_trajectory(0.25, 4, 4)
        a = bourgain_norm(tr, 0.0, 0.75)
        c = bourgain_norm(zero_padded(tr, 16), 0.0, 0.75)
        assert np.isfinite(c) and c > 0.0
        assert a != c


class TestTwistedForm:
    def test_identical_at_b_zero(self):
        tr = random_trajectory(0.25, 8, 6)
        a = bourgain_norm(tr, 1.5, 0.0)
        b = twisted_bourgain_norm(tr, 1.5, 0.0)
        assert abs(a - b) <= 1e-12 * a

    def test_free_flow_comparison(self):
        """On a free-flow trajectory the twisted sequence is constant in
        time, so the twisted norm concentrates at sigma = 0 and stays below
        the multiplier form; both are finite and positive."""
        tau, n, m = 0.125, 8, 16
        u0 = generate(RoughDataSpec(s=1.0, seed=11, n_modes=n))
        tr = Trajectory(tau, np.stack([free_flow(u0, i * tau) for i in range(m)]))
        plain = bourgain_norm(tr, 1.0, 0.75)
        twisted = twisted_bourgain_norm(tr, 1.0, 0.75)
        assert np.isfinite(plain) and plain > 0.0
        assert np.isfinite(twisted) and twisted > 0.0
        assert twisted <= plain


class TestTrajectoryFunctionals:
    def test_l2_single_plane_wave(self):
        tr = Trajectory(0.25, plane_wave(8, 0.5, (1, 1))[None])
        want = np.sqrt(0.25) * 2.0 * np.pi * 0.5
        assert abs(trajectory_l2(tr) - want) <= 1e-14

    def test_sup_sobolev(self):
        small = plane_wave(8, 0.1, (1, 0))
        big = plane_wave(8, 1.0, (2, 2))
        tr = Trajectory(0.5, np.stack([small, big]))
        assert trajectory_sup_sobolev(tr, 1.0) == sobolev_norm(big, 1.0)

    def test_l4_constant_field(self):
        """A spatially constant snapshot has |u|^4 integral (2 pi)^2 |a|^4."""
        a = 0.7
        tr = Trajectory(0.5, plane_wave(8, a, (0, 0))[None])
        want = (0.5 * (2.0 * np.pi) ** 2 * a**4) ** 0.25
        assert abs(trajectory_l4(tr) - want) <= 1e-12 * want

    def test_l4_modulus_invariance(self):
        """l4 only sees moduli: a global phase leaves it unchanged."""
        tr = random_trajectory(0.25, 8, 3)
        spun = tr.scaled(np.exp(0.3j))
        assert abs(trajectory_l4(tr) - trajectory_l4(spun)) <= 1e-12 * trajectory_l4(tr)


class TestProbes:
    def test_validation(self):
        tr = random_trajectory(0.25, 4, 4)
        with pytest.raises(ValueError, match="unknown estimate_id"):
            estimate_probe([(0, tr)], ("no_such_probe",))
        with pytest.raises(ValueError, match="b must"):
            estimate_probe([(0, tr)], ("embedding_inf_Hs",), b=0.5)
        with pytest.raises(ValueError, match="s must"):
            estimate_probe([(0, tr)], ("embedding_inf_Hs",), s=0.0)
        for ids in ("embedding_inf_Hs", ()):
            with pytest.raises(ValueError, match="non-empty sequence"):
                estimate_probe([(0, tr)], ids)

    def test_validates_before_consuming(self):
        def never_drawn():
            raise AssertionError("the ensemble was consumed")
            yield

        for ids, kwargs in (((*ESTIMATE_IDS, "bad"), {}), (ESTIMATE_IDS, {"b": 1.0})):
            with pytest.raises(ValueError):
                estimate_probe(never_drawn(), ids, **kwargs)

    def test_one_pass_equals_single_estimates(self):
        """Every estimate of one pass matches its own single-id call, row for
        row, in the order the ids are given."""
        trs = list(probe_ensemble(6, (2.0**-5,), 8, window=8, seed0=11))
        for ids in (ESTIMATE_IDS, ESTIMATE_IDS[::-1]):
            results = estimate_probe(iter(trs), ids, s=0.9, b=0.7)
            assert [r.estimate_id for r in results] == list(ids)
            for res in results:
                assert res == estimate_probe(trs, (res.estimate_id,), s=0.9, b=0.7)[0]

    def test_zero_trajectory_skipped(self):
        tr = Trajectory(0.25, np.zeros((2, 4, 4), dtype=np.complex128))
        res, = estimate_probe([(0, tr)], ("embedding_inf_Hs",))
        assert res.skipped == 1 and res.rows == ()
        with pytest.raises(ValueError, match="no usable"):
            res.max_ratio

    def test_single_snapshot_trajectory_included(self):
        tr = Trajectory(0.25, plane_wave(8, 0.3, (1, 1))[None])
        for estimate_id in ESTIMATE_IDS:
            res, = estimate_probe([(5, tr)], (estimate_id,))
            assert res.skipped == 0 and len(res.rows) == 1
            assert res.rows[0].seed == 5
            assert np.isfinite(res.rows[0].ratio)

    def test_ratios_scale_invariant(self):
        trs = list(probe_ensemble(4, (0.125,), 8, window=8))
        for estimate_id in ESTIMATE_IDS:
            base, = estimate_probe(trs, (estimate_id,))
            scaled, = estimate_probe([(s, tr.scaled(37.5)) for s, tr in trs], (estimate_id,))
            np.testing.assert_allclose(scaled.ratios, base.ratios, rtol=1e-12)

    def test_ensemble_deterministic(self):
        a = list(probe_ensemble(4, (0.25,), 8, window=4, seed0=9))
        b = list(probe_ensemble(4, (0.25,), 8, window=4, seed0=9))
        for (sa, ta), (sb, tb) in zip(a, b):
            assert sa == sb
            assert np.array_equal(ta.coeffs, tb.coeffs)

    def test_embedding_lhs_bounded_by_window_max(self):
        """The embedding lhs is exactly the max H^s over snapshots."""
        trs = list(probe_ensemble(2, (0.25,), 8, window=6))
        res, = estimate_probe(trs, ("embedding_inf_Hs",), s=1.0, b=0.6)
        for row, (_, tr) in zip(res.rows, trs):
            assert row.lhs == max(sobolev_norm(f, 1.0) for f in tr.coeffs)

    def test_tau_variation_small_ensemble(self):
        """Max ratios across a tau sweep stay within a factor 4 even on a
        small ensemble (the acceptance run uses 100 trajectories)."""
        for estimate_id in ESTIMATE_IDS:
            maxima = []
            for tau in (2.0**-4, 2.0**-6, 2.0**-8):
                res, = estimate_probe(probe_ensemble(12, (tau,), 16, window=16), (estimate_id,))
                maxima.append(res.max_ratio)
            assert max(maxima) / min(maxima) < 4.0

    def test_sweep_work_counts(self, monkeypatch):
        """A seed-major sweep draws each seed once, transforms each trajectory
        once and sums each (stack, theta-window) L4 once."""
        calls: dict[str, int] = {}
        for name in ("time_space_transform", "generate_stack", "generate", "free_phase",
                     "trajectory_sup_sobolev", "synthesize"):
            def counted(*args, _real=getattr(bourgain, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(bourgain, name, counted)
        taus = (2.0**-4, 2.0**-6, 2.0**-8)
        windows = {tuple(window_mask(16, tau)) for tau in taus}
        assert len(windows) == 2  # 2^-6 and 2^-8 keep every mode of the 16-lattice
        _bourgain_weight.cache_clear()
        estimate_probe(probe_ensemble(10, taus, 16, window=16, seed0=4), ESTIMATE_IDS)
        assert _bourgain_weight.cache_info().misses == 3 * 2  # (tau, s, b) triples
        assert calls == {
            "free_phase": 3 * 16,  # once per (tau, snapshot) of the sweep
            "generate_stack": 5,  # the five rough seeds
            "generate": 5,  # the five free-flow seeds
            "time_space_transform": 30,
            "trajectory_sup_sobolev": 5 + 15,  # rough seeds share one stack for all taus
            "synthesize": 5 * 2 + 15,  # the L4 sums: one per (stack, window)
        }

    def test_report_round_trip(self, tmp_path):
        res, = estimate_probe(probe_ensemble(3, (0.25,), 8, window=4), ("strichartz_l4",))
        out = tmp_path / "probes.csv"
        write_probe_report([res], out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["estimate_id", "tau", "seed", "lhs", "rhs", "ratio"]
        assert len(rows) == 1 + len(res.rows)
        assert float(rows[1][3]) == res.rows[0].lhs
        assert float(rows[1][5]) == res.rows[0].ratio

    def test_report_write_is_atomic(self, tmp_path):
        """A write that fails part way leaves the previous report whole."""
        out = tmp_path / "probes.csv"
        write_probe_report(estimate_probe(probe_ensemble(3, (0.25,), 8, 4), ("strichartz_l4",)), out)
        first = out.read_bytes()

        def dies_after_one_result():
            yield from estimate_probe(probe_ensemble(3, (0.5,), 8, 4), ("embedding_inf_Hs",))
            raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError, match="mid-write"):
            write_probe_report(dies_after_one_result(), out)
        assert out.read_bytes() == first
        assert [p.name for p in tmp_path.iterdir()] == ["probes.csv"]


class TestStackMatchesSnapshots:
    """The stacked functionals reproduce the per-snapshot definitions bit for bit."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("tau", [2.0**-4, 2.0**-8])
    def test_bit_exact(self, n, tau):
        for seed0 in (3, -3, 2**45):  # also negative, and seed * 1_000_003 past 2**64
            stacked = list(probe_ensemble(4, (tau,), n, window=16, seed0=seed0))
            fields = list(snapshot_ensemble(4, tau, n, window=16, seed0=seed0))
            for (seed, tr), (want_seed, want) in zip(stacked, fields):  # both families
                assert seed == want_seed and np.array_equal(tr.coeffs, want.coeffs)
                assert trajectory_sup_sobolev(tr, 1.0) == snapshot_sup_sobolev(tr, 1.0)
                assert trajectory_l4(tr) == snapshot_l4(tr)
                # one sum over the stack instead of a vdot per snapshot: a reordering
                per_field = np.sqrt(tr.tau * sum(l2_norm(f) ** 2 for f in tr.coeffs))
                assert trajectory_l2(tr) == pytest.approx(per_field, rel=1e-13, abs=0.0)
                filtered = snapshot_project(tr, tau)
                assert np.array_equal(project(tr.coeffs, tau), filtered.coeffs)
                truncated = np.count_nonzero(filtered.coeffs) < filtered.coeffs.size
                assert truncated == (tau**-0.5 < n / 2)  # the filter bites at tau = 2^-4
            for estimate_id in ESTIMATE_IDS:
                rows = estimate_probe(stacked, (estimate_id,))[0].rows
                assert rows == snapshot_probe_rows(fields, estimate_id)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
