"""Tests for the convergence-study harness."""

import logging
import math
import shutil
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import nls2d.harness as harness
import nls2d.snapshot as snapshot
from nls2d.harness import (
    CONFIG_KEYS,
    ConvergenceRecord,
    RECORD_COLUMNS,
    StudyConfig,
    coarse_datum,
    compute_reference,
    export,
    fit_order,
    fit_xy,
    grid_for_tau,
    l2_error,
    median_curve,
    parse_config_file,
    parse_dyadic,
    read_plot_data,
    read_records,
    reference_cache_path,
    run_study,
    sensitivity_configs,
)
from nls2d.roughdata import RoughDataSpec, generate
from nls2d.spectral import SpectralField, embed, project, restrict, synthesize
from nls2d.splitting import SchemeParams, default_theta, evolve

from oracles import embedded_l2_error, plane_wave, plane_wave_solution, quadrature_l2

RNG = np.random.default_rng(31)


class TestCoupling:
    def test_grid_for_tau_table(self):
        assert grid_for_tau(2.0**-8) == 32
        assert grid_for_tau(2.0**-9) == 46
        assert grid_for_tau(2.0**-10) == 64
        assert grid_for_tau(2.0**-11) == 90
        assert grid_for_tau(2.0**-12) == 128

    def test_grid_for_tau_rejects(self):
        with pytest.raises(ValueError, match="positive finite"):
            grid_for_tau(0.0)
        with pytest.raises(ValueError, match="too coarse"):
            grid_for_tau(16.0)

    def test_parse_dyadic(self):
        assert parse_dyadic("2^-12") == 2.0**-12
        assert parse_dyadic("2**-12") == 2.0**-12
        assert parse_dyadic(" 2^3 ") == 8.0
        assert parse_dyadic("0.25") == 0.25
        assert parse_dyadic("-2^-3") == -0.125
        assert parse_dyadic(" -2**2") == -4.0

    def test_filter_matches_lattice_identity_in_sweep(self):
        """Under the coupling, theta = max(tau, 4/N^2) keeps the cutoff
        within N/2, so restriction after projection is lossless."""
        for tau in (2.0**-8, 2.0**-9, 2.0**-11):
            n = grid_for_tau(tau)
            theta = default_theta(tau, n)
            assert theta**-0.5 <= n / 2 + 1e-12


class TestConfigValidation:
    def good_kwargs(self, tmp_path):
        return dict(
            s_values=(1.0,),
            tau_list=(2.0**-4, 2.0**-5, 2.0**-6),
            t_final=0.25,
            grid_reference=64,
            tau_reference=2.0**-10,
            seeds=(1, 2),
            output_dir=tmp_path / "out",
        )

    def test_accepts_good_config(self, tmp_path):
        cfg = StudyConfig(**self.good_kwargs(tmp_path))
        assert cfg.resolved_cache_dir == tmp_path / "out" / "cache"
        assert cfg.datum_spec(1.0, 2).n_modes == 64

    def test_rejections(self, tmp_path):
        good = self.good_kwargs(tmp_path)
        cases = [
            (dict(s_values=()), "nonempty"),
            (dict(s_values=(1.0, 1.0)), "duplicates"),
            (dict(tau_list=(0.3,)), "powers of two"),
            (dict(tau_list=(2.0**-4, 2.0**-4)), "duplicates"),
            (dict(t_final=0.3), "integer multiple"),
            (dict(t_final=0.0), "T must be"),
            (dict(tau_reference=2.0**-8), "min\\(tau_list\\)/16"),
            (dict(seeds=()), "nonempty"),
            (dict(seeds=(3, 3)), "duplicates"),
            (dict(mu=0), "mu"),
            (dict(eps=0.0), "positive"),
            (dict(workers=0), "workers"),
            (dict(grid_reference=16), "at least twice"),
        ]
        for override, pattern in cases:
            with pytest.raises(ValueError, match=pattern):
                StudyConfig(**{**good, **override})

    def test_reference_spec_rejections(self, tmp_path):
        good = self.good_kwargs(tmp_path)
        with pytest.raises(ValueError, match="even integer"):
            StudyConfig(**{**good, "grid_reference": 15})
        with pytest.raises(ValueError, match="powers of two"):
            StudyConfig(**{**good, "tau_reference": 0.3})

    def test_small_reference_lattice_warns(self, tmp_path, caplog):
        good = self.good_kwargs(tmp_path)
        good["grid_reference"] = 32  # 2x max grid, below 4x
        with caplog.at_level(logging.WARNING, logger="nls2d.harness"):
            StudyConfig(**good)
        assert any("recommended 4x" in r.message for r in caplog.records)


class TestErrorMeasure:
    def test_identical_fields(self):
        f = plane_wave(16, 0.3, (1, 2))
        assert l2_error(f, f) == 0.0

    def test_single_extra_mode(self):
        """A lone high mode of amplitude a in the reference costs 2*pi*a."""
        coarse = plane_wave(8, 0.5, (1, 0))
        reference = SpectralField(32, embed(coarse, 32).coeffs.copy())
        reference.coeffs[32 // 2 + 10, 32 // 2 - 7] = 0.25
        assert abs(l2_error(coarse, reference) - 2.0 * np.pi * 0.25) <= 1e-13

    def test_quadrature_cross_check(self):
        """Coefficient-space distance equals grid quadrature of the
        difference sampled on a doubled lattice."""
        coarse = SpectralField(8, RNG.standard_normal((8, 8)) + 1j * RNG.standard_normal((8, 8)))
        reference = SpectralField(
            16, RNG.standard_normal((16, 16)) + 1j * RNG.standard_normal((16, 16)))
        diff = SpectralField(16, embed(coarse, 16).coeffs - reference.coeffs)
        want = quadrature_l2(synthesize(diff, 32))
        assert abs(l2_error(coarse, reference) - want) <= 1e-10 * want

    @pytest.mark.parametrize("n, m", [(8, 8), (8, 16), (6, 32)])
    def test_matches_embedding_oracle(self, n, m):
        """Bit for bit the norm of the zero-padded difference, equal lattices included."""
        coarse = SpectralField(n, RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)))
        reference = SpectralField(
            m, RNG.standard_normal((m, m)) + 1j * RNG.standard_normal((m, m)))
        assert l2_error(coarse, reference) == embedded_l2_error(coarse, reference)

    def test_wrong_direction_rejected(self):
        with pytest.raises(ValueError, match="exceeds reference"):
            l2_error(plane_wave(16, 1.0, (0, 0)), plane_wave(8, 1.0, (0, 0)))

    def test_coarse_datum_window(self):
        """coarse_datum keeps exactly the half-open filter square."""
        datum = SpectralField(
            16, RNG.standard_normal((16, 16)) + 1j * RNG.standard_normal((16, 16)))
        got = coarse_datum(datum, 0.25, 8)  # cutoff 2
        assert got.n_modes == 8
        for i in range(8):
            for j in range(8):
                k1, k2 = i - 4, j - 4
                inside = -2 <= k1 < 2 and -2 <= k2 < 2
                want = datum.coeffs[8 + k1, 8 + k2] if inside else 0.0
                assert got.coeffs[i, j] == want

    def test_coarse_datum_restricts_then_filters(self):
        """Slicing first gives the filtered-then-restricted datum of every study grid."""
        datum = generate(RoughDataSpec(s=1.0, seed=4, n_modes=64))
        for tau in (2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8):
            n = grid_for_tau(tau)
            theta = default_theta(tau, n)
            want = restrict(project(datum, theta), n)
            assert np.array_equal(coarse_datum(datum, theta, n).coeffs, want.coeffs)


class TestReference:
    DATUM = generate(RoughDataSpec(s=1.0, seed=3, n_modes=16))

    def test_plane_wave_datum_override(self):
        """With a plane-wave datum the reference matches the closed form."""
        datum = plane_wave(16, 0.1, (1, 2))
        got, _ = compute_reference(datum, 2.0**-6, 0.25, mu=-1)
        want = plane_wave_solution(0.1, (1, 2), -1, 0.25)
        err = np.abs(got.coeffs - plane_wave(16, want, (1, 2)).coeffs).max()
        assert err <= 1e-10

    def test_cache_round_trip_and_no_recompute(self, tmp_path, monkeypatch):
        first, path = compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        calls = []
        real = harness.evolve
        monkeypatch.setattr(harness, "evolve", lambda *a, **k: calls.append(1) or real(*a, **k))
        second, again = compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        assert calls == []
        assert np.array_equal(first.coeffs, second.coeffs)
        assert again == path and path.exists()

    def test_corrupt_payload_recomputed(self, tmp_path, caplog):
        first, _ = compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        path = next(tmp_path.glob("ref_*.nls2"))
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with caplog.at_level(logging.WARNING, logger="nls2d.harness"):
            second, _ = compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        assert any("corrupt" in r.message for r in caplog.records)
        assert np.array_equal(first.coeffs, second.coeffs)

    def test_foreign_key_recomputed(self, tmp_path, caplog):
        compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        meta = next(tmp_path.glob("ref_*.json"))
        meta.write_text(meta.read_text().replace("scheme=", "scheme=9"))
        with caplog.at_level(logging.WARNING, logger="nls2d.harness"):
            compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        assert any("different run" in r.message for r in caplog.records)

    def test_failed_write_leaves_no_entry(self, tmp_path, monkeypatch, caplog):
        """A payload write that dies half way leaves nothing at a final path."""
        real = snapshot.save_field

        def torn(field, path):
            real(field, path)
            blob = Path(path).read_bytes()
            Path(path).write_bytes(blob[: len(blob) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(snapshot, "save_field", torn)
        with pytest.raises(OSError, match="disk full"):
            compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        with caplog.at_level(logging.WARNING, logger="nls2d.harness"):
            _, path = compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        assert caplog.records == []
        assert path.exists() and path.with_suffix(".json").exists()

    def test_distinct_recipes_distinct_paths(self, tmp_path):
        a = reference_cache_path(tmp_path, "key-a")
        assert a == reference_cache_path(tmp_path, "key-a")
        assert a != reference_cache_path(tmp_path, "key-b")

    def test_reference_step_refinement_is_negligible(self, tmp_path):
        """Halving the reference step moves the reference by far less than
        a coarse experiment's error (the reference stands in for the exact
        solution)."""
        datum = generate(RoughDataSpec(s=2.0, seed=1, n_modes=32))
        ref_a, _ = compute_reference(datum, 2.0**-10, 0.125)
        ref_b, _ = compute_reference(datum, 2.0**-11, 0.125)
        drift = l2_error(ref_a, ref_b)

        n = grid_for_tau(2.0**-6)
        u0 = coarse_datum(datum, default_theta(2.0**-6, n), n)
        final = evolve(u0, SchemeParams(tau=2.0**-6, n_modes=n, mu=-1, t_final=0.125))
        coarse_err = l2_error(final, ref_a)
        assert drift < coarse_err / 10.0

    def test_matched_resolution_run_has_zero_error(self):
        """A run whose lattice, step and filter equal the reference's
        reproduces it exactly."""
        datum = generate(RoughDataSpec(s=1.0, seed=7, n_modes=16))
        tau = 2.0**-6
        assert grid_for_tau(tau) == 16
        theta = default_theta(tau, 16)
        assert theta == 4.0 / 16**2 == tau
        ref, _ = compute_reference(datum, tau, 0.25)
        final = evolve(coarse_datum(datum, theta, 16),
                       SchemeParams(tau=tau, n_modes=16, mu=-1, t_final=0.25))
        assert l2_error(final, ref) == 0.0


@pytest.fixture(scope="module")
def mini_study(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini_study")
    cfg = StudyConfig(
        s_values=(2.0,),
        tau_list=(2.0**-4, 2.0**-5, 2.0**-6),
        t_final=0.25,
        grid_reference=64,
        tau_reference=2.0**-10,
        seeds=(1, 2),
        output_dir=root,
        workers=2,
    )
    return cfg, run_study(cfg)


class TestRunStudy:
    def test_complete_and_sorted(self, mini_study):
        cfg, records = mini_study
        assert len(records) == 6
        assert [r.key for r in records] == sorted(r.key for r in records)
        assert all(not r.failed for r in records)
        assert all(r.n_modes == grid_for_tau(r.tau) for r in records)
        assert all(r.theta == max(r.tau, 4.0 / r.n_modes**2) for r in records)
        assert (cfg.output_dir / "records.csv").exists()
        assert (cfg.output_dir / "plot_s2.csv").exists()

    def test_fitted_order_near_one(self, mini_study):
        _, records = mini_study
        fit = fit_order(records)
        assert 0.7 <= fit.slope <= 1.3
        assert fit.n_points == 3

    def test_csv_round_trip(self, mini_study):
        cfg, records = mini_study
        assert read_records(cfg.output_dir / "records.csv") == records

    def test_plot_data_refits_identically(self, mini_study):
        cfg, records = mini_study
        x, y = read_plot_data(cfg.output_dir / "plot_s2.csv")
        assert fit_xy(x, y) == fit_order(records)

    def test_full_resume_recomputes_nothing(self, mini_study, monkeypatch):
        cfg, records = mini_study
        monkeypatch.setattr(harness, "evolve",
                            lambda *a, **k: pytest.fail("resume must not re-evolve"))
        monkeypatch.setattr(harness, "generate",
                            lambda *a, **k: pytest.fail("resume must not regenerate data"))
        assert run_study(cfg) == records

    def test_partial_resume_fills_only_gaps(self, mini_study, monkeypatch):
        cfg, records = mini_study
        gap = (2.0, 2.0**-5, 2)
        export([r for r in records if r.key != gap], cfg.output_dir)
        stacks = []
        real = harness.evolve
        monkeypatch.setattr(harness, "evolve",
                            lambda u0, p, **k: stacks.append(len(u0)) or real(u0, p, **k))
        resumed = run_study(cfg)
        assert stacks == [1]  # one coarse run; the reference came from cache
        assert sorted(r.key for r in resumed) == sorted(r.key for r in records)
        redone = next(r for r in resumed if r.key == gap)
        original = next(r for r in records if r.key == gap)
        assert redone.l2_error == original.l2_error

    def test_torn_last_row_recomputed(self, mini_study, monkeypatch):
        """A row cut short by a kill mid-write is dropped and redone alone."""
        cfg, records = mini_study
        path = cfg.output_dir / "records.csv"
        text = path.read_bytes()
        last_row = text.rstrip(b"\r\n").rfind(b"\n") + 1
        path.write_bytes(text[: last_row + 10])
        stacks = []
        real = harness.evolve
        monkeypatch.setattr(harness, "evolve",
                            lambda u0, p, **k: stacks.append(len(u0)) or real(u0, p, **k))
        resumed = run_study(cfg)
        assert stacks == [1]  # the torn row; the reference came from cache
        assert [r.key for r in resumed] == [r.key for r in records]
        assert [r.l2_error for r in resumed] == [r.l2_error for r in records]

    def test_resume_refuses_another_recipe(self, mini_study, tmp_path, monkeypatch):
        """Rows resume only under the recipe recorded in study.json."""
        cfg, records = mini_study
        out = tmp_path / "copy"
        shutil.copytree(cfg.output_dir, out)
        copy = replace(cfg, output_dir=out)  # the copied cache holds the references
        with pytest.raises(ValueError, match=r"differing: T\)"):
            run_study(replace(copy, t_final=0.5))
        stacks = []
        real = harness.evolve
        monkeypatch.setattr(harness, "evolve",
                            lambda u0, p, **k: stacks.append(len(u0)) or real(u0, p, **k))
        resumed = run_study(replace(copy, tau_list=copy.tau_list + (2.0**-3,)))
        assert stacks == [2] and len(resumed) == len(records) + 2  # both seeds, one stack
        (out / "study.json").unlink()
        with pytest.raises(ValueError, match="no study.json"):
            run_study(copy)

    def test_stacked_rows_match_per_seed_runs(self, tmp_path):
        """Each record of a 3-seed study is that of its own run, measured by embedding."""
        cfg = StudyConfig(s_values=(1.0,), tau_list=(2.0**-4, 2.0**-5, 2.0**-6), t_final=0.25,
                          grid_reference=64, tau_reference=2.0**-10, seeds=(1, 2, 3),
                          output_dir=tmp_path, workers=2)
        records = run_study(cfg)
        assert len(records) == 9
        for rec in records:
            datum = generate(cfg.datum_spec(rec.s, rec.seed))
            ref, _ = compute_reference(datum, cfg.tau_reference, cfg.t_final, cfg.mu,
                                       cfg.resolved_cache_dir)
            u0 = restrict(project(datum, rec.theta), rec.n_modes)
            final = evolve(u0, SchemeParams(rec.tau, rec.n_modes, cfg.mu, cfg.t_final))
            assert rec.l2_error == embedded_l2_error(final, ref)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blown_up_seed_fails_alone(self, tmp_path, monkeypatch, caplog):
        """A seed that blows up gets failed rows and a warning; its stack mates run on."""
        cfg = StudyConfig(s_values=(1.0,), tau_list=(2.0**-4, 2.0**-5, 2.0**-6), t_final=0.25,
                          grid_reference=32, tau_reference=2.0**-10, seeds=(1, 2),
                          output_dir=tmp_path, mu=1, workers=1)
        real = harness.generate
        monkeypatch.setattr(harness, "generate", lambda spec: (
            plane_wave(spec.n_modes, 1e200, (0, 0)) if spec.seed == 2 else real(spec)))
        monkeypatch.setattr(harness, "compute_reference", lambda u0, *a: (u0, None))
        with caplog.at_level(logging.WARNING, logger="nls2d.harness"):
            records = run_study(cfg)
        assert [r.failed for r in records] == [False, True] * 3
        assert sum("seed=2) blew up" in r.message for r in caplog.records) == 3

    def test_study_json_golden(self, mini_study):
        """The recipe encoding is pinned: key order, ints, floats as float.hex."""
        cfg, _ = mini_study
        assert (cfg.output_dir / "study.json").read_text() == (
            '{\n'
            '  "scheme": 2,\n'
            '  "T": "0x1.0000000000000p-2",\n'
            '  "grid_reference": 64,\n'
            '  "tau_reference": "0x1.0000000000000p-10",\n'
            '  "mu": -1,\n'
            '  "eps": "0x1.47ae147ae147bp-7",\n'
            '  "target_l2": "0x1.999999999999ap-4"\n'
            '}\n'
        )

    def test_reference_sensitivity_writes_subdirs(self, mini_study):
        cfg, records = mini_study
        alt = (32, 2.0**-10)
        configs = sensitivity_configs(cfg, [alt])
        assert set(configs) == {alt}
        sub = cfg.output_dir / f"ref_K32_tau{2.0 ** -10:g}"
        assert configs[alt].output_dir == sub
        assert (configs[alt].grid_reference, configs[alt].tau_reference) == alt
        out = run_study(configs[alt])
        assert (sub / "records.csv").exists()
        assert len(out) == len(records)


class TestFitting:
    @staticmethod
    def synthetic(p: float, thetas=(2.0**-6, 2.0**-5, 2.0**-4, 2.0**-3)) -> list:
        recs = []
        for theta in thetas:
            for seed in (1, 2, 3):
                err = 0.37 * theta**p
                recs.append(ConvergenceRecord(1.0, theta, 8, theta, seed, err, 0.0))
        return recs

    def test_exact_power_law_recovered(self):
        fit = fit_order(self.synthetic(0.875))
        assert abs(fit.slope - 0.875) <= 1e-12
        assert fit.residual <= 1e-12

    def test_median_ignores_failed_rows(self):
        recs = self.synthetic(1.0)
        recs[0] = ConvergenceRecord(1.0, recs[0].tau, 8, recs[0].theta, 99, math.nan, 0.0)
        fit = fit_order(recs)
        assert abs(fit.slope - 1.0) <= 1e-12

    def test_all_failed_theta_dropped(self):
        recs = self.synthetic(1.0)
        dead = recs[0].theta
        recs = [r for r in recs if r.theta != dead] + [
            ConvergenceRecord(1.0, dead, 8, dead, s, math.nan, 0.0) for s in (1, 2, 3)
        ]
        x, _ = median_curve(recs)
        assert len(x) == 3
        assert math.log2(dead) not in x

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError, match="no successful records"):
            median_curve([ConvergenceRecord(1.0, 0.25, 8, 0.25, 1, math.nan, 0.0)])
        with pytest.raises(ValueError, match="log scale"):
            median_curve([ConvergenceRecord(1.0, 0.25, 8, 0.25, 1, 0.0, 0.0)])
        with pytest.raises(ValueError, match=">= 3 distinct"):
            fit_xy(np.array([1.0, 1.0, 2.0]), np.array([1.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="no records"):
            fit_order([])

    def test_mixed_s_needs_selector(self):
        recs = self.synthetic(1.0) + [
            ConvergenceRecord(2.0, t, 8, t, 1, t**1.5, 0.0)
            for t in (2.0**-6, 2.0**-5, 2.0**-4)
        ]
        with pytest.raises(ValueError, match="mix several s"):
            fit_order(recs)
        assert abs(fit_order(recs, s=2.0).slope - 1.5) <= 1e-12


class TestSerialization:
    def test_export_read_round_trip(self, tmp_path):
        recs = TestFitting.synthetic(0.5)
        paths = export(recs, tmp_path)
        assert paths[0].name == "records.csv"
        assert read_records(paths[0]) == sorted(recs, key=lambda r: r.key)

    def test_failed_export_keeps_previous_files(self, tmp_path, monkeypatch):
        """An export that dies part way leaves the last whole export in place."""
        recs = TestFitting.synthetic(0.5)
        export(recs, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real, rows = harness._record_row, []

        def dies_halfway(rec):
            if len(rows) == len(recs) // 2:
                raise OSError("disk full")
            rows.append(rec)
            return real(rec)

        monkeypatch.setattr(harness, "_record_row", dies_halfway)
        with pytest.raises(OSError, match="disk full"):
            export(recs, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_export_empty_table(self, tmp_path):
        paths = export([], tmp_path)
        assert [p.name for p in paths] == ["records.csv"]
        assert paths[0].read_text().strip() == ",".join(RECORD_COLUMNS)
        assert read_records(paths[0]) == []

    def test_read_records_rejects_bad_header(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_records(p)

    def test_read_records_rejects_short_row(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_text(",".join(RECORD_COLUMNS) + "\n1.0,0.25\n")
        with pytest.raises(ValueError, match="malformed row"):
            read_records(p)

    def test_read_plot_data_rejects_bad_header(self, tmp_path):
        p = tmp_path / "plot.csv"
        p.write_text("x,y\n0.0,0.0\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_plot_data(p)


class TestConfigFile:
    GOOD = """\
# desk-scale order study
s_values = 1.0, 2.0
tau_list = 2^-6, 2^-5, 2^-4
T = 0.25
grid_reference = 64
tau_reference = 2^-10
seeds = 1, 2
output_dir = {out}

mu = -1
eps = 0.01
target_l2 = 0.1
cache_dir = {cache}
workers = 3
"""

    def test_table_covers_every_field(self):
        """A new StudyConfig field cannot skip the config table."""
        assert [row[1] for row in CONFIG_KEYS] == [f.name for f in fields(StudyConfig)]

    def test_full_parse(self, tmp_path):
        p = tmp_path / "study.cfg"
        p.write_text(self.GOOD.format(out=tmp_path / "o", cache=tmp_path / "c"))
        cfg = parse_config_file(p)
        assert cfg.s_values == (1.0, 2.0)
        assert cfg.tau_list == (2.0**-6, 2.0**-5, 2.0**-4)
        assert cfg.t_final == 0.25
        assert cfg.grid_reference == 64 and cfg.tau_reference == 2.0**-10
        assert cfg.seeds == (1, 2)
        assert cfg.mu == -1 and cfg.workers == 3
        assert cfg.eps == 0.01 and cfg.target_l2 == 0.1
        assert cfg.cache_dir == tmp_path / "c"

    def test_rejections(self, tmp_path):
        base = self.GOOD.format(out=tmp_path / "o", cache=tmp_path / "c")
        cases = [
            (base + "bogus = 1\n", "unknown config key"),
            (base + "T = 0.5\n", "duplicate config key"),
            (base.replace("T = 0.25\n", ""), "missing required"),
            (base + "just words\n", "expected 'key = value'"),
            (base.replace("s_values = 1.0, 2.0", "s_values = 1.0, abc"),
             r"bad.cfg:2: bad value for 's_values': could not convert"),
            (base.replace("seeds = 1, 2", "seeds = 1, 2,"),
             r"bad.cfg:7: bad value for 'seeds': invalid literal"),
        ]
        for text, pattern in cases:
            p = tmp_path / "bad.cfg"
            p.write_text(text)
            with pytest.raises(ValueError, match=pattern):
                parse_config_file(p)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
