"""Tests for the convergence-study harness."""

import csv
import hashlib
import io
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import nls2d.harness as harness
import nls2d.snapshot as snapshot
from nls2d.cli import EXIT_INVALID, EXIT_OK, main
from nls2d.harness import (
    CONFIG_KEYS,
    ConvergenceRecord,
    RECORD_COLUMNS,
    StudyConfig,
    compute_reference,
    fit_order,
    fit_xy,
    grid_for_tau,
    l2_error,
    median_curve,
    parse_config_file,
    parse_dyadic,
    read_records,
    reference_cache_path,
    run_study,
)
from nls2d.roughdata import RoughDataSpec, generate
from nls2d.spectral import project, restrict, synthesize
from nls2d.splitting import BlowupError, SchemeParams, default_theta, evolve

from oracles import (
    embed, embedded_l2_error, evolve_field, plane_wave, plane_wave_solution, quadrature_l2,
)

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
            (dict(s_values=(1.0, math.nan)), "s must be > 0"),
            (dict(s_values=(1.0, -1.0)), "s must be > 0"),
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
            (dict(s_values=(0.5000001, 0.5000002)),
             "s values 0.5000001 and 0.5000002 share the plot file plot_s0.5.csv"),
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
        reference = embed(coarse, 32)
        reference[32 // 2 + 10, 32 // 2 - 7] = 0.25
        assert abs(l2_error(coarse, reference) - 2.0 * np.pi * 0.25) <= 1e-13

    def test_quadrature_cross_check(self):
        """Coefficient-space distance equals grid quadrature of the
        difference sampled on a doubled lattice."""
        coarse = RNG.standard_normal((8, 8)) + 1j * RNG.standard_normal((8, 8))
        reference = RNG.standard_normal((16, 16)) + 1j * RNG.standard_normal((16, 16))
        diff = embed(coarse, 16) - reference
        want = quadrature_l2(synthesize(diff, 32))
        assert abs(l2_error(coarse, reference) - want) <= 1e-10 * want

    @pytest.mark.parametrize("n, m", [(8, 8), (8, 16), (6, 32)])
    def test_matches_embedding_oracle(self, n, m):
        """Bit for bit the norm of the zero-padded difference, equal lattices included."""
        coarse = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
        reference = RNG.standard_normal((m, m)) + 1j * RNG.standard_normal((m, m))
        assert l2_error(coarse, reference) == embedded_l2_error(coarse, reference)

    def test_wrong_direction_rejected(self):
        with pytest.raises(ValueError, match="exceeds reference"):
            l2_error(plane_wave(16, 1.0, (0, 0)), plane_wave(8, 1.0, (0, 0)))

    def test_sweep_datum_needs_no_prefilter(self):
        """On every study grid, evolving the restricted datum equals evolving
        the filtered-then-restricted one bit for bit: evolve's own filter
        is the only projection a coarse run needs."""
        datum = generate(RoughDataSpec(s=1.0, seed=4, n_modes=64))
        for tau in (2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8):
            n = grid_for_tau(tau)
            p = SchemeParams(tau, -1, 4 * tau)
            got, _ = evolve(restrict(datum, n), p)
            want, _ = evolve(restrict(project(datum, default_theta(tau, n)), n), p)
            assert np.array_equal(got, want)


class TestReference:
    DATUM = generate(RoughDataSpec(s=1.0, seed=3, n_modes=16))

    def test_plane_wave_datum_override(self):
        """With a plane-wave datum the reference matches the closed form."""
        datum = plane_wave(16, 0.1, (1, 2))
        got, _ = compute_reference(datum, 2.0**-6, 0.25, mu=-1)
        want = plane_wave_solution(0.1, (1, 2), -1, 0.25)
        err = np.abs(got - plane_wave(16, want, (1, 2))).max()
        assert err <= 1e-10

    def test_cache_round_trip_and_no_recompute(self, tmp_path, monkeypatch):
        first, path = compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        calls = []
        real = harness.evolve
        monkeypatch.setattr(harness, "evolve", lambda *a, **k: calls.append(1) or real(*a, **k))
        second, again = compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        assert calls == []
        assert np.array_equal(first, second)
        assert again == path and path.exists()

    def test_cache_hit_parses_the_hashed_bytes(self, tmp_path, monkeypatch):
        """A hit decodes the one read whose sha256 it checked; it reads no file again."""
        first, path = compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        reads = []
        real_read = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(p) or real_read(p))
        monkeypatch.setattr(harness, "evolve",
                            lambda *a, **k: pytest.fail("a cache hit must not recompute"))
        second, _ = compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        assert reads == [path]
        assert np.array_equal(first, second)

    def test_corrupt_payload_recomputed(self, tmp_path, caplog):
        first, path = compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with caplog.at_level(logging.WARNING, logger="nls2d.harness"):
            second, _ = compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        assert any("corrupt" in r.message for r in caplog.records)
        assert np.array_equal(first, second)
        assert snapshot.load_field(path, harness._reference_key(
            self.DATUM, 2.0**-6, 0.25, -1)).tobytes() == first.tobytes()

    def test_foreign_key_recomputed(self, tmp_path, monkeypatch, caplog):
        """An intact entry written under another key is a mismatch, not a hit."""
        first, path = compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        snapshot.save_field(first, path, "scheme=9|another run")
        calls = []
        real = harness.evolve
        monkeypatch.setattr(harness, "evolve", lambda *a, **k: calls.append(1) or real(*a, **k))
        with caplog.at_level(logging.WARNING, logger="nls2d.harness"):
            second, _ = compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        assert any("different run" in r.message for r in caplog.records)
        assert calls == [1]
        assert np.array_equal(first, second)

    def test_failed_write_leaves_no_entry(self, tmp_path, monkeypatch, caplog):
        """An entry write that dies part way leaves nothing at the final path."""

        class TornFile(io.FileIO):
            def write(self, data):
                data = bytes(data)
                super().write(data[: len(data) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(snapshot, "open", TornFile, raising=False)  # shadows the builtin
        with pytest.raises(OSError, match="disk full"):
            compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        with caplog.at_level(logging.WARNING, logger="nls2d.harness"):
            _, path = compute_reference(self.DATUM, 2.0**-6, 0.25, cache_dir=tmp_path)
        assert caplog.records == []
        assert list(tmp_path.iterdir()) == [path]

    def test_blowup_raises_and_caches_nothing(self, tmp_path):
        """A reference solve that overflows raises before any cache write."""
        with np.errstate(all="ignore"), pytest.raises(BlowupError, match="step 0"):
            compute_reference(plane_wave(8, 1e200, (0, 0)), 2.0**-4, 0.25, mu=1,
                              cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

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
        u0 = restrict(datum, n)
        final = evolve_field(u0, SchemeParams(tau=2.0**-6, mu=-1, t_final=0.125))
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
        final = evolve_field(datum, SchemeParams(tau=tau, mu=-1, t_final=0.25))
        assert l2_error(final, ref) == 0.0


def write_config(path: Path, cfg: StudyConfig) -> Path:
    """Write ``cfg`` as a config file for ``nls2d converge`` (default mu, eps,
    target_l2 and cache_dir)."""
    path.write_text("\n".join([
        f"s_values = {', '.join(map(repr, cfg.s_values))}",
        f"tau_list = {', '.join(map(repr, cfg.tau_list))}",
        f"T = {cfg.t_final!r}",
        f"grid_reference = {cfg.grid_reference}",
        f"tau_reference = {cfg.tau_reference!r}",
        f"seeds = {', '.join(map(str, cfg.seeds))}",
        f"output_dir = {cfg.output_dir}",
        f"workers = {cfg.workers}",
    ]) + "\n")
    return path


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


class TestSharedCache:
    """Processes sharing one cache directory, and entries of the older two-file layout."""

    REFERENCE = ["-m", "nls2d", "reference", "--s", "1.0", "--seed", "5", "--K", "16",
                 "--tau-ref", "2^-12", "--T", "0.25", "--cache"]

    @staticmethod
    def _env() -> dict[str, str]:
        src = str(Path(__file__).resolve().parent.parent / "src")
        return {**os.environ,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def test_racing_misses_leave_one_entry(self, tmp_path):
        """Two processes that miss one key at about the same time both succeed and leave
        one whole entry, which a third process then hits."""
        cmd = [sys.executable, *self.REFERENCE, str(tmp_path)]
        procs = [subprocess.Popen(cmd, env=self._env(), stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True) for _ in range(2)]
        try:
            outputs = [p.communicate(timeout=120) for p in procs]
        finally:
            for p in procs:
                p.kill()
        assert [p.returncode for p in procs] == [0, 0], outputs
        entries = list(tmp_path.iterdir())
        assert len(entries) == 1 and entries[0].suffix == ".entry", entries  # no *.tmp left
        before = entries[0].stat()
        third = subprocess.run(cmd, env=self._env(), capture_output=True, text=True, timeout=120)
        assert third.returncode == 0, third.stderr
        assert third.stderr == ""  # no warning
        assert str(entries[0]) in third.stdout
        after = entries[0].stat()
        # a hit writes nothing: the entry keeps its inode and its mtime
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_old_two_file_entry_is_a_silent_miss(self, tmp_path, monkeypatch, caplog):
        """A ``ref_*.nls2`` payload with its ``ref_*.json`` key file is ignored, not warned about."""
        datum = TestReference.DATUM
        key = harness._reference_key(datum, 2.0**-6, 0.25, -1)
        want, _ = compute_reference(datum, 2.0**-6, 0.25)
        old = reference_cache_path(tmp_path, key).with_suffix(".nls2")
        snapshot.save_field(want, old)
        meta = {"key": key, "payload_sha256": hashlib.sha256(old.read_bytes()).hexdigest()}
        old.with_suffix(".json").write_text(json.dumps(meta, indent=2))
        calls = []
        real = harness.evolve
        monkeypatch.setattr(harness, "evolve", lambda *a, **k: calls.append(1) or real(*a, **k))
        with caplog.at_level(logging.WARNING, logger="nls2d.harness"):
            got, path = compute_reference(datum, 2.0**-6, 0.25, cache_dir=tmp_path)
        assert caplog.records == []
        assert calls == [1]
        assert np.array_equal(got, want)
        assert sorted(tmp_path.iterdir()) == sorted([old, old.with_suffix(".json"), path])


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
        with open(cfg.output_dir / "plot_s2.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["log2_theta", "log2_median_error"]
        x, y = np.array(rows, dtype=np.float64).T
        assert fit_xy(x, y) == fit_order(records)

    def test_full_resume_recomputes_nothing(self, mini_study, monkeypatch):
        cfg, records = mini_study
        monkeypatch.setattr(harness, "evolve",
                            lambda *a, **k: pytest.fail("resume must not re-evolve"))
        monkeypatch.setattr(harness, "generate",
                            lambda *a, **k: pytest.fail("resume must not regenerate data"))
        out = cfg.output_dir
        names = ["records.csv", "study.json", *sorted(p.name for p in out.glob("plot_s*.csv"))]
        assert names[2:] == ["plot_s2.csv"]
        inodes = {name: (out / name).stat().st_ino for name in names}
        assert run_study(cfg) == records
        assert {name: (out / name).stat().st_ino for name in names} == inodes

    def test_deleted_plot_file_written_back(self, mini_study, monkeypatch):
        """A full resume writes a missing plot file back, and nothing else."""
        cfg, records = mini_study
        monkeypatch.setattr(harness, "evolve",
                            lambda *a, **k: pytest.fail("resume must not re-evolve"))
        out = cfg.output_dir
        plot = out / "plot_s2.csv"
        want = plot.read_bytes()
        inodes = {name: (out / name).stat().st_ino for name in ("records.csv", "study.json")}
        plot.unlink()
        assert run_study(cfg) == records
        assert plot.read_bytes() == want
        assert {name: (out / name).stat().st_ino for name in inodes} == inodes

    def test_partial_resume_fills_only_gaps(self, mini_study, monkeypatch):
        cfg, records = mini_study
        gap = (2.0, 2.0**-5, 2)
        gapped = [r for r in records if r.key != gap]
        harness._write_records(gapped, cfg.output_dir / "records.csv")
        harness._write_plots(gapped, cfg.output_dir)
        plot = cfg.output_dir / "plot_s2.csv"
        inode = plot.stat().st_ino
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
        assert plot.stat().st_ino != inode  # the gap's row changed the plot, so it is rewritten

    def test_truncated_records_refused(self, mini_study, tmp_path, monkeypatch, capsys):
        """A records.csv cut short by hand, or with a row that does not parse, is
        refused with its path before anything runs or is written, by run_study
        and by ``nls2d converge`` (exit 2)."""
        cfg, _ = mini_study
        out = tmp_path / "copy"
        shutil.copytree(cfg.output_dir, out)
        copy = replace(cfg, output_dir=out)
        config = write_config(tmp_path / "copy.cfg", copy)
        path = out / "records.csv"
        text = path.read_bytes()
        last_row = text.rstrip(b"\r\n").rfind(b"\n") + 1
        last_field = text.rfind(b",") + 1
        cut_short = f"{path}: last row is cut short"
        cases = [
            (text[: last_row + 10], cut_short),  # fields missing
            (text[:-6], cut_short),  # inside wall_time: would read as a shorter number
            (text[:last_field], cut_short),  # wall_time empty
            (text[: last_row + 10] + b"\r\n", f"{path}: malformed row"),
            (text[:last_field] + b"\r\n",
             f"{path}: malformed row {text[last_row:last_field].decode().split(',')}: "
             "could not convert string to float: ''"),
        ]
        monkeypatch.setattr(harness, "evolve", lambda *a, **k: pytest.fail("nothing may run"))
        monkeypatch.setattr(harness, "generate", lambda *a, **k: pytest.fail("nothing may run"))

        def state():
            return {p: (p.stat().st_ino, p.read_bytes()) for p in out.rglob("*")
                    if p.is_file()}

        for data, message in cases:
            path.write_bytes(data)
            before = state()
            with pytest.raises(ValueError, match=re.escape(message)):
                run_study(copy)
            assert state() == before
            assert main(["converge", "--config", str(config)]) == EXIT_INVALID
            assert message in capsys.readouterr().err
            assert state() == before

    def test_resume_refuses_another_recipe(self, mini_study, tmp_path, monkeypatch):
        """Rows resume only under the recipe recorded in study.json, and a
        refused resume leaves records.csv as it was."""
        cfg, records = mini_study
        out = tmp_path / "copy"
        shutil.copytree(cfg.output_dir, out)
        copy = replace(cfg, output_dir=out)  # the copied cache holds the references
        path = out / "records.csv"
        before = path.read_bytes()
        with pytest.raises(ValueError, match=r"differing: T\)"):
            run_study(replace(copy, t_final=0.5))
        assert path.read_bytes() == before
        stacks = []
        real = harness.evolve
        monkeypatch.setattr(harness, "evolve",
                            lambda u0, p, **k: stacks.append(len(u0)) or real(u0, p, **k))
        resumed = run_study(replace(copy, tau_list=copy.tau_list + (2.0**-3,)))
        assert stacks == [2] and len(resumed) == len(records) + 2  # both seeds of the new tau
        before = path.read_bytes()
        (out / "study.json").unlink()
        with pytest.raises(ValueError, match="no study.json"):
            run_study(copy)
        assert path.read_bytes() == before

    def test_interrupted_sweep_keeps_finished_rows(self, tmp_path, monkeypatch):
        """A stack that raises loses only its own rows; the rerun redoes it alone."""
        cfg = StudyConfig(s_values=(1.0,), tau_list=(2.0**-4, 2.0**-5, 2.0**-6), t_final=0.25,
                          grid_reference=64, tau_reference=2.0**-10, seeds=(1, 2),
                          output_dir=tmp_path, workers=1)
        real = harness.evolve

        def fails_at_12(u0, p, **k):
            if u0.shape[-1] == 12:
                raise OSError("killed")
            return real(u0, p, **k)

        monkeypatch.setattr(harness, "evolve", fails_at_12)
        with pytest.raises(OSError, match="killed"):
            run_study(cfg)
        kept = read_records(tmp_path / "records.csv")
        assert sorted(r.key for r in kept) == [
            (1.0, tau, seed) for tau in (2.0**-6, 2.0**-4) for seed in (1, 2)]
        stacks = []
        monkeypatch.setattr(harness, "evolve",
                            lambda u0, p, **k: stacks.append(u0.shape[-1]) or real(u0, p, **k))
        assert len(run_study(cfg)) == 6
        assert stacks == [12]

    def test_stale_plot_of_another_s_repaired(self, tmp_path, monkeypatch):
        """A plot file left behind by a run that failed after its s gained a
        row is rewritten by a rerun that runs no stack of that s."""
        cfg = StudyConfig(s_values=(1.0, 2.0), tau_list=(2.0**-4, 2.0**-5, 2.0**-6),
                          t_final=0.25, grid_reference=64, tau_reference=2.0**-10,
                          seeds=(1,), output_dir=tmp_path / "study", workers=1)
        run_study(cfg)
        wider = replace(cfg, tau_list=cfg.tau_list + (2.0**-3,))
        n_new = grid_for_tau(2.0**-3)
        s2_datum = restrict(generate(cfg.datum_spec(2.0, 1)), n_new)
        real = harness.evolve

        def s2_killed(u0, p, **k):
            if u0.shape[-1] == n_new and np.array_equal(u0[0], s2_datum):
                raise OSError("killed")
            return real(u0, p, **k)

        monkeypatch.setattr(harness, "evolve", s2_killed)
        with pytest.raises(OSError, match="killed"):
            run_study(wider)  # (1, 2^-3) finished, (2, 2^-3) did not
        monkeypatch.setattr(harness, "evolve", real)
        assert len(run_study(wider)) == 8
        fresh = replace(wider, output_dir=tmp_path / "fresh", cache_dir=cfg.resolved_cache_dir)
        run_study(fresh)  # the same study, never interrupted
        for s in ("1", "2"):
            name = f"plot_s{s}.csv"
            assert (cfg.output_dir / name).read_bytes() == (fresh.output_dir / name).read_bytes()

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
            final = evolve_field(u0, SchemeParams(rec.tau, cfg.mu, cfg.t_final))
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
            '  "scheme": 3,\n'
            '  "T": "0x1.0000000000000p-2",\n'
            '  "grid_reference": 64,\n'
            '  "tau_reference": "0x1.0000000000000p-10",\n'
            '  "mu": -1,\n'
            '  "eps": "0x1.47ae147ae147bp-7",\n'
            '  "target_l2": "0x1.999999999999ap-4"\n'
            '}\n'
        )

    def test_alternate_reference_is_a_second_config(self, mini_study, tmp_path):
        """A weaker reference is the same study with grid_reference, tau_reference
        and output_dir changed, run by ``nls2d converge``; the first study is untouched."""
        cfg, _ = mini_study
        first = [cfg.output_dir / name for name in ("records.csv", "study.json", "plot_s2.csv")]
        first += sorted(cfg.resolved_cache_dir.iterdir())
        state = [(p.stat().st_ino, p.read_bytes()) for p in first]
        alt = replace(cfg, grid_reference=32, tau_reference=2.0**-10,
                      output_dir=tmp_path / "alt")
        assert main(["converge", "--config", str(write_config(tmp_path / "alt.cfg", alt))]) \
            == EXIT_OK
        want = run_study(replace(alt, output_dir=tmp_path / "direct"))
        got = read_records(alt.output_dir / "records.csv")
        assert [replace(r, wall_time=0.0) for r in got] == [
            replace(r, wall_time=0.0) for r in want]
        assert [(p.stat().st_ino, p.read_bytes()) for p in first] == state


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
        """records.csv holds its rows sorted by key, and read_records returns them."""
        recs = TestFitting.synthetic(0.5)
        path = tmp_path / "records.csv"
        harness._write_records(reversed(recs), path)
        assert read_records(path) == sorted(recs, key=lambda r: r.key)

    def test_export_empty_table(self, tmp_path):
        """An empty table is written as the header alone and reads back as []."""
        path = tmp_path / "records.csv"
        harness._write_records([], path)
        assert path.read_text().strip() == ",".join(RECORD_COLUMNS)
        assert read_records(path) == []

    def test_failed_records_write_keeps_previous_file(self, mini_study, tmp_path, monkeypatch):
        """A records.csv write that dies part way leaves every file of the study
        as it was, and no temp file."""
        cfg, records = mini_study
        out = tmp_path / "copy"
        shutil.copytree(cfg.output_dir, out)
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        real, rows = harness._record_row, []

        def dies_halfway(rec):
            if len(rows) == len(records) // 2:
                raise OSError("disk full")
            rows.append(rec)
            return real(rec)

        monkeypatch.setattr(harness, "_record_row", dies_halfway)
        with pytest.raises(OSError, match="disk full"):
            run_study(replace(cfg, output_dir=out, tau_list=cfg.tau_list + (2.0**-3,)))
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

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
