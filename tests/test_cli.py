"""Tests for the command-line front end (exit codes and artifacts)."""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nls2d.bourgain as bourgain
import nls2d.harness as harness
from nls2d.cli import EXIT_BLOWUP, EXIT_INVALID, EXIT_IO, EXIT_OK, main
from nls2d.roughdata import RoughDataSpec, generate
from nls2d.snapshot import load_field, save_field
from nls2d.spectral import l2_norm
from nls2d.splitting import SchemeParams, evolve

from oracles import plane_wave, plane_wave_solution

# probes.csv, one ensemble per estimate, since the fixed-order L2 sum; it must not change.
PROBES_GOLDEN = Path(__file__).parent / "data" / "probes_golden.csv"
# sha256 of probes.csv from the benchmark-scale sweep of TestDiagnose (600 rows, N = 16, M = 16),
# as written by the code before the L4 sums moved to the FFT-ordered grid.
PROBES_100_SHA256 = "38b86856f084888e285133c750c2a3572f1a3d49499d60a95b1e0e570cc7c96b"


class TestGenerate:
    def test_writes_loadable_snapshot(self, tmp_path, capsys):
        out = tmp_path / "datum.nls2"
        code = main(["generate", "--s", "1.0", "--seed", "7", "--grid", "16",
                     "--out", str(out)])
        assert code == EXIT_OK
        field = load_field(out)
        assert field.shape == (16, 16)
        assert np.array_equal(field, generate(RoughDataSpec(s=1.0, seed=7, n_modes=16)))
        assert "wrote" in capsys.readouterr().out

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--s", "-1.0", "--seed", "7", "--grid", "16",
                     "--out", str(tmp_path / "x.nls2")])
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_exits_4(self, tmp_path):
        out = tmp_path / "no_such_dir" / "x.nls2"
        code = main(["generate", "--s", "1.0", "--seed", "7", "--grid", "16",
                     "--out", str(out)])
        assert code == EXIT_IO


class TestRun:
    def test_plane_wave_from_snapshot(self, tmp_path):
        wave = plane_wave(16, 0.1, (1, 2))
        datum = tmp_path / "wave.nls2"
        save_field(wave, datum)
        out = tmp_path / "final.nls2"
        code = main(["run", "--in", str(datum), "--tau", "2^-6", "--T", "0.25",
                     "--out", str(out)])
        assert code == EXIT_OK
        got = load_field(out)
        want = plane_wave_solution(0.1, (1, 2), -1, 0.25)
        assert abs(got[8 + 1, 8 + 2] - want) <= 1e-12

    def test_generated_datum_and_snapshots(self, tmp_path):
        out = tmp_path / "final.nls2"
        snaps = tmp_path / "traj"
        code = main(["run", "--s", "1.0", "--seed", "3", "--tau", "2^-4",
                     "--grid", "8", "--T", "0.25", "--out", str(out),
                     "--snapshots", str(snaps), "--snapshot-every", "2"])
        assert code == EXIT_OK
        names = sorted(p.name for p in snaps.glob("*.nls2"))
        assert names == ["run_0.nls2", "run_2.nls2", "run_4.nls2"]
        assert np.array_equal(load_field(snaps / "run_4.nls2"), load_field(out))

    def test_theta_override(self, tmp_path, capsys):
        """--theta-override replaces the default filter, bit for bit as in evolve."""
        u0 = generate(RoughDataSpec(s=1.0, seed=7, n_modes=16))
        datum = tmp_path / "datum.nls2"
        save_field(u0, datum)
        out = tmp_path / "final.nls2"
        code = main(["run", "--in", str(datum), "--tau", "2^-6", "--T", "0.25",
                     "--theta-override", "2^-3", "--out", str(out)])
        assert code == EXIT_OK
        want, _ = evolve(u0, SchemeParams(tau=2.0**-6, mu=-1, t_final=0.25, theta=0.125))
        assert np.array_equal(load_field(out), want)
        assert not np.array_equal(want, evolve(u0, SchemeParams(2.0**-6, -1, 0.25))[0])
        assert "theta=0.125," in capsys.readouterr().out

    def test_grid_beside_in_exits_2(self, tmp_path, capsys):
        """The datum's lattice is the run's: argparse refuses --grid beside --in."""
        datum = tmp_path / "wave.nls2"
        save_field(plane_wave(8, 0.1, (1, 0)), datum)
        out = tmp_path / "o.nls2"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--in", str(datum), "--tau", "2^-4", "--grid", "8",
                  "--T", "0.25", "--out", str(out)])
        assert exc.value.code == EXIT_INVALID
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--s", "2.0"), ("--seed", "99"),
                                             ("--eps", "0.1"), ("--target-l2", "5")])
    def test_datum_flag_beside_in_exits_2(self, tmp_path, capsys, flag, value):
        """The snapshot is the datum: a datum flag beside --in is refused by name."""
        datum = tmp_path / "wave.nls2"
        save_field(plane_wave(8, 0.1, (1, 0)), datum)
        out = tmp_path / "o.nls2"
        code = main(["run", "--in", str(datum), flag, value, "--tau", "2^-4",
                     "--T", "0.25", "--out", str(out)])
        assert code == EXIT_INVALID
        assert f"error: {flag} is not allowed with --in" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [datum]

    def test_missing_datum_choice_exits_2(self, tmp_path, capsys):
        for datum in (["--grid", "16"], ["--s", "1.0", "--seed", "7"]):
            code = main(["run", *datum, "--tau", "2^-4", "--T", "0.25",
                         "--out", str(tmp_path / "o.nls2")])
            assert code == EXIT_INVALID
            assert "all of --s, --seed and --grid" in capsys.readouterr().err

    def test_missing_input_file_exits_4(self, tmp_path):
        code = main(["run", "--in", str(tmp_path / "absent.nls2"), "--tau", "2^-4",
                     "--T", "0.25", "--out", str(tmp_path / "o.nls2")])
        assert code == EXIT_IO

    def test_blowup_exits_3(self, tmp_path, capsys):
        # amplitude large enough that |v|^2 overflows in the phase factor
        datum = tmp_path / "huge.nls2"
        save_field(plane_wave(8, 1e200, (0, 0)), datum)
        with np.errstate(all="ignore"):
            code = main(["run", "--in", str(datum), "--tau", "2^-4", "--T", "0.25",
                         "--mu", "1", "--out", str(tmp_path / "o.nls2")])
        assert code == EXIT_BLOWUP
        assert "non-finite solver state" in capsys.readouterr().err


class TestReference:
    def test_builds_and_reports_cache_path(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code = main(["reference", "--s", "1.0", "--seed", "2", "--K", "16",
                     "--tau-ref", "2^-6", "--T", "0.25", "--cache", str(cache)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "reference cached at" in out
        cached = list(cache.glob("ref_*.entry"))
        assert len(cached) == 1
        assert str(cached[0]) in out

    def test_converge_reuses_cli_reference(self, tmp_path, monkeypatch):
        """References built by ``nls2d reference`` are cache hits for ``converge``."""
        cache = tmp_path / "cache"
        for seed in ("1", "2"):
            assert main(["reference", "--s", "2.0", "--seed", seed, "--K", "32",
                         "--tau-ref", "2^-10", "--T", "0.25", "--cache", str(cache)]) == EXIT_OK
        stacks = []
        real = harness.evolve
        monkeypatch.setattr(
            harness, "evolve",
            lambda u0, p, **k: stacks.append((u0.shape[-1], len(u0))) or real(u0, p, **k))
        cfg = tmp_path / "study.cfg"
        cfg.write_text(TestConverge.CONFIG.format(out=tmp_path / "out", cache=cache))
        assert main(["converge", "--config", str(cfg)]) == EXIT_OK
        # one stack of both seeds per tau, and no reference solve on K = 32
        assert sorted(stacks) == [(8, 2), (12, 2), (16, 2)]


class TestConverge:
    CONFIG = """\
s_values = 2.0
tau_list = 2^-4, 2^-5, 2^-6
T = 0.25
grid_reference = 32
tau_reference = 2^-10
seeds = 1, 2
output_dir = {out}
cache_dir = {cache}
workers = 2
"""

    def test_study_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG.format(out=tmp_path / "out", cache=tmp_path / "cache"))
        code = main(["converge", "--config", str(cfg)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "6 records" in out
        assert "s=2: slope=" in out
        assert (tmp_path / "out" / "records.csv").exists()
        assert (tmp_path / "out" / "plot_s2.csv").exists()
        # one file per (s, seed) reference, and nothing beside them
        cached = sorted(p.name for p in (tmp_path / "cache").iterdir())
        assert len(cached) == 2 and all(n.startswith("ref_") and n.endswith(".entry")
                                        for n in cached)

    def test_out_override(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG.format(out=tmp_path / "ignored", cache=tmp_path / "cache"))
        out_dir = tmp_path / "actual"
        assert main(["converge", "--config", str(cfg), "--out", str(out_dir)]) == EXIT_OK
        assert (out_dir / "records.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_nan_smoothness_exits_2_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG.format(out=tmp_path / "out", cache=tmp_path / "cache")
                       .replace("s_values = 2.0", "s_values = 1.0, nan"))
        assert main(["converge", "--config", str(cfg)]) == EXIT_INVALID
        assert "s must be > 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "out" / "study.json").exists()

    def test_shared_plot_file_exits_2_before_writing(self, tmp_path, capsys):
        """Two s values with one plot_s{s:g}.csv name are refused; nothing is written."""
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG.format(out=tmp_path / "out", cache=tmp_path / "cache")
                       .replace("s_values = 2.0", "s_values = 0.5000001, 0.5000002"))
        assert main(["converge", "--config", str(cfg)]) == EXIT_INVALID
        assert "share the plot file plot_s0.5.csv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["converge", "--config", str(cfg)]) == EXIT_INVALID

    def test_missing_config_exits_4(self, tmp_path):
        assert main(["converge", "--config", str(tmp_path / "absent.cfg")]) == EXIT_IO


class TestDiagnose:
    def test_writes_report(self, tmp_path, capsys):
        out = tmp_path / "probes.csv"
        code = main(["diagnose", "--estimate", "embedding_inf_Hs", "--tau", "2^-4",
                     "--tau", "2^-5", "--trajectories", "4", "--window", "4",
                     "--grid", "8", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "estimate_id,tau,seed,lhs,rhs,ratio"
        assert len(lines) == 1 + 2 * 4
        assert capsys.readouterr().out.count("max_ratio=") == 2

    def test_rewrites_golden_report(self, tmp_path, capsys):
        """The report of a fixed sweep is byte-stable."""
        out = tmp_path / "probes.csv"
        code = main(["diagnose", "--tau", "2^-4", "--tau", "2^-8", "--trajectories", "6",
                     "--window", "8", "--grid", "8", "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_bytes() == PROBES_GOLDEN.read_bytes()
        assert capsys.readouterr().out.splitlines()[:-1] == [
            "embedding_inf_Hs tau=0.0625: max_ratio=0.653025 over 6 trajectories",
            "embedding_inf_Hs tau=0.00390625: max_ratio=0.86493 over 6 trajectories",
            "strichartz_l4 tau=0.0625: max_ratio=0.251771 over 6 trajectories",
            "strichartz_l4 tau=0.00390625: max_ratio=0.278814 over 6 trajectories",
        ]

    def test_benchmark_scale_report_digest(self, tmp_path):
        """The benchmark's sweep (3 steps, 100 trajectories) writes the same bytes."""
        out = tmp_path / "probes.csv"
        code = main(["diagnose", "--tau", "2^-4", "--tau", "2^-6", "--tau", "2^-8",
                     "--trajectories", "100", "--seed", "100", "--out", str(out)])
        assert code == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PROBES_100_SHA256

    def test_single_estimate_writes_only_its_rows(self, tmp_path):
        out = tmp_path / "probes.csv"
        code = main(["diagnose", "--estimate", "strichartz_l4", "--tau", "2^-4", "--tau", "2^-8",
                     "--trajectories", "6", "--window", "8", "--grid", "8", "--seed", "3",
                     "--out", str(out)])
        assert code == EXIT_OK
        golden = PROBES_GOLDEN.read_text().splitlines()
        want = [golden[0], *(line for line in golden[1:] if line.startswith("strichartz_l4,"))]
        assert out.read_text().splitlines() == want

    def test_bad_b_exits_2(self, tmp_path):
        code = main(["diagnose", "--estimate", "all", "--tau", "2^-4",
                     "--trajectories", "2", "--window", "4", "--grid", "8",
                     "--b", "0.4", "--out", str(tmp_path / "p.csv")])
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("second, named",
                             [("2^-4", "0.0625"), ("0", "0.0"), ("-0.125", "-0.125"),
                              ("-2^-3", "-0.125")])
    def test_bad_tau_list_exits_2_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                  second, named):
        def no_draw(*args, **kwargs):
            raise AssertionError("an ensemble was drawn")

        monkeypatch.setattr(bourgain, "generate", no_draw)
        monkeypatch.setattr(bourgain, "generate_stack", no_draw)
        out = tmp_path / "probes.csv"
        code = main(["diagnose", "--tau", "2^-4", f"--tau={second}", "--trajectories", "4",
                     "--out", str(out)])
        assert code == EXIT_INVALID
        assert f"tau {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("taus", [
        # at grid 16 the theta-window of 2^-4 is smaller; those of 2^-6 and 2^-8 coincide
        ("2^-4", "2^-6", "2^-8"),
        # five steps of 16 snapshots: 73 distinct free phases, more than the 64
        # that the free_phase cache holds; 0.1 and 0.07 share one window
        ("2^-8", "0.3", "2^-4", "0.1", "0.07"),
    ])
    def test_sweep_equals_one_tau_sweeps(self, tmp_path, taus):
        """A sweep writes, estimate by estimate, the rows of its one-step sweeps."""
        def report(estimate, steps, name):
            out = tmp_path / name
            argv = ["diagnose", "--estimate", estimate, "--trajectories", "5",
                    "--seed", "-2", "--out", str(out)]
            for tau in steps:
                argv += ["--tau", tau]
            assert main(argv) == EXIT_OK
            return out.read_text().splitlines()

        for estimate in ("all", "embedding_inf_Hs", "strichartz_l4"):
            sweep = report(estimate, taus, "sweep.csv")
            singles = [report(estimate, [tau], f"{k}.csv")[1:] for k, tau in enumerate(taus)]
            want = [sweep[0]]
            for estimate_id in ("embedding_inf_Hs", "strichartz_l4"):
                for rows in singles:
                    want += [r for r in rows if r.startswith(estimate_id + ",")]
            assert sweep == want
            assert len(sweep) == 1 + 5 * len(taus) * (2 if estimate == "all" else 1)


class TestFit:
    def test_prints_slope(self, tmp_path, capsys):
        rows = ["s,tau,N,theta,seed,l2_error,wall_time"]
        for theta in (2.0**-6, 2.0**-5, 2.0**-4):
            for seed in (1, 2):
                rows.append(f"1.0,{theta!r},8,{theta!r},{seed},{0.5 * theta!r},0.0")
        records = tmp_path / "records.csv"
        records.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--records", str(records)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "slope=1.0" in out
        assert "points=3" in out

    def test_missing_records_exits_4(self, tmp_path):
        assert main(["fit", "--records", str(tmp_path / "absent.csv")]) == EXIT_IO


def test_console_entry_smoke(tmp_path):
    """The installed entry point works as a subprocess."""
    out = tmp_path / "datum.nls2"
    proc = subprocess.run(
        [sys.executable, "-m", "nls2d", "generate", "--s", "1.0", "--seed", "1",
         "--grid", "8", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert load_field(out).shape == (8, 8)
    assert l2_norm(load_field(out)) == pytest.approx(0.1, rel=1e-12)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
