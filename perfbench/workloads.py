"""The benchmark's workloads: set-up, one timed repetition, output checks.

Every workload drives nls2d only through ``nls2d.cli.main`` (looked up on
the module at call time, so the tracer's wrapper is seen) and reads the
files the command writes with the standard library, independently of the
package's own parsers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import statistics
import time
from pathlib import Path

# Threads of the study's pool.  study_cold uses WORKERS; study_warm fills its
# cache with WORKERS but times its repetitions with one worker: its sweep is
# Python-bound work at N <= 64, so two threads mostly take turns holding the
# GIL, and on a shared 2-vCPU host their wall time spread up to 0.27 of its
# median from run to run, past the benchmark's bound.
WORKERS = 2
WARM_WORKERS = 1
PINNED_SEED = 1
# Relative tolerance for the pinned values.  Computing the nonlinear phase
# with cos/sin instead of exp moves the seed-1 records by 3e-15 relative;
# flipping the sign of the nonlinearity moves them by 8e-7 (see README.md).
PINNED_RTOL = 1e-9
SLOPE_BAND = (0.35, 0.65)

STUDY_TAUS = ("2^-10", "2^-9", "2^-8", "2^-7", "2^-6")
STUDY_GRIDS = {2.0**-10: 64, 2.0**-9: 46, 2.0**-8: 32, 2.0**-7: 22, 2.0**-6: 16}
RECORD_HEADER = ["s", "tau", "N", "theta", "seed", "l2_error", "wall_time"]

PROBE_TAUS = ("2^-4", "2^-6", "2^-8")
PROBE_TAU_VALUES = (2.0**-4, 2.0**-6, 2.0**-8)
PROBE_ESTIMATES = ("embedding_inf_Hs", "strichartz_l4")
TRAJECTORIES = 100
PROBE_HEADER = ["estimate_id", "tau", "seed", "lhs", "rhs", "ratio"]

PINNED = json.loads((Path(__file__).resolve().parent / "pinned.json").read_text())


class CheckFailed(Exception):
    """An output of the program is wrong."""


def study_seeds(seed: int) -> tuple[int, int]:
    """The two datum seeds of a study, derived from the workload seed."""
    return (2 * seed + 1, 2 * seed + 2)


def probe_seed(seed: int) -> int:
    """First ensemble seed of the probe sweep; ensembles of 100 never overlap."""
    return 100 * seed


def _close(value: float, pinned: float) -> bool:
    return abs(value - pinned) <= PINNED_RTOL * abs(pinned)


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path.name}: header {rows[:1]} is not {header}")
    return rows[1:]


class Workload:
    """One workload: ``prepare`` is a set-up pass, ``run`` one timed repetition."""

    workers = 1  # threads of the program in a timed repetition

    def __init__(self, cli, workdir: Path, seed: int):
        self.cli = cli
        self.workdir = workdir
        self.seed = seed
        self.expected = None  # outputs of the first checked repetition
        workdir.mkdir(parents=True)

    def command(self, out: Path) -> list[str]:
        raise NotImplementedError

    def outputs(self, out: Path):
        raise NotImplementedError

    def prepare(self, k: int) -> None:
        """One set-up pass: its inputs, then an untimed warm-up repetition."""
        _, out = self.run(f"warmup{k}")
        self.check(out)
        shutil.rmtree(out, ignore_errors=True)

    def run(self, tag) -> tuple[float, Path]:
        out = self.workdir / f"out-{tag}"
        out.mkdir()
        argv = self.command(out)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            raise CheckFailed(f"nls2d {argv[0]} exited with {code}: {sink.getvalue()[-500:]}")
        return elapsed, out

    def check(self, out: Path) -> None:
        """Raise CheckFailed unless the outputs are right.

        Seed-independent checks always run; the first repetition's outputs
        are then the expected ones, and every later repetition must
        reproduce them within ``PINNED_RTOL``.  (Not bit for bit: repeated
        studies in one process differ in the last bits now and then.)  For
        the pinned seed the first outputs are also compared with
        ``pinned.json``.
        """
        got = self.outputs(out)
        if self.expected is None:
            if self.seed == PINNED_SEED:
                self.check_pinned(got)
            self.expected = got
            return
        for key, want in self.expected.items():
            # outputs() already fixed the keys and the number of values
            pairs = zip(got[key], want) if isinstance(want, list) else [(got[key], want)]
            if not all(_close(a, b) for a, b in pairs):
                raise CheckFailed(f"{key}: outputs differ from the first repetition's")


class Study(Workload):
    """``nls2d converge`` at s = 1 on five coarse steps, two seeds, K = 256.

    Cold: every repetition gets a fresh output dir and so an empty
    reference cache.  Warm: the config names a cache dir that each set-up
    pass fills (with ``WORKERS`` threads); repetitions only read it and run
    with ``WARM_WORKERS``.
    """

    def __init__(self, cli, workdir: Path, seed: int, warm: bool):
        super().__init__(cli, workdir, seed)
        self.warm = warm
        self.workers = WARM_WORKERS if warm else WORKERS
        self.config = workdir / "study.cfg"

    def _write_config(self, cache: Path | None, workers: int) -> None:
        lines = [
            "s_values = 1.0",
            "tau_list = " + ", ".join(STUDY_TAUS),
            "T = 2^-4",
            "grid_reference = 256",
            "tau_reference = 2^-14",
            "seeds = " + ", ".join(str(x) for x in study_seeds(self.seed)),
            f"output_dir = {self.workdir / 'unused'}",  # required; every run passes --out
            f"workers = {workers}",
        ]
        if cache is not None:
            lines.append(f"cache_dir = {cache}")
        self.config.write_text("\n".join(lines) + "\n")

    def prepare(self, k: int) -> None:
        if self.warm:
            cache = self.workdir / f"cache{k}"
            self._write_config(cache, WORKERS)
            _, out = self.run(f"fill{k}")
            self.check(out)
            shutil.rmtree(out, ignore_errors=True)
            self._write_config(cache, self.workers)
        else:
            self._write_config(None, self.workers)
        super().prepare(k)

    def command(self, out: Path) -> list[str]:
        return ["converge", "--config", str(self.config), "--out", str(out)]

    def outputs(self, out: Path) -> dict[str, float]:
        rows = _read_csv(out / "records.csv", RECORD_HEADER)
        errors: dict[str, float] = {}
        for s, tau, n, _theta, seed, err, _wall in rows:
            tau_v, err_v = float(tau), float(err)
            if float(s) != 1.0 or STUDY_GRIDS.get(tau_v) != int(n):
                raise CheckFailed(f"unexpected record s={s} tau={tau} N={n}")
            if not (math.isfinite(err_v) and err_v > 0.0):
                raise CheckFailed(f"non-finite or zero error {err} at tau={tau} seed={seed}")
            errors[f"{tau}|{seed}"] = err_v
        want = {f"{t!r}|{x}" for t in STUDY_GRIDS for x in study_seeds(self.seed)}
        if set(errors) != want:
            raise CheckFailed(f"records cover {sorted(errors)}, expected {sorted(want)}")
        slope = _fitted_slope(errors)
        if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
            raise CheckFailed(f"s=1 slope {slope:.4f} outside {SLOPE_BAND}")
        if not (out / "plot_s1.csv").is_file():
            raise CheckFailed("plot_s1.csv missing")
        return errors

    def check_pinned(self, errors: dict[str, float]) -> None:
        pinned = PINNED["study"]
        for key, value in errors.items():
            if not _close(value, pinned[key]):
                raise CheckFailed(f"record {key}: {value!r} vs pinned {pinned[key]!r}")


def _fitted_slope(errors: dict[str, float]) -> float:
    """Least-squares slope of log2(median error over seeds) against log2(theta)."""
    by_tau: dict[float, list[float]] = {}
    for key, err in errors.items():
        by_tau.setdefault(float(key.split("|")[0]), []).append(err)
    x, y = [], []
    for tau, errs in sorted(by_tau.items()):
        n = STUDY_GRIDS[tau]
        x.append(math.log2(max(tau, 4.0 / (n * n))))
        y.append(math.log2(statistics.median(errs)))
    # Closed form in plain Python: a LAPACK call (np.polyfit) here changes
    # the last bits of later studies in the same process.
    xm, ym = statistics.fmean(x), statistics.fmean(y)
    return (sum((a - xm) * (b - ym) for a, b in zip(x, y))
            / sum((a - xm) ** 2 for a in x))


class Diagnose(Workload):
    """``nls2d diagnose`` for both estimates at three steps, 100 trajectories each."""

    def command(self, out: Path) -> list[str]:
        argv = ["diagnose", "--trajectories", str(TRAJECTORIES),
                "--seed", str(probe_seed(self.seed)), "--out", str(out / "probes.csv")]
        for tau in PROBE_TAUS:
            argv += ["--tau", tau]
        return argv

    def outputs(self, out: Path) -> dict[str, list[float]]:
        rows = _read_csv(out / "probes.csv", PROBE_HEADER)
        ratios: dict[str, list[float]] = {}
        seeds: dict[str, list[int]] = {}
        for estimate, tau, seed, lhs, rhs, ratio in rows:
            values = (float(lhs), float(rhs), float(ratio))
            if not all(math.isfinite(v) and v > 0.0 for v in values):
                raise CheckFailed(f"bad probe row {estimate} tau={tau} seed={seed}")
            key = f"{estimate}|{tau}"
            ratios.setdefault(key, []).append(values[2])
            seeds.setdefault(key, []).append(int(seed))
        first = probe_seed(self.seed)
        want = {f"{e}|{t!r}" for e in PROBE_ESTIMATES for t in PROBE_TAU_VALUES}
        if set(ratios) != want:
            raise CheckFailed(f"probe groups {sorted(ratios)}, expected {sorted(want)}")
        for key, group in seeds.items():
            if group != list(range(first, first + TRAJECTORIES)):
                raise CheckFailed(f"{key}: {len(group)} rows, expected seeds {first}.."
                                  f"{first + TRAJECTORIES - 1}")
        return ratios

    def check_pinned(self, ratios: dict[str, list[float]]) -> None:
        for key, pinned in PINNED["diagnose"].items():
            got = {"max": max(ratios[key]), "median": statistics.median(ratios[key])}
            for stat, value in got.items():
                if not _close(value, pinned[stat]):
                    raise CheckFailed(f"probe {key} {stat}: {value!r} vs pinned {pinned[stat]!r}")


def make(name: str, cli, workdir: Path, seed: int) -> Workload:
    if name == "study_cold":
        return Study(cli, workdir, seed, warm=False)
    if name == "study_warm":
        return Study(cli, workdir, seed, warm=True)
    if name == "diagnose":
        return Diagnose(cli, workdir, seed)
    raise ValueError(f"unknown workload {name!r}")
