"""Convergence-study harness: reference solutions, error sweeps, order fits.

A study couples the grid to the step through ``N(tau) = 2/sqrt(tau)``
rounded to the nearest even integer, so the filter parameter
``theta = max(tau, 4/N^2)`` tracks tau.  Each (s, seed) pair gets one
high-resolution datum and one cached reference solution; every coarse run
restricts that datum to the coarse lattice, projects it with its own filter
(lossless, because the filter width never exceeds the lattice), evolves,
and records the L2 distance to the reference at the final time.  The runs
of one (s, tau) evolve together, as one stack of their seeds.

Error comparison embeds the coarse field into the reference lattice by
zero padding, so the distance is the plain L2 norm of the coefficient
difference.  Fitted convergence orders are least-squares slopes of
log2(median error over seeds) against log2(theta).
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import snapshot
from .roughdata import RoughDataSpec, generate
from .spectral import SpectralField, project, restrict
from .splitting import (
    SCHEME_VERSION,
    SchemeParams,
    default_theta,
    evolve,
)

__all__ = [
    "StudyConfig",
    "CONFIG_KEYS",
    "ConvergenceRecord",
    "OrderFit",
    "grid_for_tau",
    "parse_dyadic",
    "parse_config_file",
    "compute_reference",
    "reference_cache_path",
    "l2_error",
    "coarse_datum",
    "run_study",
    "sensitivity_configs",
    "fit_order",
    "fit_xy",
    "median_curve",
    "export",
    "read_records",
    "read_plot_data",
    "RECORD_COLUMNS",
]

logger = logging.getLogger(__name__)

RECORD_COLUMNS = ("s", "tau", "N", "theta", "seed", "l2_error", "wall_time")


def grid_for_tau(tau: float) -> int:
    """Grid size for a step: 2/sqrt(tau) rounded to the nearest even integer."""
    if not (tau > 0.0) or not math.isfinite(tau):
        raise ValueError(f"tau must be a positive finite number, got {tau}")
    n = 2 * round(1.0 / math.sqrt(tau))
    if n < 2:
        raise ValueError(f"tau={tau} is too coarse for the grid coupling")
    return n


def parse_dyadic(text: str) -> float:
    """Parse a float, accepting signed dyadic powers written ``2^p`` or ``2**p``."""
    text = text.strip()
    sign, body = (-1.0, text[1:]) if text.startswith("-") else (1.0, text.removeprefix("+"))
    for sep in ("^", "**"):
        if body.startswith("2" + sep):
            return sign * math.ldexp(1.0, int(body[1 + len(sep):]))
    return float(text)


def _is_power_of_two(x: float) -> bool:
    if not (x > 0.0) or not math.isfinite(x):
        return False
    return math.frexp(x)[0] == 0.5


@dataclass(frozen=True)
class StudyConfig:
    """Everything one convergence study needs.

    Validation pins the couplings the sweep relies on: T > 0; every tau and
    the reference step are powers of two; the parameters of every coarse
    run and of the reference are valid :class:`~nls2d.splitting.SchemeParams`
    (so each step divides T, every lattice is even and mu is +1 or -1); the
    reference step is at least 16 times finer than the finest tau; and the
    reference lattice holds at least twice the largest coarse grid (4x is
    recommended and logged when not met), so every coarse field embeds
    losslessly.
    """

    s_values: tuple[float, ...]
    tau_list: tuple[float, ...]
    t_final: float
    grid_reference: int
    tau_reference: float
    seeds: tuple[int, ...]
    output_dir: Path
    mu: int = -1
    eps: float = 0.01
    target_l2: float = 0.1
    cache_dir: Path | None = None
    workers: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_values", tuple(float(s) for s in self.s_values))
        object.__setattr__(self, "tau_list", tuple(float(t) for t in self.tau_list))
        object.__setattr__(self, "seeds", tuple(int(x) for x in self.seeds))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))
        if not self.s_values or any(s <= 0.0 for s in self.s_values):
            raise ValueError("s_values must be a nonempty list of positive numbers")
        if len(set(self.s_values)) != len(self.s_values):
            raise ValueError("s_values contains duplicates")
        if not self.tau_list:
            raise ValueError("tau_list must be nonempty")
        if len(set(self.tau_list)) != len(self.tau_list):
            raise ValueError("tau_list contains duplicates")
        if not (self.t_final > 0.0):
            raise ValueError(f"T must be positive, got {self.t_final}")
        runs = [(tau, grid_for_tau(tau)) for tau in self.tau_list]
        for tau, n in [*runs, (self.tau_reference, self.grid_reference)]:
            if not _is_power_of_two(tau):
                raise ValueError(f"tau_list and tau_reference must be powers of two, got {tau}")
            SchemeParams(tau, n, self.mu, self.t_final)
        if self.tau_reference > min(self.tau_list) / 16.0:
            raise ValueError(
                f"reference tau {self.tau_reference} must be <= min(tau_list)/16 "
                f"= {min(self.tau_list) / 16.0}"
            )
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds contains duplicates")
        if not (self.eps > 0.0) or not (self.target_l2 > 0.0):
            raise ValueError("eps and target_l2 must be positive")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        max_n = max(n for _, n in runs)
        if self.grid_reference < 2 * max_n:
            raise ValueError(
                f"reference lattice {self.grid_reference} must be at least twice "
                f"the largest coarse grid {max_n}"
            )
        if self.grid_reference < 4 * max_n:
            logger.warning(
                "reference lattice %d is below the recommended 4x largest coarse grid %d",
                self.grid_reference, max_n,
            )

    @property
    def resolved_cache_dir(self) -> Path:
        return self.cache_dir if self.cache_dir is not None else self.output_dir / "cache"

    def datum_spec(self, s: float, seed: int) -> RoughDataSpec:
        return RoughDataSpec(s=s, seed=seed, n_modes=self.grid_reference,
                             eps=self.eps, target_l2=self.target_l2)


@dataclass(frozen=True)
class ConvergenceRecord:
    """One sweep row; a non-finite l2_error marks a failed (blown-up) run."""

    s: float
    tau: float
    n_modes: int
    theta: float
    seed: int
    l2_error: float
    wall_time: float

    @property
    def failed(self) -> bool:
        return not math.isfinite(self.l2_error)

    @property
    def key(self) -> tuple[float, float, int]:
        return (self.s, self.tau, self.seed)


@dataclass(frozen=True)
class OrderFit:
    """Least-squares line through (log2 theta, log2 median error)."""

    slope: float
    intercept: float
    residual: float
    n_points: int


# ---------------------------------------------------------------------------
# reference solutions


def _reference_key(u0: SpectralField, tau_ref: float, t_final: float, mu: int) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(u0.coeffs, dtype="<c16").tobytes()).hexdigest()
    return "|".join([
        f"scheme={SCHEME_VERSION}",
        f"n_modes={u0.n_modes}",
        f"tau_ref={float(tau_ref).hex()}",
        f"T={float(t_final).hex()}",
        f"mu={mu}",
        f"datum={digest}",
    ])


def reference_cache_path(cache_dir: str | Path, key: str) -> Path:
    digest = hashlib.sha256(key.encode()).hexdigest()
    return Path(cache_dir) / f"ref_{digest[:32]}.nls2"


def _try_load_reference(path: Path, key: str) -> SpectralField | None:
    meta_path = path.with_suffix(".json")
    if not path.exists() or not meta_path.exists():
        return None
    try:
        meta = json.loads(meta_path.read_text())
        if meta.get("key") != key:
            logger.warning("reference cache %s keyed to a different run; recomputing", path)
            return None
        payload_sha = hashlib.sha256(path.read_bytes()).hexdigest()
        if payload_sha != meta.get("payload_sha256"):
            logger.warning("reference cache %s is corrupt (hash mismatch); recomputing", path)
            return None
        return snapshot.load_field(path)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        logger.warning("reference cache %s unreadable (%s); recomputing", path, exc)
        return None


def compute_reference(
    u0: SpectralField,
    tau_ref: float,
    t_final: float,
    mu: int = -1,
    cache_dir: str | Path | None = None,
) -> tuple[SpectralField, Path | None]:
    """Reference solution of the datum ``u0`` on its own lattice, cached on disk.

    The reference runs the same integrator with the filter held at the
    lattice identity (``theta = 4/K^2`` for a K-mode datum).  Cache entries
    are keyed by the digest of the datum's coefficients, the lattice size,
    step, horizon, sign and integrator version, and carry a payload
    checksum; corrupt or mismatched entries are recomputed with a warning.
    The payload and then its metadata are each written to a temp file and
    renamed into place, so processes sharing a cache never read a partial
    entry.

    Returns the reference and its cache path (None without ``cache_dir``).
    """
    key = _reference_key(u0, tau_ref, t_final, mu)
    path = None
    if cache_dir is not None:
        path = reference_cache_path(cache_dir, key)
        cached = _try_load_reference(path, key)
        if cached is not None:
            return cached, path
    n = u0.n_modes
    params = SchemeParams(tau=tau_ref, n_modes=n, mu=mu, t_final=t_final, theta=4.0 / (n * n))
    final = evolve(u0, params)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with snapshot.staged(path) as tmp:
            snapshot.save_field(final, tmp)
            meta = {"key": key, "payload_sha256": hashlib.sha256(tmp.read_bytes()).hexdigest()}
        with snapshot.staged(path.with_suffix(".json")) as tmp:
            tmp.write_text(json.dumps(meta, indent=2))
    return final, path


def l2_error(coarse: SpectralField, reference: SpectralField) -> float:
    """L2 distance of the coarse field, zero-padded onto the reference lattice.

    The difference is ``-reference`` with the coarse block added on its
    central modes; outside the block that differs from ``0 - reference``
    only in the sign of zeros, which the norm ignores.
    """
    n, m = coarse.n_modes, reference.n_modes
    if n > m:
        raise ValueError(f"coarse lattice {n} exceeds reference lattice {m}")
    diff = np.negative(reference.coeffs)
    lo = (m - n) // 2
    diff[lo : lo + n, lo : lo + n] += coarse.coeffs
    return 2.0 * np.pi * float(np.sqrt(np.vdot(diff, diff).real))


def coarse_datum(datum: SpectralField, theta: float, n_modes: int) -> SpectralField:
    """Restrict the shared datum to a run's lattice and filter it at the run's theta.

    The filter width ``theta**-0.5`` never exceeds ``n_modes/2`` under the
    study coupling, so this equals filtering first: the restriction drops
    only modes the filter zeroes.
    """
    return project(restrict(datum, n_modes), theta)


# ---------------------------------------------------------------------------
# sweep execution


class _RecordAppender:
    """Serialized, flush-per-row CSV appender (crash-safe resume point)."""

    def __init__(self, path: Path):
        self._lock = threading.Lock()
        fresh = not path.exists() or path.stat().st_size == 0
        self._fh = open(path, "a", newline="")
        self._writer = csv.writer(self._fh)
        if fresh:
            self._writer.writerow(RECORD_COLUMNS)
            self._fh.flush()

    def append(self, rec: ConvergenceRecord) -> None:
        with self._lock:
            self._writer.writerow(_record_row(rec))
            self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _record_row(rec: ConvergenceRecord) -> list[str]:
    return [repr(rec.s), repr(rec.tau), str(rec.n_modes), repr(rec.theta),
            str(rec.seed), repr(rec.l2_error), repr(rec.wall_time)]


def _drop_torn_row(path: Path) -> None:
    """Truncate the file after its last newline, dropping a half-written row."""
    with open(path, "rb+") as fh:
        data = fh.read()
        fh.truncate(data.rfind(b"\n") + 1)


def _claim_output_dir(cfg: StudyConfig, resuming: bool) -> None:
    """Write the recipe all rows share to ``study.json``; resumed rows need a match."""
    path = cfg.output_dir / "study.json"
    want = {"scheme": SCHEME_VERSION}
    for key, field, _, encode in CONFIG_KEYS:
        if encode is not None:
            want[key] = encode(getattr(cfg, field))
    if resuming:
        if not path.exists():
            raise ValueError(f"{cfg.output_dir} holds records but no study.json; "
                             "use a new output_dir")
        have = json.loads(path.read_text())
        differ = sorted(k for k in want.keys() | have.keys() if want.get(k) != have.get(k))
        if differ:
            raise ValueError(f"{cfg.output_dir} holds records of a different study "
                             f"(differing: {', '.join(differ)}); use a new output_dir")
    with snapshot.staged(path) as tmp:
        tmp.write_text(json.dumps(want, indent=2) + "\n")


def run_study(cfg: StudyConfig) -> list[ConvergenceRecord]:
    """Execute (or resume) the sweep; returns all records, sorted.

    Rows are appended to ``records.csv`` as they complete, keyed by
    (s, tau, seed); rerunning with the same recipe skips completed rows,
    including failed ones.  A row torn by an interrupted write is dropped
    and recomputed.  Rows resume only under the recipe in ``study.json``
    (adding an s, a tau or a seed still resumes); a different one raises
    ValueError.  On completion the file is rewritten in sorted order and
    the plot data files are refreshed.
    """
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    records_path = cfg.output_dir / "records.csv"
    existing = []
    if records_path.exists():
        _drop_torn_row(records_path)
        existing = read_records(records_path)
    _claim_output_dir(cfg, bool(existing))
    done = {rec.key for rec in existing}

    rows = {(s, tau): [seed for seed in cfg.seeds if (s, tau, seed) not in done]
            for s in cfg.s_values for tau in cfg.tau_list}
    needed_pairs = sorted({(s, seed) for (s, _), seeds in rows.items() for seed in seeds})

    records = list(existing)
    appender = _RecordAppender(records_path)
    try:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            datum_futures = {
                (s, seed): pool.submit(generate, cfg.datum_spec(s, seed))
                for s, seed in needed_pairs
            }
            data = {key: fut.result() for key, fut in datum_futures.items()}
            ref_futures = {
                (s, seed): pool.submit(
                    compute_reference,
                    data[(s, seed)],
                    cfg.tau_reference,
                    cfg.t_final,
                    cfg.mu,
                    cfg.resolved_cache_dir,
                )
                for s, seed in needed_pairs
            }
            refs = {key: fut.result()[0] for key, fut in ref_futures.items()}

            def job(s: float, tau: float, seeds: list[int]) -> list[ConvergenceRecord]:
                """Evolve the seeds at one (s, tau) as one stack; each row's
                wall time is its share of the stack's."""
                n = grid_for_tau(tau)
                theta = default_theta(tau, n)
                u0 = np.stack([coarse_datum(data[(s, x)], theta, n).coeffs for x in seeds])
                start = time.perf_counter()
                finals, blowup = evolve(u0, SchemeParams(tau, n, cfg.mu, cfg.t_final))
                errors = []
                for seed, final, step in zip(seeds, finals, blowup):
                    if step >= 0:
                        logger.warning("run (s=%g, tau=%g, seed=%d) blew up: non-finite "
                                       "solver state at step %d", s, tau, seed, step)
                    errors.append(math.nan if step >= 0
                                  else l2_error(SpectralField(n, final), refs[(s, seed)]))
                wall = (time.perf_counter() - start) / len(seeds)
                recs = [ConvergenceRecord(s, tau, n, theta, seed, err, wall)
                        for seed, err in zip(seeds, errors)]
                for rec in recs:
                    appender.append(rec)
                return recs

            futures = [pool.submit(job, s, tau, seeds)
                       for (s, tau), seeds in rows.items() if seeds]
            records.extend(rec for fut in futures for rec in fut.result())
    finally:
        appender.close()

    records.sort(key=lambda r: r.key)
    export(records, cfg.output_dir)
    return records


def sensitivity_configs(
    cfg: StudyConfig, alternates: Sequence[tuple[int, float]]
) -> dict[tuple[int, float], StudyConfig]:
    """The study of each alternative reference (K, tau), under ``output_dir/ref_K{K}_tau{tau}/``.

    Qualitative tool: running each with :func:`run_study` repeats the sweep
    against another reference resolution, and an under-resolved reference
    contaminates the small-theta end of the error curve and flattens the
    fitted order.  Building the configs validates every alternative, so a
    bad one is rejected before any sweep runs.
    """
    return {
        (k, tau): replace(cfg, grid_reference=k, tau_reference=tau,
                          output_dir=cfg.output_dir / f"ref_K{k}_tau{tau:g}")
        for k, tau in alternates
    }


# ---------------------------------------------------------------------------
# fitting and serialization


def median_curve(records: Iterable[ConvergenceRecord]) -> tuple[np.ndarray, np.ndarray]:
    """(log2 theta, log2 median error) over seeds, failed rows excluded.

    Thetas whose rows all failed are dropped; a zero median (exact match
    with the reference) cannot be placed on the log scale and is an error.
    """
    groups: dict[float, list[float]] = {}
    for rec in records:
        if not rec.failed:
            groups.setdefault(rec.theta, []).append(rec.l2_error)
    if not groups:
        raise ValueError("no successful records to fit")
    thetas = sorted(groups)
    medians = [float(np.median(groups[t])) for t in thetas]
    if any(m <= 0.0 for m in medians):
        raise ValueError("zero median error cannot be fitted on a log scale")
    return np.log2(thetas), np.log2(medians)


def fit_xy(x: np.ndarray, y: np.ndarray) -> OrderFit:
    """Closed-form least-squares line; needs >= 3 distinct abscissae."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(np.unique(x)) < 3:
        raise ValueError(f"order fit needs >= 3 distinct theta values, got {len(np.unique(x))}")
    xm, ym = x.mean(), y.mean()
    slope = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    intercept = float(ym - slope * xm)
    resid = y - (slope * x + intercept)
    return OrderFit(slope, intercept, float(np.sqrt(np.mean(resid**2))), len(x))


def fit_order(records: Iterable[ConvergenceRecord], s: float | None = None) -> OrderFit:
    """Fitted convergence order for one smoothness value."""
    records = list(records)
    if s is not None:
        records = [r for r in records if r.s == s]
    values = {r.s for r in records}
    if len(values) > 1:
        raise ValueError(f"records mix several s values {sorted(values)}; pass s= to select one")
    if not records:
        raise ValueError("no records to fit")
    return fit_xy(*median_curve(records))


def export(records: Sequence[ConvergenceRecord], out_dir: str | Path) -> list[Path]:
    """Write the sorted records CSV plus one plot-data file per s.

    Returns the written paths.  Plot files hold two columns
    (log2_theta, log2_median_error) and round-trip the fit exactly.  Each
    file is written to a temp file and renamed into place, so a failed
    export leaves the previous file whole.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ordered = sorted(records, key=lambda r: r.key)
    paths = [out_dir / "records.csv"]
    with snapshot.staged(paths[0]) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for rec in ordered:
            writer.writerow(_record_row(rec))
    for s in sorted({r.s for r in ordered}):
        path = out_dir / f"plot_s{s:g}.csv"
        x, y = median_curve([r for r in ordered if r.s == s])
        with snapshot.staged(path) as tmp, open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["log2_theta", "log2_median_error"])
            for xi, yi in zip(x, y):
                writer.writerow([repr(float(xi)), repr(float(yi))])
        paths.append(path)
    return paths


def read_records(path: str | Path) -> list[ConvergenceRecord]:
    """Parse a records CSV back into record objects."""
    out: list[ConvergenceRecord] = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None and tuple(header) != RECORD_COLUMNS:
            raise ValueError(f"{path}: unexpected header {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(RECORD_COLUMNS):
                raise ValueError(f"{path}: malformed row {row}")
            out.append(ConvergenceRecord(
                s=float(row[0]), tau=float(row[1]), n_modes=int(row[2]),
                theta=float(row[3]), seed=int(row[4]),
                l2_error=float(row[5]), wall_time=float(row[6]),
            ))
    return out


def read_plot_data(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a plot-data file back into (log2_theta, log2_median_error)."""
    xs: list[float] = []
    ys: list[float] = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["log2_theta", "log2_median_error"]:
            raise ValueError(f"{path}: unexpected header {header}")
        for row in reader:
            if row:
                xs.append(float(row[0]))
                ys.append(float(row[1]))
    return np.array(xs), np.array(ys)


# ---------------------------------------------------------------------------
# config files


def _list_of(parse):
    return lambda text: tuple(parse(v) for v in text.split(","))


def _float_hex(x: float) -> str:
    return float(x).hex()


# One row per config key: (key, StudyConfig field, parser of the text
# value, study.json encoding or None).  Rows follow the field order.  The
# encoded fields are the recipe every row of a study shares; changing one
# makes a different study, while s_values, tau_list and seeds may grow.
CONFIG_KEYS = (
    ("s_values", "s_values", _list_of(parse_dyadic), None),
    ("tau_list", "tau_list", _list_of(parse_dyadic), None),
    ("T", "t_final", parse_dyadic, _float_hex),
    ("grid_reference", "grid_reference", int, int),
    ("tau_reference", "tau_reference", parse_dyadic, _float_hex),
    ("seeds", "seeds", _list_of(int), None),
    ("output_dir", "output_dir", Path, None),
    ("mu", "mu", int, int),
    ("eps", "eps", float, _float_hex),
    ("target_l2", "target_l2", float, _float_hex),
    ("cache_dir", "cache_dir", Path, None),
    ("workers", "workers", int, None),
)


def parse_config_file(path: str | Path) -> StudyConfig:
    """Read a study config from a ``key = value`` text file.

    The keys are the first column of :data:`CONFIG_KEYS`; those of fields
    without a default are required.  ``s_values``, ``tau_list`` and
    ``seeds`` are comma-separated lists, and steps (``T``, ``tau_list``,
    ``tau_reference``) accept the dyadic form ``2^-12``.  Lines starting
    with ``#`` are comments.  Unknown or repeated keys and unparsable
    values are rejected with the file and line.
    """
    rows = {row[0]: row for row in CONFIG_KEYS}
    kwargs = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in rows:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        _, field, parse, _ = rows[key]
        if field in kwargs:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            kwargs[field] = parse(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    required = {f.name for f in fields(StudyConfig) if f.default is MISSING}
    missing = sorted(key for key, field, _, _ in CONFIG_KEYS
                     if field in required and field not in kwargs)
    if missing:
        raise ValueError(f"{path}: missing required config keys {missing}")
    return StudyConfig(**kwargs)
