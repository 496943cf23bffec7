"""Convergence-study harness: reference solutions, error sweeps, order fits.

A study couples the grid to the step through ``N(tau) = 2/sqrt(tau)``
rounded to the nearest even integer, so the filter parameter
``theta = max(tau, 4/N^2)`` tracks tau.  Each (s, seed) pair gets one
high-resolution datum and one cached reference solution; every coarse run
projects that datum with its own filter, restricts it to the coarse
lattice (lossless, because the filter width never exceeds the lattice),
evolves, and records the L2 distance to the reference at the final time.

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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import snapshot
from .roughdata import RoughDataSpec, generate
from .spectral import SpectralField, embed, l2_norm, project, restrict
from .splitting import (
    SCHEME_VERSION,
    BlowupError,
    SchemeParams,
    default_theta,
    evolve,
)

__all__ = [
    "ReferenceSpec",
    "StudyConfig",
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
    """Parse a float, accepting dyadic powers written ``2^p`` or ``2**p``."""
    text = text.strip()
    for sep in ("^", "**"):
        if text.startswith("2" + sep):
            return math.ldexp(1.0, int(text[1 + len(sep):]))
    return float(text)


def _is_power_of_two(x: float) -> bool:
    if not (x > 0.0) or not math.isfinite(x):
        return False
    return math.frexp(x)[0] == 0.5


@dataclass(frozen=True)
class ReferenceSpec:
    """Resolution of the reference solve: lattice size and step."""

    n_modes: int
    tau: float

    def __post_init__(self) -> None:
        if self.n_modes < 2 or self.n_modes % 2 != 0:
            raise ValueError(f"reference n_modes must be an even integer >= 2, got {self.n_modes}")
        if not _is_power_of_two(self.tau):
            raise ValueError(f"reference tau must be a power of two, got {self.tau}")


@dataclass(frozen=True)
class StudyConfig:
    """Everything one convergence study needs.

    Validation pins the couplings the sweep relies on: T > 0; every tau is
    a power of two; the parameters of every coarse run and of the reference
    are valid :class:`~nls2d.splitting.SchemeParams` (so each step divides
    T and mu is +1 or -1); the reference step is at least 16 times finer
    than the finest tau; and the reference lattice holds at least twice the
    largest coarse grid (4x is recommended and logged when not met), so
    every coarse field embeds losslessly.
    """

    s_values: tuple[float, ...]
    tau_list: tuple[float, ...]
    t_final: float
    reference: ReferenceSpec
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
        for tau in self.tau_list:
            if not _is_power_of_two(tau):
                raise ValueError(f"tau_list entries must be powers of two, got {tau}")
            SchemeParams(tau, grid_for_tau(tau), self.mu, self.t_final)
        SchemeParams(self.reference.tau, self.reference.n_modes, self.mu, self.t_final)
        if self.reference.tau > min(self.tau_list) / 16.0:
            raise ValueError(
                f"reference tau {self.reference.tau} must be <= min(tau_list)/16 "
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
        max_n = max(grid_for_tau(tau) for tau in self.tau_list)
        if self.reference.n_modes < 2 * max_n:
            raise ValueError(
                f"reference lattice {self.reference.n_modes} must be at least twice "
                f"the largest coarse grid {max_n}"
            )
        if self.reference.n_modes < 4 * max_n:
            logger.warning(
                "reference lattice %d is below the recommended 4x largest coarse grid %d",
                self.reference.n_modes, max_n,
            )

    @property
    def resolved_cache_dir(self) -> Path:
        return self.cache_dir if self.cache_dir is not None else self.output_dir / "cache"

    def datum_spec(self, s: float, seed: int) -> RoughDataSpec:
        return RoughDataSpec(s=s, seed=seed, n_modes=self.reference.n_modes,
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
    """L2 distance after zero-pad embedding into the reference lattice."""
    if coarse.n_modes > reference.n_modes:
        raise ValueError(
            f"coarse lattice {coarse.n_modes} exceeds reference lattice {reference.n_modes}"
        )
    wide = coarse if coarse.n_modes == reference.n_modes else embed(coarse, reference.n_modes)
    return l2_norm(SpectralField(reference.n_modes, wide.coeffs - reference.coeffs))


def coarse_datum(datum: SpectralField, theta: float, n_modes: int) -> SpectralField:
    """Filter the shared datum at a run's theta and restrict to its lattice.

    The filter width ``theta**-0.5`` never exceeds ``n_modes/2`` under the
    study coupling, so the restriction drops only zeros.
    """
    return restrict(project(datum, theta), n_modes)


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


def _run_one(
    cfg: StudyConfig, s: float, seed: int, tau: float,
    datum: SpectralField, reference: SpectralField,
) -> ConvergenceRecord:
    n = grid_for_tau(tau)
    theta = default_theta(tau, n)
    u0 = coarse_datum(datum, theta, n)
    params = SchemeParams(tau=tau, n_modes=n, mu=cfg.mu, t_final=cfg.t_final)
    start = time.perf_counter()
    try:
        final = evolve(u0, params)
        err = l2_error(final, reference)
    except BlowupError as exc:
        logger.warning("run (s=%g, tau=%g, seed=%d) blew up: %s", s, tau, seed, exc)
        err = math.nan
    wall = time.perf_counter() - start
    return ConvergenceRecord(s, tau, n, theta, seed, err, wall)


def _drop_torn_row(path: Path) -> None:
    """Truncate the file after its last newline, dropping a half-written row."""
    with open(path, "rb+") as fh:
        data = fh.read()
        fh.truncate(data.rfind(b"\n") + 1)


def _claim_output_dir(cfg: StudyConfig, resuming: bool) -> None:
    """Write the recipe all rows share to ``study.json``; resumed rows need a match."""
    path = cfg.output_dir / "study.json"
    want = {
        "scheme": SCHEME_VERSION,
        "T": float(cfg.t_final).hex(),
        "grid_reference": cfg.reference.n_modes,
        "tau_reference": float(cfg.reference.tau).hex(),
        "mu": cfg.mu,
        "eps": float(cfg.eps).hex(),
        "target_l2": float(cfg.target_l2).hex(),
    }
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

    pairs = [(s, seed) for s in cfg.s_values for seed in cfg.seeds]
    todo = {
        (s, seed): [tau for tau in cfg.tau_list if (s, tau, seed) not in done]
        for s, seed in pairs
    }
    needed_pairs = [p for p in pairs if todo[p]]

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
                    cfg.reference.tau,
                    cfg.t_final,
                    cfg.mu,
                    cfg.resolved_cache_dir,
                )
                for s, seed in needed_pairs
            }
            refs = {key: fut.result()[0] for key, fut in ref_futures.items()}

            def job(s: float, seed: int, tau: float) -> ConvergenceRecord:
                rec = _run_one(cfg, s, seed, tau, data[(s, seed)], refs[(s, seed)])
                appender.append(rec)
                return rec

            futures = [
                pool.submit(job, s, seed, tau)
                for (s, seed) in needed_pairs
                for tau in todo[(s, seed)]
            ]
            records.extend(fut.result() for fut in futures)
    finally:
        appender.close()

    records.sort(key=lambda r: r.key)
    export(records, cfg.output_dir)
    return records


def sensitivity_configs(
    cfg: StudyConfig, alternates: Sequence[ReferenceSpec]
) -> dict[ReferenceSpec, StudyConfig]:
    """The study of each alternative reference, under ``output_dir/ref_K{n}_tau{tau}/``.

    Qualitative tool: running each with :func:`run_study` repeats the sweep
    against another reference resolution, and an under-resolved reference
    contaminates the small-theta end of the error curve and flattens the
    fitted order.  Building the configs validates every alternative, so a
    bad one is rejected before any sweep runs.
    """
    return {
        ref: replace(cfg, reference=ref,
                     output_dir=cfg.output_dir / f"ref_K{ref.n_modes}_tau{ref.tau:g}")
        for ref in alternates
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


_LIST_KEYS = {"s_values", "tau_list", "seeds"}
_SCALAR_KEYS = {
    "T", "grid_reference", "tau_reference", "mu", "eps", "target_l2",
    "output_dir", "cache_dir", "workers",
}


def parse_config_file(path: str | Path) -> StudyConfig:
    """Read a study config from a ``key = value`` text file.

    Recognized keys: ``s_values``, ``tau_list``, ``seeds`` (comma-separated
    lists), ``T``, ``grid_reference``, ``tau_reference``, ``mu``, ``eps``,
    ``target_l2``, ``output_dir``, ``cache_dir``, ``workers``.  Step values
    accept the dyadic form ``2^-12``.  Lines starting with ``#`` are
    comments.  Unknown keys are rejected.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _LIST_KEYS | _SCALAR_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        raw[key] = value
    missing = {"s_values", "tau_list", "T", "grid_reference", "tau_reference",
               "seeds", "output_dir"} - raw.keys()
    if missing:
        raise ValueError(f"{path}: missing required config keys {sorted(missing)}")
    kwargs = dict(
        s_values=tuple(parse_dyadic(v) for v in raw["s_values"].split(",")),
        tau_list=tuple(parse_dyadic(v) for v in raw["tau_list"].split(",")),
        t_final=parse_dyadic(raw["T"]),
        reference=ReferenceSpec(int(raw["grid_reference"]), parse_dyadic(raw["tau_reference"])),
        seeds=tuple(int(v) for v in raw["seeds"].split(",")),
        output_dir=Path(raw["output_dir"]),
    )
    if "mu" in raw:
        kwargs["mu"] = int(raw["mu"])
    if "eps" in raw:
        kwargs["eps"] = float(raw["eps"])
    if "target_l2" in raw:
        kwargs["target_l2"] = float(raw["target_l2"])
    if "cache_dir" in raw:
        kwargs["cache_dir"] = Path(raw["cache_dir"])
    if "workers" in raw:
        kwargs["workers"] = int(raw["workers"])
    return StudyConfig(**kwargs)
