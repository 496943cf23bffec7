"""Convergence-study harness: reference solutions, error sweeps, order fits.

A study couples the grid to the step through ``N(tau) = 2/sqrt(tau)``
rounded to the nearest even integer, so the filter parameter
``theta = max(tau, 4/N^2)`` tracks tau.  Each (s, seed) pair gets one
high-resolution datum and one cached reference solution; every coarse run
restricts that datum to the coarse lattice, evolves it (the filter that
:func:`~nls2d.splitting.evolve` applies first is the only projection: its
width never exceeds the lattice, so restricting first loses nothing), and
records the L2 distance to the reference at the final time.  The runs
of one (s, tau) evolve together, as one stack of their seeds.  Each
finished stack replaces ``records.csv`` whole (sorted, through
:func:`nls2d.snapshot.staged`), so an interrupted study keeps every
finished stack and resumes from it, and a resume refused for a different
recipe or a malformed ``records.csv`` writes nothing.

Error comparison embeds the coarse field into the reference lattice by
zero padding, so the distance is the plain L2 norm of the coefficient
difference.  Fitted convergence orders are least-squares slopes of
log2(median error over seeds) against log2(theta).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import snapshot
from .roughdata import RoughDataSpec, generate
from .spectral import _slice_sums, restrict
from .splitting import (
    SCHEME_VERSION,
    BlowupError,
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
    "run_study",
    "fit_order",
    "fit_xy",
    "median_curve",
    "read_records",
    "RECORD_COLUMNS",
]

logger = logging.getLogger(__name__)

RECORD_COLUMNS = ("s", "tau", "N", "theta", "seed", "l2_error", "wall_time")
_RECORD_PARSERS = (float, float, int, float, int, float, float)  # one per column
_PLOT_NAME = "plot_s{:g}.csv"  # one per s value, so no two s values may share one


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


@dataclass(frozen=True)
class StudyConfig:
    """Everything one convergence study needs.

    Validation pins the couplings the sweep relies on: T > 0; every s, with
    eps, target_l2 and the reference lattice, makes a valid
    :class:`~nls2d.roughdata.RoughDataSpec` (so that lattice is even);
    every tau and the reference step are powers of two; the parameters of
    every coarse run and of the reference are valid
    :class:`~nls2d.splitting.SchemeParams` (so each step divides T and mu
    is +1 or -1); the reference step is at least 16 times finer than the
    finest tau; the reference lattice holds at least twice the largest
    coarse grid (4x is recommended and logged when not met), so every
    coarse field embeds losslessly; and no two s values share a plot file.
    """

    s_values: tuple[float, ...]
    tau_list: tuple[float, ...]
    t_final: float
    grid_reference: int
    tau_reference: float
    seeds: tuple[int, ...]
    output_dir: Path
    mu: int = -1
    eps: float = RoughDataSpec.eps
    target_l2: float = RoughDataSpec.target_l2
    cache_dir: Path | None = None
    workers: int = 4

    def __post_init__(self) -> None:
        for name, kind in (("s_values", float), ("tau_list", float), ("seeds", int)):
            values = tuple(kind(v) for v in getattr(self, name))
            object.__setattr__(self, name, values)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} contains duplicates")
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))
        if not (self.t_final > 0.0):
            raise ValueError(f"T must be positive, got {self.t_final}")
        for tau in (*self.tau_list, self.tau_reference):
            if math.frexp(tau)[0] != 0.5:  # 0.5 for positive finite powers of two only
                raise ValueError(f"tau_list and tau_reference must be powers of two, got {tau}")
            SchemeParams(tau, self.mu, self.t_final)
        if self.tau_reference > min(self.tau_list) / 16.0:
            raise ValueError(
                f"reference tau {self.tau_reference} must be <= min(tau_list)/16 "
                f"= {min(self.tau_list) / 16.0}"
            )
        plots: dict[str, float] = {}
        for s in self.s_values:  # checks every s, eps, target_l2 and the reference lattice
            self.datum_spec(s, self.seeds[0])
            other = plots.setdefault(_PLOT_NAME.format(s), s)
            if other != s:
                raise ValueError(f"s values {other!r} and {s!r} share the plot file "
                                 f"{_PLOT_NAME.format(s)}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        max_n = max(grid_for_tau(tau) for tau in self.tau_list)
        if self.grid_reference < 2 * max_n:
            raise ValueError(
                f"reference lattice {self.grid_reference} must be at least twice "
                f"the largest coarse grid {max_n}"
            )
        if self.grid_reference < 4 * max_n:
            logger.warning(
                "reference lattice %d is below the recommended 4x largest coarse grid %d: "
                "the fitted slopes then partly measure the reference lattice's cut, "
                "not the H^s rate", self.grid_reference, max_n,
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


def _reference_key(u0: np.ndarray, tau_ref: float, t_final: float, mu: int) -> str:
    # The copy stays: hashing the buffer alone left evolve's arrays 64 KiB-aliased, ~10 % slower.
    digest = hashlib.sha256(np.ascontiguousarray(u0, dtype="<c16").tobytes()).hexdigest()
    return "|".join([
        f"scheme={SCHEME_VERSION}",
        f"n_modes={u0.shape[-1]}",
        f"tau_ref={float(tau_ref).hex()}",
        f"T={float(t_final).hex()}",
        f"mu={mu}",
        f"datum={digest}",
    ])


def reference_cache_path(cache_dir: str | Path, key: str) -> Path:
    digest = hashlib.sha256(key.encode()).hexdigest()
    return Path(cache_dir) / f"ref_{digest[:32]}.entry"


def compute_reference(u0: np.ndarray, tau_ref: float, t_final: float, mu: int = -1, *,
                      cache_dir: str | Path) -> tuple[np.ndarray, Path]:
    """Reference solution of the (K, K) datum ``u0`` on its own lattice, cached on disk.

    The reference runs the same integrator with the filter held at the
    lattice identity (``theta = 4/K^2`` for a K-mode datum).  Cache entries
    (:func:`nls2d.snapshot.save_field` and :func:`~nls2d.snapshot.load_field`
    with ``key``) are keyed by the digest of the datum's coefficients, the
    lattice size, step, horizon, sign and integrator version; corrupt or
    mismatched ones are recomputed with a warning.

    Returns the reference and its cache path.
    Raises :class:`~nls2d.splitting.BlowupError`, caching nothing, if the
    solve's state becomes non-finite.
    """
    key = _reference_key(u0, tau_ref, t_final, mu)
    path = reference_cache_path(cache_dir, key)
    try:
        return snapshot.load_field(path, key), path
    except FileNotFoundError:
        pass  # a miss
    except (OSError, ValueError) as exc:
        logger.warning("reference cache unusable (%s); recomputing", exc)
    n = u0.shape[-1]
    final, blowup = evolve(u0, SchemeParams(tau_ref, mu, t_final, theta=4.0 / (n * n)))
    if blowup >= 0:
        raise BlowupError(int(blowup))
    path.parent.mkdir(parents=True, exist_ok=True)
    snapshot.save_field(final, path, key)
    return final, path


def l2_error(coarse: np.ndarray, reference: np.ndarray) -> float:
    """L2 distance of the (n, n) coarse field, zero-padded onto the (m, m) reference lattice.

    Bit for bit ``l2_norm`` of the difference: ``-reference`` with the coarse
    block added on its central modes, which outside the block differs from
    ``0 - reference`` only in the sign of zeros, which the norm ignores.
    """
    n, m = coarse.shape[-1], reference.shape[-1]
    if n > m:
        raise ValueError(f"coarse lattice {n} exceeds reference lattice {m}")
    diff = np.negative(reference, dtype=np.complex128, order="C")
    lo = (m - n) // 2
    diff[lo : lo + n, lo : lo + n] += coarse
    x = diff.view(np.float64)
    x *= x  # l2_norm's squares, taken in place: a second (m, m) array costs page faults
    return 2.0 * np.pi * float(np.sqrt(_slice_sums(x)))


# ---------------------------------------------------------------------------
# sweep execution


def _record_row(rec: ConvergenceRecord) -> list[str]:
    return [repr(rec.s), repr(rec.tau), str(rec.n_modes), repr(rec.theta),
            str(rec.seed), repr(rec.l2_error), repr(rec.wall_time)]


def _write_records(records: Iterable[ConvergenceRecord], path: Path) -> None:
    """Replace ``path`` with the whole table of ``records``, sorted by key."""
    with snapshot.staged(path) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for rec in sorted(records, key=lambda r: r.key):
            writer.writerow(_record_row(rec))


def _claim_output_dir(cfg: StudyConfig, resuming: bool) -> None:
    """Write the recipe all rows share to ``study.json``; a resume must match it, and keeps it."""
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
        return
    with snapshot.staged(path) as tmp:
        tmp.write_text(json.dumps(want, indent=2) + "\n")


def run_study(cfg: StudyConfig) -> list[ConvergenceRecord]:
    """Execute (or resume) the sweep; returns all records, sorted.

    Each (s, tau) stack, once finished, replaces ``records.csv`` with the
    whole sorted table of the rows so far, keyed by (s, tau, seed), so an
    interrupted sweep keeps every finished stack and the file is never
    torn.  Rerunning with the same recipe skips completed rows, including
    failed ones.  Rows resume only under the recipe in ``study.json``
    (adding an s, a tau or a seed still resumes); a different one, or a
    malformed ``records.csv``, raises ValueError before anything is
    written.  On completion each plot file is written unless it already
    holds the right bytes, so a full resume writes nothing.
    """
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    records_path = cfg.output_dir / "records.csv"
    existing = read_records(records_path) if records_path.exists() else []
    _claim_output_dir(cfg, bool(existing))
    done = {rec.key for rec in existing}

    rows = {(s, tau): [seed for seed in cfg.seeds if (s, tau, seed) not in done]
            for s in cfg.s_values for tau in cfg.tau_list}
    needed_pairs = sorted({(s, seed) for (s, _), seeds in rows.items() for seed in seeds})

    records = list(existing)
    lock = threading.Lock()
    # A draw takes milliseconds, so the data come from this thread; the
    # reference solves and the sweep run on the pool.
    data = {(s, seed): generate(cfg.datum_spec(s, seed)) for s, seed in needed_pairs}
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        ref_futures = {
            pair: pool.submit(compute_reference, data[pair], cfg.tau_reference, cfg.t_final,
                              cfg.mu, cache_dir=cfg.resolved_cache_dir)
            for pair in needed_pairs
        }
        refs = {key: fut.result()[0] for key, fut in ref_futures.items()}

        def job(s: float, tau: float, seeds: list[int]) -> None:
            """Evolve the seeds at one (s, tau) as one stack and record their
            rows; each row's wall time is its share of the stack's."""
            n = grid_for_tau(tau)
            theta = default_theta(tau, n)
            u0 = np.stack([restrict(data[(s, x)], n) for x in seeds])
            start = time.perf_counter()
            finals, blowup = evolve(u0, SchemeParams(tau, cfg.mu, cfg.t_final))
            errors = []
            for seed, final, step in zip(seeds, finals, blowup):
                if step >= 0:
                    logger.warning("run (s=%g, tau=%g, seed=%d) blew up: non-finite "
                                   "solver state at step %d", s, tau, seed, step)
                errors.append(math.nan if step >= 0 else l2_error(final, refs[(s, seed)]))
            wall = (time.perf_counter() - start) / len(seeds)
            with lock:
                records.extend(ConvergenceRecord(s, tau, n, theta, seed, err, wall)
                               for seed, err in zip(seeds, errors))
                _write_records(records, records_path)

        # Leaving the pool waits for every job, so stacks that finish after
        # another one raised still write their rows before the error surfaces.
        for fut in [pool.submit(job, s, tau, seeds) for (s, tau), seeds in rows.items() if seeds]:
            fut.result()

    records.sort(key=lambda r: r.key)
    _write_plots(records, cfg.output_dir)
    return records


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


def _write_plots(records: Sequence[ConvergenceRecord], out_dir: Path) -> None:
    """Write the plot-data file of every s in ``records``: two columns
    (log2_theta, log2_median_error) that round-trip the fit exactly.  A file
    that already holds those bytes is left as it is."""
    for s in sorted({r.s for r in records}):
        path = out_dir / _PLOT_NAME.format(s)
        x, y = median_curve([r for r in records if r.s == s])
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["log2_theta", "log2_median_error"])
        writer.writerows([repr(float(xi)), repr(float(yi))] for xi, yi in zip(x, y))
        data = buf.getvalue().encode()
        if not path.is_file() or path.read_bytes() != data:
            with snapshot.staged(path) as tmp:
                tmp.write_bytes(data)


def read_records(path: str | Path) -> list[ConvergenceRecord]:
    """Parse a records CSV back into record objects.

    Raises ValueError naming ``path`` on a header other than
    :data:`RECORD_COLUMNS`, on a last row without a line break (a cut inside
    a number would read as a shorter number), and, naming the row, on a row
    without one parsable field per column.
    """
    with open(path, "r", newline="") as fh:
        text = fh.read()
    if text and not text.endswith("\n"):
        raise ValueError(f"{path}: last row is cut short")
    rows = list(csv.reader(io.StringIO(text)))
    if rows and tuple(rows[0]) != RECORD_COLUMNS:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    out: list[ConvergenceRecord] = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != len(RECORD_COLUMNS):
            raise ValueError(f"{path}: malformed row {row}")
        try:
            out.append(ConvergenceRecord(*(parse(v) for parse, v in zip(_RECORD_PARSERS, row))))
        except ValueError as exc:
            raise ValueError(f"{path}: malformed row {row}: {exc}") from None
    return out


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
