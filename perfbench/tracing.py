"""Span tracer that wraps nls2d's public functions from outside the package.

Each target ``module.function`` is looked up in ``nls2d.<module>``.  Its
wrapper replaces every binding of that same function object in every loaded
``nls2d`` module, so callers that imported the name (``harness.evolve``,
``splitting.synthesize``, ...) call the wrapper too.  A target that no
longer exists is recorded as absent instead of failing the run.  Calls into
``numpy.fft`` are counted, not timed.

Spans are kept in memory, one list per traced repetition, and turned into
the per-layer metrics by :func:`layer_metrics`.  A span's parent is the
innermost open span on the same thread; spans started on a pool thread have
no parent.  Self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import os
import statistics
import sys
import threading
import time
from typing import NamedTuple

import numpy as np

TARGETS = (
    "cli.main",
    "harness.run_study",
    "harness.compute_reference",
    "harness.coarse_datum",
    "harness.l2_error",
    "harness.export",
    "harness.fit_order",
    "splitting.evolve",
    "splitting.lie_step",
    "splitting.nonlinear_phase",
    "splitting.free_flow",
    "spectral.synthesize",
    "spectral.dft_forward",
    "spectral.project",
    "roughdata.generate",
    "snapshot.save_field",
    "snapshot.load_field",
    "bourgain.time_space_transform",
    "bourgain.bourgain_norm",
    "bourgain.trajectory_l4",
    "bourgain.trajectory_sup_sobolev",
    "bourgain.estimate_probe",
    "bourgain.write_probe_report",
)
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

# Array stages of one step; each reads and writes one N x N complex128 array.
STEP_STAGES = ("spectral.project", "spectral.synthesize", "spectral.dft_forward",
               "splitting.nonlinear_phase", "splitting.free_flow")
SMALL_GRIDS = (16, 22, 32, 46, 64)
COMPLEX_BYTES = 16


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    n: int | None  # lattice size of the result (or first argument)
    t0: float
    t1: float
    extra: int | None  # steps of an evolve call, bytes of a snapshot file

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _lattice(obj) -> int | None:
    for attr in ("n_modes", "n_points"):
        value = getattr(obj, attr, None)
        if isinstance(value, int):
            return value
    inner = getattr(obj, "field", None)
    return getattr(inner, "n_modes", None) if inner is not None else None


def _evolve_steps(args, kwargs):
    params = kwargs.get("params", args[1] if len(args) > 1 else None)
    return getattr(params, "n_steps", None)


def _file_size(index: int, keyword: str):
    def size(args, kwargs):
        path = kwargs.get(keyword, args[index] if len(args) > index else None)
        try:
            return os.path.getsize(path)
        except (OSError, TypeError):
            return None
    return size


EXTRAS = {
    "splitting.evolve": _evolve_steps,
    "snapshot.save_field": _file_size(1, "path"),
    "snapshot.load_field": _file_size(0, "path"),
}


class Tracer:
    """Installs the wrappers for one repetition at a time and keeps its spans."""

    def __init__(self):
        self.reps: list[list[Span]] = []
        self.fft_calls: list[int] = []
        self.absent: dict[str, str] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._ffts = 0
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def repetition(self):
        self._spans, self._ffts = [], 0
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self.reps.append(self._spans)
            self.fft_calls.append(self._ffts)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                n = _lattice(result)
                if n is None and args:
                    n = _lattice(args[0])
                self._spans.append(Span(sid, parent, name, n, t0, t1,
                                        extra(args, kwargs) if extra else None))
        return traced

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self._ffts += 1
            return fn(*args, **kwargs)
        return counted

    def _install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "nls2d" or k.startswith("nls2d."))]
        for target in TARGETS:
            module_name, attr = target.rsplit(".", 1)
            owner = sys.modules.get(f"nls2d.{module_name}")
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.absent[target] = f"nls2d.{module_name}.{attr} does not exist"
                continue
            wrapper = self._wrap(target, fn, EXTRAS.get(target))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)
        for fname in FFT_FUNCTIONS:
            fn = getattr(np.fft, fname, None)
            if fn is not None:
                self._patch(np.fft, fname, self._count_fft(fn))

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def write_spans(self, path) -> None:
        """Write the first traced repetition's spans as CSV (times from its start)."""
        spans = self.reps[0] if self.reps else []
        origin = min((s.t0 for s in spans), default=0.0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sid", "parent", "name", "n", "start_s", "end_s", "extra"])
            for s in sorted(spans, key=lambda s: s.sid):
                writer.writerow([s.sid, s.parent, s.name, s.n, f"{s.t0 - origin:.9f}",
                                 f"{s.t1 - origin:.9f}", s.extra])


# ---------------------------------------------------------------------------
# per-layer metrics

def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "cli.main_s": "s", "cli.self_s": "s",
        "harness.reference_calls": "count", "harness.reference_hits": "count",
        "harness.reference_hit_ratio": "ratio",
        "harness.reference_miss_s": "s", "harness.reference_hit_s": "s",
        "harness.reference_busy_s": "s", "harness.reference_phase_wall_s": "s",
        "harness.reference_parallel_eff": "ratio",
        "harness.sweep_phase_wall_s": "s", "harness.sweep_busy_s": "s",
        "harness.export_s": "s", "harness.fit_s": "s",
        "splitting.steps": "count", "splitting.evolve_calls": "count",
        "splitting.steps_per_s.N256": "1/s", "splitting.lie_step_us.N256": "us",
        "splitting.nonlinear_phase_us.N256": "us", "splitting.free_flow_us.N256": "us",
        "splitting.steps_per_s.small": "1/s", "splitting.lie_step_us.small": "us",
        "splitting.step_self_us.small": "us",
    }
    for n in SMALL_GRIDS:
        units[f"splitting.lie_step_us.N{n}"] = "us"
    for n in (*SMALL_GRIDS, 256):
        units[f"splitting.bytes_per_step_computed.N{n}"] = "B"
    for stage in ("synthesize", "dft_forward", "project"):
        units[f"spectral.{stage}_us.N256"] = "us"
        units[f"spectral.{stage}_us.small"] = "us"
    units.update({
        "spectral.fft_calls": "count",
        "roughdata.generate_calls": "count",
        "roughdata.generate_us.N256": "us", "roughdata.generate_us.N16": "us",
        "snapshot.save_calls": "count", "snapshot.save_s": "s", "snapshot.bytes_written": "B",
        "snapshot.load_calls": "count", "snapshot.load_s": "s", "snapshot.bytes_read": "B",
        "bourgain.time_space_transform_us": "us", "bourgain.bourgain_norm_us": "us",
        "bourgain.trajectory_l4_us": "us", "bourgain.sup_sobolev_us": "us",
        "bourgain.estimate_probe_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def _index(spans: list[Span]) -> tuple[dict[str, list[Span]], dict[int, float]]:
    """Spans by name, and the summed duration of each span's children."""
    by_name: dict[str, list[Span]] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
    return by_name, child_time


def _rep_metrics(spans: list[Span], fft_calls: int, workers: int) -> dict[str, float | None]:
    """Per-repetition totals (counts, busy and wall times)."""
    by_sid = {s.sid: s for s in spans}
    named, child_time = _index(spans)
    get = lambda name: named.get(name, [])  # noqa: E731
    refs = get("harness.compute_reference")
    ref_ids = {s.sid for s in refs}
    misses = {s.parent for s in get("splitting.evolve") if s.parent in ref_ids}
    sweep = [s for s in get("splitting.evolve") if s.parent not in ref_ids]
    sweep += get("harness.coarse_datum") + get("harness.l2_error")

    def wall(group):
        return max(s.t1 for s in group) - min(s.t0 for s in group) if group else None

    def total(name):
        group = get(name)
        return sum(s.dur for s in group) if group else None

    out: dict[str, float | None] = {
        "cli.main_s": total("cli.main"),
        "cli.self_s": (sum(s.dur - child_time.get(s.sid, 0.0) for s in get("cli.main"))
                       if get("cli.main") else None),
        "harness.reference_calls": len(refs),
        "harness.reference_hits": len(refs) - len(misses),
        "harness.reference_hit_ratio": (len(refs) - len(misses)) / len(refs) if refs else None,
        "harness.reference_busy_s": total("harness.compute_reference"),
        "harness.reference_phase_wall_s": wall(refs),
        "harness.sweep_phase_wall_s": wall(sweep),
        "harness.sweep_busy_s": sum(s.dur for s in sweep) if sweep else None,
        "harness.export_s": total("harness.export"),
        "harness.fit_s": total("harness.fit_order"),
        "splitting.steps": sum(s.extra or 0 for s in get("splitting.evolve")),
        "splitting.evolve_calls": len(get("splitting.evolve")),
        "spectral.fft_calls": fft_calls,
        "roughdata.generate_calls": len(get("roughdata.generate")),
        "snapshot.save_calls": len(get("snapshot.save_field")),
        "snapshot.save_s": total("snapshot.save_field"),
        "snapshot.bytes_written": sum(s.extra or 0 for s in get("snapshot.save_field")),
        "snapshot.load_calls": len(get("snapshot.load_field")),
        "snapshot.load_s": total("snapshot.load_field"),
        "snapshot.bytes_read": sum(s.extra or 0 for s in get("snapshot.load_field")),
    }
    busy, ref_wall = out["harness.reference_busy_s"], out["harness.reference_phase_wall_s"]
    out["harness.reference_parallel_eff"] = (busy / (ref_wall * workers)
                                             if busy and ref_wall else None)
    # computed bytes: array stages called inside evolve or a step, per step
    in_evolve = {s.sid for s in get("splitting.evolve")} | {s.sid for s in get("splitting.lie_step")}
    for n in (*SMALL_GRIDS, 256):
        steps = sum(s.extra or 0 for s in get("splitting.evolve") if s.n == n)
        stages = sum(1 for name in STEP_STAGES for s in get(name)
                     if s.n == n and s.parent in in_evolve and by_sid[s.parent].n == n)
        out[f"splitting.bytes_per_step_computed.N{n}"] = (
            2 * COMPLEX_BYTES * n * n * max(1.0, stages / steps) if steps else None)
    return out


def layer_metrics(tracer: Tracer, workers: int, overhead_frac: float | None
                  ) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics over the traced repetitions, plus the absent ones' reasons.

    Totals are medians over repetitions; per-call times at N = 256 (and
    N16, per small N) are medians over calls, and ``.small`` times are means
    over all calls with N <= 64, so they weigh each grid by its share of
    the steps.  A metric with nothing to measure on this workload is
    reported as 0 and listed in the returned reasons.
    """
    per_rep = [_rep_metrics(spans, ffts, workers)
               for spans, ffts in zip(tracer.reps, tracer.fft_calls)]
    values: dict[str, float | None] = {
        key: _median(r[key] for r in per_rep if r[key] is not None) for key in per_rep[0]
    }
    by_name, child_time = _index([s for rep in tracer.reps for s in rep])

    def durs(name, pred=lambda s: True):
        return [s.dur for s in by_name.get(name, []) if pred(s)]

    def us(x):
        return None if x is None else x * 1e6

    big = lambda s: s.n == 256  # noqa: E731
    small = lambda s: s.n is not None and s.n <= 64  # noqa: E731
    refs = by_name.get("harness.compute_reference", [])
    evolve_parent = {s.parent for s in by_name.get("splitting.evolve", [])}
    values["harness.reference_miss_s"] = _median(s.dur for s in refs if s.sid in evolve_parent)
    values["harness.reference_hit_s"] = _median(s.dur for s in refs if s.sid not in evolve_parent)
    for label, pred in (("N256", big), ("small", small)):
        evolves = [s for s in by_name.get("splitting.evolve", []) if pred(s)]
        busy = sum(s.dur for s in evolves)
        values[f"splitting.steps_per_s.{label}"] = (
            sum(s.extra or 0 for s in evolves) / busy if busy else None)
    values["splitting.lie_step_us.N256"] = us(_median(durs("splitting.lie_step", big)))
    values["splitting.nonlinear_phase_us.N256"] = us(_median(durs("splitting.nonlinear_phase", big)))
    values["splitting.free_flow_us.N256"] = us(_median(durs("splitting.free_flow", big)))
    values["splitting.lie_step_us.small"] = us(_mean(durs("splitting.lie_step", small)))
    values["splitting.step_self_us.small"] = us(_mean(
        s.dur - child_time.get(s.sid, 0.0) for s in by_name.get("splitting.lie_step", [])
        if small(s)))
    for n in SMALL_GRIDS:
        values[f"splitting.lie_step_us.N{n}"] = us(_median(
            durs("splitting.lie_step", lambda s, n=n: s.n == n)))
    for stage in ("synthesize", "dft_forward", "project"):
        values[f"spectral.{stage}_us.N256"] = us(_median(durs(f"spectral.{stage}", big)))
        values[f"spectral.{stage}_us.small"] = us(_mean(durs(f"spectral.{stage}", small)))
    values["roughdata.generate_us.N256"] = us(_median(durs("roughdata.generate", big)))
    values["roughdata.generate_us.N16"] = us(_median(
        durs("roughdata.generate", lambda s: s.n == 16)))
    for metric, name in (("time_space_transform_us", "time_space_transform"),
                         ("bourgain_norm_us", "bourgain_norm"),
                         ("trajectory_l4_us", "trajectory_l4"),
                         ("sup_sobolev_us", "trajectory_sup_sobolev")):
        values[f"bourgain.{metric}"] = us(_median(durs(f"bourgain.{name}")))
    values["bourgain.estimate_probe_s"] = _median(durs("bourgain.estimate_probe"))
    values["trace.overhead_frac"] = overhead_frac

    reasons = {}
    result = {}
    for key in metric_units():
        value = values.get(key)
        if value is None:
            reasons[key] = _absent_reason(tracer.absent)
            value = 0
        result[key] = value
    return result, reasons


def _absent_reason(absent: dict[str, str]) -> str:
    reason = "nothing to measure on this workload"
    if absent:
        reason += "; absent patch points: " + "; ".join(absent.values())
    return reason
