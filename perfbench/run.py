#!/usr/bin/env python3
"""Benchmark of nls2d: convergence studies (cold and warm cache) and a probe sweep.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload study_cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One process runs one workload: it imports ``nls2d`` from ``src/``, does
its set-up passes (each ends with an untimed warm-up repetition), then
repeats the workload for about ``--seconds`` (it stops once another
repetition would end more than half a repetition past them) and checks
every repetition's outputs.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` traced and
untraced repetitions alternate and it holds the per-layer metrics.
``--workload all`` runs each workload in its own process and prints a
table.  See perfbench/README.md for the workloads, metrics and seeds.
"""

from __future__ import annotations

import os
import time

PROGRAM_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("study_cold", "study_warm", "diagnose")
# Set-up passes per process; setup_s reports their median.
SETUP_PASSES = {"study_cold": 2, "study_warm": 2, "diagnose": 3}
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"


def process_age() -> float:
    """Seconds since this process started (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


AGE_AT_START = process_age()


def import_program():
    """Import nls2d from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "nls2d" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nls2d sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import nls2d
    from nls2d import cli

    if Path(nls2d.__file__).resolve().parent != (src / "nls2d").resolve():
        sys.exit(f"perfbench: imported nls2d from {nls2d.__file__}, not from {src}")
    return nls2d, cli


def environment(nls2d, workers: int, trace: bool) -> dict:
    import numpy as np

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                (index / "size").read_text().strip())
        except OSError:
            continue
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "numpy pocketfft" if hasattr(np.fft, "_pocketfft") else "numpy.fft",
        "scheme_version": getattr(nls2d.splitting, "SCHEME_VERSION", None),
        "nls2d_version": getattr(nls2d, "__version__", None),
        "git_commit": git_commit(),
        "workers": workers,
        "omp_num_threads": os.environ["OMP_NUM_THREADS"],
        "traced": trace,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return "no percentile has ten samples beyond it"
    q = int(100 * (1 - 10 / n))
    return f"p{q} {statistics.quantiles(values, n=100)[q - 1]:.6f} s"


def run_workload(args) -> int:
    nls2d, cli = import_program()
    import_s = AGE_AT_START + time.perf_counter() - PROGRAM_START

    import tracing
    import workloads

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    wl = workloads.make(args.workload, cli, workdir, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    try:
        passes = []
        for k in range(SETUP_PASSES[args.workload]):
            start = time.perf_counter()
            wl.prepare(k)
            passes.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(passes)

        times: dict[bool, list[float]] = {False: [], True: []}
        attempted = failed = 0
        laps: list[float] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            lap_start = time.perf_counter()
            traced = tracer is not None and attempted % 2 == 1
            attempted += 1
            try:
                if traced:
                    with tracer.repetition():
                        elapsed, out = wl.run(attempted)
                else:
                    elapsed, out = wl.run(attempted)
                times[traced].append(elapsed)
                wl.check(out)
                shutil.rmtree(out, ignore_errors=True)
            except Exception:  # a failed repetition is counted, and the run goes on
                failed += 1
                traceback.print_exc()
            laps.append(time.perf_counter() - lap_start)
            # Stop where the window ends nearest to --seconds: at most half a
            # repetition early or late, so 8-s study repetitions do not
            # overrun by up to a whole repetition.
            if (time.perf_counter() + statistics.median(laps) / 2 >= deadline
                    and attempted >= (2 if tracer else 1)):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    if not times[False]:
        sys.exit("perfbench: no untraced repetition completed; no result")
    env = environment(nls2d, wl.workers, bool(args.trace))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    run_s = statistics.median(times[False])
    if tracer is None:
        metrics = {
            "run_s": (run_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        print(f"run_s        {run_s:.6f} s  median of {len(times[False])} repetitions; "
              f"min {min(times[False]):.6f} s, max {max(times[False]):.6f} s; "
              f"{high_percentile(times[False])}")
        print(f"setup_s      {setup_s:.6f} s  import {import_s:.3f} s + median of "
              f"{len(passes)} set-up passes {[round(p, 3) for p in passes]}")
        print(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.3f} MiB")
    else:
        overhead = None
        if times[True] and times[False]:
            overhead = statistics.median(times[True]) / run_s - 1.0
        values, reasons = tracing.layer_metrics(tracer, wl.workers, overhead)
        units = tracing.metric_units()
        metrics = {key: (values[key], units[key]) for key in units}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans_path)
        print(f"traced {len(times[True])} and untraced {len(times[False])} repetitions; "
              f"spans of the first traced one in {spans_path.relative_to(ROOT)}")
        for key, (value, unit) in metrics.items():
            note = f"  (absent: {reasons[key]})" if key in reasons else ""
            print(f"{key:40s} {value:.6g} {unit}{note}")
    print(f"failed_frac  {failed / attempted:.6f}  ({failed} of {attempted} repetitions)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and tabulate the results."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            return 1
        rows.append((name, json.loads(lines[-1])))
    for name, result in rows:
        print(f"== {name}: correct={result['correct']} "
              f"failed_frac={result['failed'] / result['attempted']:.6f} "
              f"({result['failed']} of {result['attempted']})")
        for key, m in result["metrics"].items():
            print(f"   {key:40s} {m['value']:.6g} {m['unit']}")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
