"""Command-line front end.

Subcommands: ``generate`` (write a random datum snapshot), ``run`` (single
solver run), ``reference`` (build/cache a reference solution), ``converge``
(full convergence study from a config file), ``diagnose`` (space-time norm
estimate probes), ``fit`` (convergence order from a records CSV).

``generate`` is the only command that draws a datum.  ``run`` and
``reference`` read theirs from a snapshot given by ``--in``, any datum on
any even lattice, and take N from it.  Options are spelled in full (a
prefix is refused); ``diagnose`` counts the zero trajectories it skips.

Exit codes: 0 success, 2 invalid configuration or parameters, 3 numerical
blowup, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import bourgain, harness, snapshot
from .roughdata import RoughDataSpec, generate
from .spectral import l2_norm
from .splitting import BlowupError, SchemeParams, default_theta, evolve

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BLOWUP = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nls2d", description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random datum snapshot", allow_abbrev=False)
    p.add_argument("--s", type=float, required=True, help="smoothness dial of the datum")
    p.add_argument("--seed", type=int, required=True, help="datum seed")
    # No default: vars(args) holds the margins given, and RoughDataSpec fills in the rest.
    p.add_argument("--eps", type=float, default=argparse.SUPPRESS, help="extra decay margin")
    p.add_argument("--target-l2", type=float, default=argparse.SUPPRESS,
                   help="L2 norm of the datum")
    p.add_argument("--grid", type=int, required=True, help="lattice size N")
    p.add_argument("--out", type=Path, required=True, help="snapshot file to write")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="one solver run, writing the final snapshot",
                       allow_abbrev=False)
    p.add_argument("--in", dest="datum_in", type=Path, required=True,
                   help="datum snapshot, whose lattice the run takes")
    p.add_argument("--tau", type=harness.parse_dyadic, required=True, help="time step (accepts 2^-10)")
    p.add_argument("--T", type=harness.parse_dyadic, required=True, help="final time")
    p.add_argument("--mu", type=int, default=-1, choices=(-1, 1), help="nonlinearity sign")
    p.add_argument("--theta-override", type=harness.parse_dyadic, default=None,
                   help="filter parameter (default max(tau, 4/N^2))")
    p.add_argument("--out", type=Path, required=True, help="final snapshot file")
    p.add_argument("--snapshots", type=Path, default=None, help="directory for trajectory dumps")
    p.add_argument("--snapshot-every", type=int, default=1, help="dump stride")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("reference", help="build and cache a reference solution",
                       allow_abbrev=False)
    p.add_argument("--in", dest="datum_in", type=Path, required=True,
                   help="datum snapshot, whose lattice the reference takes")
    p.add_argument("--tau-ref", type=harness.parse_dyadic, required=True, help="reference step")
    p.add_argument("--T", type=harness.parse_dyadic, required=True, help="final time")
    p.add_argument("--mu", type=int, default=-1, choices=(-1, 1))
    p.add_argument("--cache", type=Path, required=True, help="cache directory")
    p.set_defaults(func=_cmd_reference)

    p = sub.add_parser("converge", help="run a convergence study from a config file",
                       allow_abbrev=False)
    p.add_argument("--config", type=Path, required=True, help="key = value config file")
    p.add_argument("--out", type=Path, default=None, help="override output_dir")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("diagnose", help="estimate probes over trajectory ensembles",
                       allow_abbrev=False)
    p.add_argument("--estimate", choices=(*bourgain.ESTIMATE_IDS, "all"), default="all")
    p.add_argument("--tau", type=harness.parse_dyadic, action="append", required=True,
                   help="trajectory step; repeat for a sweep")
    p.add_argument("--trajectories", type=int, default=100, help="ensemble size per tau")
    p.add_argument("--window", type=int, default=16, help="snapshots per trajectory")
    p.add_argument("--grid", type=int, default=16, help="lattice size of the ensemble")
    p.add_argument("--seed", type=int, default=0, help="ensemble seed")
    p.add_argument("--s", type=float, default=argparse.SUPPRESS, help="probe smoothness exponent")
    p.add_argument("--b", type=float, default=argparse.SUPPRESS, help="time exponent, in (1/2, 1)")
    p.add_argument("--out", type=Path, required=True, help="probe report CSV")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("fit", help="convergence order from a records CSV", allow_abbrev=False)
    p.add_argument("--records", type=Path, required=True)
    p.add_argument("--s", type=float, default=None, help="select one smoothness value")
    p.set_defaults(func=_cmd_fit)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    margins = {k: v for k, v in vars(args).items() if k in ("eps", "target_l2")}
    field = generate(RoughDataSpec(s=args.s, seed=args.seed, n_modes=args.grid, **margins))
    snapshot.save_field(field, args.out)
    print(f"wrote {args.out} (N={args.grid}, l2={l2_norm(field):.6g})")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    u0 = snapshot.load_field(args.datum_in)
    theta = args.theta_override
    if theta is None:
        theta = default_theta(args.tau, u0.shape[-1])
    params = SchemeParams(tau=args.tau, mu=args.mu, t_final=args.T, theta=theta)
    observer = None
    if args.snapshots is not None:
        def observer(step, coeffs):
            # evolve calls this only once it has accepted the stride
            if step == 0:
                args.snapshots.mkdir(parents=True, exist_ok=True)
            snapshot.save_field(coeffs, args.snapshots / f"run_{step}.nls2")

    final, blowup = evolve(u0, params, observer=observer, observer_every=args.snapshot_every)
    if blowup >= 0:
        raise BlowupError(int(blowup))
    snapshot.save_field(final, args.out)
    print(f"wrote {args.out} (steps={params.n_steps}, theta={params.theta:.6g}, "
          f"l2={l2_norm(final):.6g})")
    return EXIT_OK


def _cmd_reference(args: argparse.Namespace) -> int:
    u0 = snapshot.load_field(args.datum_in)
    ref, path = harness.compute_reference(u0, args.tau_ref, args.T, args.mu, cache_dir=args.cache)
    print(f"reference cached at {path} (l2={l2_norm(ref):.6g})")
    return EXIT_OK


def _cmd_converge(args: argparse.Namespace) -> int:
    cfg = harness.parse_config_file(args.config)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    records = harness.run_study(cfg)
    print(f"{len(records)} records in {cfg.output_dir / 'records.csv'}")
    for s in cfg.s_values:
        try:
            fit = harness.fit_order(records, s=s)
        except ValueError as exc:
            print(f"s={s:g}: no fit ({exc})")
            continue
        print(f"s={s:g}: slope={fit.slope:.4f} intercept={fit.intercept:.4f} "
              f"residual={fit.residual:.4f} points={fit.n_points}")
    return EXIT_OK


def _cmd_diagnose(args: argparse.Namespace) -> int:
    estimates = bourgain.ESTIMATE_IDS if args.estimate == "all" else (args.estimate,)
    ensemble = bourgain.probe_ensemble(args.trajectories, args.tau, args.grid, args.window,
                                       seed0=args.seed)
    exponents = {k: v for k, v in vars(args).items() if k in ("s", "b")}
    results = bourgain.estimate_probe(ensemble, estimates, **exponents)
    for result in results:
        skipped = f", {result.skipped} skipped" if result.skipped else ""
        print(f"{result.estimate_id} tau={result.tau:g}: max_ratio={result.max_ratio:.6g} "
              f"over {len(result.rows)} trajectories{skipped}")
    bourgain.write_probe_report(results, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    records = harness.read_records(args.records)
    fit = harness.fit_order(records, s=args.s)
    print(f"slope={fit.slope!r} intercept={fit.intercept!r} "
          f"residual={fit.residual!r} points={fit.n_points}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
