"""Command-line front end.

Subcommands:
    test           run the symmetry test on a CSV of observations
    zeta-gaussian  closed-form/Haar-MC value of the measure for N(0, Sigma)
    simulate       run a configured power/level study
    pitman         local-alternative efficiency study
    subsample      subsampling protocol on a local CSV dataset

Exit codes: 0 success, 1 runtime/IO failure, 2 usage error.  The resampling
pass and the Gaussian oracle run on as many threads as numpy's OpenBLAS is set
to use: OPENBLAS_NUM_THREADS=k spheresym ... runs them on k.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .augment import CENTER_MODES
from .calibrate import DEFAULT_ALPHA, DEFAULT_B, ENUM_LIMIT, _check_enum_size, run_test
from .core import Sample
from .distributions import describe
from .experiments import (
    load_csv_matrix,
    parse_config,
    pitman_config,
    run_power_study,
    subsample_config,
    write_records,
)
from .oracle import CovSpec, HaarConfig, gaussian_zeta
from .rng import RngStream


# A probe (R = 400, B = 200, alpha = 0.05, Gaussian and spherical t3 data
# shifted off centre), not a checked criterion; the README has the table.
CENTER_HELP = ("'spatial-median' subtracts the sample's spatial median first, which makes the test "
               "conservative: in a probe at alpha = 0.05 its level was 0.007-0.010 at d = 2 and "
               "0.000 at d = 10 and d = 100, against 0.037-0.075 at the true centre")


def _add_input_flags(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="CSV file, rows = observations")
    p.add_argument("--header", action="store_true",
                   help="skip the first CSV record; a quoted field may span lines, and an unclosed "
                        "quote makes the whole file the header")


def _add_common_test_flags(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--B", type=int, default=DEFAULT_B)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spheresym", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="test a CSV of observations for spherical symmetry")
    _add_input_flags(p)
    _add_common_test_flags(p)
    p.add_argument("--center", choices=CENTER_MODES, default="none", help=CENTER_HELP)
    p.add_argument("--exact", action="store_true",
                   help=f"enumerate all 2^n swaps (n <= {ENUM_LIMIT})")
    p.add_argument("--output", help="write the outcome as JSON to this path")

    p = sub.add_parser("zeta-gaussian", help="measure value for a centered Gaussian")
    p.add_argument("--sigma", required=True, help="CSV covariance matrix or 'identity'")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--haar-m", type=int, default=100_000,
                   help="number of Haar draws for the Monte Carlo integral (default 100000)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", help="run a configured power/level study")
    p.add_argument("--config", required=True)

    p = sub.add_parser("pitman", help="local-alternative efficiency study")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n-grid", type=int, nargs="+", default=[50, 100, 250, 500])
    p.add_argument("--R", type=int, default=200)
    _add_common_test_flags(p)
    p.add_argument("--output", default="results/pitman")

    p = sub.add_parser("subsample", help="subsampling study on a local CSV dataset")
    _add_input_flags(p)
    p.add_argument("--sizes", type=int, nargs="+", required=True)
    p.add_argument("--R", type=int, default=200)
    _add_common_test_flags(p)
    p.add_argument("--center", choices=CENTER_MODES, default="spatial-median", help=CENTER_HELP)
    p.add_argument("--output", default="results/subsample")

    return parser


def cmd_test(args) -> int:
    data = load_csv_matrix(args.input, has_header=args.header)
    if not (0 < args.alpha < 1):
        print(f"error: alpha must be in (0, 1), got {args.alpha}", file=sys.stderr)
        return 2
    if args.B < 1:
        print(f"error: B must be >= 1, got {args.B}", file=sys.stderr)
        return 2
    if args.exact:
        try:
            _check_enum_size(len(data))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    outcome = run_test(
        Sample(data),
        RngStream(args.seed),
        alpha=args.alpha,
        B=args.B,
        center_mode=args.center,
        exact=args.exact,
    )
    print(f"statistic {outcome.statistic:.10g}")
    print(f"p_value {outcome.p_value:.10g}")
    print(f"reject {str(outcome.reject).lower()}")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(outcome.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_zeta_gaussian(args) -> int:
    if args.haar_m < 1:
        print(f"error: --haar-m must be >= 1, got {args.haar_m}", file=sys.stderr)
        return 2
    if args.d < 1:
        print(f"error: --d must be >= 1, got {args.d}", file=sys.stderr)
        return 2
    # a file that cannot be read exits 1; a covariance the oracle refuses exits 2
    matrix = np.eye(args.d) if args.sigma == "identity" else load_csv_matrix(args.sigma)
    try:
        sigma = CovSpec(matrix)
        if sigma.d != args.d:
            raise ValueError(f"matrix is {sigma.d}x{sigma.d}, expected d={args.d}")
        estimate, std_error = gaussian_zeta(sigma, args.d, HaarConfig(m=args.haar_m, seed=args.seed))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{estimate:.10g} {std_error:.10g}")
    return 0


def _simulate_study(args):
    config = parse_config(args.config)
    echo = {
        "name": config.name,
        "R": config.R,
        "B": config.B,
        "alpha": config.alpha,
        "seed": config.seed,
        "center": config.center_mode,
        "cells": [f"{describe(cell.spec)} n={cell.n}" for cell in config.cells],
    }
    return config, config.output or f"results/{config.name}", echo


def _pitman_study(args):
    config = pitman_config(
        args.gamma, tuple(args.n_grid), R=args.R, B=args.B, alpha=args.alpha, seed=args.seed
    )
    echo = {"gamma": args.gamma, "n_grid": args.n_grid, "R": args.R, "B": args.B,
            "alpha": args.alpha, "seed": args.seed}
    return config, args.output, echo


def _subsample_study(args):
    config = subsample_config(
        args.data, os.path.basename(args.input), tuple(args.sizes), R=args.R, B=args.B,
        alpha=args.alpha, seed=args.seed, center_mode=args.center,
    )
    echo = {"input": args.input, "sizes": args.sizes, "R": args.R, "B": args.B,
            "alpha": args.alpha, "seed": args.seed, "center": args.center}
    return config, args.output, echo


# Each builds its subcommand's (config, output prefix, config echo).
_STUDIES = {"simulate": _simulate_study, "pitman": _pitman_study, "subsample": _subsample_study}


def cmd_study(args) -> int:
    """Build the study (an invalid value exits 2), run it, print and write its records."""
    if args.command == "subsample":
        # Read and checked before the usage-error wrapper and any replication:
        # a bad file, or one with NaN or Inf, exits 1, as in `test`.
        args.data = Sample(load_csv_matrix(args.input, has_header=args.header)).data
    try:
        config, out, echo = _STUDIES[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = run_power_study(config)
    header = f"{'spec':<50} {'n':>5} {'d':>5} {'power':>7} {'se':>7}"
    print(header)
    print("-" * len(header))
    for rec in records:
        print(f"{rec.spec:<50} {rec.n:>5} {rec.d:>5} {rec.power:>7.3f} {rec.std_error:>7.3f}")
    csv_path, json_path = write_records(records, out, echo)
    print(f"wrote {csv_path} and {json_path}")
    return 0


_COMMANDS = {
    "test": cmd_test,
    "zeta-gaussian": cmd_zeta_gaussian,
    **dict.fromkeys(_STUDIES, cmd_study),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
