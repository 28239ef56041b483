"""Command-line front end.

Subcommands: `run <config.json>` executes a JSON experiment plan,
`smoke` runs the fast built-in suite, `list-experiments` prints the
known experiment kinds. Exit codes: 0 all non-INFO verdicts PASS,
1 any FAIL, 2 configuration error, 3 I/O error. --threads is accepted
for compatibility and has no effect: every experiment runs its trials
serially in trial-index order.
"""

from __future__ import annotations

import argparse
import sys

from .cli_report import (
    list_experiment_kinds,
    load_config,
    manifest_exit_code,
    run_all,
    smoke_plans,
)
from .errors import LevyHullError


def _add_run_options(parser):
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed (default 0)"
    )
    parser.add_argument(
        "--out",
        default="levyhull_out",
        help="output directory (default ./levyhull_out)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; has no effect (trials run serially)",
    )
    parser.add_argument(
        "--dump-polytopes",
        action="store_true",
        help="also write a few sample hulls to polytopes.json",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyhull",
        description=(
            "Simulate convex hulls of stable and Brownian paths and check "
            "their mean geometric functionals against closed-form values."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run experiments from a JSON config")
    run_p.add_argument("config", help="path to the JSON config file")
    _add_run_options(run_p)

    smoke_p = sub.add_parser(
        "smoke", help="run the fast built-in suite (small trial counts)"
    )
    _add_run_options(smoke_p)

    sub.add_parser("list-experiments", help="print the known experiment kinds")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-experiments":
        for kind, description in list_experiment_kinds():
            print(f"{kind:24s} {description}")
        return 0
    try:
        plans = load_config(args.config) if args.command == "run" else smoke_plans()
        manifest = run_all(
            plans,
            args.out,
            master_seed=args.seed,
            dump_polytopes=args.dump_polytopes,
        )
    except LevyHullError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    for label, verdict in manifest.verdicts.items():
        print(f"{verdict:4s} {label}")
    code = manifest_exit_code(manifest)
    print(f"results written to {args.out} (run {manifest.run_id}, exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
