"""Command-line surface: one subcommand per experiment.

Examples
--------
opgeom geom --family bernstein --function e1 --n-list 4,8,16,32 -o geom.csv
opgeom invariants -o invariants.csv     # exits nonzero on any failing row
opgeom iterates --config run.json --n-list 4,8   # flags override the file

Every run writes CSV (UTF-8, LF, '.' decimal separator) plus a JSON
metadata sidecar <output>.meta.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .errors import DomainError, QuadratureError, TruncationBudgetError
from .experiments import (EXPERIMENTS, ExperimentConfig, run_experiment)
from .operators import FAMILIES

_FLAG_KEYS = tuple(f.name for f in fields(ExperimentConfig)
                   if f.name != "experiment")


def _parse_n_list(text):
    try:
        return tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n-list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opgeom",
        description="Convergence experiments for positive linear operators "
                    "and their geometric series on the weighted space")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                metavar="|".join(EXPERIMENTS))
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--family", choices=FAMILIES)
        p.add_argument("--n-list", type=_parse_n_list, dest="n_list",
                       help="comma-separated increasing orders, e.g. 4,8,16")
        p.add_argument("--rho", type=float,
                       help="durrmeyer shape parameter (default 1)")
        p.add_argument("--function", help="registry function name")
        p.add_argument("--grid-size", type=int, dest="grid_size")
        p.add_argument("--eps", type=float,
                       help="series tolerance / truncation budget")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--output", "-o", help="CSV output path")
        p.add_argument("--jobs", type=int, help="parallel workers over n")
    return parser


def _merge_config(args) -> ExperimentConfig:
    merged = {"experiment": args.experiment}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise DomainError(f"config {args.config} is not a JSON object")
        named = loaded.get("experiment", args.experiment)
        if named != args.experiment:
            raise DomainError(f"config {args.config} is for experiment "
                              f"{named!r}, not {args.experiment!r}")
        unknown = sorted(set(loaded) - {"experiment", *_FLAG_KEYS})
        if unknown:
            raise DomainError(f"config {args.config} has unknown keys {unknown}")
        merged.update(loaded)
    for key in _FLAG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return ExperimentConfig(**{k: v for k, v in merged.items() if v is not None})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        report = run_experiment(config)
    except (KeyError, ValueError, OSError, QuadratureError,
            TruncationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not config.output:
        print("\n".join(report.csv_lines()))
    else:
        print(f"wrote {config.output} ({len(report.rows)} rows, "
              f"{report.metadata['wall_time_s']:.2f}s)")
    meta = report.metadata
    for n, met, bound in zip(config.n_list, meta.get("eps_met", ()),
                             meta.get("tail_bounds", ())):
        if not met:
            print(f"warning: n = {n}: tail_bound {bound:.3e} exceeds eps "
                  f"{config.eps:.3e}", file=sys.stderr)
    failures = report.failures
    for name, measured, threshold, _ in failures:
        print(f"FAIL {name}: measured {measured:.3e} > threshold "
              f"{threshold:.3e}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
