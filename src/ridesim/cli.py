"""Command-line front end: validate / sweep / run.

Exit codes: 0 success, 1 an acceptance threshold failed, 2 usage or
configuration error. Flags override config-file values.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, ScenarioConfig, bundled_data_path, load_config
from .experiments import (ALPHA, run_capacity_sweep, run_single, run_validation,
                          write_sim_report)

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_USAGE = 2


def _load(args, default_name: str) -> ScenarioConfig:
    config_path = args.config
    if config_path is None:
        config_path = bundled_data_path(default_name)
    overrides = {"seed": args.seed, "output_dir": args.out,
                 "replications": getattr(args, "replications", None)}
    if getattr(args, "levels", None) is not None:
        try:
            overrides["levels"] = [float(x) for x in args.levels.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--levels: {exc}") from exc
    config = load_config(config_path, overrides)
    # the outputs are written after every replication has run, so a path
    # that cannot become a directory is refused before the first one
    outdir = Path(config.output_dir)
    existing = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output_dir: {outdir} is not a directory" if existing == outdir
                          else f"output_dir: {outdir} lies under {existing}, not a directory")
    return config


def cmd_validate(args) -> int:
    config = _load(args, "validation.yaml")
    report = run_validation(config)
    outdir = Path(config.output_dir)
    report.write_csv(outdir / "validation.csv")
    report.write_meta(outdir / "validation_meta.json")
    print(f"mean absolute error: {report.mean_absolute_error:.6f} "
          f"(threshold {config.validation_error_threshold})")
    print(f"chi-squared: {report.chi_squared:.4f} vs critical "
          f"{report.critical_value:.4f} at alpha={ALPHA} -> "
          f"{'reject' if report.reject else 'cannot reject'}")
    ok = (not report.reject
          and report.mean_absolute_error <= config.validation_error_threshold)
    return EXIT_OK if ok else EXIT_THRESHOLD


def cmd_sweep(args) -> int:
    config = _load(args, "sweep.yaml")
    report = run_capacity_sweep(config)
    outdir = Path(config.output_dir)
    report.write_csv(outdir / "sweep.csv")
    report.write_meta(outdir / "sweep_meta.json")
    for row in report.rows:
        flag = f"  [{row.warning}]" if row.warning else ""
        print(f"unused={row.unused_fraction:.2f}  match rate "
              f"{row.mean_match_rate:.3f} +/- {row.std_match_rate:.3f}{flag}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _load(args, "validation.yaml")
    # only the report is kept: the replication is freed before the writes
    report = run_single(config)[1]
    outdir = Path(config.output_dir)
    write_sim_report(report, outdir, config.fingerprint(), config.seed)
    print(f"agents: {len(report.outcomes)}  riders: {report.riders.riders}  "
          f"match rate: {report.riders.match_rate:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridesim",
        description="Traffic + peer-to-peer ridesharing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="scenario YAML (default: bundled scenario)")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", type=Path, default=None,
                        help="output directory override")

    p_val = sub.add_parser("validate", parents=[common],
                           help="flow-distribution validation")
    p_val.add_argument("--replications", type=int, default=None)
    p_val.set_defaults(func=cmd_validate)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="carpool-lane unused-capacity sweep")
    p_sweep.add_argument("--levels", type=str, default=None,
                         help="comma-separated unused fractions, e.g. 1.0,0.75")
    p_sweep.add_argument("--replications", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_run = sub.add_parser("run", parents=[common], help="single scenario run")
    p_run.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
