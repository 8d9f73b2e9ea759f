"""Command line entry points for running and replaying experiments.

Exit codes: 0 on success, 1 when any bound report is violated, 2 on a
configuration problem, 3 when an exact solver fails to converge.
"""

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    EXPERIMENT_KINDS,
    ConfigError,
    ExperimentConfig,
    default_config,
    replay_violations,
    run_experiment,
    run_output_dir,
)
from .mdp import SolverConvergenceError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capmdp",
        description="Certify closed-form team-transfer bounds on exactly solved MDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        runner = sub.add_parser(kind, help=f"run a {kind} experiment")
        runner.add_argument("--config", help="path to an experiment config JSON file")
        runner.add_argument("--seed", type=int, default=None, help="override the master seed")
        runner.add_argument("--out", default="runs", help="output root directory")
        runner.add_argument(
            "--format", choices=("csv", "json"), default=None, help="results file format"
        )
    replay = sub.add_parser("replay", help="recompute archived bound violations")
    replay.add_argument("violations", help="path to a violations.json file")
    return parser


def _load_config(kind: str, args) -> ExperimentConfig:
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        config = ExperimentConfig.from_json(text)
        if config.kind != kind:
            raise ConfigError(
                f"config kind {config.kind!r} does not match the {kind!r} subcommand"
            )
    else:
        config = default_config(kind, seed=args.seed if args.seed is not None else 0)
    doc = config.to_doc()
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.format is not None:
        doc["output_format"] = args.format
    return ExperimentConfig.from_doc(doc)


def _run(kind: str, args) -> int:
    config = _load_config(kind, args)
    run_experiment(config, args.out)
    out_dir = run_output_dir(config, args.out)
    summary = json.loads((out_dir / "summary.json").read_text())
    print(
        f"{config.kind}: {summary['num_rows']} rows, "
        f"{summary['num_violations']} violations -> {out_dir}"
    )
    print(f"determinism hash: {summary['determinism_hash']}")
    if summary["num_violations"]:
        print(f"violations archived in {out_dir}/violations.json")
        return EXIT_VIOLATION
    return EXIT_OK


def _replay(args) -> int:
    reports = replay_violations(args.violations)
    still_violated = 0
    for report in reports:
        status = "satisfied" if report.satisfied else "VIOLATED"
        print(
            f"{report.bound_name}: bound={report.bound_value:.6e} "
            f"actual={report.actual_value:.6e} {status}"
        )
        if not report.satisfied:
            still_violated += 1
    print(f"replayed {len(reports)} reports, {still_violated} still violated")
    return EXIT_VIOLATION if still_violated else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return EXIT_CONFIG if code else EXIT_OK
    try:
        if args.command == "replay":
            return _replay(args)
        return _run(args.command, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
