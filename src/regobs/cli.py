"""Command line interface: run, rank, sweep, version.

Exit codes: 0 success (including NotDetectable runs), 1 usage or validation
error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import ConfigError, load_config
from .harness import emit_sweep, placement_sweep, rank_report, render_rank_report, run_experiment


class _UsageError(SystemExit):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise _UsageError(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="regobs", description="Regional boundary observability toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and emit files")
    run.add_argument("--config", required=True, help="path to the config file")
    run.add_argument("--out", required=True, help="output directory")

    rank = sub.add_parser("rank", help="print the strategic-sensor rank report")
    rank.add_argument("--config", required=True, help="path to the config file")

    sweep = sub.add_parser("sweep", help="sensor placement sweep over an interior lattice")
    sweep.add_argument("--config", required=True, help="path to the config file")
    sweep.add_argument("--grid", required=True, type=int, help="lattice size per axis (>= 2)")
    sweep.add_argument("--out", required=True, help="output directory")

    sub.add_parser("version", help="print the package version")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    report, _ = run_experiment(cfg, out_dir=args.out)
    summary = report.estimators[report.primary]
    print(f"run complete: estimator={report.primary} "
          f"not_detectable={str(summary.not_detectable).lower()} "
          f"strategic={report.strategic.verdict}")
    if summary.diverged:
        print(f"divergence: {summary.divergence_message}")
    print(f"outputs: {args.out}: " + ", ".join(report.manifest))
    return 0


def _cmd_rank(args) -> int:
    cfg = load_config(args.config)
    sys.stdout.write(render_rank_report(rank_report(cfg)))
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    result = placement_sweep(cfg, args.grid)
    path = emit_sweep(result, args.out)
    n_strategic = sum(1 for row in result.rows if row.strategic)
    print(f"sweep complete: {len(result.rows)} positions, {n_strategic} strategic")
    print(f"outputs: {path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "rank":
            return _cmd_rank(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "version":
            print(__version__)
            return 0
        parser.print_usage(sys.stderr)
        return 1
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface runtime failures as exit 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
