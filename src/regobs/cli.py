"""Command line interface: run, rank, sweep, version.

Exit codes: 0 success (including NotDetectable runs), 1 usage or validation
error (including a problem too large to allocate), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__
from .config import ConfigError, load_config
from .harness import emit_sweep, placement_sweep, rank_report, render_rank_report, run_experiment

_TOO_LARGE = "; lower simulation.n_modes or simulation.T, raise simulation.dt, or take a smaller sweep --grid"


class _UsageError(SystemExit):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise _UsageError(1)


@functools.cache  # one parser per process; _Parser.error looks sys.stderr up when it is called
def _build_parser() -> _Parser:
    parser = _Parser(prog="regobs", description="Regional boundary observability toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and emit files")
    run.add_argument("--config", required=True, help="path to the config file")
    run.add_argument("--out", help="output directory (default: the config's output.directory)")
    run.set_defaults(func=_cmd_run)

    rank = sub.add_parser("rank", help="print the strategic-sensor rank report")
    rank.add_argument("--config", required=True, help="path to the config file")
    rank.set_defaults(func=_cmd_rank)

    sweep = sub.add_parser("sweep", help="sensor placement sweep over an interior lattice")
    sweep.add_argument("--config", required=True, help="path to the config file")
    sweep.add_argument("--grid", required=True, type=int, help="lattice size per axis (>= 2)")
    sweep.add_argument("--out", help="output directory (default: the config's output.directory)")
    sweep.set_defaults(func=_cmd_sweep)

    sub.add_parser("version", help="print the package version").set_defaults(func=_cmd_version)
    return parser


def _out_dir(args, cfg) -> str:
    """--out, or the config's output.directory when --out is not given: an
    empty --out, or a directory through an existing non-directory, can never
    be written, a usage error before any work."""
    out = cfg.output.directory if args.out is None else args.out
    if not out:
        raise ConfigError("--out must be a nonempty path")
    head = os.path.abspath(out)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ConfigError(f"output directory {out!r} cannot be made: {head!r} is not a directory")
    return out


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    report, _ = run_experiment(cfg, out_dir=out)
    summary = report.estimators[report.primary]
    print(f"run complete: estimator={report.primary} "
          f"not_detectable={str(summary.not_detectable).lower()} "
          f"strategic={report.strategic.verdict}")
    if summary.diverged:
        print(f"divergence: {summary.divergence_message}")
    print(f"outputs: {out}: " + ", ".join(report.manifest))
    return 0


def _cmd_rank(args) -> int:
    cfg = load_config(args.config)
    sys.stdout.write(render_rank_report(rank_report(cfg)))
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    result = placement_sweep(cfg, args.grid)
    path = emit_sweep(result, out)
    print(f"sweep complete: {result.strategic.size} positions, {result.strategic.sum()} strategic")
    print(f"outputs: {path}")
    return 0


def _cmd_version(args) -> int:
    print(__version__)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError:
        return 1
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, MemoryError) as exc:
        # an allocation that numpy refuses at once is a problem too large to run
        print(f"error: {exc}" + (_TOO_LARGE if isinstance(exc, MemoryError) else ""), file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface runtime failures as exit 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
