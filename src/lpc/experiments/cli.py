"""Command-line front end: ``lpc run --config <path>`` runs the experiment
the config declares; ``lpc theory --config <path>`` prints its theory.

Exit codes: 0 on success, 1 for configuration errors, 2 for runtime or
numeric errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, parse_config_file
from .report import emit_report
from .runner import run_experiment, theory_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpc",
        description="Labels-Perturbed Classifier experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "run the experiment the config declares"),
                            ("theory", "print the theory statistics of the config's model")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="flat key-value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seeds", default=None,
                       help="comma-separated seed list overriding the config")
        p.add_argument("--threads", type=int, default=None, help="worker threads")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        if args.out is not None:
            overrides["out"] = args.out
        if args.seeds is not None:
            try:
                overrides["seeds"] = tuple(int(s) for s in args.seeds.split(","))
            except ValueError:
                raise ConfigError(f"bad --seeds value {args.seeds!r}") from None
        if args.threads is not None:
            overrides["threads"] = args.threads
        cfg = parse_config_file(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "theory":
            sys.stdout.write(theory_csv(cfg))
            return 0
        report = run_experiment(cfg)
        written = emit_report(report, cfg.resolved_out())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numeric/runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
