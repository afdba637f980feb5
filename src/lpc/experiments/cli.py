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
    run = sub.add_parser("run", help="run the experiment the config declares")
    theory = sub.add_parser("theory", help="print the theory statistics of the config's model")
    for p in (run, theory):
        p.add_argument("--config", required=True, help="flat key-value config file")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--seeds", default=None,
                     help="comma-separated seed list overriding the config")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # `theory` takes no overrides; a flag's value is read as its key's line
        overrides = {k: v for k, v in vars(args).items()
                     if k in ("out", "seeds") and v is not None}
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
