"""Config-driven experiment harness: figure reproduction, reports, CLI."""

from .config import (
    OPTIMAL_GAMMA,
    ConfigError,
    ExperimentConfig,
    parse_config_file,
    parse_config_text,
)
from .report import RunReport, emit_report, read_report_csv
from .runner import run_experiment, theory_csv

__all__ = [
    "OPTIMAL_GAMMA",
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "emit_report",
    "parse_config_file",
    "parse_config_text",
    "read_report_csv",
    "run_experiment",
    "theory_csv",
]
