"""Flat key-value experiment configuration.

Config files hold one ``key = value`` pair per line; ``#`` starts a
comment.  Lists are comma-separated, and the rows of a matrix are separated
by ``;``.  ``schema_version = 1`` is required.  Every value has the one
spelling :meth:`ExperimentConfig.echo_lines` prints, so a run's
``config.echo`` parses back to its config.  See README for the
per-experiment key schema.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_file", "parse_config_text"]

SCHEMA_VERSION = 1

EXPERIMENT_KINDS = (
    "histogram",
    "sweep",
    "estimate-noise",
    "multiclass",
    "real-data",
)

KNOWN_VARIANTS = ("naive", "unbiased", "optimized", "oracle", "custom")

SWEEP_PARAMS = ("eps_plus", "rho_plus", "gamma")

# ``gamma = optimal``: the isotropic oracle score m / sqrt(nu - m^2) is
# non-decreasing in gamma and tends to snr^2 / sqrt(snr^2 + eta), the
# mean-difference classifier, as gamma -> infinity; at 1e3 it is within 1e-5
# of that limit.
OPTIMAL_GAMMA = 1e3


class ConfigError(Exception):
    """Raised for malformed or inconsistent configuration input."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration for one experiment run."""

    experiment: str
    schema_version: int = SCHEMA_VERSION
    # data model
    n: int = 1000
    p: int = 200
    pi1: float = 1 / 3
    snr: float = 2.0
    eps_plus: float = 0.0
    eps_minus: float = 0.0
    gamma: float | str = 1.0  # positive float; "optimal" resolves to OPTIMAL_GAMMA
    # variants and sweeps
    variants: tuple[str, ...] = ("naive", "unbiased", "optimized", "oracle")
    custom_rho_plus: float = 0.0
    custom_rho_minus: float = 0.0
    sweep_param: str = "eps_plus"
    grid: tuple[float, ...] = ()
    # replicates / outputs
    seeds: tuple[int, ...] = (0,)
    n_test: int = 10_000
    bins: int = 60
    out: str = ""
    threads: int = 1
    # noise estimation
    probe1_rho_plus: float = 0.0
    probe1_rho_minus: float = 0.1
    probe2_rho_plus: float = 0.0
    probe2_rho_minus: float = 0.4
    # real data
    data_path: str = ""
    label_column: str = "0"
    has_header: bool = False
    # multiclass: one class per mean
    means: tuple[float, ...] = (-2.0, 0.0, 2.0)
    # eps_rows[a][b]: probability that true class b+1 is labelled a+1
    eps_rows: tuple[tuple[float, ...], ...] = ((0.0, 0.3, 0.0), (0.0, 0.0, 0.4), (0.5, 0.0, 0.0))
    pis: tuple[float, ...] = (0.3, 0.3, 0.4)
    grid_size: int = 5000
    tau_points: int = 11
    search_seed: int = 0

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {self.schema_version}; expected {SCHEMA_VERSION}"
            )
        if self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENT_KINDS}"
            )
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct and >= 0, got {self.seeds}")
        if self.bins < 1:
            raise ConfigError(f"bins must be >= 1, got {self.bins}")
        if not self.variants:
            raise ConfigError("variants must be nonempty")
        for v in self.variants:
            if v not in KNOWN_VARIANTS:
                raise ConfigError(f"unknown variant {v!r}; expected one of {KNOWN_VARIANTS}")
        if self.sweep_param not in SWEEP_PARAMS:
            raise ConfigError(
                f"unknown sweep_param {self.sweep_param!r}; expected one of {SWEEP_PARAMS}"
            )
        if self.grid:
            diffs = np.diff(np.asarray(self.grid))
            if np.any(diffs <= 0):
                raise ConfigError("grid values must be strictly increasing")
        elif self.experiment == "sweep" or (
            self.experiment == "estimate-noise" and not self.data_path
        ):
            raise ConfigError(f"experiment {self.experiment!r} needs a nonempty grid")
        if self.gamma == "optimal":
            if self.experiment == "multiclass":
                raise ConfigError("multiclass experiment needs a numeric gamma")
            object.__setattr__(self, "gamma", OPTIMAL_GAMMA)
        # written as `not x > 0` so that NaN fails too
        if isinstance(self.gamma, str) or not self.gamma > 0:
            raise ConfigError(f"gamma must be a positive number or 'optimal', got {self.gamma!r}")
        for key, least in (("n", 2), ("n_test", 2), ("p", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if not 0.0 < self.pi1 < 1.0:
            raise ConfigError(f"pi1 must lie in (0, 1), got {self.pi1}")
        if not math.isfinite(self.snr):
            raise ConfigError(f"snr must be finite, got {self.snr}")
        if not (self.eps_plus >= 0 and self.eps_minus >= 0
                and self.eps_plus + self.eps_minus < 1):
            raise ConfigError(f"eps_plus and eps_minus must be >= 0 with eps_plus + eps_minus "
                              f"< 1, got ({self.eps_plus}, {self.eps_minus})")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.experiment == "multiclass":
            k = len(self.means)
            if len(self.eps_rows) != k or any(len(r) != k for r in self.eps_rows):
                raise ConfigError(f"eps matrix needs k={k} rows of {k} entries, one per mean")
            if len(self.pis) != k:
                raise ConfigError(f"pis needs k={k} entries, one per mean, got {len(self.pis)}")
            if self.grid_size < 1:
                raise ConfigError(f"grid_size must be >= 1, got {self.grid_size}")
            if self.tau_points < 2:
                raise ConfigError(f"tau_points must be >= 2, got {self.tau_points}")

    def resolved_out(self) -> str:
        return self.out or f"runs/{self.experiment}"

    def config_hash(self) -> str:
        """Hash of the semantically meaningful fields (output location and
        worker count excluded)."""
        skip = {"out", "threads"}
        parts = [
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if f.name not in skip
        ]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]

    def echo_lines(self) -> list[str]:
        """Every key in the spelling :func:`parse_config_text` reads back,
        sorted, after the hash as a comment."""
        lines = [f"# config_hash = {self.config_hash()}"]
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {_echo_value(getattr(self, f.name))}")
        return lines


def _echo_value(v) -> str:
    if isinstance(v, tuple):
        sep = ";" if v and isinstance(v[0], tuple) else ","
        return sep.join(_echo_value(x) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


def _parse_bool(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parser(hint):
    """Value parser of a field annotation: a scalar type, ``float | str``
    (``gamma``: a number or ``optimal``) or ``tuple[item, ...]``, whose
    items are split at ``,`` (rows of a ``tuple`` of tuples at ``;``); an
    empty value is the empty tuple."""
    if hint is bool:
        return _parse_bool
    if hint in (int, float, str):
        return hint
    if hint == float | str:
        return lambda v: v if v == "optimal" else float(v)
    item_hint = get_args(hint)[0]
    item, sep = _parser(item_hint), ";" if get_origin(item_hint) is tuple else ","
    return lambda v: tuple(item(x.strip()) for x in v.split(sep)) if v else ()


# One parser per config key, read from the field annotations.
_KEY_PARSERS = {name: _parser(hint) for name, hint in get_type_hints(ExperimentConfig).items()}


def parse_config_text(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse flat ``key = value`` text into an :class:`ExperimentConfig`."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        raw[key] = value

    kwargs: dict = {}
    for key, value in raw.items():
        try:
            kwargs[key] = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    if "experiment" not in kwargs:
        raise ConfigError("missing required key 'experiment'")
    if "schema_version" not in kwargs:
        raise ConfigError("missing required key 'schema_version'")
    try:
        cfg = ExperimentConfig(**kwargs)
        if overrides:
            cfg = replace(cfg, **overrides)
    except TypeError as exc:
        raise ConfigError(f"unknown config key: {exc}") from None
    return cfg


def parse_config_file(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, overrides)
