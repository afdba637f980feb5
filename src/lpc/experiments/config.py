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
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import get_args, get_origin, get_type_hints

import numpy as np

from ..core import RhoParams
from ..datasets import GmmSpec, _check_flip_rates
from ..multiclass import MultiGmmSpec, _check_search

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


@contextmanager
def _naming(keys: str = ""):
    """A ``ValueError`` or ``ConfigError`` becomes a ``ConfigError`` that names
    ``keys``; without ``keys`` its message, which names them, is kept."""
    try:
        yield
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{keys}: {exc}" if keys else str(exc)) from None


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
    out: str = ""
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
    search_seed: int = 0

    # Not fields, so never parsed, echoed or hashed: seeds run one after
    # another, and the multiclass path has 11 points.  The benchmark reads
    # both (perfbench/worker.py and perfbench/workloads.py).
    threads = 1
    tau_points = 11

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
        # search_seed is checked for every run, grid_size where the search reads it
        with _naming():
            _check_search(self.search_seed,
                          *((self.grid_size,) if self.experiment == "multiclass" else ()))
        if not self.variants:
            raise ConfigError("variants must be nonempty")
        for v in self.variants:
            if v not in KNOWN_VARIANTS:
                raise ConfigError(f"unknown variant {v!r}; expected one of {KNOWN_VARIANTS}")
        if self.sweep_param not in SWEEP_PARAMS:
            raise ConfigError(
                f"unknown sweep_param {self.sweep_param!r}; expected one of {SWEEP_PARAMS}"
            )
        noise_grid = self.experiment == "estimate-noise" and not self.data_path
        if self.grid:
            diffs = np.diff(np.asarray(self.grid))
            if np.any(diffs <= 0):
                raise ConfigError("grid values must be strictly increasing")
        elif self.experiment == "sweep" or noise_grid:
            raise ConfigError(f"experiment {self.experiment!r} needs a nonempty grid")
        if self.gamma == "optimal":
            if self.experiment == "multiclass":
                raise ConfigError("multiclass experiment needs a numeric gamma")
            object.__setattr__(self, "gamma", OPTIMAL_GAMMA)
        # written as `not 0 < x < inf` so that NaN fails too
        if isinstance(self.gamma, str) or not 0 < self.gamma < math.inf:
            raise ConfigError(
                f"gamma must be a finite positive number or 'optimal', got {self.gamma!r}")
        for key, least in (("n", 2), ("n_test", 2), ("p", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if not 0.0 < self.pi1 < 1.0:
            raise ConfigError(f"pi1 must lie in (0, 1), got {self.pi1}")
        if not math.isfinite(self.snr):
            raise ConfigError(f"snr must be finite, got {self.snr}")
        with _naming("eps_plus and eps_minus"):
            _check_flip_rates(self.eps_plus, self.eps_minus)
        if self.data_path and self.experiment not in ("estimate-noise", "real-data"):
            raise ConfigError(f"data_path is read by real-data and estimate-noise only; a "
                              f"{self.experiment} run draws from the configured model")
        # the model the run draws from, asked for the class sizes of its draws
        if not self.data_path:
            multi = self.experiment == "multiclass"
            with _naming(f"{'means, pis, eps_rows' if multi else 'pi1'} with n, n_test"):
                for n in (self.n, self.n_test):
                    self.model.class_sizes(n)
        if self.data_path and not self.has_header:
            try:
                int(self.label_column)
            except ValueError:
                raise ConfigError(f"label_column {self.label_column!r} is a column name, "
                                  "which needs has_header = true") from None
        if "custom" in self.variants:
            with _naming("custom_rho_plus, custom_rho_minus"):
                RhoParams(self.custom_rho_plus, self.custom_rho_minus)
        if noise_grid and not self.snr > 0:
            raise ConfigError(f"estimate-noise needs snr > 0, got {self.snr}")
        if self.experiment == "sweep" or noise_grid:  # each point as the run uses it
            for value in self.grid:
                with _naming(f"grid point {value}"):
                    self.at_grid_point(value)

    @cached_property
    def model(self) -> GmmSpec | MultiGmmSpec:
        """The model a synthetic run draws from and predicts with: for
        ``multiclass`` the collinear-means spec (the mean of class ``j`` is
        ``means[j] * e1``), otherwise ``GmmSpec.isotropic(p, pi1, snr)``.
        Parse builds it, except for a ``data_path`` run, whose model comes
        from the CSV."""
        if self.experiment == "multiclass":
            means = np.zeros((len(self.means), self.p))
            means[:, 0] = self.means
            return MultiGmmSpec(means, self.pis, self.eps_rows)
        return GmmSpec.isotropic(self.p, self.pi1, self.snr)

    def at_grid_point(self, value: float) -> ExperimentConfig:
        """One grid point as a one-point ``histogram`` config: the value the grid
        sweeps (``custom_rho_plus`` for ``sweep_param = rho_plus``; ``eps_plus``
        for the estimate-noise grid) replaced by ``value``."""
        sweep = self.sweep_param if self.experiment == "sweep" else "eps_plus"
        key = "custom_rho_plus" if sweep == "rho_plus" else sweep
        return replace(self, experiment="histogram", grid=(), **{key: value})

    def resolved_out(self) -> str:
        return self.out or f"runs/{self.experiment}"

    def config_hash(self) -> str:
        """Hash of the semantically meaningful fields (output location
        excluded)."""
        parts = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.name != "out"]
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
