"""Flat key-value experiment configuration.

Config files hold one ``key = value`` pair per line; ``#`` starts a
comment.  Lists are comma-separated, and the rows of a matrix are separated
by ``;``.  ``schema_version = 1`` is required.  Every value has the one
spelling :meth:`ExperimentConfig.echo_lines` prints, so a run's
``config.echo`` parses back to its config.  A config names only keys its
run reads (:data:`_READS`); see README for what each key means.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property
from typing import get_args, get_origin, get_type_hints

import numpy as np

from ..core import RhoParams
from ..datasets import GmmSpec, _check_flip_rates
from ..multiclass import MultiGmmSpec, _check_search

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_file", "parse_config_text"]

SCHEMA_VERSION = 1

KNOWN_VARIANTS = ("naive", "unbiased", "optimized", "oracle", "custom")

# sweep_param -> the key its grid replaces
_SWEPT = {"eps_plus": "eps_plus", "rho_plus": "custom_rho_plus", "gamma": "gamma"}

# The keys a run reads, by (experiment, data_path set?), besides those every
# run reads: the row a run names its keys from.  A sweep does not read its
# swept key, and the custom pair is read only when variants holds custom
# (:func:`_keys_read`).  Parse refuses any other key; config.echo and
# config_hash cover exactly these.
_EVERY_RUN = ("experiment", "schema_version", "seeds", "out")
_PAIRED = ("n", "p", "pi1", "snr", "eps_plus", "eps_minus", "gamma", "variants", "n_test")
_CSV = ("data_path", "label_column", "has_header")
_CUSTOM = ("custom_rho_plus", "custom_rho_minus")
_READS = {
    ("histogram", False): _PAIRED,
    ("sweep", False): _PAIRED + ("sweep_param", "grid"),
    ("estimate-noise", False): ("n", "p", "pi1", "snr", "eps_minus", "gamma", "grid"),
    ("estimate-noise", True): _CSV + ("gamma",),
    ("multiclass", False): ("n", "p", "means", "pis", "eps_rows", "gamma", "grid_size",
                            "search_seed", "n_test"),
    ("real-data", False): _PAIRED,
    ("real-data", True): _CSV + ("n", "eps_plus", "eps_minus", "gamma", "variants"),
}
EXPERIMENT_KINDS = tuple(dict.fromkeys(kind for kind, _ in _READS))

# ``gamma = optimal``: the isotropic oracle score m / sqrt(nu - m^2) is
# non-decreasing in gamma and tends to snr^2 / sqrt(snr^2 + eta), the
# mean-difference classifier, as gamma -> infinity; at 1e3 it is within 1e-5
# of that limit.
OPTIMAL_GAMMA = 1e3


class ConfigError(Exception):
    """Raised for malformed or inconsistent configuration input."""


def _keys_read(experiment: str, data_path: str, variants: tuple[str, ...],
               sweep_param: str) -> tuple[str, ...]:
    """The keys a run reads, sorted: its row of :data:`_READS` (a
    ``data_path`` on an experiment that reads no CSV keeps the synthetic
    row, which refuses it) and :data:`_EVERY_RUN`."""
    row = _READS.get((experiment, bool(data_path))) or _READS.get((experiment, False), ())
    if "custom" in variants:
        row += _CUSTOM
    if experiment == "sweep":
        row = tuple(k for k in row if k != _SWEPT.get(sweep_param))
    return tuple(sorted(_EVERY_RUN + row))


def _refuse_unread(key: str, experiment: str, reads: tuple[str, ...]) -> None:
    """Refuse ``key``, which a run of ``experiment`` that reads ``reads``
    does not read."""
    csv = " with data_path" if "data_path" in reads else ""
    raise ConfigError(f"unknown config key {key!r} for experiment {experiment!r}{csv}; "
                      f"it reads {', '.join(reads)}")


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
        reads = self.keys_read()
        unread = [f.name for f in fields(self) if f.name not in reads
                  and f.default is not MISSING and getattr(self, f.name) != f.default]
        if unread:
            _refuse_unread(unread[0], self.experiment, reads)
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct and >= 0, got {self.seeds}")
        if self.experiment == "multiclass":
            with _naming():
                _check_search(len(self.means), self.search_seed, self.grid_size)
        if not self.variants:
            raise ConfigError("variants must be nonempty")
        for v in self.variants:
            if v not in KNOWN_VARIANTS:
                raise ConfigError(f"unknown variant {v!r}; expected one of {KNOWN_VARIANTS}")
        if self.sweep_param not in _SWEPT:
            raise ConfigError(
                f"unknown sweep_param {self.sweep_param!r}; expected one of {tuple(_SWEPT)}"
            )
        grid_run = "grid" in reads  # a sweep or a synthetic estimate-noise
        if self.grid:
            diffs = np.diff(np.asarray(self.grid))
            if np.any(diffs <= 0):
                raise ConfigError("grid values must be strictly increasing")
        elif grid_run:
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
        if self.data_path and self.experiment == "estimate-noise" and len(self.seeds) > 1:
            raise ConfigError(f"an estimate-noise run on data_path makes one estimate, "
                              f"so seeds must name one seed, got {self.seeds}")
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
        if grid_run and self.experiment == "estimate-noise" and not self.snr > 0:
            raise ConfigError(f"estimate-noise needs snr > 0, got {self.snr}")
        if grid_run:  # each point as the run uses it
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
        for the estimate-noise grid) replaced by ``value`` where a cell reads
        it (without the ``custom`` variant none reads ``custom_rho_plus``)."""
        sweep = self.sweep_param if self.experiment == "sweep" else "eps_plus"
        point = {"experiment": "histogram", "grid": (),
                 "sweep_param": ExperimentConfig.sweep_param}
        if _SWEPT[sweep] in _keys_read("histogram", "", self.variants, ""):
            point[_SWEPT[sweep]] = value
        return replace(self, **point)

    def resolved_out(self) -> str:
        return self.out or f"runs/{self.experiment}"

    def keys_read(self) -> tuple[str, ...]:
        """The keys this run reads, sorted (:func:`_keys_read`)."""
        return _keys_read(self.experiment, self.data_path, self.variants, self.sweep_param)

    def config_hash(self) -> str:
        """Hash of the keys the run reads but ``out``: two configs that
        compute the same numbers hash the same."""
        parts = [f"{k}={getattr(self, k)!r}" for k in self.keys_read() if k != "out"]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]

    def echo_lines(self) -> list[str]:
        """Every key the run reads in the spelling :func:`parse_config_text`
        reads back, sorted, after the hash as a comment."""
        lines = [f"# config_hash = {self.config_hash()}"]
        for k in self.keys_read():
            lines.append(f"{k} = {_echo_value(getattr(self, k))}")
        return lines


def _echo_value(v) -> str:
    if isinstance(v, tuple):
        sep = ";" if v and isinstance(v[0], tuple) else ","
        return sep.join(_echo_value(x) for x in v)
    return repr(float(v)) if isinstance(v, float) else str(v)


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
    """Parse flat ``key = value`` text into an :class:`ExperimentConfig`.

    An override replaces its key's line, as the value's
    :meth:`~ExperimentConfig.echo_lines` spelling.  Every key, of a line or
    an override, must be one the run reads (:func:`_keys_read`)."""
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
        raw[key] = value
    raw.update((key, _echo_value(value)) for key, value in (overrides or {}).items())

    kwargs: dict = {}
    for key, value in raw.items():
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    if "experiment" not in kwargs:
        raise ConfigError("missing required key 'experiment'")
    if "schema_version" not in kwargs:
        raise ConfigError("missing required key 'schema_version'")
    kind = kwargs["experiment"]
    if kind in EXPERIMENT_KINDS:  # the config refuses any other
        reads = _keys_read(kind, *(kwargs.get(k, getattr(ExperimentConfig, k))
                                   for k in ("data_path", "variants", "sweep_param")))
        unread = [key for key in kwargs if key not in reads]
        if unread:
            _refuse_unread(unread[0], kind, reads)
    return ExperimentConfig(**kwargs)


def parse_config_file(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, overrides)
