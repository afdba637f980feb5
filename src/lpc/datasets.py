"""Synthetic two-cluster Gaussian mixtures, label flipping and CSV ingestion.

Conventions used throughout the package:

- feature matrices are ``p x n`` (one sample per column),
- binary labels live in ``{-1, +1}``; class 1 has mean ``-mu`` and label
  ``-1``, class 2 has mean ``+mu`` and label ``+1``,
- class sizes are deterministic, ``n1 = round(pi1 * n)``,
- all randomness goes through counter-based Philox streams so that draws
  are reproducible and independent of evaluation order.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GmmSpec",
    "LabeledDataset",
    "StandardizeResult",
    "derive_seed",
    "generate_gmm",
    "flip_labels",
    "load_features_csv",
    "standardize_and_estimate",
]

_COV_TOL = 1e-10  # relative tolerance of the covariance symmetry and PSD checks


def derive_seed(base_seed: int, stream: int) -> int:
    """Derive an independent 64-bit seed from ``(base_seed, stream)``.

    Used wherever one user-facing seed has to drive several independent
    draws (train set, test set, label flips, ...) without overlap.
    """
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(stream),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))


def _check_covariance(name: str, cov: np.ndarray, p: int) -> np.ndarray:
    """``cov`` as a float array, after checking that it is a finite, symmetric
    and positive semi-definite ``p x p`` matrix (tolerances relative to its
    largest entry)."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (p, p):
        raise ValueError(f"{name} must be {p}x{p}, got shape {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ValueError(f"{name} contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(cov))))
    if np.max(np.abs(cov - cov.T)) > _COV_TOL * scale:
        raise ValueError(f"{name} is not symmetric within tolerance {_COV_TOL}")
    smallest = float(np.linalg.eigvalsh(cov)[0])
    if smallest < -_COV_TOL * scale:
        raise ValueError(
            f"{name} is not positive semi-definite (PSD): smallest eigenvalue {smallest:.3e}"
        )
    return cov


@dataclass(frozen=True)
class GmmSpec:
    """Parameters of the two-cluster Gaussian mixture.

    ``mu`` is the mean direction: class means are ``-mu`` and ``+mu``.  With
    ``cov=None`` both clusters have identity covariance; otherwise ``cov``
    is the pair ``(C1, C2)`` of symmetric PSD matrices.  Label noise is
    injected afterwards, with :func:`flip_labels`.
    """

    p: int
    n: int
    pi1: float
    mu: np.ndarray
    cov: tuple[np.ndarray, np.ndarray] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 0.0 < self.pi1 < 1.0:
            raise ValueError(f"pi1 must lie in (0, 1), got {self.pi1}")
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        if mu.size != self.p:
            raise ValueError(f"mu must have length p={self.p}, got {mu.size}")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu contains non-finite entries")
        object.__setattr__(self, "mu", mu)
        n1 = self.n1
        if n1 == 0 or n1 == self.n:
            raise ValueError(
                f"pi1={self.pi1} with n={self.n} leaves class sizes ({n1}, {self.n - n1}); "
                "both classes need at least one sample"
            )
        if self.cov is not None:
            c1 = _check_covariance("C1", self.cov[0], self.p)
            c2 = _check_covariance("C2", self.cov[1], self.p)
            object.__setattr__(self, "cov", (c1, c2))

    @property
    def n1(self) -> int:
        return int(round(self.pi1 * self.n))

    @staticmethod
    def isotropic(p: int, n: int, pi1: float, snr: float, seed: int = 0) -> "GmmSpec":
        """Isotropic spec with ``mu = snr * e1``."""
        mu = np.zeros(p)
        mu[0] = snr
        return GmmSpec(p=p, n=n, pi1=pi1, mu=mu, seed=seed)


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with clean and noisy labels.

    ``y_clean`` is ``None`` for ingested data without ground truth.
    ``class_counts`` follows the true labels when available, otherwise the
    noisy ones.
    """

    X: np.ndarray
    y_noisy: np.ndarray
    y_clean: np.ndarray | None = None
    class_counts: tuple[int, int] = field(init=False)

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-d (p x n), got ndim={X.ndim}")
        object.__setattr__(self, "X", X)
        y_noisy = _check_labels("y_noisy", self.y_noisy, X.shape[1])
        object.__setattr__(self, "y_noisy", y_noisy)
        if self.y_clean is not None:
            y_clean = _check_labels("y_clean", self.y_clean, X.shape[1])
            object.__setattr__(self, "y_clean", y_clean)
        ref = self.y_clean if self.y_clean is not None else y_noisy
        counts = (int(np.sum(ref == -1)), int(np.sum(ref == +1)))
        object.__setattr__(self, "class_counts", counts)

    @property
    def p(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]


def _check_labels(name: str, y, n: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {y.shape}")
    if not np.all(np.isin(y, (-1, 1))):
        raise ValueError(f"{name} entries must be -1 or +1")
    return y.astype(np.int64)


def generate_gmm(spec: GmmSpec) -> LabeledDataset:
    """Draw a dataset from ``spec``: ``n1`` columns at ``-mu``, the rest at ``+mu``.

    ``y_noisy`` initially equals ``y_clean``; apply :func:`flip_labels` to
    inject noise.  Deterministic given ``spec.seed``.
    """
    rng = _rng(spec.seed)
    n1 = spec.n1
    n2 = spec.n - n1
    z = rng.standard_normal((spec.p, spec.n))
    if spec.cov is not None:
        r1 = _sym_sqrt(spec.cov[0])
        r2 = _sym_sqrt(spec.cov[1])
        z = np.concatenate([r1 @ z[:, :n1], r2 @ z[:, n1:]], axis=1)
    X = z
    X[:, :n1] -= spec.mu[:, None]
    X[:, n1:] += spec.mu[:, None]
    y = np.concatenate([np.full(n1, -1, dtype=np.int64), np.full(n2, +1, dtype=np.int64)])
    return LabeledDataset(X=X, y_noisy=y.copy(), y_clean=y)


def _sym_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root of a checked PSD matrix; rounding-level negative
    eigenvalues are clipped to zero."""
    vals, vecs = np.linalg.eigh(cov)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def flip_labels(
    ds: LabeledDataset, eps_plus: float, eps_minus: float, seed: int
) -> LabeledDataset:
    """Flip each clean label class-conditionally: ``+1 -> -1`` w.p. ``eps_plus``,
    ``-1 -> +1`` w.p. ``eps_minus``.  Features and clean labels are untouched."""
    if ds.y_clean is None:
        raise ValueError("cannot flip without ground truth: y_clean is missing")
    if not (0.0 <= eps_plus < 1.0 and 0.0 <= eps_minus < 1.0):
        raise ValueError(f"flip probabilities must lie in [0, 1), got ({eps_plus}, {eps_minus})")
    if eps_plus + eps_minus >= 1.0:
        raise ValueError("eps_plus + eps_minus must be < 1")
    rng = _rng(seed)
    u = rng.uniform(size=ds.n)
    thresh = np.where(ds.y_clean == 1, eps_plus, eps_minus)
    y_noisy = np.where(u < thresh, -ds.y_clean, ds.y_clean)
    return LabeledDataset(X=ds.X, y_noisy=y_noisy, y_clean=ds.y_clean)


def load_features_csv(
    path,
    label_column: int | str = 0,
    has_clean_labels: bool = False,
    has_header: bool = False,
) -> LabeledDataset:
    """Ingest a CSV with one sample per row and a label column.

    Labels must parse to ``{-1, +1}`` or ``{0, 1}``; the latter is remapped
    with ``0 -> -1``.  ``label_column`` may be a header name (requires
    ``has_header``) or a column index.  With ``has_clean_labels`` the parsed
    labels are treated as ground truth, otherwise only as noisy labels.
    """
    rows: list[list[str]] = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: empty file")

    header: list[str] | None = None
    if has_header:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: no data rows after header")

    if isinstance(label_column, str):
        if header is None:
            raise ValueError("label_column given by name requires has_header=True")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ValueError(f"label column {label_column!r} not found in header {header}")
    else:
        label_idx = int(label_column)

    width = len(rows[0])
    if width < 2:
        raise ValueError(f"{path}: need at least one feature column besides the labels")
    if not -width <= label_idx < width:
        raise ValueError(f"label column index {label_idx} out of range for {width} columns")
    label_idx %= width

    labels = np.empty(len(rows))
    feats = np.empty((len(rows), width - 1))
    for i, row in enumerate(rows):
        rowno = i + (2 if has_header else 1)
        if len(row) != width:
            raise ValueError(
                f"{path}: ragged row {rowno}: expected {width} fields, got {len(row)}"
            )
        try:
            labels[i] = float(row[label_idx])
            feats[i] = [float(v) for j, v in enumerate(row) if j != label_idx]
        except ValueError as exc:
            raise ValueError(f"{path}: unparsable value in row {rowno}: {exc}") from None

    uniq = set(np.unique(labels))
    if uniq <= {0.0, 1.0}:
        y = np.where(labels == 0, -1, 1).astype(np.int64)
    elif uniq <= {-1.0, 1.0}:
        y = labels.astype(np.int64)
    else:
        bad = sorted(uniq - {-1.0, 0.0, 1.0})
        raise ValueError(f"{path}: labels must be in {{-1,+1}} or {{0,1}}, found {bad}")

    X = feats.T
    return LabeledDataset(X=X, y_noisy=y, y_clean=y if has_clean_labels else None)


@dataclass(frozen=True)
class StandardizeResult:
    """The standardized dataset and its estimates; the SNR was estimated from
    the noisy labels when ``dataset.y_clean`` is ``None``."""

    dataset: LabeledDataset
    snr_estimate: float
    pi1_estimate: float
    single_class: bool = False


def standardize_and_estimate(ds: LabeledDataset) -> StandardizeResult:
    """Standardize features row-wise, center class means at ``+-mu_hat`` and
    estimate the SNR ``||mu_hat||`` and the class-1 proportion.

    Rows with zero variance are centered but not rescaled (keeps ``p``
    stable).  The SNR is estimated from ``y_clean`` when present; falling
    back to ``y_noisy`` biases the estimate and is flagged.
    """
    if ds.n < 2:
        raise ValueError("standardize_and_estimate needs n >= 2")
    X = ds.X - ds.X.mean(axis=1, keepdims=True)
    std = X.std(axis=1, keepdims=True)
    nonzero = std[:, 0] > 0
    X[nonzero] /= std[nonzero]

    y = ds.y_clean
    if y is None:
        warnings.warn(
            "estimating SNR from noisy labels; the estimate is biased toward zero",
            stacklevel=2,
        )
        y = ds.y_noisy
    n1 = int(np.sum(y == -1))
    single_class = n1 == 0 or n1 == ds.n
    if single_class:
        warnings.warn("all samples share one label; SNR estimate is undefined", stacklevel=2)
        snr = 0.0
    else:
        m1 = X[:, y == -1].mean(axis=1)
        m2 = X[:, y == +1].mean(axis=1)
        X -= ((m1 + m2) / 2.0)[:, None]
        snr = float(np.linalg.norm((m2 - m1) / 2.0))

    out = LabeledDataset(X=X, y_noisy=ds.y_noisy, y_clean=ds.y_clean)
    return StandardizeResult(
        dataset=out,
        snr_estimate=snr,
        pi1_estimate=n1 / ds.n,
        single_class=single_class,
    )
