"""Synthetic two-cluster Gaussian mixtures, label flipping and CSV ingestion.

Conventions used throughout the package:

- feature matrices are ``p x n`` (one sample per column),
- binary labels live in ``{-1, +1}``; class 1 has mean ``-mu`` and label
  ``-1``, class 2 has mean ``+mu`` and label ``+1``,
- class sizes are deterministic, ``n1 = round(pi1 * n)``,
- :func:`generate_scores` and :func:`generate_training_stats` read a mixture
  spec only through ``p``, ``cov``, ``classes`` (the label of each class, in
  class order, ascending), ``means`` (row ``a`` is class ``a``'s mean),
  ``class_sizes(n)`` and ``labels(n)`` (the clean labels, class by class),
  so they draw a :class:`GmmSpec` and a k-class
  :class:`~lpc.multiclass.MultiGmmSpec` (labels ``1..k``) alike,
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
    "TrainingStats",
    "derive_seed",
    "generate_gmm",
    "generate_scores",
    "generate_training_stats",
    "flip_labels",
    "flip_label_vector",
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

    pi1: float
    mu: np.ndarray
    cov: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.pi1 < 1.0:
            raise ValueError(f"pi1 must lie in (0, 1), got {self.pi1}")
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1 or not mu.size:
            raise ValueError(f"mu must be a nonempty 1-d vector, got shape {mu.shape}")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu contains non-finite entries")
        object.__setattr__(self, "mu", mu)
        if self.cov is not None:
            c1 = _check_covariance("C1", self.cov[0], self.p)
            c2 = _check_covariance("C2", self.cov[1], self.p)
            object.__setattr__(self, "cov", (c1, c2))

    @property
    def p(self) -> int:
        return self.mu.size

    def class_sizes(self, n: int) -> tuple[int, int]:
        """``(n1, n2)`` of ``n`` samples, ``n1 = round(pi1 * n)``; both nonzero."""
        n1 = int(round(self.pi1 * n))
        if not 0 < n1 < n:
            raise ValueError(f"pi1={self.pi1} with n={n} leaves class sizes ({n1}, {n - n1}); "
                             "both classes need at least one sample")
        return n1, n - n1

    def labels(self, n: int) -> np.ndarray:
        """The clean labels of ``n`` draws: ``n1`` times ``-1``, then ``+1``."""
        n1, n2 = self.class_sizes(n)
        return np.concatenate([np.full(n1, -1, dtype=np.int64), np.full(n2, +1, dtype=np.int64)])

    @property
    def classes(self) -> np.ndarray:
        """The labels of class 1 and class 2: ``(-1, +1)``."""
        return np.array([-1, 1])

    @property
    def means(self) -> np.ndarray:
        """The class means as rows: ``(-mu, +mu)``."""
        return np.stack([-self.mu, self.mu])

    @staticmethod
    def isotropic(p: int, pi1: float, snr: float) -> "GmmSpec":
        """Isotropic spec with ``mu = snr * e1``."""
        mu = np.zeros(p)
        mu[:1] = snr
        return GmmSpec(pi1=pi1, mu=mu)


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


def generate_gmm(spec: GmmSpec, n: int, seed: int) -> LabeledDataset:
    """Draw ``n`` samples of ``spec``: ``n1`` columns at ``-mu``, the rest at ``+mu``.

    ``y_noisy`` initially equals ``y_clean``; apply :func:`flip_labels` to
    inject noise.  Deterministic given ``seed``.
    """
    n1 = spec.class_sizes(n)[0]
    X = _rng(seed).standard_normal((spec.p, n))
    if spec.cov is not None:
        r1, r2 = (_sym_sqrt(c) for c in spec.cov)
        X = np.concatenate([r1 @ X[:, :n1], r2 @ X[:, n1:]], axis=1)
    # only the rows where mu is nonzero move (x -+ 0.0 == x)
    nz = np.flatnonzero(spec.mu)
    X[nz, :n1] -= spec.mu[nz, None]
    X[nz, n1:] += spec.mu[nz, None]
    y = spec.labels(n)
    return LabeledDataset(X=X, y_noisy=y.copy(), y_clean=y)


def generate_scores(spec, W: np.ndarray, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k x n`` scores ``W.T @ X`` of ``n`` samples of ``spec`` and their
    labels, drawn without the ``p x n`` features ``X``.

    Class ``a``'s scores are ``N(W.T m_a, W.T C_a W)`` for its mean ``m_a``
    (``-+mu`` for a :class:`GmmSpec`; a row of a ``MultiGmmSpec``'s
    ``means``).  With ``R`` the ``r x k`` factor of ``W`` (of ``sqrt(C_a) W``
    with ``cov``) from :func:`_span_factor`, so that ``R.T R = W.T C_a W``,
    they are ``R.T Z + W.T m_a`` for ``r x n`` standard normals ``Z``, where
    ``r`` is the rank (at most ``min(p, k)``).  This is :func:`generate_gmm`
    restricted to the span of ``W``: equal in law to
    ``W.T @ generate_gmm(spec, n, seed).X``, with the same class layout and
    labels, and bit-identical to it for ``W = I`` on an isotropic spec.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != spec.p:
        raise ValueError(f"W must be p x k with p={spec.p}, got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise ValueError("W contains non-finite entries")
    sizes = spec.class_sizes(n)
    if spec.cov is None:
        R = _span_factor(W)
        S = R.T @ _rng(seed).standard_normal((R.shape[0], n))
    else:
        n1 = sizes[0]
        r1, r2 = (_span_factor(_sym_sqrt(c) @ W) for c in spec.cov)
        Z = _rng(seed).standard_normal((max(r1.shape[0], r2.shape[0]), n))
        S = np.concatenate([r1.T @ Z[:r1.shape[0], :n1], r2.T @ Z[:r2.shape[0], n1:]], axis=1)
    start = 0
    for mean, size in zip(spec.means, sizes):
        S[:, start:start + size] += (W.T @ mean)[:, None]
        start += size
    return S, spec.labels(n)


_SPAN_TOL = 1e-8  # relative residual below which a column adds no direction


def _span_factor(W: np.ndarray) -> np.ndarray:
    """``R = Q.T W`` (``r x k``, so ``R.T R = W.T W`` to rounding), with ``Q``
    an orthonormal basis of the span of ``W``'s columns built in column order
    by Gram-Schmidt, orthogonalized twice.

    A column whose residual against the basis so far is within ``_SPAN_TOL``
    of its norm adds no direction.  Without that skip (as in Householder QR)
    a dependent column's rounding residual becomes a basis direction of
    arbitrary orientation, and every later column's scores then change
    wholesale, not by rounding, when ``W`` moves by rounding.  With it,
    repeated columns get bit-identical columns of ``R``, and ``W = I`` gives
    ``R = I`` exactly.
    """
    Q = np.empty((W.shape[0], min(W.shape)))
    r = 0
    for w in W.T:
        v = w.copy()
        for _ in range(2):
            v -= Q[:, :r] @ (Q[:, :r].T @ v)
        norm = np.linalg.norm(v)
        if norm > _SPAN_TOL * np.linalg.norm(w):
            Q[:, r] = v / norm
            r += 1
    return Q[:, :r].T @ W


@dataclass(frozen=True)
class TrainingStats:
    """What a ridge fit reads of a ``p x n`` training matrix ``X`` whose
    targets are constant on groups of samples.

    ``group[i]`` is sample ``i``'s group, numbered ``0 .. r - 1``.  With
    ``U`` the ``n x r`` matrix of normalized group indicators (``U[i, g] =
    1 / sqrt(n_g)`` for ``i`` in group ``g``, so ``U.T U = I``), ``gram`` is
    ``X X^T`` and ``xu`` is ``X U``.  Then ``X t = xu (U.T t)`` for every
    ``t`` that is constant on groups; :meth:`cross` forms it.
    """

    gram: np.ndarray
    xu: np.ndarray
    group: np.ndarray
    sizes: np.ndarray = field(init=False)  # n_g
    first: np.ndarray = field(init=False)  # a sample of each group

    def __post_init__(self) -> None:
        gram, xu = np.asarray(self.gram, dtype=float), np.asarray(self.xu, dtype=float)
        group = np.asarray(self.group)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError(f"gram must be square, got shape {gram.shape}")
        if xu.ndim != 2 or xu.shape[0] != gram.shape[0]:
            raise ValueError(f"xu must be p x r with p={gram.shape[0]}, got shape {xu.shape}")
        groups, first, sizes = np.unique(group, return_index=True, return_counts=True)
        if group.ndim != 1 or not np.array_equal(groups, np.arange(xu.shape[1])):
            raise ValueError(f"group must number every sample's group 0 .. {xu.shape[1] - 1}, "
                             "each group nonempty")
        if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(xu))):
            raise ValueError("statistics contain non-finite values")
        for name, value in (("gram", gram), ("xu", xu), ("group", group),
                            ("sizes", sizes), ("first", first)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.group.size

    def cross(self, T: np.ndarray) -> np.ndarray:
        """``X T`` for an ``n``-vector or ``n x k`` block ``T`` whose columns
        are constant on groups; any other ``T`` raises ``ValueError``."""
        T = np.asarray(T, dtype=float)
        if T.shape[0] != self.n:
            raise ValueError(f"targets must have {self.n} rows, got shape {T.shape}")
        per_group = T[self.first]
        if not np.array_equal(T, per_group[self.group]):
            raise ValueError("targets are not constant on the label groups of these "
                             "statistics; only targets built from the label vectors "
                             "they were drawn for have X T")
        scale = np.sqrt(self.sizes)
        return self.xu @ (per_group * (scale[:, None] if T.ndim == 2 else scale))


def generate_training_stats(spec, labels, seed: int) -> TrainingStats:
    """The :class:`TrainingStats` of ``n`` draws of ``spec``, for targets built
    from ``labels``, drawn without the ``p x n`` features.

    ``labels`` holds the clean labels ``spec.labels(n)`` first, then the
    noisy label vectors the targets are built from (a repeated vector does
    not change the draw); every entry is one of ``spec.classes``.  A group
    is a set of samples with the same label column; groups are numbered in
    the lexicographic order of their columns, a label counting as its
    class's index.  ``spec`` is a :class:`GmmSpec` or a ``MultiGmmSpec``
    and must be isotropic; a spec with ``cov`` raises (draw its features
    with :func:`generate_gmm`).

    With ``m_g`` the mean of group ``g``'s clean class and ``r`` groups,
    ``X U`` is ``m_g sqrt(n_g) + N(0, I)``.  The rest of ``X`` is ``X V``
    for an orthonormal completion ``V`` of ``U``: ``d = n - r`` columns of
    pure noise, since the means lie in the span of ``U``.  So ``X X^T = L
    L^T + (X U)(X U)^T`` with ``L`` the Bartlett factor of that noise (its
    LQ factor when ``d < p``): ``p x min(p, d)``, lower trapezoidal, with
    ``L_ii = sqrt(chi2(d - i))`` and ``N(0, 1)`` below the diagonal.  This
    is exactly the law of the statistics of ``generate_gmm(spec, n, .)``.
    One stream draws ``X U``, then the rows of ``L``, then the chi-squares.
    """
    if spec.cov is not None:
        raise ValueError("generate_training_stats draws isotropic mixtures only; draw a "
                         "spec with covariances by generate_gmm")
    Y = np.atleast_2d(np.asarray(labels))
    n = Y.shape[1]
    if Y.ndim != 2 or not np.array_equal(Y[0], spec.labels(n)):
        raise ValueError(f"labels must start with the clean labels spec.labels({n})")
    classes = spec.classes
    if not np.all(np.isin(Y, classes)):
        names = [f"{c:+d}" for c in classes]
        raise ValueError(f"label entries must be {', '.join(names[:-1])} or {names[-1]}")
    codes = np.searchsorted(classes, Y)  # each label's class index
    group = np.zeros(n, dtype=np.int64)
    for row in codes:  # rank the columns by their rows so far, then by this row
        _, first, group, sizes = np.unique(classes.size * group + row, return_index=True,
                                           return_inverse=True, return_counts=True)
    p, r = spec.p, sizes.size
    d = n - r
    rng = _rng(seed)
    xu = rng.standard_normal((p, r))
    means = spec.means
    nz = np.flatnonzero(np.any(means != 0, axis=0))  # only these rows move
    xu[nz] += means[codes[0, first]][:, nz].T * np.sqrt(sizes)
    m = min(p, d)
    L = np.zeros((p, m))
    for i in range(1, p):
        rng.standard_normal(out=L[i, :min(i, m)])
    diag = np.arange(m)
    L[diag, diag] = np.sqrt(rng.chisquare(d - diag))
    gram = L @ L.T
    del L  # before the p x p product below, to keep the peak at two p x p arrays
    gram += xu @ xu.T
    return TrainingStats(gram=gram, xu=xu, group=group)


def _sym_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root of a checked PSD matrix; rounding-level negative
    eigenvalues are clipped to zero."""
    vals, vecs = np.linalg.eigh(cov)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def flip_labels(
    ds: LabeledDataset, eps_plus: float, eps_minus: float, seed: int
) -> LabeledDataset:
    """Flip each clean label class-conditionally, by :func:`flip_label_vector`.
    Features and clean labels are untouched."""
    if ds.y_clean is None:
        raise ValueError("cannot flip without ground truth: y_clean is missing")
    y_noisy = flip_label_vector(ds.y_clean, eps_plus, eps_minus, seed)
    return LabeledDataset(X=ds.X, y_noisy=y_noisy, y_clean=ds.y_clean)


def _check_flip_rates(eps_plus: float, eps_minus: float) -> None:
    if not (0.0 <= eps_plus < 1.0 and 0.0 <= eps_minus < 1.0):  # NaN fails too
        raise ValueError(f"flip probabilities must lie in [0, 1), got ({eps_plus}, {eps_minus})")
    if eps_plus + eps_minus >= 1.0:
        raise ValueError("eps_plus + eps_minus must be < 1")


def flip_label_vector(y_clean: np.ndarray, eps_plus: float, eps_minus: float,
                      seed: int) -> np.ndarray:
    """The noisy labels of ``y_clean``: ``+1 -> -1`` w.p. ``eps_plus``,
    ``-1 -> +1`` w.p. ``eps_minus``, from one uniform per label.  The
    uniforms depend on ``seed`` alone, so at one seed a label flipped at
    some rates stays flipped at any larger ones."""
    _check_flip_rates(eps_plus, eps_minus)
    y_clean = _check_labels("y_clean", y_clean, np.size(y_clean))
    u = _rng(seed).uniform(size=y_clean.size)
    thresh = np.where(y_clean == 1, eps_plus, eps_minus)
    return np.where(u < thresh, -y_clean, y_clean)


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


def standardize_and_estimate(ds: LabeledDataset) -> StandardizeResult:
    """Standardize features row-wise, center class means at ``+-mu_hat`` and
    estimate the SNR ``||mu_hat||`` and the class-1 proportion.

    Rows with zero variance are centered but not rescaled (keeps ``p``
    stable).  The SNR is estimated from ``y_clean`` when present; falling
    back to ``y_noisy`` biases the estimate and is flagged.  Labels of one
    class leave the SNR undefined and raise ``ValueError``.
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
    if n1 == 0 or n1 == ds.n:
        raise ValueError("all samples share one label; the SNR estimate is undefined")
    m1 = X[:, y == -1].mean(axis=1)
    m2 = X[:, y == +1].mean(axis=1)
    X -= ((m1 + m2) / 2.0)[:, None]
    snr = float(np.linalg.norm((m2 - m1) / 2.0))

    out = LabeledDataset(X=X, y_noisy=ds.y_noisy, y_clean=ds.y_clean)
    return StandardizeResult(dataset=out, snr_estimate=snr, pi1_estimate=n1 / ds.n)
