"""Multi-class extension: k-cluster mixtures, parameterized label matrices
and Monte Carlo search for the label parameters.

Labels are class indices in ``1..k``.  The label matrix generalizes the
binary reweighting: column ``j`` of the ``n x k`` target matrix equals
``alpha_j`` on rows whose noisy label is ``j`` and ``beta_j`` elsewhere;
``alpha = 1, beta = 0`` recovers plain one-hot ridge regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _Ridge
from .datasets import (
    TrainingStats,
    _rng,
    derive_seed,
    generate_scores,
    generate_training_stats,
)

__all__ = [
    "MultiGmmSpec",
    "MultiLabeledDataset",
    "AlphaBeta",
    "SearchResult",
    "generate_multi_gmm",
    "flip_multi_labels",
    "build_label_matrix",
    "train_multi_lpc",
    "multi_accuracy",
    "search_alpha_beta",
]


@dataclass(frozen=True)
class MultiGmmSpec:
    """k-class Gaussian mixture with a column-stochastic flip matrix.

    ``eps[a, b]`` is the probability that a sample of true class ``b`` gets
    noisy label ``a`` (columns index the true class); the diagonal is the
    implied no-flip mass and must be supplied as zeros.
    """

    means: np.ndarray  # k x p
    pi: np.ndarray
    eps: np.ndarray  # k x k, zero diagonal

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float)
        if means.ndim != 2 or len(means) < 2:
            raise ValueError(f"means must be k x p with k >= 2, got shape {means.shape}")
        if not np.all(np.isfinite(means)):
            raise ValueError("means contains non-finite entries")
        object.__setattr__(self, "means", means)
        k = self.k
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (k,) or not np.all(pi > 0):
            raise ValueError(f"pi must hold k={k} positive proportions, one per mean")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError(f"pi must sum to 1, got {pi.sum()!r}")
        if len(self.eps) != k or any(np.shape(row) != (k,) for row in self.eps):
            raise ValueError(f"eps matrix must be k={k} rows of {k} entries, one per mean")
        eps = np.asarray(self.eps, dtype=float)
        if np.any(np.diag(eps) != 0):
            raise ValueError("eps diagonal must be zero (it is the implied no-flip mass)")
        if not np.all(eps >= 0):  # NaN fails too
            raise ValueError("eps entries must be >= 0")
        col_mass = eps.sum(axis=0)
        if not np.all(col_mass < 1.0):
            raise ValueError(f"per-class flip mass (eps column sums) must be < 1, got {col_mass}")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "eps", eps)

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def p(self) -> int:
        return self.means.shape[1]

    @property
    def classes(self) -> np.ndarray:
        """The labels ``1..k``, one per class."""
        return np.arange(1, self.k + 1)

    @property
    def cov(self) -> None:
        """``None``: every class has identity covariance."""
        return None

    def class_sizes(self, n: int) -> np.ndarray:
        sizes = np.round(self.pi * n).astype(int)
        sizes[-1] = n - sizes[:-1].sum()
        if np.any(sizes < 1):
            raise ValueError(f"class sizes {sizes} at n={n} leave an empty class")
        return sizes

    def labels(self, n: int) -> np.ndarray:
        """The clean labels of ``n`` draws: class by class, ``1`` first."""
        return np.repeat(self.classes, self.class_sizes(n))


@dataclass(frozen=True)
class MultiLabeledDataset:
    X: np.ndarray  # p x n
    y_clean: np.ndarray  # class indices 1..k
    y_noisy: np.ndarray


@dataclass(frozen=True)
class AlphaBeta:
    """Per-class on-value ``alpha_j`` and off-value ``beta_j``."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if alpha.shape != beta.shape or alpha.ndim != 1:
            raise ValueError("alpha and beta must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
            raise ValueError("alpha and beta must be finite")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @staticmethod
    def naive(k: int) -> "AlphaBeta":
        return AlphaBeta(alpha=np.ones(k), beta=np.zeros(k))


def generate_multi_gmm(spec: MultiGmmSpec, n: int, seed: int) -> MultiLabeledDataset:
    """Draw ``n`` samples of the mixture and flip labels per the eps column of
    the true class (:func:`flip_multi_labels`' rule, from uniforms drawn after
    the features on the same stream); deterministic given ``seed``."""
    rng = _rng(seed)
    X = rng.standard_normal((spec.p, n))
    y_clean = spec.labels(n)
    start = 0
    for mean, size in zip(spec.means, spec.class_sizes(n)):
        X[:, start:start + size] += mean[:, None]
        start += size
    y_noisy = _flip(spec, y_clean, rng.uniform(size=n))
    return MultiLabeledDataset(X=X, y_clean=y_clean, y_noisy=y_noisy)


def flip_multi_labels(spec: MultiGmmSpec, y_clean: np.ndarray, seed: int) -> np.ndarray:
    """The noisy labels of the clean labels ``y_clean`` (in ``1..k``): a
    sample of true class ``b`` gets label ``a`` w.p. ``eps[a, b]``, from one
    uniform per label drawn from ``seed``."""
    y_clean = np.asarray(y_clean)
    if y_clean.ndim != 1 or np.any((y_clean < 1) | (y_clean > spec.k)):
        raise ValueError(f"y_clean must be a vector of labels in 1..{spec.k}")
    return _flip(spec, y_clean, _rng(seed).uniform(size=y_clean.size))


def _flip(spec: MultiGmmSpec, y_clean: np.ndarray, u: np.ndarray) -> np.ndarray:
    # each uniform against its true class's column-cumulative flip edges:
    # t edges passed means noisy label t + 1; past all k, clean
    edges = np.cumsum(spec.eps, axis=0)[:, y_clean - 1].T  # n x k
    t = np.count_nonzero(u[:, None] >= edges, axis=1)
    return np.where(t < spec.k, t + 1, y_clean)


def build_label_matrix(y_noisy: np.ndarray, ab: AlphaBeta) -> np.ndarray:
    """n x k target matrix (k = alpha size): column j is alpha_j where label == j, else beta_j."""
    y_noisy, k = np.asarray(y_noisy), ab.alpha.size
    if np.any((y_noisy < 1) | (y_noisy > k)):
        bad = y_noisy[(y_noisy < 1) | (y_noisy > k)][0]
        raise ValueError(f"label {bad} out of range 1..{k}")
    onehot = (y_noisy[:, None] == np.arange(1, k + 1)[None, :]).astype(float)
    return onehot * ab.alpha[None, :] + (1.0 - onehot) * ab.beta[None, :]


def train_multi_lpc(data: np.ndarray | TrainingStats, Yab: np.ndarray,
                    gamma: float) -> np.ndarray:
    """Solve ``(X X^T / n + gamma I) W = (1/n) X Yab`` for the p x k weights.

    ``data`` is the ``p x n`` features ``X`` or a :class:`TrainingStats`
    draw, whose label vectors ``Yab`` must be built from (its columns
    constant on the draw's label groups)."""
    if not isinstance(data, TrainingStats) and Yab.shape[0] != data.shape[1]:
        raise ValueError(f"label matrix rows ({Yab.shape[0]}) must match n={data.shape[1]}")
    return _Ridge(data).weights(Yab, gamma)


def multi_accuracy(W: np.ndarray, X_test: np.ndarray, y_test: np.ndarray) -> float:
    """Fraction of argmax matches; ties break toward the smallest class index."""
    scores = W.T @ X_test  # k x m
    pred = np.argmax(scores, axis=0) + 1
    return float(np.mean(pred == np.asarray(y_test)))


@dataclass(frozen=True)
class SearchResult:
    """The best and worst candidates and their path.

    ``tau_accuracy`` runs from the worst candidate (``tau = 0``, first row)
    to the best (``tau = 1``, last row), one column per seed; its end rows'
    seed means are the two candidates' search scores.
    """

    ab_best: AlphaBeta
    ab_worst: AlphaBeta
    tau_grid: np.ndarray
    tau_accuracy: np.ndarray  # len(tau) x len(seeds)
    candidate_accuracy: np.ndarray = field(repr=False)  # mean over seeds
    naive_seed_accuracy: np.ndarray = field(repr=False)  # per seed


# Candidate rows per block; at 800 test columns of one class a block's running
# minimum margin and the product that updates it take 0.8 MB.  A product of
# 128 rows x 6 x 800 columns crosses OpenBLAS's threading threshold, which
# doubled the CPU time of the search without shortening it (2-core VM).
_CHUNK_ROWS = 64


class _SeedEvaluator:
    """Per-seed precomputation that scores (alpha, beta) candidates in blocks.

    Training is linear in the label matrix, itself affine in (alpha, beta): one
    solve of the one-hot and all-ones targets gives per-class test score tables
    ``on_j`` and ``off_j = all - on_j``; a candidate scores class j as ``s_j =
    alpha_j * on_j + beta_j * off_j``.  A test column of true class c is a hit when
    ``s_c > s_j`` for ``j < c`` and ``s_c >= s_j`` for ``j > c`` (argmax's tie rule),
    with each ``s_j`` rounded as ``fl(fl(alpha_j * on_j) + fl(beta_j * off_j))``.

    Seed ``s`` draws no feature matrix; it makes the binary harness's three
    draws, each with the law of the features it replaces:

    - the noisy labels, by :func:`flip_multi_labels` from ``derive_seed(s, 1)``;
    - the training statistics, by :func:`~lpc.datasets.generate_training_stats`
      from ``derive_seed(s, 0)``, for the clean and the noisy labels: a group
      per ``(clean, noisy)`` pair that occurs, ``X U`` of ``p x r`` normals and
      a Bartlett factor of ``p x min(p, n - r)``;
    - the ``(k + 1) x n_test`` test scores under the ``p x (k + 1)`` one-hot and
      all-ones weights, by :func:`~lpc.datasets.generate_scores` from
      ``derive_seed(s, 2)``.  Those weights have rank ``k`` (the all-ones column
      is the sum of the others), so ``k x n_test`` normals.
    """

    def __init__(self, spec: MultiGmmSpec, n: int, gamma: float, seed: int, n_test: int):
        y_clean = spec.labels(n)
        y_noisy = flip_multi_labels(spec, y_clean, derive_seed(seed, 1))
        stats = generate_training_stats(spec, [y_clean, y_noisy], derive_seed(seed, 0))
        targets = np.column_stack([build_label_matrix(y_noisy, AlphaBeta.naive(spec.k)),
                                   np.ones(n)])
        scores, y = generate_scores(spec, train_multi_lpc(stats, targets, gamma), n_test,
                                    derive_seed(seed, 2))
        on = scores[:-1]  # k x m one-hot part, m true classes y
        off = scores[-1] - on  # k x m, all-ones minus one-hot part
        self.by_class = [(on[:, y == c], off[:, y == c]) for c in spec.classes]
        self.m = y.size

    def accuracies(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Held-out accuracy of each row of the C x k alphas ``A`` and betas ``B``.

        For true class c, the margins ``s_c - s_j`` of a block of candidates
        against one class j are one BLAS product: coefficient rows ``(+alpha_c,
        +beta_c, -alpha_j, -beta_j)``, each scaled to max |entry| 1, times ``F =
        [on; off]``, its columns scaled to unit l1 norm; positive scales keep
        every sign.  A test column whose smallest margin over j is above ``tau``
        is a certain hit, below ``-tau`` a certain miss.  A candidate with a
        column in between is recounted by the rounded rule of the class
        docstring, which stays the definition.

        ``tau`` bounds, in these units, the rounding of the product plus that of
        the two rounded scores.  With u = eps / 2 and the 4 nonzero terms of a
        margin summing to at most 1 in absolute value (the rows' max |entry| times
        the columns' l1 norm; the computed norm can fall short by a relative
        gamma_2k, a second-order term):
        - the product, a 2k-term dot product in any summation order, errs by at
          most gamma_2k = 2k u / (1 - 2k u), about k eps (Higham 2002, 3.1);
        - the two scalings round each factor once: 2 u = eps;
        - ``s_c`` and ``s_j`` each err by at most gamma_2 times the sum of their
          two terms' magnitudes, about eps over all four terms.
        That is (k + 2) eps plus second-order terms, and ``tau = (k + 3) eps``
        keeps one eps for those and for underflow in the product.  Outside
        ``[-tau, tau]`` the true margin exceeds both scores' errors, so the
        rounded scores differ with its sign and ``>`` and ``>=`` agree with it;
        this holds while no product ``alpha_j * on_j`` or ``beta_j * off_j`` of
        the rounded rule underflows (a magnitude below 2**-1022, not zero).
        """
        k = A.shape[1]
        tau = (k + 3) * np.finfo(float).eps
        hits = np.zeros(A.shape[0], dtype=np.int64)
        for c, (on, off) in enumerate(self.by_class):
            F = np.vstack([on, off])  # 2k x m_c
            l1 = np.abs(F).sum(axis=0)
            F /= np.where(l1 > 0, l1, 1.0)
            others, t = np.delete(np.arange(k), c), np.arange(k - 1)
            for lo in range(0, A.shape[0], _CHUNK_ROWS):
                a, b = A[lo:lo + _CHUNK_ROWS], B[lo:lo + _CHUNK_ROWS]
                coef = np.zeros((k - 1, len(a), 2 * k))
                coef[:, :, c], coef[:, :, k + c] = a[:, c], b[:, c]
                coef[t, :, others], coef[t, :, k + others] = -a[:, others].T, -b[:, others].T
                top = np.abs(coef).max(axis=2, keepdims=True)
                coef /= np.where(top > 0, top, 1.0)  # a zero row keeps zero margins
                least = coef[0] @ F
                for coef_j in coef[1:]:
                    np.minimum(least, coef_j @ F, out=least)
                n = np.count_nonzero(least > tau, axis=1)
                if np.count_nonzero(least >= -tau) > n.sum():  # a column within tau
                    unsure = np.count_nonzero(least >= -tau, axis=1) > n
                    n[unsure] = _rule_hits(a[unsure], b[unsure], on, off, c)
                hits[lo:lo + _CHUNK_ROWS] += n
        return hits / self.m


def _rule_hits(a: np.ndarray, b: np.ndarray, on: np.ndarray, off: np.ndarray,
               c: int) -> np.ndarray:
    """Hits of each candidate row on the columns ``on``, ``off`` of true class
    ``c`` (0-based) by the rounded rule of :class:`_SeedEvaluator`."""
    s = [a[:, j, None] * on[j] + b[:, j, None] * off[j] for j in range(len(on))]
    hit = np.logical_and.reduce([s[c] > sj for sj in s[:c]] + [s[c] >= sj for sj in s[c + 1:]])
    return np.count_nonzero(hit, axis=1)


def search_alpha_beta(
    spec: MultiGmmSpec,
    n: int,
    grid_size: int,
    eval_seeds: list[int],
    gamma: float,
    n_test: int = 2000,
    tau_points: int = 11,
    search_seed: int = 0,
) -> SearchResult:
    """Monte Carlo search over (alpha, beta) plus the best/worst mixing path.

    Samples ``grid_size`` candidates uniformly from ``[-2, 2]^(2k)``, scores
    each by mean held-out accuracy over ``eval_seeds`` replicates (``n``
    training and ``n_test`` test samples each), and evaluates the
    interpolation ``tau * best + (1 - tau) * worst`` on a ``tau`` grid.
    Fully deterministic given ``eval_seeds`` and ``search_seed``.

    A replicate is drawn as the statistics and scores a fit reads, not as
    features (:class:`_SeedEvaluator`): seed ``s`` flips its labels from
    ``derive_seed(s, 1)``, draws its training statistics from
    ``derive_seed(s, 0)`` and its test scores from ``derive_seed(s, 2)``, as a
    binary seed does.  At ``p = 200``, ``n = n_test = 2000`` and ``k = 3``
    (``configs/multiclass.cfg``, 6 label groups) that is 1,200 + 19,900
    normals, 200 chi-squares, 2,000 flip uniforms and 6,000 score normals
    per seed, against 804,000 numbers for two ``p x 2000`` feature draws and
    their flips.
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    if not eval_seeds:
        raise ValueError("eval_seeds must be nonempty")
    if tau_points < 2:
        raise ValueError(f"tau_points must be >= 2 to reach both path ends, got {tau_points}")
    k = spec.k
    rows = _rng(search_seed).uniform(-2.0, 2.0, size=(grid_size, 2 * k))  # alpha | beta
    evaluators = [_SeedEvaluator(spec, n, gamma, seed, n_test) for seed in eval_seeds]

    def accuracy(block: np.ndarray) -> np.ndarray:  # n_rows x n_seeds
        return np.column_stack([ev.accuracies(block[:, :k], block[:, k:]) for ev in evaluators])

    mean_acc = accuracy(rows).mean(axis=1)
    best_i, worst_i = int(np.argmax(mean_acc)), int(np.argmin(mean_acc))
    best, worst = rows[best_i], rows[worst_i]

    # the tau path and, in its last row, the naive one-hot candidate
    taus = np.linspace(0.0, 1.0, tau_points)
    path = taus[:, None] * best + (1.0 - taus)[:, None] * worst
    tail_acc = accuracy(np.vstack([path, np.r_[np.ones(k), np.zeros(k)]]))
    return SearchResult(
        ab_best=AlphaBeta(alpha=best[:k], beta=best[k:]),
        ab_worst=AlphaBeta(alpha=worst[:k], beta=worst[k:]),
        tau_grid=taus,
        tau_accuracy=tail_acc[:-1],
        candidate_accuracy=mean_acc,
        naive_seed_accuracy=tail_acc[-1],
    )
