"""Multi-class extension: k-cluster mixtures, parameterized label matrices
and Monte Carlo search for the label parameters.

Labels are class indices in ``1..k``.  The label matrix generalizes the
binary reweighting: column ``j`` of the ``n x k`` target matrix equals
``alpha_j`` on rows whose noisy label is ``j`` and ``beta_j`` elsewhere;
``alpha = 1, beta = 0`` recovers plain one-hot ridge regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import _Ridge
from .datasets import _rng, derive_seed

__all__ = [
    "MultiGmmSpec",
    "MultiLabeledDataset",
    "AlphaBeta",
    "SearchResult",
    "generate_multi_gmm",
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

    k: int
    p: int
    n: int
    means: np.ndarray  # k x p
    pi: np.ndarray
    eps: np.ndarray  # k x k, zero diagonal
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        means = np.asarray(self.means, dtype=float)
        if means.shape != (self.k, self.p):
            raise ValueError(f"means must be {self.k} x {self.p}, got {means.shape}")
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (self.k,) or np.any(pi <= 0):
            raise ValueError("pi must hold k positive proportions")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError(f"pi must sum to 1, got {pi.sum()!r}")
        eps = np.asarray(self.eps, dtype=float)
        if eps.shape != (self.k, self.k):
            raise ValueError(f"eps must be {self.k} x {self.k}")
        if np.any(np.diag(eps) != 0):
            raise ValueError("eps diagonal must be zero (it is the implied no-flip mass)")
        if np.any(eps < 0):
            raise ValueError("eps entries must be >= 0")
        col_mass = eps.sum(axis=0)
        if np.any(col_mass >= 1.0):
            raise ValueError(
                f"per-class flip mass (eps column sums) must be < 1, got {col_mass}"
            )
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "eps", eps)

    def class_sizes(self) -> np.ndarray:
        sizes = np.round(self.pi * self.n).astype(int)
        sizes[-1] = self.n - sizes[:-1].sum()
        if np.any(sizes < 1):
            raise ValueError(f"class sizes {sizes} leave an empty class")
        return sizes


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


def generate_multi_gmm(spec: MultiGmmSpec) -> MultiLabeledDataset:
    """Draw the mixture and flip labels per the eps column of the true class."""
    rng = _rng(spec.seed)
    sizes = spec.class_sizes()
    X = rng.standard_normal((spec.p, spec.n))
    y_clean = np.empty(spec.n, dtype=np.int64)
    start = 0
    for cls, size in enumerate(sizes, start=1):
        stop = start + size
        X[:, start:stop] += spec.means[cls - 1][:, None]
        y_clean[start:stop] = cls
        start = stop

    # one uniform draw per sample against its true class's column-cumulative
    # flip edges: t edges passed means noisy label t + 1; past all k, clean
    u = rng.uniform(size=spec.n)
    edges = np.cumsum(spec.eps, axis=0)[:, y_clean - 1].T  # n x k
    t = np.count_nonzero(u[:, None] >= edges, axis=1)
    y_noisy = np.where(t < spec.k, t + 1, y_clean)
    return MultiLabeledDataset(X=X, y_clean=y_clean, y_noisy=y_noisy)


def _check_length(ab: AlphaBeta, k: int) -> None:
    if ab.alpha.size != k:
        raise ValueError(f"alpha/beta length {ab.alpha.size} does not match k={k}")


def build_label_matrix(y_noisy: np.ndarray, k: int, ab: AlphaBeta) -> np.ndarray:
    """n x k target matrix: column j is alpha_j where label == j, else beta_j."""
    y_noisy = np.asarray(y_noisy)
    _check_length(ab, k)
    if np.any((y_noisy < 1) | (y_noisy > k)):
        bad = y_noisy[(y_noisy < 1) | (y_noisy > k)][0]
        raise ValueError(f"label {bad} out of range 1..{k}")
    onehot = (y_noisy[:, None] == np.arange(1, k + 1)[None, :]).astype(float)
    return onehot * ab.alpha[None, :] + (1.0 - onehot) * ab.beta[None, :]


def train_multi_lpc(X: np.ndarray, Yab: np.ndarray, gamma: float) -> np.ndarray:
    """Solve ``(X X^T / n + gamma I) W = (1/n) X Yab`` for the p x k weights."""
    if Yab.shape[0] != X.shape[1]:
        raise ValueError(f"label matrix rows ({Yab.shape[0]}) must match n={X.shape[1]}")
    return _Ridge(X, gamma).weights(Yab)


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


# Candidate rows per block; at k = 3 and 800 test columns its score tables take 1.2 MB.
_CHUNK_ROWS = 64


class _SeedEvaluator:
    """Per-seed precomputation that scores (alpha, beta) candidates in blocks.

    Training is linear in the label matrix, itself affine in (alpha, beta): one
    solve of the one-hot and all-ones targets gives per-class test score tables
    ``on_j`` and ``off_j = all - on_j``; a candidate scores class j as ``s_j =
    alpha_j * on_j + beta_j * off_j``.  A test column of true class c is a hit when
    ``s_c > s_j`` for ``j < c`` and ``s_c >= s_j`` for ``j > c`` (argmax's tie rule).
    """

    def __init__(self, spec: MultiGmmSpec, gamma: float, seed: int, n_test: int):
        train = generate_multi_gmm(replace(spec, seed=derive_seed(seed, 0)))
        test = generate_multi_gmm(replace(spec, n=n_test, seed=derive_seed(seed, 1)))
        onehot = (train.y_noisy[:, None] == np.arange(1, spec.k + 1)[None, :]).astype(float)
        targets = np.column_stack([onehot, np.ones(spec.n)])
        scores = _Ridge(train.X, gamma).weights(targets).T @ test.X
        on, y = scores[:-1], test.y_clean  # k x m one-hot part, m true classes
        off = scores[-1] - on  # k x m, all-ones minus one-hot part
        self.by_class = [(on[:, y == c], off[:, y == c]) for c in range(1, spec.k + 1)]
        self.m = y.size

    def accuracies(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Held-out accuracy of each row of the C x k alphas ``A`` and betas ``B``."""
        hits = np.zeros(A.shape[0], dtype=np.int64)
        for lo in range(0, A.shape[0], _CHUNK_ROWS):
            a, b = A[lo:lo + _CHUNK_ROWS], B[lo:lo + _CHUNK_ROWS]
            for c, (on, off) in enumerate(self.by_class):
                s = [a[:, j, None] * on[j] + b[:, j, None] * off[j] for j in range(len(on))]
                hit = np.logical_and.reduce([s[c] > sj for sj in s[:c]]
                                            + [s[c] >= sj for sj in s[c + 1:]])
                hits[lo:lo + _CHUNK_ROWS] += np.count_nonzero(hit, axis=1)
        return hits / self.m


def search_alpha_beta(
    spec: MultiGmmSpec,
    grid_size: int,
    eval_seeds: list[int],
    gamma: float,
    box: tuple[float, float] = (-2.0, 2.0),
    n_test: int = 2000,
    tau_points: int = 11,
    search_seed: int = 0,
    extra_candidates: list[AlphaBeta] | None = None,
) -> SearchResult:
    """Monte Carlo search over (alpha, beta) plus the best/worst mixing path.

    Samples ``grid_size`` candidates uniformly from ``box^(2k)``, scores
    each by mean held-out accuracy over ``eval_seeds`` replicates, and
    evaluates the interpolation ``tau * best + (1 - tau) * worst`` on a
    ``tau`` grid.  Dataset replicates are keyed by ``eval_seeds`` alone
    (the spec's own seed is bypassed); fully deterministic given
    ``eval_seeds`` and ``search_seed``.
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    if not eval_seeds:
        raise ValueError("eval_seeds must be nonempty")
    if tau_points < 2:
        raise ValueError(f"tau_points must be >= 2 to reach both path ends, got {tau_points}")
    if not box[0] < box[1]:
        raise ValueError(f"box must have low < high, got {tuple(box)}")
    k = spec.k
    for ab in extra_candidates or []:
        _check_length(ab, k)
    rows = _rng(search_seed).uniform(box[0], box[1], size=(grid_size, 2 * k))  # alpha | beta
    rows = np.vstack([rows] + [np.r_[ab.alpha, ab.beta] for ab in extra_candidates or []])
    evaluators = [_SeedEvaluator(spec, gamma, seed, n_test) for seed in eval_seeds]

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
