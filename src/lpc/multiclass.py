"""Multi-class extension: k-cluster mixtures, parameterized label matrices
and Monte Carlo search for the label parameters.

Labels are class indices in ``1..k``.  The label matrix generalizes the
binary reweighting: column ``j`` of the ``n x k`` target matrix equals
``alpha_j`` on rows whose noisy label is ``j`` and ``beta_j`` elsewhere;
``alpha = 1, beta = 0`` recovers plain one-hot ridge regression.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import _Ridge
from .datasets import (
    TrainingStats,
    _check_labels,
    _class_sizes,
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
        """The class sizes of ``n`` draws at the proportions ``pi``
        (:func:`~lpc.datasets._class_sizes`)."""
        return _class_sizes(self.pi, n)

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
    y_clean = _check_labels("y_clean", y_clean, np.size(y_clean), range(1, spec.k + 1))
    return _flip(spec, y_clean, _rng(seed).uniform(size=y_clean.size))


def _flip(spec: MultiGmmSpec, y_clean: np.ndarray, u: np.ndarray) -> np.ndarray:
    # each uniform against its true class's column-cumulative flip edges:
    # t edges passed means noisy label t + 1; past all k, clean
    edges = np.cumsum(spec.eps, axis=0)[:, y_clean - 1].T  # n x k
    t = np.count_nonzero(u[:, None] >= edges, axis=1)
    return np.where(t < spec.k, t + 1, y_clean)


def build_label_matrix(y_noisy: np.ndarray, ab: AlphaBeta) -> np.ndarray:
    """n x k target matrix (k = alpha size): column j is alpha_j where label == j, else beta_j."""
    k = ab.alpha.size
    y_noisy = _check_labels("y_noisy", y_noisy, np.size(y_noisy), range(1, k + 1))
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


# Candidate rows per block.  _accuracies allocates its running minimum margin
# and the product that updates it once per call, each a float32 _CHUNK_ROWS x
# (a class's most test columns): 0.32 MB at 100 rows x 800 columns.  At
# configs/multiclass.cfg the search ran about 3% faster at 100 rows than at
# 80 (64: 4% slower, 120: 1% faster than 100, 160: as 80), on one thread at
# every size; its tracemalloc peak is 1.80 MiB at 100 rows (64: 1.55, 80:
# 1.66, 120: 1.93, 160: 2.21), and 120 would leave 0.07 MiB of the 2 MiB
# that test_search_memory_at_shipped_size allows.  One sgemm of r rows x 2k x
# m columns stays single-threaded while r 2k m is below about 1.0e6 with the
# table in C order (OpenBLAS 0.3.31: 200 x 6 x 800 single, 216 x 6 x 800 on
# both threads and 3x slower; 2-core VM).  With the table in Fortran order,
# as np.vstack leaves it, the product is slower and threads from 112 x 6 x
# 800.
_CHUNK_ROWS = 100


class _SeedEvaluator:
    """Per-seed score tables of the (alpha, beta) candidates.

    Training is linear in the label matrix, itself affine in (alpha, beta): one
    solve of the one-hot and all-ones targets gives per-class test score tables
    ``on_j`` and ``off_j = all - on_j``; a candidate scores class j as ``s_j =
    alpha_j * on_j + beta_j * off_j``.  A test column of true class c is a hit when
    its scores' argmax is c, ties going to the smallest class (:func:`multi_accuracy`'s
    rule), with each ``s_j`` rounded in float64 as ``fl(fl(alpha_j * on_j) + fl(beta_j
    * off_j))``.
    ``by_class[c]`` holds the tables ``(on, off)``, each ``k x m_c``, of the test
    columns of true class ``c + 1``, and ``m`` the test columns of all classes.

    Seed ``s`` draws no feature matrix; it makes the binary harness's three
    draws, each with the law of the features it replaces:

    - the noisy labels, by :func:`flip_multi_labels` from ``derive_seed(s, 1)``;
    - the training statistics, by :func:`~lpc.datasets.generate_training_stats`
      from ``derive_seed(s, 0)``, for the clean and the noisy labels: a group
      per ``(clean, noisy)`` pair that occurs, ``X U`` of ``p x r`` normals and
      the noise Gram's band of half-width ``s = k + r`` in the frame of the
      means and ``X U`` (about ``p (s - 1)`` normals and ``2 p`` chi-squares);
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


def _accuracies(evaluators: list[_SeedEvaluator], A: np.ndarray,
                B: np.ndarray) -> np.ndarray:
    """Held-out accuracy of each row of the C x k alphas ``A`` and betas ``B``
    on each evaluator's seed: a C x len(evaluators) array.

    For true class c, the margins ``s_c - s_j`` of a block of candidates
    against one class j are one float32 BLAS product: coefficient rows
    ``(+alpha_c, +beta_c, -alpha_j, -beta_j)``, each scaled in float64 to max
    |entry| 1, times ``F = [on; off]``, its columns scaled in float64 to unit
    l1 norm, both then cast to float32; positive scales keep every sign.  A
    test column whose smallest margin over j is above ``tau`` is a certain hit,
    below ``-tau`` a certain miss.  A candidate with a column in between is
    recounted in float64 by the rounded rule of :class:`_SeedEvaluator`, which
    stays the definition, so every count is exactly the rule's.

    The loops run over the true class c, then over blocks of ``_CHUNK_ROWS``
    candidates, then over the seeds.  Each seed's scaled ``F`` of class c is
    built once per class, and so are the coefficient rows of all C candidates
    against each of the k - 1 other classes: one float32 ``(k - 1) x C x 2k``
    table allocated once per call and refilled per class, which a block and
    every seed read as a view.  The products and their running minimum go
    into two float32 buffers of ``_CHUNK_ROWS`` x (the most columns of any
    class and seed) allocated once per call, each seed's block a contiguous
    ``r x m_c`` view of their head; the comparisons with ``tau`` go into one
    boolean buffer of that size and are counted per row as int16, or as
    int32 when a class of some seed has 2**15 columns or more.

    ``tau`` bounds, in these units, the error of the float32 margin plus that
    of the two rounded float64 scores.  The 4 nonzero terms of a margin sum to
    at most 1 in absolute value (the rows' max |entry| times the columns' l1
    norm; the float64 scalings and the computed norm move that by a relative
    gamma_2k of float64, a second-order term).  With u = eps32 / 2 = 2**-24:
    - the two casts round each factor once: 2 u = eps32;
    - the product, a 2k-term dot product in any summation order, errs by at
      most gamma_2k = 2k u / (1 - 2k u), about k eps32 (Higham 2002, 3.1);
    - ``s_c`` and ``s_j`` each err by at most gamma_2 of float64 times the sum
      of their two terms' magnitudes, about eps64 over all four terms;
    - float32 underflow, a cast entry or a product below 2**-126 (an entry
      far below its column's l1 norm or its row's largest coefficient), errs
      by an absolute amount instead: at most 2**-150 per cast entry times the
      other factor's magnitude, at most 1, and 2**-150 per product.  That is
      3 * 2**-150 per term and at most 6k * 2**-150 over the 2k terms,
      negligible against ``tau`` because the terms sum to at most 1 in these
      units.
    That is (k + 1) eps32 plus eps64-sized, second-order and underflow terms,
    and ``tau = (k + 3) eps32`` keeps two eps32 for those.  Outside ``[-tau,
    tau]`` the true margin exceeds both scores' errors, so the rounded scores
    differ with its sign and the argmax agrees with it; this holds while
    no product ``alpha_j * on_j`` or ``beta_j * off_j`` of the rounded rule
    underflows in float64 (a magnitude below 2**-1022, not zero).
    """
    C, k = A.shape
    tau = (k + 3) * np.finfo(np.float32).eps
    width = max(on.shape[1] for ev in evaluators for on, _ in ev.by_class)
    count = np.int16 if width < 2**15 else np.int32  # a row counts at most width hits
    size = min(C, _CHUNK_ROWS) * width
    least_buf, prod_buf = np.empty(size, np.float32), np.empty(size, np.float32)
    mask_buf = np.empty(size, dtype=bool)
    coef = np.empty((k - 1, C, 2 * k), np.float32)
    hits = np.zeros((C, len(evaluators)))  # whole counts, exact below 2**53
    for c in range(k):
        tables = []
        for ev in evaluators:
            F = np.vstack(ev.by_class[c])  # 2k x m_c
            l1 = np.abs(F).sum(axis=0)
            F /= np.where(l1 > 0, l1, 1.0)
            tables.append(np.ascontiguousarray(F, dtype=np.float32))
        for coef_j, j in zip(coef, np.delete(np.arange(k), c)):
            top = np.abs(A[:, c])
            for col in (B[:, c], A[:, j], B[:, j]):
                np.maximum(top, np.abs(col), out=top)
            top[top == 0] = 1.0  # a zero row keeps zero margins
            coef_j.fill(0.0)
            coef_j[:, c], coef_j[:, k + c] = A[:, c] / top, B[:, c] / top
            coef_j[:, j], coef_j[:, k + j] = -A[:, j] / top, -B[:, j] / top
        for lo in range(0, C, _CHUNK_ROWS):
            a, b = A[lo:lo + _CHUNK_ROWS], B[lo:lo + _CHUNK_ROWS]
            r = len(a)
            block = coef[:, lo:lo + r]
            for s, (ev, F) in enumerate(zip(evaluators, tables)):
                least, prod, mask = (buf[:r * F.shape[1]].reshape(r, -1)
                                     for buf in (least_buf, prod_buf, mask_buf))
                np.matmul(block[0], F, out=least)
                for coef_j in block[1:]:
                    np.minimum(least, np.matmul(coef_j, F, out=prod), out=least)
                n = np.add.reduce(np.greater(least, tau, out=mask), axis=1, dtype=count)
                np.greater_equal(least, -tau, out=mask)
                if np.count_nonzero(mask) > n.sum():  # a column within tau
                    unsure = np.add.reduce(mask, axis=1, dtype=count) > n
                    n[unsure] = _rule_hits(a[unsure], b[unsure], *ev.by_class[c], c)
                hits[lo:lo + r, s] += n
    hits /= [ev.m for ev in evaluators]
    return hits


def _rule_hits(a: np.ndarray, b: np.ndarray, on: np.ndarray, off: np.ndarray,
               c: int) -> np.ndarray:
    """Hits of each candidate row on the columns ``on``, ``off`` of true class
    ``c`` (0-based) by the rounded rule of :class:`_SeedEvaluator`."""
    s = [a[:, j, None] * on[j] + b[:, j, None] * off[j] for j in range(len(on))]
    return np.count_nonzero(np.argmax(s, axis=0) == c, axis=1)


def _check_search(search_seed: int, grid_size: int = 1, tau_points: int = 2) -> None:
    """:func:`search_alpha_beta`'s checks of its candidate draw and its path."""
    if search_seed < 0:
        raise ValueError(f"search_seed must be >= 0, got {search_seed}")
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    if tau_points < 2:
        raise ValueError(f"tau_points must be >= 2 to reach both path ends, got {tau_points}")


def search_alpha_beta(
    spec: MultiGmmSpec,
    n: int,
    grid_size: int,
    eval_seeds: Sequence[int] | np.ndarray,
    gamma: float,
    n_test: int = 10_000,
    tau_points: int = 11,
    search_seed: int = 0,
) -> SearchResult:
    """Monte Carlo search over (alpha, beta) plus the best/worst mixing path.

    Samples ``grid_size`` candidates uniformly from ``[-2, 2]^(2k)``, scores
    each by mean held-out accuracy over ``eval_seeds`` replicates (``n``
    training and ``n_test`` test samples each), and evaluates the
    interpolation ``tau * best + (1 - tau) * worst`` on a ``tau`` grid.
    Fully deterministic given ``eval_seeds`` (any nonempty sequence of seeds,
    a numpy array included) and ``search_seed >= 0``.

    A replicate is drawn as the statistics and scores a fit reads, not as
    features (:class:`_SeedEvaluator`): seed ``s`` flips its labels from
    ``derive_seed(s, 1)``, draws its training statistics from
    ``derive_seed(s, 0)`` and its test scores from ``derive_seed(s, 2)``, as a
    binary seed does.  At ``p = 200``, ``n = n_test = 2000`` and ``k = 3``
    (``configs/multiclass.cfg``, 6 label groups, a band of half-width 9)
    that is 1,200 + 1,564 normals, 391 chi-squares, 2,000 flip uniforms and
    6,000 score normals per seed, against 804,000 numbers for two ``p x
    2000`` feature draws and their flips.
    """
    _check_search(search_seed, grid_size, tau_points)
    if len(eval_seeds) == 0:
        raise ValueError("eval_seeds must be nonempty")
    k = spec.k
    rows = _rng(search_seed).uniform(-2.0, 2.0, size=(grid_size, 2 * k))  # alpha | beta
    evaluators = [_SeedEvaluator(spec, n, gamma, seed, n_test) for seed in eval_seeds]

    def accuracy(block: np.ndarray) -> np.ndarray:  # n_rows x n_seeds
        return _accuracies(evaluators, block[:, :k], block[:, k:])

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
