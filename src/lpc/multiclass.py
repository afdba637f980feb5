"""Multi-class extension: flip matrices, parameterized label matrices and a
search for the label parameters.

The mixture is :class:`~lpc.datasets.GmmSpec` with any ``k >= 2`` classes,
drawn by :func:`~lpc.datasets.generate_gmm`; its labels are
:func:`~lpc.datasets._classes` codes (``1..k``, or ``-1, +1`` at ``k = 2``).
Label noise is a ``k x k`` flip matrix ``eps``, a run parameter as the
binary rates are: ``eps[a, b]`` is the probability that a sample of true
class ``b`` gets class ``a``'s label (columns index the true class), and
the diagonal, the implied no-flip mass, must be supplied as zeros.  The
label matrix generalizes the binary reweighting: column ``j`` of the ``n x
k`` target matrix equals ``alpha_j`` on rows whose noisy label is class
``j``'s and ``beta_j`` elsewhere; ``alpha = 1, beta = 0`` recovers plain
one-hot ridge regression.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import _Ridge
from .datasets import (
    GmmSpec,
    TrainingStats,
    _check_labels,
    _classes,
    _flip,
    _rng,
    derive_seed,
    generate_scores,
    generate_training_stats,
)
from .theory import _orthant, _upper_tail

__all__ = [
    "AlphaBeta",
    "SearchResult",
    "flip_multi_labels",
    "build_label_matrix",
    "train_multi_lpc",
    "multi_accuracy",
    "search_alpha_beta",
]


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


def _check_flip_matrix(eps, k: int) -> np.ndarray:
    """``eps`` as a float ``k x k`` flip matrix, after checking that its
    diagonal is zero, its entries ``>= 0`` and its column sums (each class's
    flip mass) below 1."""
    if len(eps) != k or any(np.shape(row) != (k,) for row in eps):
        raise ValueError(f"eps matrix must be k={k} rows of {k} entries, one per class")
    eps = np.asarray(eps, dtype=float)
    if np.any(np.diag(eps) != 0):
        raise ValueError("eps diagonal must be zero (it is the implied no-flip mass)")
    if not np.all(eps >= 0):  # NaN fails too
        raise ValueError("eps entries must be >= 0")
    col_mass = eps.sum(axis=0)
    if not np.all(col_mass < 1.0):
        raise ValueError(f"per-class flip mass (eps column sums) must be < 1, got {col_mass}")
    return eps


def flip_multi_labels(eps, y_clean: np.ndarray, seed: int) -> np.ndarray:
    """The noisy labels of the clean labels ``y_clean`` of ``k = len(eps)``
    classes: a sample of true class ``b`` gets class ``a``'s label w.p.
    ``eps[a, b]``, from one uniform per label drawn from ``seed``
    (:func:`~lpc.datasets._flip`, the rule of
    :func:`~lpc.datasets.flip_label_vector` too)."""
    eps = _check_flip_matrix(eps, len(eps))
    y_clean = _check_labels("y_clean", y_clean, np.size(y_clean), len(eps))
    return _flip(eps, y_clean, _rng(seed).uniform(size=y_clean.size))


def build_label_matrix(y_noisy: np.ndarray, ab: AlphaBeta) -> np.ndarray:
    """n x k target matrix (k = alpha size): column j is alpha_j where the
    label is class j's, else beta_j."""
    k = ab.alpha.size
    y_noisy = _check_labels("y_noisy", y_noisy, np.size(y_noisy), k)
    onehot = (y_noisy[:, None] == _classes(k)[None, :]).astype(float)
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
    """Fraction of argmax matches, with the ``k = W.shape[1]`` classes'
    labels; ties break toward the first class."""
    scores = W.T @ X_test  # k x m
    y_test = _check_labels("y_test", y_test, scores.shape[1], W.shape[1])
    return float(np.mean(_classes(W.shape[1])[np.argmax(scores, axis=0)] == y_test))


@dataclass(frozen=True)
class SearchResult:
    """The best and worst candidates and their path.

    ``candidate_accuracy`` is each candidate's exact accuracy given each
    seed's training draw, averaged over the seeds: the score the search
    selects on.  ``tau_accuracy`` runs from the worst candidate (``tau = 0``,
    first row) to the best (``tau = 1``, last row), one column per seed, and
    ``naive_seed_accuracy`` holds the naive one-hot candidate's; both are
    sampled, measured on each seed's test draw, so the path's ends are not
    the two candidates' search scores.
    """

    ab_best: AlphaBeta
    ab_worst: AlphaBeta
    tau_grid: np.ndarray
    tau_accuracy: np.ndarray  # len(tau) x len(seeds)
    candidate_accuracy: np.ndarray = field(repr=False)  # mean over seeds
    naive_seed_accuracy: np.ndarray = field(repr=False)  # per seed


# Candidate rows per block of the exact scores.  A block's orthant integrands
# hold up to 20 nodes per row, seed and class, so its memory grows with the
# rows.  At configs/multiclass.cfg the search's tracemalloc peak is 1.20 MiB
# at 200 rows, 1.71 at 400 and 1.96 at 500 (test_search_memory_at_shipped_size
# allows 2), and its time falls about 10% from 200 rows to 400 and 1% more to
# 500 (2-core VM).
_CHUNK_ROWS = 400


class _SeedEvaluator:
    """Per-seed exact score forms and sampled score tables of the (alpha,
    beta) candidates.

    Training is linear in the label matrix, itself affine in (alpha, beta): one
    solve of the one-hot and all-ones targets gives the ``p x (k + 1)``
    weights ``W`` whose scores ``on_j`` (column ``j``) and ``all`` (the last)
    serve every candidate, which scores class j as ``s_j = alpha_j * on_j +
    beta_j * (all - on_j)``.  A test point of true class c has the ``k + 1``
    scores ``N(W^T m_c, W^T W)`` exactly, so each margin ``s_c - s_j`` is
    normal: its coefficients are ``u_c = alpha_c - beta_c`` on ``on_c``,
    ``-u_j`` on ``on_j`` and ``beta_c - beta_j`` on ``all``.  Its mean and
    the covariances of the margins of one c are linear and quadratic forms of
    ``psi = (u, beta_i - beta_k for i < k)``, in which a margin's coefficients
    are sums of entries; ``forms`` holds their coefficients on ``psi`` and
    its monomials ``psi_a psi_b`` (``a <= b``), one column per (class c,
    quantity): the ``k - 1`` means, the ``k - 1`` variances, the ``k - 1``
    sums of the variances' diagonal terms and, at k = 3, the covariance.
    ``weights`` holds the class shares ``m_c / m`` of the test draw.

    The sampled rule scores the tau path and the naive candidate: a test
    column of true class c is a hit when its scores' argmax is c, ties going
    to the smallest class (:func:`multi_accuracy`'s rule), with each ``s_j``
    rounded in float64 as ``fl(fl(alpha_j * on_j) + fl(beta_j * off_j))``,
    ``off_j = all - on_j``.  ``by_class[c]`` holds the tables ``(on, off)``,
    each ``k x m_c``, of the test columns of true class ``c + 1``, and ``m``
    the test columns of all classes.

    Seed ``s`` draws no feature matrix; it makes the binary harness's three
    draws, each with the law of the features it replaces:

    - the noisy labels, by :func:`flip_multi_labels` at the flip matrix
      ``eps`` from ``derive_seed(s, 1)``;
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

    def __init__(self, spec: GmmSpec, eps: np.ndarray, n: int, gamma: float, seed: int,
                 n_test: int):
        k = spec.k
        y_clean = spec.labels(n)
        y_noisy = flip_multi_labels(eps, y_clean, derive_seed(seed, 1))
        stats = generate_training_stats(spec, [y_clean, y_noisy], derive_seed(seed, 0))
        targets = np.column_stack([build_label_matrix(y_noisy, AlphaBeta.naive(k)),
                                   np.ones(n)])
        W = train_multi_lpc(stats, targets, gamma)
        scores, y = generate_scores(spec, W, n_test, derive_seed(seed, 2))
        on = scores[:-1]  # k x m one-hot part, m true classes y
        off = scores[-1] - on  # k x m, all-ones minus one-hot part
        self.by_class = [(on[:, y == c], off[:, y == c]) for c in spec.classes]
        self.m = y.size
        self.weights = spec.class_sizes(n_test) / n_test
        self.forms = _score_forms(W.T @ W, W.T @ spec.means.T)


def _score_forms(G: np.ndarray, M: np.ndarray) -> np.ndarray:
    """:class:`_SeedEvaluator`'s ``forms`` of the scores' covariance ``G``
    and class means ``M`` (column c: class c's): ``(2k - 1) + (2k - 1) k``
    rows, the coefficients on ``psi`` and on its monomials."""
    k = M.shape[1]
    rows, cols = np.triu_indices(2 * k - 1)
    halve = np.where(rows == cols, 0.5, 1.0)

    def quadratic(L1, L2, G=G):  # psi^T L1^T G L2 psi, on the monomials
        Q = L1.T @ G @ L2
        return np.concatenate([np.zeros(2 * k - 1), (Q + Q.T)[rows, cols] * halve])

    forms = []
    for c in range(k):
        maps = [_margin_map(k, c, j) for j in range(k) if j != c]
        forms += [np.concatenate([M[:, c] @ L, np.zeros(rows.size)]) for L in maps]
        forms += [quadratic(L, L) for L in maps]
        forms += [quadratic(L, L, np.diag(np.diag(G))) for L in maps]
        forms += [quadratic(*maps)] if k == 3 else []
    return np.column_stack(forms)


def _margin_map(k: int, c: int, j: int) -> np.ndarray:
    """The ``(k + 1) x (2k - 1)`` map from ``psi`` (:class:`_SeedEvaluator`)
    to the score coefficients of the margin ``s_c - s_j`` (0-based classes)."""
    L = np.zeros((k + 1, 2 * k - 1))
    L[c, c], L[j, j] = 1.0, -1.0
    for i, sign in ((c, 1.0), (j, -1.0)):  # beta_c - beta_j on all
        if i < k - 1:
            L[k, k + i] = sign
    return L


def _conditional_accuracies(evaluators: list[_SeedEvaluator], rows: np.ndarray) -> np.ndarray:
    """Exact accuracy of each candidate row ``alpha | beta`` given each
    evaluator's training draw: a ``len(rows) x len(evaluators)`` array.

    A class-c test point is a hit when every margin ``s_c - s_j`` is
    positive, with probability ``Phi(mean / sd)`` at k = 2 and a bivariate
    normal orthant at k = 3 (:func:`~lpc.theory._orthant`); a row scores the
    sum of those over the classes, weighted by the test draw's class shares.
    A margin of zero variance has no such probability and raises
    ``ValueError`` naming its row; zero is up to 1e-12 of the sum of the
    variance's diagonal terms, which covers the rounding left on a margin
    that vanishes identically (equal scores for two classes).
    """
    k = rows.shape[1] // 2
    forms = np.hstack([ev.forms for ev in evaluators])
    weights = np.array([ev.weights for ev in evaluators])
    a, b = np.triu_indices(2 * k - 1)
    out = np.empty((len(rows), len(evaluators)))
    for lo in range(0, len(rows), _CHUNK_ROWS):
        alpha, beta = rows[lo:lo + _CHUNK_ROWS, :k], rows[lo:lo + _CHUNK_ROWS, k:]
        psi = np.hstack([alpha - beta, beta[:, :-1] - beta[:, -1:]])  # equal betas: exact 0
        F = (np.hstack([psi, psi[:, a] * psi[:, b]]) @ forms).reshape(
            len(psi), len(evaluators), k, -1)
        mean, var, diag = (F[..., i * (k - 1):(i + 1) * (k - 1)] for i in range(3))
        bad = var <= 1e-12 * diag
        if bad.any():
            i, _, c, j = np.argwhere(bad)[0]
            j += j >= c
            raise ValueError(f"candidate row {lo + i}: the margin of class {c + 1} over "
                             f"class {j + 1} has zero variance")
        sd = np.sqrt(var)
        z = -mean / sd  # a margin is positive when a standard normal exceeds z
        r = np.clip(F[..., -1] / (sd[..., 0] * sd[..., 1]), -1.0, 1.0) if k == 3 else None
        del F, mean, var, diag, sd  # the block's forms, freed before its orthants
        P = _upper_tail(z[..., 0]) if k == 2 else _orthant(z[..., 0], z[..., 1], r)
        out[lo:lo + len(psi)] = (P * weights).sum(axis=2)
    return out


def _rule_accuracies(evaluators: list[_SeedEvaluator], rows: np.ndarray) -> np.ndarray:
    """Sampled accuracy of each candidate row ``alpha | beta`` on each
    evaluator's test draw by the rounded rule: ``len(rows) x
    len(evaluators)``."""
    k = rows.shape[1] // 2
    A, B = rows[:, :k], rows[:, k:]
    return np.column_stack([
        sum(_rule_hits(A, B, on, off, c) for c, (on, off) in enumerate(ev.by_class)) / ev.m
        for ev in evaluators])


def _rule_hits(a: np.ndarray, b: np.ndarray, on: np.ndarray, off: np.ndarray,
               c: int) -> np.ndarray:
    """Hits of each candidate row on the columns ``on``, ``off`` of true class
    ``c`` (0-based) by the rounded rule of :class:`_SeedEvaluator`."""
    s = [a[:, j, None] * on[j] + b[:, j, None] * off[j] for j in range(len(on))]
    hit = np.ones(s[c].shape, dtype=bool)
    for j, s_j in enumerate(s):  # the argmax is c: above every class before, not below any after
        if j != c:
            hit &= s[c] > s_j if j < c else s[c] >= s_j
    return np.count_nonzero(hit, axis=1)


def _check_search(k: int, search_seed: int, grid_size: int = 1, tau_points: int = 2) -> None:
    """:func:`search_alpha_beta`'s checks of its class count ``k``, its
    candidate draw and its path."""
    if k > 3:  # GmmSpec refuses k < 2
        raise ValueError(f"the search scores 2 or 3 classes exactly, got k={k} means")
    if search_seed < 0:
        raise ValueError(f"search_seed must be >= 0, got {search_seed}")
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    if tau_points < 2:
        raise ValueError(f"tau_points must be >= 2 to reach both path ends, got {tau_points}")


def search_alpha_beta(
    spec: GmmSpec,
    eps,
    n: int,
    grid_size: int,
    eval_seeds: Sequence[int] | np.ndarray,
    gamma: float,
    n_test: int = 10_000,
    tau_points: int = 11,
    search_seed: int = 0,
) -> SearchResult:
    """Search over (alpha, beta) plus the best/worst mixing path.

    Samples ``grid_size`` candidates uniformly from ``[-2, 2]^(2k)`` for
    the ``k = 2`` or ``3`` classes of the isotropic ``spec``, whose labels
    flip by the ``k x k`` matrix ``eps``, scores each by its exact accuracy
    given each of the ``eval_seeds`` replicates' training draw (``n``
    samples), averaged over the replicates, and evaluates the interpolation ``tau * best + (1 -
    tau) * worst`` on a ``tau`` grid.  The path and the naive one-hot
    candidate are measured on each replicate's ``n_test`` sampled test points
    by the rounded argmax rule (:class:`_SeedEvaluator`); those draws take
    no part in the selection.  Fully deterministic given ``eval_seeds`` (any
    nonempty sequence of seeds, a numpy array included) and ``search_seed >=
    0``.

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
    k = spec.k
    _check_search(k, search_seed, grid_size, tau_points)
    eps = _check_flip_matrix(eps, k)
    if len(eval_seeds) == 0:
        raise ValueError("eval_seeds must be nonempty")
    rows = _rng(search_seed).uniform(-2.0, 2.0, size=(grid_size, 2 * k))  # alpha | beta
    evaluators = [_SeedEvaluator(spec, eps, n, gamma, seed, n_test) for seed in eval_seeds]
    mean_acc = _conditional_accuracies(evaluators, rows).mean(axis=1)
    best, worst = rows[np.argmax(mean_acc)], rows[np.argmin(mean_acc)]

    # the tau path and, in its last row, the naive one-hot candidate
    taus = np.linspace(0.0, 1.0, tau_points)
    path = taus[:, None] * best + (1.0 - taus)[:, None] * worst
    tail_acc = _rule_accuracies(evaluators, np.vstack([path, np.r_[np.ones(k), np.zeros(k)]]))
    return SearchResult(
        ab_best=AlphaBeta(alpha=best[:k], beta=best[k:]),
        ab_worst=AlphaBeta(alpha=worst[:k], beta=worst[k:]),
        tau_grid=taus,
        tau_accuracy=tail_acc[:-1],
        candidate_accuracy=mean_acc,
        naive_seed_accuracy=tail_acc[-1],
    )
