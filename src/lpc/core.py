"""Training and evaluation of the Labels-Perturbed Classifier (LPC).

The LPC is a ridge regression on reweighted labels: with the pair
``rho = (rho_plus, rho_minus)`` the regression target of sample ``i`` is
``+lambda_plus`` when its (noisy) label is ``+1`` and ``-lambda_minus``
otherwise, where the ``lambda`` weights are derived from ``rho``.  The
weight vector solves

    (X X^T / n + gamma I) w = (1/n) X t,

which reads ``X`` only through its Gram ``X X^T`` and ``X t``: a training
draw is either features or their :class:`~lpc.datasets.TrainingStats`.
One solver serves both: block-tridiagonal elimination of the system in the
draw's orthogonal frame.  A drawn Gram is banded there, so it is solved in
``b x b`` blocks and no ``p x p`` array is formed; a dense Gram (features,
or statistics without a frame) is the one-block case, one
``np.linalg.solve``.

``rho = (0, 0)`` gives the plain (naive) ridge classifier; training the
same on clean labels is the oracle variant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset, TrainingStats, _check_labels

__all__ = [
    "RhoParams",
    "Classifier",
    "train_lpc",
    "train_lpc_bce",
    "decision",
    "evaluate",
    "loo_decisions",
    "perturbed_bce_loss",
]

SINGULARITY_GUARD = 1e-8
_RESIDUAL_TOL = 1e-8
# The downdate divides by 1 - d_i, formed by subtraction: its rounding error is a
# few eps plus the solve's, ~eps ||x_i||^2 / (n gamma).  Measured against brute
# force, the score stays within 1e-8 where 1 - d_i clears 3e-7 + 10 times the latter.
_LOO_DENOM_TOL = 3e-7
_LOO_SOLVE_ERR = 10.0


@dataclass(frozen=True)
class RhoParams:
    """Noise-handling parameter pair and its derived label weights.

    ``1 - rho_plus - rho_minus`` appears in every denominator, so the pair
    is rejected within ``SINGULARITY_GUARD`` of that singular line.
    """

    rho_plus: float = 0.0
    rho_minus: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.rho_plus) or not np.isfinite(self.rho_minus):
            raise ValueError("rho parameters must be finite")
        if abs(1.0 - self.rho_plus - self.rho_minus) <= SINGULARITY_GUARD:
            raise ValueError(
                f"rho_plus + rho_minus = {self.rho_plus + self.rho_minus} is too close "
                "to 1; the label weights are singular there"
            )

    @property
    def beta(self) -> float:
        return 1.0 / (1.0 - self.rho_plus - self.rho_minus)

    @property
    def lambda_minus(self) -> float:
        return (1.0 - self.rho_plus + self.rho_minus) * self.beta

    @property
    def lambda_plus(self) -> float:
        return (1.0 - self.rho_minus + self.rho_plus) * self.beta


@dataclass(frozen=True)
class Classifier:
    """Trained linear classifier: scores are ``w @ x`` (logits for bce)."""

    w: np.ndarray
    gamma: float
    rho: RhoParams
    loss_kind: str = "squared"

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float).reshape(-1)
        if not np.all(np.isfinite(w)):
            raise ValueError("classifier weights must be finite")
        _check_gamma(self.gamma)
        if self.loss_kind not in ("squared", "bce"):
            raise ValueError(f"loss_kind must be 'squared' or 'bce', got {self.loss_kind!r}")
        object.__setattr__(self, "w", w)

    @property
    def p(self) -> int:
        return self.w.size


def _targets(y_noisy: np.ndarray, rho: RhoParams) -> np.ndarray:
    # D_rho y: +lambda_plus on positive labels, -lambda_minus on negative ones
    return np.where(y_noisy == 1, rho.lambda_plus, -rho.lambda_minus)


class _Ridge:
    """The regularized systems ``(G / n + gamma I) W = C(T) / n`` of one
    training draw, for every ``gamma``: ``G = X X^T`` and ``C(T) = X T`` is
    the cross-product map.  ``A`` is SPD since ``gamma > 0``.

    One solver: block-tridiagonal elimination of ``Q^T A Q`` in the draw's
    frame ``Q`` (:class:`~lpc.datasets.TrainingStats`).  A banded Gram of
    half-width ``w`` is cut into ``b x b`` blocks, ``b = max(w, _BLOCK)``, so
    only neighbouring blocks couple; a dense Gram (features, or statistics
    without a frame) is the one-block case, a single ``np.linalg.solve``.
    No ``p x p`` array is formed for a banded Gram."""

    def __init__(self, data: np.ndarray | TrainingStats):
        """From a ``p x n`` feature matrix or a :class:`TrainingStats` draw."""
        if isinstance(data, TrainingStats):
            gram, self.cross, self.n, self.frame = data.gram, data.cross, data.n, data.frame
        else:
            _check_features(data)
            gram, self.n, self.frame = data @ data.T, data.shape[1], None
            self.cross = lambda T: data @ T
        if self.frame is None:
            self.p = gram.shape[0]
            self.diag, self.sub = (gram / self.n)[None], np.empty((0, self.p, self.p))
        else:
            self.p = gram.shape[1]
            self.diag, self.sub = _band_blocks(gram / self.n, min(self.p, max(
                gram.shape[0] - 1, _BLOCK)))

    def weights(self, T: np.ndarray, gamma: float) -> np.ndarray:
        """``p x k`` weights for an ``n x k`` target block (``p`` for a
        vector): :meth:`solve` of ``X T / n``."""
        return self.solve(self.cross(T) / self.n, gamma)

    def solve(self, rhs: np.ndarray, gamma: float) -> np.ndarray:
        """``A^{-1} rhs`` for a ``p x k`` block (or a ``p`` vector).  Each
        column's normal-equation residual is verified to ``1e-8 * (||A||_F
        ||w|| + ||b||)``, a normwise backward error, so the check scales with
        ``A``; a NaN fails it."""
        _check_gamma(gamma)
        D = self.diag.copy()
        nb, b = D.shape[:2]
        D[:, np.arange(b), np.arange(b)] += gamma
        shape = rhs.shape
        R = np.zeros((nb * b, rhs.size // self.p))  # zero rows pad it to whole blocks
        R[:self.p] = self._frame(rhs, transpose=True).reshape(self.p, -1)
        R = R.reshape(nb, b, -1)
        W = _block_solve(D, self.sub, R)
        AW = D @ W
        AW[1:] += self.sub @ W[:-1]
        AW[:-1] += self.sub.transpose(0, 2, 1) @ W[1:]
        res = np.linalg.norm((AW - R).reshape(nb * b, -1), axis=0)
        W, R = W.reshape(nb * b, -1)[:self.p], R.reshape(nb * b, -1)
        # ||A||_F of the p x p system: the padding's gamma I is taken out
        norm = np.sqrt(np.sum(D * D) + 2.0 * np.sum(self.sub * self.sub)
                       - (nb * b - self.p) * gamma**2)
        scale = norm * np.linalg.norm(W, axis=0) + np.linalg.norm(R, axis=0)
        if not np.all(res <= _RESIDUAL_TOL * scale):
            raise FloatingPointError(
                f"normal-equation residual {np.max(res):.3e} exceeds "
                f"{_RESIDUAL_TOL:.0e} * (||A||_F ||w|| + ||b||)"
            )
        return self._frame(W, transpose=False).reshape(shape)

    def _frame(self, X: np.ndarray, transpose: bool) -> np.ndarray:
        """``Q X``, or ``Q^T X`` when ``transpose``, for ``Q = I - V T V^T``."""
        if self.frame is None:
            return X
        V, T = self.frame
        return X - V @ ((T.T if transpose else T) @ (V.T @ X))


# Block size of the banded solve: a block step is one b x b solve and two
# b x b products.  Fits at p = 1000 (2-core VM) took 3.3, 3.6, 5.1 and 12.9 ms
# with 4 target columns and 8.3, 6.7, 7.8 and 15.4 ms with 55 at b = 16, 32,
# 64 and 128.
_BLOCK = 32


def _band_blocks(band: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``b x b`` diagonal blocks ``D[t]`` and sub-diagonal blocks ``E[t]``
    (block row ``t + 1``, column ``t``) of the symmetric ``p x p`` matrix
    whose lower band is ``band`` (``band[j, i] = A[i + j, i]``, half-width
    at most ``b``), padded with zero rows and columns to whole blocks."""
    p = band.shape[1]
    nb = -(-p // b)
    D, E = np.zeros((nb, b, b)), np.zeros((nb - 1, b, b))
    a = np.arange(b)
    for j, line in enumerate(band):
        v = np.zeros(nb * b)
        v[:p - j] = line[:p - j]
        v = v.reshape(nb, b)  # v[t, c] = A[t b + c + j, t b + c]
        inner, outer = a[:b - j], a[b - j:]
        D[:, inner + j, inner] = D[:, inner, inner + j] = v[:, :b - j]
        E[:, outer + j - b, outer] = v[:-1, b - j:]
    return D, E


def _block_solve(D: np.ndarray, E: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the block-tridiagonal system with diagonal blocks ``D``, blocks
    ``E[t]`` below them and ``E[t]^T`` above, for the blocks ``rhs[t]``.

    Forward elimination keeps ``C[t] = S_t^{-1} E[t]^T`` and ``Z[t] =
    S_t^{-1} y_t`` for the Schur complements ``S_{t+1} = D[t+1] - E[t]
    C[t]`` (``S_0 = D[0]``) and ``y_{t+1} = rhs[t+1] - E[t] Z[t]``: one
    ``np.linalg.solve`` per block step.  Back substitution is ``x_t = Z[t] -
    C[t] x_{t+1}``.  One block is one ``np.linalg.solve``."""
    b = D.shape[1]
    C, Z = np.empty_like(E), np.empty_like(rhs)
    S, y = D[0], rhs[0]
    for t in range(E.shape[0]):
        CZ = np.linalg.solve(S, np.hstack([E[t].T, y]))
        C[t], Z[t] = CZ[:, :b], CZ[:, b:]
        S, y = D[t + 1] - E[t] @ C[t], rhs[t + 1] - E[t] @ Z[t]
    Z[-1] = np.linalg.solve(S, y)
    for t in range(E.shape[0] - 1, -1, -1):
        Z[t] -= C[t] @ Z[t + 1]
    return Z


def _check_gamma(gamma: float) -> None:
    if not 0 < gamma < np.inf:  # NaN fails too
        raise ValueError(f"gamma must be finite and > 0 (got {gamma}); the system may be "
                         "singular or its solve not finite")


def _check_features(X: np.ndarray) -> None:
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite values")


def train_lpc(data: LabeledDataset | TrainingStats, rho: RhoParams, gamma: float,
              labels: np.ndarray | None = None) -> Classifier:
    """Solve the reweighted ridge system for the training ``labels``.

    ``data`` is a dataset (``labels`` defaults to its ``y_noisy``) or a
    :class:`TrainingStats` draw, which needs ``labels``: one of the label
    vectors it was drawn for.  One solve of the (SPD) regularized Gram system
    (dense for features, in blocks for a banded draw); the normal-equation
    residual is verified to a ``1e-8`` normwise backward error.
    """
    _check_gamma(gamma)
    stats = isinstance(data, TrainingStats)
    if labels is None:
        if stats:
            raise ValueError("training statistics hold no labels; pass the labels to train on")
        labels = data.y_noisy
    labels = _check_labels("labels", labels, data.n)
    w = _Ridge(data if stats else data.X).weights(_targets(labels, rho), gamma)
    return Classifier(w=w, gamma=gamma, rho=rho, loss_kind="squared")


def decision(c: Classifier, X_test: np.ndarray) -> np.ndarray:
    """Scores ``w @ x`` for each column of ``X_test``."""
    X_test = np.asarray(X_test, dtype=float)
    if X_test.ndim == 1:
        X_test = X_test[:, None]
    if X_test.shape[0] != c.p:
        raise ValueError(
            f"dimension mismatch: classifier expects p={c.p}, test data has p={X_test.shape[0]}"
        )
    _check_features(X_test)
    return c.w @ X_test


def evaluate(c: Classifier, X_test: np.ndarray, y_test: np.ndarray) -> tuple[float, float]:
    """Accuracy (sign matches, with sign(0) = +1) and squared-error risk."""
    scores = decision(c, X_test)
    if scores.size == 0:
        raise ValueError("empty test set")
    y_test = _check_labels("y_test", y_test, scores.size)
    return _accuracy(scores, y_test), float(np.mean((scores - y_test) ** 2))


def _accuracy(scores: np.ndarray, y: np.ndarray, sign: float = 1.0) -> float:
    """The binary decision rule: the fraction of labels ``y`` that the sign
    of ``sign * scores`` matches, with sign(0) = +1.  ``sign = -1`` flips the
    orientation (the harness passes ``sign(m_rho)``)."""
    return float(np.mean(np.where(sign * scores >= 0, 1, -1) == y))


def loo_decisions(ds: LabeledDataset, rho: RhoParams, gamma: float) -> np.ndarray:
    """Leave-one-out decision values ``x_i @ w^{-i}`` for every sample.

    ``w^{-i}`` keeps the full-data ``1/n`` scaling, so it follows from the
    full solve by a rank-one downdate:

        s_i = (x_i @ w - c_i * d_i) / (1 - d_i),   d_i = x_i Q x_i / n,

    with ``c_i`` the regression target of sample ``i`` and ``Q`` the inverse
    of the regularized Gram.  That is :func:`_loo_operator`, one label-free
    solve of the draw, and one label step.  An index whose ``|1 - d_i|`` is
    too near zero for ``1e-8`` accuracy is degenerate by the draw alone, not
    by its labels; it is scored by the exact PRESS form on the dual system
    instead.
    """
    return _loo_operator(ds.X, gamma)(_targets(ds.y_noisy, rho)[:, None])[:, 0]


def _loo_operator(X: np.ndarray, gamma: float):
    """The label-free part of :func:`loo_decisions` for one feature draw:
    a map from any ``n x k`` target block ``T`` to its LOO scores.

    One residual-verified :meth:`_Ridge.solve` gives ``Q X``, hence the
    leverages ``d`` and, per block, ``W = (Q X) T / n``, so every label
    vector and probe of the draw shares it.  A row is degenerate where
    ``|1 - d_i| < tol``, and is rescored in every column from the dual
    system ``K = X^T X / n + gamma I``: ``1 - H = gamma K^{-1}`` for the hat
    matrix ``H``, so the PRESS identity reads ``s_i = t_i - [K^{-1} T]_i /
    [K^{-1}]_ii`` with no subtraction in the denominator.  ``K`` is solved
    once, for those rows' unit vectors only, by the same residual-verified
    :meth:`_Ridge.solve`.
    """
    n = X.shape[1]
    if n < 2:
        raise ValueError("loo_decisions needs n >= 2")
    QX = _Ridge(X).solve(X, gamma)
    d = np.einsum("ij,ij->j", X, QX)[:, None] / n
    denom = 1.0 - d
    tol = _LOO_DENOM_TOL + _LOO_SOLVE_ERR * np.finfo(float).eps * np.einsum(
        "ij,ij->j", X, X)[:, None] / (n * gamma)
    denom[np.abs(denom) < tol] = np.nan
    bad = np.flatnonzero(np.isnan(denom))
    if bad.size:
        warnings.warn(f"loo downdate denominator degenerate for {bad.size} indices; "
                      "scoring them by the dual PRESS form", stacklevel=3)
        # K = (s X^T)(s X^T)^T / p + gamma I with s = sqrt(p / n): a ridge system
        Z = _Ridge(X.T * np.sqrt(X.shape[0] / n)).solve(np.eye(n)[:, bad], gamma)  # K^{-1} e_bad
        Z_ii = Z[bad, np.arange(bad.size)][:, None]

    def scores(T: np.ndarray) -> np.ndarray:
        S = (X.T @ (QX @ T / n) - T * d) / denom
        if bad.size:
            S[bad] = T[bad] - (Z.T @ T) / Z_ii
        return S
    return scores


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def perturbed_bce_loss(
    w: np.ndarray, X: np.ndarray, y01: np.ndarray, rho: RhoParams, gamma: float
) -> tuple[float, np.ndarray]:
    """Value and gradient of the reweighted BCE objective.

    ``y01`` holds labels in {0, 1} (1 = positive class).  Per sample the
    plain BCE terms are combined with weights that depend on the label:
    ``((1 - rho_opposite) * loss(own) - rho_own * loss(other)) * beta``,
    where ``rho_own`` is ``rho_plus`` for label 1 and ``rho_minus`` for
    label 0.  A ridge penalty ``gamma * ||w||^2`` is added.

    Since ``loss(other) = loss(own) + y t`` for the logit ``t`` and ``y =
    2 y01 - 1``, that is the logistic loss minus a linear tilt,
    ``softplus(-y t) - c_y t`` with ``c_+ = rho_plus beta`` and ``c_- =
    -rho_minus beta``, whose derivative in ``t`` is ``-y sigmoid(-y t) - c_y``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan trigger the halt path
        y = 2.0 * y01 - 1.0
        logits = w @ X
        c = np.where(y01 == 1, rho.rho_plus * rho.beta, -rho.rho_minus * rho.beta)
        loss = _softplus(-y * logits)
        value = float(np.mean(loss - c * logits)) + gamma * float(w @ w)
        # sigmoid(-y t) = exp(-softplus(y t)) stays nonzero far into either tail
        coeff = -y * np.exp(-_softplus(y * logits)) - c
        grad = X @ coeff / X.shape[1] + 2.0 * gamma * w
    return value, grad


def train_lpc_bce(
    ds: LabeledDataset,
    rho: RhoParams,
    learning_rate: float = 0.1,
    iters: int = 400,
    gamma: float = 1e-3,
) -> Classifier:
    """Full-batch gradient descent on the reweighted BCE loss, from ``w = 0``.

    Labels are remapped to {0, 1} with 1 = class 2 (noisy label ``+1``).
    Runs exactly ``iters`` steps unless the loss turns non-finite, in which
    case descent halts at the last finite iterate with a warning naming the
    step.  Deterministic.
    """
    _check_gamma(gamma)
    _check_features(ds.X)
    if learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    y01 = (ds.y_noisy == 1).astype(float)
    w = np.zeros(ds.p)
    for step in range(iters):
        value, grad = perturbed_bce_loss(w, ds.X, y01, rho, gamma)
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            warnings.warn(
                f"bce descent halted at step {step}: non-finite loss; "
                "returning last finite iterate",
                stacklevel=2,
            )
            break
        with np.errstate(over="ignore", invalid="ignore"):  # caught just below
            w_next = w - learning_rate * grad
        if not np.all(np.isfinite(w_next)):
            warnings.warn(
                f"bce descent halted at step {step}: non-finite update; "
                "returning last finite iterate",
                stacklevel=2,
            )
            break
        w = w_next
    return Classifier(w=w, gamma=gamma, rho=rho, loss_kind="bce")
