"""Training and evaluation of the Labels-Perturbed Classifier (LPC).

The LPC is a ridge regression on reweighted labels: with the pair
``rho = (rho_plus, rho_minus)`` the regression target of sample ``i`` is
``+lambda_plus`` when its (noisy) label is ``+1`` and ``-lambda_minus``
otherwise, where the ``lambda`` weights are derived from ``rho``.  The
weight vector solves

    (X X^T / n + gamma I) w = (1/n) X t.

``rho = (0, 0)`` gives the plain (naive) ridge classifier; training the
same on clean labels is the oracle variant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .datasets import LabeledDataset, _check_labels

__all__ = [
    "RhoParams",
    "Classifier",
    "train_lpc",
    "train_lpc_bce",
    "decision",
    "evaluate",
    "loo_decisions",
    "perturbed_bce_loss",
    "save_classifier",
    "load_classifier",
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
    p: int = field(init=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float).reshape(-1)
        if not np.all(np.isfinite(w)):
            raise ValueError("classifier weights must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "p", w.size)


def _targets(y_noisy: np.ndarray, rho: RhoParams) -> np.ndarray:
    # D_rho y: +lambda_plus on positive labels, -lambda_minus on negative ones
    return np.where(y_noisy == 1, rho.lambda_plus, -rho.lambda_minus)


class _Ridge:
    """The regularized system ``(X X^T / n + gamma I) W = X T / n`` of one
    training draw; ``A`` is SPD since ``gamma > 0``."""

    def __init__(self, X: np.ndarray, gamma: float):
        _check_inputs(X, gamma)
        self.X = X
        self.n = X.shape[1]
        self.A = (X @ X.T) / self.n
        self.A[np.diag_indices_from(self.A)] += gamma

    def weights(self, T: np.ndarray) -> np.ndarray:
        """``p x k`` weights for an ``n x k`` target block (``p`` for a
        vector).  Each column's normal-equation residual is verified to
        ``1e-8 * (||A||_F ||w|| + ||b||)``, a normwise backward error, so the
        check scales with ``A``; a NaN fails it."""
        rhs = self.X @ T / self.n
        W = np.linalg.solve(self.A, rhs)
        res = np.linalg.norm(self.A @ W - rhs, axis=0)
        scale = np.linalg.norm(self.A) * np.linalg.norm(W, axis=0) + np.linalg.norm(rhs, axis=0)
        if not np.all(res <= _RESIDUAL_TOL * scale):
            raise FloatingPointError(
                f"normal-equation residual {np.max(res):.3e} exceeds "
                f"{_RESIDUAL_TOL:.0e} * (||A||_F ||w|| + ||b||)"
            )
        return W


def _check_inputs(X: np.ndarray, gamma: float) -> None:
    if not gamma > 0:  # NaN fails too
        raise ValueError(f"gamma must be > 0 (got {gamma}); the system may be singular")
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite values")


def train_lpc(ds: LabeledDataset, rho: RhoParams, gamma: float) -> Classifier:
    """Solve the reweighted ridge system for the training labels in ``ds``.

    One dense solve of the (SPD) regularized Gram system; the
    normal-equation residual is verified to a ``1e-8`` normwise backward error.
    """
    w = _Ridge(ds.X, gamma).weights(_targets(ds.y_noisy, rho))
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
    return c.w @ X_test


def evaluate(c: Classifier, X_test: np.ndarray, y_test: np.ndarray) -> tuple[float, float]:
    """Accuracy (sign matches, with sign(0) = +1) and squared-error risk."""
    scores = decision(c, X_test)
    if scores.size == 0:
        raise ValueError("empty test set")
    y_test = _check_labels("y_test", y_test, scores.size)
    pred = np.where(scores >= 0, 1, -1)
    accuracy = float(np.mean(pred == y_test))
    risk = float(np.mean((scores - y_test) ** 2))
    return accuracy, risk


def loo_decisions(ds: LabeledDataset, rho: RhoParams, gamma: float) -> np.ndarray:
    """Leave-one-out decision values ``x_i @ w^{-i}`` for every sample.

    ``w^{-i}`` keeps the full-data ``1/n`` scaling, so it follows from the
    full solve by a rank-one downdate:

        s_i = (x_i @ w - c_i * d_i) / (1 - d_i),   d_i = x_i Q x_i / n,

    with ``c_i`` the regression target of sample ``i``.  One dense solve
    serves all ``n`` indices.  An index whose ``1 - d_i`` is too near zero
    for ``1e-8`` accuracy is scored by the exact PRESS form on the dual
    system instead.
    """
    return _loo_block(ds.X, _targets(ds.y_noisy, rho)[:, None], gamma)[:, 0]


def _loo_block(X: np.ndarray, T: np.ndarray, gamma: float) -> np.ndarray:
    """:func:`loo_decisions` for an ``n x k`` target block: one dense solve,
    of ``X T / n`` and ``X`` stacked, serves every column, and a degenerate
    index is rescored in every column.

    The degenerate rows use the dual system ``K = X^T X / n + gamma I``:
    ``1 - H = gamma K^{-1}`` for the hat matrix ``H``, so the PRESS identity
    reads ``s_i = t_i - [K^{-1} T]_i / [K^{-1}]_ii`` with no subtraction in
    the denominator.  ``K`` is solved for those rows' unit vectors only.
    """
    n = X.shape[1]
    if n < 2:
        raise ValueError("loo_decisions needs n >= 2")
    rhs = np.hstack([X @ T / n, X])  # W and Q X from one solve
    W, QX = np.hsplit(np.linalg.solve(_Ridge(X, gamma).A, rhs), [T.shape[1]])
    d = np.einsum("ij,ij->j", X, QX)[:, None] / n
    denom = 1.0 - d
    tol = _LOO_DENOM_TOL + _LOO_SOLVE_ERR * np.finfo(float).eps * np.einsum(
        "ij,ij->j", X, X)[:, None] / (n * gamma)
    scores = (X.T @ W - T * d) / np.where(np.abs(denom) < tol, np.nan, denom)

    bad = np.flatnonzero(~np.all(np.isfinite(scores), axis=1))
    if bad.size:
        warnings.warn(
            f"loo downdate denominator degenerate for {bad.size} indices; "
            "scoring them by the dual PRESS form",
            stacklevel=3,
        )
        K = X.T @ X / n
        K[np.diag_indices_from(K)] += gamma
        cols = np.arange(bad.size)
        E = np.zeros((n, bad.size))
        E[bad, cols] = 1.0
        Z = np.linalg.solve(K, E)  # the bad columns of K^{-1}
        scores[bad] = T[bad] - (Z.T @ T) / Z[bad, cols][:, None]
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
    """
    with np.errstate(over="ignore"):  # overflow to inf triggers the halt path
        logits = w @ X
        loss_pos = _softplus(-logits)  # -log sigmoid(t)
        loss_neg = _softplus(logits)  # -log (1 - sigmoid(t))
        beta = rho.beta
        pos = y01 == 1
        w_own = np.where(pos, (1.0 - rho.rho_minus) * beta, (1.0 - rho.rho_plus) * beta)
        w_opp = np.where(pos, rho.rho_plus * beta, rho.rho_minus * beta)
        own = np.where(pos, loss_pos, loss_neg)
        opp = np.where(pos, loss_neg, loss_pos)
        value = float(np.mean(w_own * own - w_opp * opp)) + gamma * float(w @ w)

        s = np.exp(-loss_pos)  # sigmoid(t); stays nonzero far into the negative tail
        # d/dt of loss_pos is s - 1, of loss_neg is s
        g_own = np.where(pos, s - 1.0, s)
        g_opp = np.where(pos, s, s - 1.0)
        coeff = w_own * g_own - w_opp * g_opp
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
    _check_inputs(ds.X, gamma)
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


_FORMAT_TAG = "lpc-classifier-v1"


def save_classifier(c: Classifier, path) -> None:
    """Serialize as text: a version tag line, then ``p + 3`` numbers
    (gamma, rho_plus, rho_minus, w...)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{_FORMAT_TAG} {c.loss_kind}\n")
        f.write(f"{float(c.gamma)!r}\n{float(c.rho.rho_plus)!r}\n{float(c.rho.rho_minus)!r}\n")
        for v in c.w:
            f.write(f"{float(v)!r}\n")


def load_classifier(path) -> Classifier:
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        if not header or header[0] != _FORMAT_TAG:
            raise ValueError(f"{path}: not a {_FORMAT_TAG} file")
        loss_kind = header[1] if len(header) > 1 else "squared"
        values = [float(line) for line in f if line.strip()]
    if len(values) < 4:
        raise ValueError(f"{path}: truncated classifier file")
    gamma, rho_plus, rho_minus = values[:3]
    w = np.array(values[3:])
    return Classifier(w=w, gamma=gamma, rho=RhoParams(rho_plus, rho_minus), loss_kind=loss_kind)
