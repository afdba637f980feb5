"""Closed-form asymptotic statistics of the LPC decision function.

In the proportional regime ``p/n -> eta`` the decision value ``w @ x`` on a
fresh test point from class ``a`` is asymptotically Gaussian with mean
``(-1)^a * m_rho`` and second moment ``nu_rho``.  This module computes those
limits, from which :class:`TheoryStats` derives the predicted accuracy and
risk, the closed-form optimal and worst-case ``rho_plus``, and the
general-covariance extension.

Everything here is a pure function of scalar (or matrix) inputs; these are
the reference values that the Monte Carlo experiments are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SINGULARITY_GUARD, RhoParams
from .datasets import _check_covariance

__all__ = [
    "TheoryConfig",
    "TheoryStats",
    "delta",
    "gaussian_upper_tail",
    "theory_stats_isotropic",
    "theory_stats_general",
    "optimal_rho_plus",
    "worst_rho_plus",
]

_H_GUARD = 1e-6
_FIXED_POINT_TOL = 1e-12
_FIXED_POINT_MAX_ITERS = 10_000


def delta(eta: float, gamma: float) -> float:
    """Nonnegative root of ``gamma d^2 + (1 + gamma - eta) d - eta = 0``.

    This is the normalized trace of the deterministic equivalent of the
    ridge resolvent; it captures the high-dimensional bias (``delta -> 0``
    as ``eta -> 0``).
    """
    if not (eta > 0 and gamma > 0):  # NaN fails too
        raise ValueError(f"delta needs eta > 0 and gamma > 0, got ({eta}, {gamma})")
    b = eta - gamma - 1.0
    disc = math.sqrt(b * b + 4.0 * eta * gamma)
    if b >= 0:
        return (b + disc) / (2.0 * gamma)
    # avoid cancellation between b and the discriminant
    return 2.0 * eta / (disc - b)


def gaussian_upper_tail(x: float) -> float:
    """Standard normal upper-tail probability ``P(Z > x)`` of a scalar ``x``."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@dataclass(frozen=True)
class TheoryConfig:
    """Inputs of the asymptotic formulas.

    For the isotropic path give ``snr = ||mu||``.  For the general path give
    the mean direction ``mu`` and the two covariance matrices instead.
    """

    eta: float
    pi1: float
    gamma: float
    eps_plus: float = 0.0
    eps_minus: float = 0.0
    rho: RhoParams = RhoParams()
    snr: float | None = None
    mu: np.ndarray | None = None
    C1: np.ndarray | None = None
    C2: np.ndarray | None = None

    def __post_init__(self) -> None:
        # `not x > 0` so that NaN fails too
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.snr is not None and not math.isfinite(self.snr):
            raise ValueError(f"snr must be finite, got {self.snr}")
        if not 0.0 < self.pi1 < 1.0:
            raise ValueError(f"pi1 must lie in (0, 1), got {self.pi1}")
        if self.eps_plus + self.eps_minus >= 1.0:
            raise ValueError("eps_plus + eps_minus must be < 1")
        general = self.mu is not None or self.C1 is not None or self.C2 is not None
        if general and (self.mu is None or self.C1 is None or self.C2 is None):
            raise ValueError("general-covariance config needs mu, C1 and C2 together")
        if not general and self.snr is None:
            raise ValueError("config needs either snr or (mu, C1, C2)")

    @property
    def pi2(self) -> float:
        return 1.0 - self.pi1


@dataclass(frozen=True)
class TheoryStats:
    """Asymptotic statistics for one configuration.

    Class 1 decision values center at ``-m_rho``, class 2 at ``+m_rho``
    (``m_rho`` itself can be negative, see :attr:`accuracy`);
    ``nu_rho`` is the common second moment, and a non-positive variance
    ``nu_rho - m_rho^2`` raises.  ``kappa`` is the mean-direction part of the
    zero-noise, ``rho = (0, 0)`` second moment (isotropic path only).
    ``delta2`` is set on the general path, where the two covariances have
    separate trace fixed points, and ``nu_rho`` is the second moment at the
    chosen test class's points.  The oracle is the same configuration at
    ``rho = (0, 0)`` with zero noise.
    """

    delta: float
    h: float
    m_rho: float
    nu_rho: float
    kappa: float | None
    delta2: float | None = None

    def __post_init__(self) -> None:
        if not self.variance > 0:
            raise ValueError(f"non-positive decision variance {self.variance:.3e}")

    @property
    def variance(self) -> float:
        return self.nu_rho - self.m_rho**2

    @property
    def accuracy(self) -> float:
        """Asymptotic test accuracy ``1 - Phi(|m_rho| / sqrt(nu_rho - m_rho^2))``,
        ``Phi`` the upper tail.

        The sign of the asymptotic mean is known in closed form, so the decision
        rule is taken as ``sign(m_rho) * sign(w @ x)``.  On the isotropic path
        ``m_rho`` has the sign of ``beta * (1 - 2 pi1 eps_minus - 2 pi2 eps_plus
        + (1 - 2 pi1) (rho_plus - rho_minus))``, so it can be negative below the
        singular line ``rho_plus + rho_minus = 1`` too: at ``rho = (0, 0)`` once
        ``2 pi1 eps_minus + 2 pi2 eps_plus > 1``.  There the raw sign rule scores
        below one half and this rule above.
        """
        return 1.0 - gaussian_upper_tail(abs(self.m_rho) / math.sqrt(self.variance))

    @property
    def risk(self) -> float:
        """Asymptotic squared risk ``1 - 2 m_rho + nu_rho`` of the raw ridge regressor."""
        return 1.0 - 2.0 * self.m_rho + self.nu_rho


def _label_weights(rho: RhoParams, eps_plus: float, eps_minus: float) -> tuple[float, float]:
    """Per-class effective label weights after averaging over flips.

    Returns ``(A, B)`` with ``A`` the class-1 weight ``lambda_minus -
    2 beta eps_minus`` and ``B`` the class-2 analogue.
    """
    beta = rho.beta
    return rho.lambda_minus - 2.0 * beta * eps_minus, rho.lambda_plus - 2.0 * beta * eps_plus


def _diag_weights(rho: RhoParams, eps_plus: float, eps_minus: float) -> tuple[float, float]:
    """Second-moment label weights ``E[target^2]`` per class."""
    beta2 = rho.beta**2
    gap = rho.rho_plus - rho.rho_minus
    d1 = 4.0 * beta2 * eps_minus * gap + rho.lambda_minus**2
    d2 = -4.0 * beta2 * eps_plus * gap + rho.lambda_plus**2
    return d1, d2


def theory_stats_isotropic(cfg: TheoryConfig) -> TheoryStats:
    """Full asymptotic statistics for an isotropic configuration."""
    if cfg.snr is None:
        raise ValueError("theory_stats_isotropic needs cfg.snr")
    eta, gamma, pi1 = cfg.eta, cfg.gamma, cfg.pi1
    d = delta(eta, gamma)
    gd = gamma * (1.0 + d)
    h = 1.0 - eta / (1.0 + gd) ** 2
    if not h > _H_GUARD:
        raise ValueError(
            f"theory outside validity range: h = {h:.3e} <= 0 at (eta, gamma) = ({eta}, {gamma})"
        )
    s2 = float(cfg.snr) ** 2
    D = s2 + 1.0 + gd
    pi2 = 1.0 - pi1
    A, B = _label_weights(cfg.rho, cfg.eps_plus, cfg.eps_minus)
    S = pi1 * A + pi2 * B
    kappa = ((s2 + 1.0) / D - 2.0 * (1.0 - h)) * s2 / (h * D)
    d1, d2 = _diag_weights(cfg.rho, cfg.eps_plus, cfg.eps_minus)
    return TheoryStats(
        delta=d,
        h=h,
        m_rho=S * s2 / D,
        nu_rho=S**2 * kappa + (1.0 - h) / h * (pi1 * d1 + pi2 * d2),
        kappa=kappa,
    )


def optimal_rho_plus(
    pi1: float, eps_plus: float, eps_minus: float, rho_minus: float = 0.0
) -> float:
    """``rho_plus`` maximizing the asymptotic accuracy at fixed ``rho_minus``.

    Depends only on the class proportions and the noise rates, not on the
    SNR, the regularization or the dimension ratio.
    """
    if not 0.0 < pi1 < 1.0:
        raise ValueError(f"pi1 must lie in (0, 1), got {pi1}")
    denom = 1.0 - eps_plus - eps_minus
    if abs(denom) <= SINGULARITY_GUARD:
        raise ValueError("eps_plus + eps_minus = 1 makes the optimum singular")
    pi2 = 1.0 - pi1
    num = pi1**2 * eps_minus * (eps_minus - 1.0) + pi2**2 * eps_plus * (1.0 - eps_plus)
    return num / (pi1 * pi2 * denom) + rho_minus


def worst_rho_plus(
    pi1: float, eps_plus: float, eps_minus: float, rho_minus: float = 0.0
) -> float:
    """``rho_plus`` at which the decision mean vanishes (random-guess point)."""
    if abs(pi1 - 0.5) <= 1e-12:
        raise ValueError(
            "pi1 = 1/2: the decision mean has no root in rho_plus (balanced classes)"
        )
    pi2 = 1.0 - pi1
    return (1.0 - 2.0 * pi1 * eps_minus - 2.0 * pi2 * eps_plus) / (2.0 * pi1 - 1.0) + rho_minus


def _general_fixed_point(
    C1: np.ndarray, C2: np.ndarray, pi1: float, gamma: float, eta: float
) -> tuple[float, float]:
    """Fixed point of the per-class trace pair ``(delta_1, delta_2)``.

    ``delta_a = eta/p * tr(C_a Q0(delta))`` is a standard interference
    function (Yates 1995), so plain iteration from 0 rises monotonically to
    the unique fixed point.  The stop test is relative to
    ``max(1, delta_1, delta_2)``.

    The iteration runs on the mean-free resolvent: the rank-one mean
    contribution to a normalized trace is O(1/n) and dropping it makes the
    identity-covariance case reduce exactly to the scalar ``delta``.
    """
    p = C1.shape[0]
    pi2 = 1.0 - pi1
    eye = np.eye(p)
    d1 = d2 = 0.0
    for _ in range(_FIXED_POINT_MAX_ITERS):
        Q0 = np.linalg.inv(pi1 * C1 / (1.0 + d1) + pi2 * C2 / (1.0 + d2) + gamma * eye)
        f1 = eta / p * float(np.sum(C1 * Q0))  # tr(C1 Q0), Q0 symmetric
        f2 = eta / p * float(np.sum(C2 * Q0))
        residual = max(abs(f1 - d1), abs(f2 - d2))
        d1, d2 = f1, f2
        if residual <= _FIXED_POINT_TOL * max(1.0, d1, d2):
            return d1, d2
    raise RuntimeError(
        f"trace fixed point did not converge in {_FIXED_POINT_MAX_ITERS} iterations; "
        f"last residual {residual:.3e}"
    )


def theory_stats_general(cfg: TheoryConfig, test_class: int = 2) -> TheoryStats:
    """Asymptotic statistics under per-class covariances ``C1, C2``.

    ``test_class`` selects the class of the test point: its second moment
    is ``nu_rho``, so ``variance``, ``accuracy`` and ``risk`` are that
    class's, not a mixture over both.  All normalized traces are evaluated
    without the rank-one mean term, so with ``C1 = C2 = I`` the result
    coincides with :func:`theory_stats_isotropic` to solver tolerance.
    """
    if cfg.mu is None or cfg.C1 is None or cfg.C2 is None:
        raise ValueError("theory_stats_general needs cfg.mu, cfg.C1 and cfg.C2")
    if test_class not in (1, 2):
        raise ValueError(f"test_class must be 1 or 2, got {test_class}")
    mu = np.asarray(cfg.mu, dtype=float).reshape(-1)
    p = mu.size
    C1 = _check_covariance("C1", cfg.C1, p)
    C2 = _check_covariance("C2", cfg.C2, p)
    pi1, pi2, gamma, eta = cfg.pi1, cfg.pi2, cfg.gamma, cfg.eta

    d1, d2 = _general_fixed_point(C1, C2, pi1, gamma, eta)
    Q0 = np.linalg.inv(pi1 * C1 / (1.0 + d1) + pi2 * C2 / (1.0 + d2) + gamma * np.eye(p))
    # the resolvent with the mean term, Qbar = (Q0^-1 + kappa mu mu')^-1, enters
    # only through v = Qbar mu (Sherman-Morrison)
    kappa = pi1 / (1.0 + d1) + pi2 / (1.0 + d2)
    Q0_mu = Q0 @ mu
    q = float(mu @ Q0_mu)
    v = Q0_mu / (1.0 + kappa * q)
    mu_Q_mu = q / (1.0 + kappa * q)
    # mu' Qbar S_b Qbar mu with S_b = mu mu' + C_b
    mu_N_mu = [float(v @ Cb @ v) + float(mu @ v) ** 2 for Cb in (C1, C2)]
    # tr[k][b] approximates Tr(Sigma_k Qbar Sigma_b Qbar) by its mean-free
    # part Tr(C_k Q0 C_b Q0)
    CQ = [C1 @ Q0, C2 @ Q0]
    tr = [[float(np.sum(CQ[k] * CQ[b].T)) for b in (0, 1)] for k in (0, 1)]
    c = [eta / p * pi1 / (1.0 + d1) ** 2, eta / p * pi2 / (1.0 + d2) ** 2]
    G = np.array(
        [[c[0] * tr[0][0], c[1] * tr[1][0]], [c[0] * tr[0][1], c[1] * tr[1][1]]]
    )
    h_like = float(np.linalg.det(np.eye(2) - G))
    if h_like <= _H_GUARD:
        raise ValueError(
            f"theory outside validity range: det(I - G) = {h_like:.3e} at "
            f"(eta, gamma) = ({eta}, {gamma})"
        )
    alpha = np.linalg.inv(np.eye(2) - G)[test_class - 1]
    mu_M_mu = alpha[0] * mu_N_mu[0] + alpha[1] * mu_N_mu[1]
    # T_b = (1/n) Tr(Sigma_b E[Q Sigma_a Q]), mean-free
    T = [eta / p * (alpha[0] * tr[b][0] + alpha[1] * tr[b][1]) for b in (0, 1)]

    A, B = _label_weights(cfg.rho, cfg.eps_plus, cfg.eps_minus)
    a1 = pi1 * A / (1.0 + d1)
    a2 = pi2 * B / (1.0 + d2)
    S = a1 + a2
    w1, w2 = _diag_weights(cfg.rho, cfg.eps_plus, cfg.eps_minus)
    nu = (
        S**2 * mu_M_mu
        - 2.0 * S * (T[0] / (1.0 + d1) * a1 + T[1] / (1.0 + d2) * a2) * mu_Q_mu
        + pi1 * w1 * T[0] / (1.0 + d1) ** 2
        + pi2 * w2 * T[1] / (1.0 + d2) ** 2
    )
    return TheoryStats(delta=d1, h=h_like, m_rho=S * mu_Q_mu, nu_rho=nu, kappa=None, delta2=d2)
