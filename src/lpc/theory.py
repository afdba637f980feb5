"""Closed-form asymptotic statistics of the LPC decision function.

In the proportional regime ``p/n -> eta`` the decision value ``w @ x`` on a
fresh test point from class ``a`` is asymptotically Gaussian with mean
``(-1)^a * m_rho`` and second moment ``nu_rho``.  The model part (the
isotropic closed form or the general-covariance trace fixed point) gives
``m_rho = c @ ab`` and ``nu_rho = ab @ Q @ ab + e @ dd`` in the label
weights ``ab`` and their second moments ``dd``; in ``x = (beta, beta (rho_plus
- rho_minus))`` that is ``m_rho = c_x @ x`` and ``nu_rho = x @ V @ x``.  So
:func:`optimal_rho` is the solve ``x* = V^-1 c_x``, :func:`worst_rho` the
root of ``c_x @ x``, and :mod:`lpc.noise` reads the isotropic model part.
All are pure functions of the model (a :class:`~lpc.datasets.GmmSpec`), the
sample count and scalars: the reference values of the Monte Carlo runs.

The model part depends on the model, ``n``, ``gamma`` and (on the general
path) the test class, not on the flip rates or ``rho``.  ``_model_part``
builds and checks it once (on the general path, one run of the fixed
point), and its methods ``stats``, ``optimal_rho`` and ``worst_rho``
evaluate the closed forms at any rates and ``rho``; each public function
builds one part and calls one method, and the experiment harness builds one
part per model point and reads every variant from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RhoParams
from .datasets import GmmSpec, _check_flip_rates

__all__ = ["TheoryStats", "delta", "gaussian_upper_tail", "theory_stats", "optimal_rho",
           "worst_rho"]

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
    return float(max(_quadratic_roots(gamma, -(eta - gamma - 1.0), -eta)))


def _quadratic_roots(c2: float, c1: float, c0: float) -> np.ndarray:
    """Real roots of ``c2 x^2 + c1 x + c0``, computed without cancellation.

    A discriminant within its own rounding error ``4 eps c1^2`` of 0 is a
    double root.
    """
    if c2 == 0.0:
        return np.array([-c0 / c1] if c1 != 0.0 else [])
    disc = c1 * c1 - 4.0 * c2 * c0
    if abs(disc) <= 4.0 * np.finfo(float).eps * c1 * c1:
        return np.array([-0.5 * c1 / c2])
    if disc < 0.0:
        return np.array([])
    m = -0.5 * (c1 + np.copysign(np.sqrt(disc), c1))
    return np.array([m / c2, c0 / m])


def gaussian_upper_tail(x: float) -> float:
    """Standard normal upper-tail probability ``P(Z > x)`` of a scalar ``x``."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


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
        + (1 - 2 pi1) (rho_plus - rho_minus))``: negative at ``rho = (0, 0)``
        once ``2 pi1 eps_minus + 2 pi2 eps_plus > 1``, positive at
        :func:`optimal_rho`.
        """
        return 1.0 - gaussian_upper_tail(abs(self.m_rho) / math.sqrt(self.variance))

    @property
    def risk(self) -> float:
        """Asymptotic squared risk ``1 - 2 m_rho + nu_rho`` of the raw ridge regressor."""
        return 1.0 - 2.0 * self.m_rho + self.nu_rho


@dataclass(frozen=True)
class _ModelPart:
    """The coefficients of ``m_rho = c @ ab`` and ``nu_rho = ab @ Q @ ab + e @ dd``
    and the label-free :class:`TheoryStats` fields of one ``(model, n, gamma,
    test_class)``; its methods evaluate the closed forms at any flip rates and
    ``rho`` without rebuilding it."""

    c: np.ndarray
    Q: np.ndarray
    e: np.ndarray
    delta: float
    h: float
    kappa: float | None = None
    delta2: float | None = None

    def stats(self, eps_plus: float, eps_minus: float, rho: RhoParams) -> TheoryStats:
        """:func:`theory_stats` of this part."""
        _check_flip_rates(eps_plus, eps_minus)
        b, gap, lm, lp = rho.beta, rho.rho_plus - rho.rho_minus, rho.lambda_minus, rho.lambda_plus
        # the label weights averaged over flips, and their second moments
        ab = np.array([lm - 2.0 * b * eps_minus, lp - 2.0 * b * eps_plus])
        dd = np.array([4.0 * b**2 * eps_minus * gap + lm**2, -4.0 * b**2 * eps_plus * gap + lp**2])
        m_rho, nu_rho = float(self.c @ ab), float(ab @ self.Q @ ab + self.e @ dd)
        return TheoryStats(self.delta, self.h, m_rho, nu_rho, self.kappa, self.delta2)

    def _label_form(self, eps_plus: float,
                    eps_minus: float) -> tuple[list[float], list[list[float]]]:
        """``(c_x, V)`` with ``m_rho = c_x @ x`` and ``nu_rho = x @ V @ x`` in
        ``x = (beta, beta (rho_plus - rho_minus))``: :meth:`stats`'s ``ab``
        is ``L @ x`` and its ``dd_a`` is ``x @ D_a @ x``."""
        _check_flip_rates(eps_plus, eps_minus)
        L = np.array([[1.0 - 2.0 * eps_minus, -1.0], [1.0 - 2.0 * eps_plus, 1.0]])
        D = [np.array([[1.0, s], [s, 1.0]]) for s in (2.0 * eps_minus - 1.0, 1.0 - 2.0 * eps_plus)]
        V = L.T @ self.Q @ L + self.e[0] * D[0] + self.e[1] * D[1]
        return (L.T @ self.c).tolist(), V.tolist()

    def optimal_rho(self, eps_plus: float, eps_minus: float) -> RhoParams:
        """:func:`optimal_rho` of this part."""
        (c0, c1), ((v00, v01), (_, v11)) = self._label_form(eps_plus, eps_minus)
        det = v00 * v11 - v01 * v01  # V is positive definite where the theory is valid
        beta, beta_g = (v11 * c0 - v01 * c1) / det, (v00 * c1 - v01 * c0) / det
        if beta == 0.0:
            raise ValueError("the optimal label weights have beta = 0: no rho reaches them")
        g = beta_g / beta
        return RhoParams((g + 1.0 - 1.0 / beta) / 2.0, (1.0 - 1.0 / beta - g) / 2.0)

    def worst_rho(self, eps_plus: float, eps_minus: float) -> RhoParams:
        """:func:`worst_rho` of this part."""
        c0, c1 = self._label_form(eps_plus, eps_minus)[0]
        if abs(c1) <= 1e-12 * abs(c0):
            raise ValueError("the decision mean has no root in rho_plus - rho_minus: it does "
                             "not move with it (balanced classes) or is 0 (no signal)")
        g = -c0 / c1
        return RhoParams(g / 2.0, -g / 2.0)


def _model_part(model: GmmSpec, n: float, gamma: float, test_class: int = 2) -> _ModelPart:
    """The model part of ``n`` draws of ``model`` at ``gamma``."""
    if not (0 < n < math.inf and 0 < gamma < math.inf):  # NaN fails too
        raise ValueError(f"the theory needs finite n > 0 and gamma > 0, got ({n}, {gamma})")
    if test_class not in (1, 2):
        raise ValueError(f"test_class must be 1 or 2, got {test_class}")
    eta = model.p / n
    if model.cov is None:
        return _isotropic_part(model, eta, gamma)
    return _general_part(model, eta, gamma, test_class)


def theory_stats(model: GmmSpec, n: float, gamma: float, eps_plus: float = 0.0,
                 eps_minus: float = 0.0, rho: RhoParams = RhoParams(),
                 test_class: int = 2) -> TheoryStats:
    """Asymptotic statistics of the LPC with parameters ``rho`` and ridge
    ``gamma``, trained on ``n`` draws of ``model`` whose labels flip at
    rates ``0 <= eps_plus, eps_minus < 1``; ``n`` enters only through
    ``eta = model.p / n``.

    An isotropic model (``model.cov is None``) takes the closed form.  Per-class
    covariances take the trace fixed point, where ``test_class`` selects the
    class of the test point: its second moment is ``nu_rho``, so
    ``variance``, ``accuracy`` and ``risk`` are that class's, not a mixture
    over both.
    """
    return _model_part(model, n, gamma, test_class).stats(eps_plus, eps_minus, rho)


def optimal_rho(model: GmmSpec, n: float, gamma: float, eps_plus: float, eps_minus: float,
                test_class: int = 2) -> RhoParams:
    """The ``rho`` maximizing :func:`theory_stats`'s accuracy (of ``test_class``).

    The accuracy depends on the gap ``g = rho_plus - rho_minus`` alone (on an
    isotropic model, so does the optimal gap on the class proportions and
    noise rates alone); of the optimal pairs this is the least-risk one,
    ``x* = V^-1 c_x``, where ``m_rho = nu_rho > 0``, off the singular line.
    """
    return _model_part(model, n, gamma, test_class).optimal_rho(eps_plus, eps_minus)


def worst_rho(model: GmmSpec, n: float, gamma: float, eps_plus: float, eps_minus: float,
              test_class: int = 2) -> RhoParams:
    """The ``rho`` at which the decision mean vanishes (random-guess point),
    ``g = -c_x[0] / c_x[1]``, returned at ``beta = 1`` as ``(g/2, -g/2)``."""
    return _model_part(model, n, gamma, test_class).worst_rho(eps_plus, eps_minus)


def _isotropic_part(model: GmmSpec, eta: float, gamma: float) -> _ModelPart:
    """The closed form for identity covariances; the mean enters only
    through ``||mu||^2``."""
    d = delta(eta, gamma)
    gd = gamma * (1.0 + d)
    h = 1.0 - eta / (1.0 + gd) ** 2
    if not h > _H_GUARD:
        raise ValueError(
            f"theory outside validity range: h = {h:.3e} <= {_H_GUARD:g} at "
            f"(eta, gamma) = ({eta}, {gamma})"
        )
    s2 = float(model.mu @ model.mu)
    D = s2 + 1.0 + gd
    pi = np.array([model.pi1, 1.0 - model.pi1])
    kappa = ((s2 + 1.0) / D - 2.0 * (1.0 - h)) * s2 / (h * D)
    return _ModelPart(c=s2 / D * pi, Q=kappa * np.outer(pi, pi), e=(1.0 - h) / h * pi,
                      delta=d, h=h, kappa=kappa)


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


def _general_part(model: GmmSpec, eta: float, gamma: float, test_class: int) -> _ModelPart:
    """Per-class covariances ``(C1, C2) = model.cov``.  All normalized traces
    are evaluated without the rank-one mean term, so with ``C1 = C2 = I`` the
    result coincides with the isotropic closed form to solver tolerance."""
    mu, (C1, C2), p = model.mu, model.cov, model.p
    pi1, pi2 = model.pi1, 1.0 - model.pi1

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
    w = [eta / p * pi1 / (1.0 + d1) ** 2, eta / p * pi2 / (1.0 + d2) ** 2]
    G = np.array([[w[0] * tr[0][0], w[1] * tr[1][0]], [w[0] * tr[0][1], w[1] * tr[1][1]]])
    h_like = float(np.linalg.det(np.eye(2) - G))
    if h_like <= _H_GUARD:
        raise ValueError(
            f"theory outside validity range: det(I - G) = {h_like:.3e} <= {_H_GUARD:g} at "
            f"(eta, gamma) = ({eta}, {gamma})"
        )
    alpha = np.linalg.inv(np.eye(2) - G)[test_class - 1]
    mu_M_mu = alpha[0] * mu_N_mu[0] + alpha[1] * mu_N_mu[1]
    # T_b = (1/n) Tr(Sigma_b E[Q Sigma_a Q]), mean-free
    T = np.array([eta / p * (alpha[0] * tr[b][0] + alpha[1] * tr[b][1]) for b in (0, 1)])
    # class a's label weight enters the mean as s_a, the label variance as r_a
    s = np.array([pi1 / (1.0 + d1), pi2 / (1.0 + d2)])
    r = T * s / (1.0 + np.array([d1, d2]))
    Q = mu_M_mu * np.outer(s, s) - mu_Q_mu * (np.outer(s, r) + np.outer(r, s))
    return _ModelPart(c=mu_Q_mu * s, Q=Q, e=r, delta=d1, h=h_like, delta2=d2)
