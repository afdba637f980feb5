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
builds and checks it once (on the general path, one Newton solve of the
fixed point on its own Jacobian, from the trace bound, in 4 to 24 steps),
and its methods ``stats``, ``optimal_rho`` and ``worst_rho`` evaluate the
closed forms at any rates and ``rho``; each public function builds one part
and calls one method, and the experiment harness builds one part per
distinct ``gamma`` of a run and reads every variant from it.
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
_NEWTON_MAX_STEPS = 100


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


# Cody's rational approximations of erf and erfc (W. J. Cody, Math. Comp. 23
# (1969) 631-637; the coefficients of his CALERF): erf(t) = t P(t^2) / Q(t^2)
# for |t| <= 0.46875, erfc(t) = exp(-t^2) P(t) / Q(t) for |t| <= 4, and
# erfc(t) = exp(-t^2) (1/sqrt(pi) - R(1/t^2) / S(1/t^2) / t^2) / t beyond.
_ERF_P = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_Q = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_MID_P = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
               2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
               2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_MID_Q = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
               1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
               3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_FAR_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
               1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_FAR_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
               6.05183413124413191e-2, 2.33520497626869185e-3)
_ERFC_ZERO = 26.543  # erfc(t) underflows to 0 from here


def _ratio(y: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """Cody's ``(p[-1] y^d + p[0] y^(d-1) + ... + p[d-1]) / (y^d + q[0]
    y^(d-1) + ... + q[d-1])`` by Horner's rule (``len(q) = d``)."""
    num, den = y * p[-1], y.copy()
    for a, b in zip(p[:len(q) - 1], q[:-1]):
        num += a
        num *= y
        den += b
        den *= y
    num += p[len(q) - 1]
    den += q[-1]
    num /= den
    return num


def _upper_tail(x) -> np.ndarray:
    """:func:`gaussian_upper_tail` elementwise: ``erfc(x / sqrt 2) / 2`` by
    Cody's approximations.  ``exp(-y^2)`` is ``exp(-s^2) exp(-(y - s)(y +
    s))`` with ``s`` ``y`` cut to 1/16ths, so that rounding ``y^2`` costs no
    relative accuracy deep in the tail.  The ranges are taken by index
    arrays, which numpy gathers and scatters several times faster than
    boolean masks of a random pattern."""
    x = np.asarray(x, dtype=float)
    t = x.ravel() / math.sqrt(2.0)
    y = np.abs(t)
    out = np.where(y >= _ERFC_ZERO, 0.0, np.nan)  # NaN stays NaN
    near = np.flatnonzero(y <= 0.46875)
    mid = np.flatnonzero((y > 0.46875) & (y <= 4.0))
    far = np.flatnonzero((y > 4.0) & (y < _ERFC_ZERO))
    yn = y[near]
    yn *= yn
    out[near] = 1.0 - t[near] * _ratio(yn, _ERF_P, _ERF_Q)
    out[mid] = _ratio(y[mid], _ERFC_MID_P, _ERFC_MID_Q)
    yf = y[far]
    z = 1.0 / (yf * yf)
    out[far] = (1.0 / math.sqrt(math.pi) - z * _ratio(z, _ERFC_FAR_P, _ERFC_FAR_Q)) / yf
    tail = np.concatenate([mid, far])
    yt = y[tail]
    s = np.trunc(yt * 16.0)
    s /= 16.0
    d = yt - s
    yt += s
    d *= yt
    s *= -s  # exact: s is a multiple of 1/16 below 27
    np.exp(s, out=s)
    np.negative(d, out=d)
    s *= np.exp(d, out=d)
    out[tail] *= s
    neg = np.flatnonzero(t < -0.46875)
    out[neg] = 2.0 - out[neg]
    out *= 0.5
    return out.reshape(x.shape)


def _gauss_legendre(x: tuple, w: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on ``[0, 2]`` and their weights, from the
    positive nodes ``x`` on ``[-1, 1]`` and their weights ``w``."""
    return np.r_[1.0 - np.array(x), 1.0 + np.array(x)], np.r_[w, w]


# Genz's 6-, 12- and 20-node Gauss-Legendre rules, by node count.  Tables,
# not numpy.polynomial.legendre.leggauss or an eigensolve: either pulls in
# code that adds about 0.5-1 MB to a run's peak RSS.
_GAUSS_LEGENDRE = {
    6: _gauss_legendre(
        (0.9324695142031522, 0.6612093864662647, 0.2386191860831970),
        (0.1713244923791705, 0.3607615730481384, 0.4679139345726904)),
    12: _gauss_legendre(
        (0.9815606342467191, 0.9041172563704750, 0.7699026741943050, 0.5873179542866171,
         0.3678314989981802, 0.1252334085114692),
        (0.04717533638651177, 0.1069393259953183, 0.1600783285433464, 0.2031674267230659,
         0.2334925365383547, 0.2491470458134029)),
    20: _gauss_legendre(
        (0.9931285991850949, 0.9639719272779138, 0.9122344282513259, 0.8391169718222188,
         0.7463319064601508, 0.6360536807265150, 0.5108670019508271, 0.3737060887154196,
         0.2277858511416451, 0.07652652113349733),
        (0.01761400713915212, 0.04060142980038694, 0.06267204833410906, 0.08327674157670475,
         0.1019301198172404, 0.1181945319615184, 0.1316886384491766, 0.1420961093183821,
         0.1491729864726037, 0.1527533871307259)),
}


def _orthant(h, k, r) -> np.ndarray:
    """``P(Z1 > h, Z2 > k)`` elementwise, for standard normals ``Z1, Z2`` of
    correlation ``r`` in ``[-1, 1]``: Genz's ``bvnu`` (A. Genz, Stat. Comput.
    14 (2004) 251-260).  Below ``|r| = 0.925`` it is ``P(Z1 > h) P(Z2 > k)``
    plus the Drezner-Wesolowsky integral over ``[0, asin r]``, by
    Gauss-Legendre with 6, 12 or 20 nodes (``|r|`` below 0.3, 0.75, 0.925);
    from there, Genz's expansion about ``|r| = 1`` (:func:`_orthant_near_one`).
    Accurate to about 1e-15 absolute."""
    h, k, r = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (h, k, r)))
    shape = h.shape
    h, k, r = h.ravel(), k.ravel(), r.ravel()
    qh, qk = _upper_tail(np.stack([h, k]))
    out = qh * qk
    ar = np.abs(r)
    for n, sel in ((6, ar < 0.3), (12, (ar >= 0.3) & (ar < 0.75)),
                   (20, (ar >= 0.75) & (ar < 0.925))):
        sel = np.flatnonzero(sel)
        x, w = _GAUSS_LEGENDRE[n]
        hh, kk = h[sel], k[sel]
        half = np.arcsin(r[sel]) / 2
        sn = np.sin(np.multiply.outer(x, half))  # nodes x points: long inner loops
        f = sn * (hh * kk)
        f -= (hh * hh + kk * kk) / 2
        np.multiply(sn, sn, out=sn)
        f /= np.subtract(1.0, sn, out=sn)
        out[sel] += (w @ np.exp(f, out=f)) * half / (2 * math.pi)
    sel = np.flatnonzero(ar >= 0.925)
    if sel.size:
        out[sel] = _orthant_near_one(h[sel], k[sel], r[sel], qh[sel], qk[sel])
    return np.clip(out, 0.0, 1.0).reshape(shape)


def _orthant_near_one(h: np.ndarray, k: np.ndarray, r: np.ndarray, qh: np.ndarray,
                      qk: np.ndarray) -> np.ndarray:
    """:func:`_orthant` at ``|r| >= 0.925``, given ``qh, qk = P(Z > h), P(Z
    > k)``: at ``r = +-1`` ``P(Z > max(h, k))`` or ``P(h < Z < -k)``, and
    within, Genz's correction to it (:func:`_near_one_term`)."""
    flip = r < 0  # Z2 = -Z2' with corr(Z1, Z2') = -r > 0
    k = np.where(flip, -k, k)
    qk = np.where(flip, 1.0 - qk, qk)
    out = np.where(flip, np.maximum(qh - qk, 0.0), np.minimum(qh, qk))
    inner = np.flatnonzero(np.abs(r) < 1.0)
    out[inner] += np.sign(r[inner]) * _near_one_term(h[inner], k[inner], r[inner])
    return out


def _near_one_term(h: np.ndarray, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Genz's ``bvnu`` term between ``P(Z1 > h, Z2 > k)`` at correlation
    ``|r| < 1`` and at ``1`` (``k`` already flipped for ``r < 0``): an
    expansion in ``1 - r^2`` and a 20-node Gauss-Legendre remainder; terms
    of an exponent below -100 are dropped, as there."""
    hk, bs = h * k, (h - k) ** 2
    a2 = (1.0 - np.abs(r)) * (1.0 + np.abs(r))
    a, b = np.sqrt(a2), np.sqrt(bs)
    c, d = (4.0 - hk) / 8.0, (12.0 - hk) / 80.0
    e = -(bs / a2 + hk) / 2
    term = np.where(e > -100, a * np.exp(e) * (1 - c * (bs - a2) * (1 - d * bs) / 3
                                              + c * d * a2 * a2), 0.0)
    term -= np.where(hk > -100, np.exp(-np.maximum(hk, -100.0) / 2) * math.sqrt(2 * math.pi)
                     * _upper_tail(b / a) * b * (1 - c * bs * (1 - d * bs) / 3), 0.0)
    x, w = _GAUSS_LEGENDRE[20]
    xs = np.multiply.outer(x, a / 2)  # nodes x points
    xs *= xs
    rs = np.sqrt(np.subtract(1.0, xs))
    e = bs / xs
    e += hk
    e *= -0.5
    e[e <= -100] = -np.inf
    ep = np.add(1.0, rs)
    ep *= ep
    np.divide(xs, ep, out=ep)
    ep *= -hk / 2
    ep += e
    np.exp(ep, out=ep)
    ep /= rs
    sp = np.multiply(xs, 5.0 * d, out=rs)
    sp += 1.0
    sp *= xs
    sp *= c
    sp += 1.0
    np.exp(e, out=e)
    e *= sp
    e -= ep
    return (a / 2 * (w @ e) - term) / (2 * math.pi)


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


def _general_part(model: GmmSpec, eta: float, gamma: float, test_class: int) -> _ModelPart:
    """Per-class covariances ``(C1, C2) = model.cov``: the fixed point of
    ``f_a(delta) = eta/p * tr(C_a Q0)`` by Newton on its Jacobian ``G[a, b] =
    w_b tr(C_a Q0 C_b Q0)``, whose ``det(I - G)`` is the validity guard.  It
    starts at the trace bound ``eta tr(C_a) / (p gamma)`` (``Q0 <= I /
    gamma``), steps ``delta + (I - G)^-1 (f(delta) - delta)``, or
    ``min(f(delta), delta)`` where that leaves ``[0, delta]``, and stops when
    the Newton correction is within ``_FIXED_POINT_TOL`` of ``max(1, delta)``
    or no step lowers ``delta`` (near the guard the correction's rounding
    floor, about ``eps / det(I - G)`` relative, is above that tolerance).  The
    part is the last step's ``Q0``, traces and ``G``.  With ``C1 = C2 = I`` at
    ``eta = 1`` that is 8, 11, 14, 20 and 24 steps at ``gamma = 1e-2, 1e-4,
    1e-6, 1e-9, 1e-12``.  All normalized traces are mean-free (the rank-one
    mean term is O(1/n)), so with ``C1 = C2 = I`` the result coincides with
    the isotropic closed form to solver tolerance."""
    mu, (C1, C2), p = model.mu, model.cov, model.p
    pi = np.array([model.pi1, 1.0 - model.pi1])
    d = eta / (p * gamma) * np.array([np.trace(C1), np.trace(C2)])
    for _ in range(_NEWTON_MAX_STEPS):
        s = pi / (1.0 + d)  # class a's label weight enters the mean as s_a
        Q0 = np.linalg.inv(s[0] * C1 + s[1] * C2 + gamma * np.eye(p))
        CQ = [C1 @ Q0, C2 @ Q0]
        f = eta / p * np.array([np.trace(CQ[0]), np.trace(CQ[1])])
        # tr[k][b] approximates Tr(Sigma_k Qbar Sigma_b Qbar) by its mean-free
        # part Tr(C_k Q0 C_b Q0)
        tr = np.array([[np.sum(CQ[k] * CQ[b].T) for b in (0, 1)] for k in (0, 1)])
        I_G = np.eye(2) - tr.T * (eta / p * s / (1.0 + d))
        h_like = float(np.linalg.det(I_G))
        step = np.linalg.solve(I_G, f - d)
        if np.max(np.abs(step)) <= _FIXED_POINT_TOL * max(1.0, np.max(d)):
            break
        nxt = d + step
        if not np.all((0.0 <= nxt) & (nxt <= d)):
            nxt = np.minimum(f, d)
            if np.array_equal(nxt, d):  # no step lowers delta: its fixed point to rounding
                break
        d = nxt
    else:
        raise RuntimeError(f"trace fixed point did not converge in {_NEWTON_MAX_STEPS} Newton "
                           f"steps; last correction {np.max(np.abs(step)):.3e}, "
                           f"det(I - G) = {h_like:.3e}")
    if h_like <= _H_GUARD:
        raise ValueError(
            f"theory outside validity range: det(I - G) = {h_like:.3e} <= {_H_GUARD:g} at "
            f"(eta, gamma) = ({eta}, {gamma})"
        )
    # the resolvent with the mean term, Qbar = (Q0^-1 + kappa mu mu')^-1, enters
    # only through v = Qbar mu (Sherman-Morrison)
    kappa = float(np.sum(s))
    Q0_mu = Q0 @ mu
    q = float(mu @ Q0_mu)
    v = Q0_mu / (1.0 + kappa * q)
    mu_Q_mu = q / (1.0 + kappa * q)
    # mu' Qbar S_b Qbar mu with S_b = mu mu' + C_b
    mu_N_mu = [float(v @ Cb @ v) + float(mu @ v) ** 2 for Cb in (C1, C2)]
    alpha = np.linalg.inv(I_G)[test_class - 1]
    mu_M_mu = alpha[0] * mu_N_mu[0] + alpha[1] * mu_N_mu[1]
    # the label variance enters as r_a, with T_b = (1/n) Tr(Sigma_b E[Q Sigma_a Q])
    r = eta / p * (tr @ alpha) * s / (1.0 + d)
    Q = mu_M_mu * np.outer(s, s) - mu_Q_mu * (np.outer(s, r) + np.outer(r, s))
    return _ModelPart(c=mu_Q_mu * s, Q=Q, e=r, delta=float(d[0]), h=h_like, delta2=float(d[1]))
