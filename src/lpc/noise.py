"""Label-noise-rate estimation by matching leave-one-out second moments.

The second moment of the decision function has a closed asymptotic form
``nu_rho(eps_plus, eps_minus)``.  Training two LPC probes with different
gaps ``rho_plus - rho_minus`` on the same noisy data and equating their
empirical leave-one-out second moments to the theory yields a 2x2 quadratic
system in the unknown noise rates, inverted here in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SINGULARITY_GUARD, RhoParams, _loo_operator, _targets
from .datasets import GmmSpec, LabeledDataset
from .theory import _model_part, _ModelPart, _quadratic_roots

__all__ = ["NoiseEstimate", "estimate_noise_rates"]

_SIMPLEX_CAP = 0.99
_SNAP_TOL = 1e-12
_CORNERS = np.array([[0.0, 0.0], [_SIMPLEX_CAP, 0.0], [0.0, _SIMPLEX_CAP]])


@dataclass(frozen=True)
class NoiseEstimate:
    """Estimated flip probabilities with solver diagnostics.

    ``roots`` holds every exact solution ``(eps_plus, eps_minus)`` in the
    capped simplex, sorted by ``eps_plus + eps_minus``; the estimate is the
    first.  With no root it is the least-squares point of the capped simplex.
    ``residual`` is the norm of the moment mismatch at the estimate.
    """

    eps_plus: float
    eps_minus: float
    residual: float
    roots: tuple[tuple[float, float], ...]
    high_residual: bool

    def __post_init__(self) -> None:
        if self.eps_plus + self.eps_minus >= 1.0:
            raise ValueError("estimate left the simplex eps_plus + eps_minus < 1")
        if not np.isfinite(self.residual):
            raise ValueError("non-finite residual")

    @property
    def ambiguous(self) -> bool:
        """Two exact solutions: the moments do not single out the rates."""
        return len(self.roots) > 1

    @property
    def iterations(self) -> int:
        """Always 0: the inversion is closed form (a field of the former search)."""
        return 0

    @property
    def newton_converged(self) -> bool:
        """Whether an exact root exists (a field of the former search)."""
        return bool(self.roots)


def _check_probes(probe1: RhoParams, probe2: RhoParams) -> None:
    # With equal gaps g the targets are beta * (y + g): the second probe is a
    # rescaled copy of the first and the two moment equations coincide.
    gaps = [probe.rho_plus - probe.rho_minus for probe in (probe1, probe2)]
    if abs(gaps[0] - gaps[1]) <= SINGULARITY_GUARD:
        raise ValueError(f"the two probes must have distinct gaps rho_plus - rho_minus: {gaps}")


def estimate_noise_rates(ds: LabeledDataset, probe1: RhoParams, probe2: RhoParams,
                         gamma: float, snr: float, pi1: float) -> NoiseEstimate:
    """Estimate ``(eps_plus, eps_minus)`` from one noisy dataset.

    ``snr`` and ``pi1`` are assumed known (or pre-estimated); they and
    ``ds.p`` make the isotropic model the moments are matched to.  The
    draw's leave-one-out operator (:func:`~lpc.core._loo_operator`: one
    label-free solve, for any number of target columns; a row is degenerate
    by the draw alone) scores both probes in one label step, and
    :func:`solve_noise_system` inverts their moments over the capped simplex
    ``{eps >= 0, eps_plus + eps_minus <= 0.99}``.  A residual above ``5%``
    of the measured moments sets ``high_residual`` rather than raising.
    """
    _check_probes(probe1, probe2)
    if snr <= 0:
        raise ValueError(f"snr must be > 0, got {snr}")
    model = GmmSpec.isotropic(ds.p, pi1, snr)
    return _estimate(_loo_operator(ds.X, gamma), ds.y_noisy, pi1,
                     _model_part(model, ds.n, gamma), (probe1, probe2))


def _estimate(loo, y_noisy: np.ndarray, pi1: float, part: _ModelPart, probes) -> NoiseEstimate:
    """:func:`estimate_noise_rates` for one label vector of a draw whose
    leave-one-out operator is ``loo``: both probes' targets are one block,
    inverted at the isotropic model part ``part`` (class-1 proportion ``pi1``)."""
    T = np.column_stack([_targets(y_noisy, probe) for probe in probes])
    return _invert(np.mean(loo(T) ** 2, axis=0), pi1, part, probes)


def solve_noise_system(nu_hat: np.ndarray, model: GmmSpec, n: float, gamma: float,
                       probes: tuple[RhoParams, RhoParams]) -> NoiseEstimate:
    """Invert the two-probe moment map for given target moments ``nu_hat``
    of the probes trained on ``n`` draws of the isotropic ``model``.

    In ``u = pi1*eps_minus + pi2*eps_plus`` and ``v = pi1*eps_minus -
    pi2*eps_plus``, probe ``k``'s moment minus its target is ``P_k(u) + a_k v``
    with ``P_k(u) = kappa (S0_k - 2 beta_k u)^2 + (1 - h) / h (pi1
    lambda_minus^2 + pi2 lambda_plus^2) - nu_hat_k`` and ``a_k = 4 beta_k^2
    (rho_plus - rho_minus) (1 - h) / h`` (``S0_k``: mean label weight;
    ``kappa``, ``h``: the isotropic model part of :mod:`lpc.theory`).
    Eliminating ``v`` leaves the quadratic ``q(u) = a_2 P_1(u) - a_1 P_2(u)``,
    whose roots in the capped simplex are the exact solutions.  Without one,
    the least-squares point is the best of: the vertex of ``q`` with its best
    ``v`` (the only interior stationary point that is not a root), the
    stationary points along each edge (roots of a cubic) and the corners.
    """
    if model.cov is not None:
        raise ValueError("the moment inversion needs an isotropic model (cov = None)")
    return _invert(nu_hat, model.pi1, _model_part(model, n, gamma), probes)


def _invert(nu_hat: np.ndarray, pi1: float, part: _ModelPart,
            probes: tuple[RhoParams, RhoParams]) -> NoiseEstimate:
    """:func:`solve_noise_system` at the isotropic model part ``part`` of a
    model with class-1 proportion ``pi1``."""
    _check_probes(*probes)
    nu_hat = np.asarray(nu_hat, dtype=float)
    if nu_hat.shape != (2,):
        raise ValueError(f"nu_hat must hold one moment per probe, shape (2,), got {nu_hat.shape}")
    if not np.all(np.isfinite(nu_hat)):
        raise ValueError("non-finite empirical second moments")
    pi2 = 1.0 - pi1
    P = np.empty((2, 3))  # coefficients of P_k, highest power first
    a = np.empty(2)
    for k, probe in enumerate(probes):
        beta, lm, lp = probe.beta, probe.lambda_minus, probe.lambda_plus
        S0 = pi1 * lm + pi2 * lp
        nu0 = S0**2 * part.kappa + (1.0 - part.h) / part.h * (pi1 * lm**2 + pi2 * lp**2)
        P[k] = 4.0 * part.kappa * beta**2, -4.0 * part.kappa * beta * S0, nu0 - nu_hat[k]
        a[k] = 4.0 * beta**2 * (probe.rho_plus - probe.rho_minus) * (1.0 - part.h) / part.h

    def terms(u, v):
        # each probe's moment minus its target, for arrays or polynomials
        return [c2 * u**2 + c1 * u + c0 + ak * v for (c2, c1, c0), ak in zip(P, a)]

    def uv(eps_plus, eps_minus):
        return pi2 * eps_plus + pi1 * eps_minus, pi1 * eps_minus - pi2 * eps_plus

    def at_best_v(u):
        # (eps_plus, eps_minus) rows at u with the residual-minimizing v,
        # which is exact where q(u) = 0
        u = np.asarray(u, dtype=float)
        v = -(a @ terms(u, 0.0)) / (a @ a)
        return np.column_stack([(u - v) / (2.0 * pi2), (u + v) / (2.0 * pi1)])

    q = a[1] * P[0] - a[0] * P[1]
    roots = _snap(at_best_v(_quadratic_roots(*q)))
    points = roots = roots[np.argsort(roots.sum(axis=1), kind="stable")]
    if not roots.size:
        t = np.polynomial.Polynomial([0.0, 1.0])
        candidates = [_CORNERS, at_best_v([-0.5 * q[1] / q[0]] if q[0] else [])]
        for start, end in zip(_CORNERS, np.roll(_CORNERS, -1, axis=0)):
            # along an edge the squared residual is a quartic in t
            edge = terms(*uv(*(s + (e - s) * t for s, e in zip(start, end))))
            ts = np.clip(sum(r**2 for r in edge).deriv().roots().real, 0.0, 1.0)
            candidates.append(start + np.outer(ts, end - start))
        points = _snap(np.concatenate(candidates))
    residuals = np.hypot(*terms(*uv(*points.T)))
    best = 0 if roots.size else int(np.argmin(residuals))
    return NoiseEstimate(
        eps_plus=float(points[best, 0]),
        eps_minus=float(points[best, 1]),
        residual=float(residuals[best]),
        roots=tuple(map(tuple, roots.tolist())),
        high_residual=bool(residuals[best] > 0.05 * np.sum(np.abs(nu_hat))),
    )


def _snap(points: np.ndarray) -> np.ndarray:
    """The points within ``_SNAP_TOL`` of the capped simplex, moved onto it."""
    near = (points.min(axis=1) >= -_SNAP_TOL) & (points.sum(axis=1) <= _SIMPLEX_CAP + _SNAP_TOL)
    points = np.clip(points[near], 0.0, None)
    return points * (_SIMPLEX_CAP / np.maximum(points.sum(axis=1), _SIMPLEX_CAP))[:, None]
