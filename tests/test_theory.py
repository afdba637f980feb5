import math

import numpy as np
import pytest
from scipy.integrate import quad

from lpc import (
    RhoParams,
    TheoryConfig,
    delta,
    gaussian_upper_tail,
    optimal_rho_plus,
    theory_stats_general,
    theory_stats_isotropic,
    worst_rho_plus,
)

# heavy-noise high-dimensional reference configuration used across tests
HIGHDIM = dict(eta=0.2, pi1=1 / 3, gamma=0.1, eps_plus=0.4, eps_minus=0.3, snr=2.0)


class TestDelta:
    def test_golden_ratio_point(self):
        assert delta(1.0, 1.0) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)

    def test_reference_configuration_value(self):
        assert delta(0.2, 0.1) == pytest.approx(0.2170, abs=5e-5)

    def test_low_dimension_limit(self):
        assert delta(1e-12, 1.0) == pytest.approx(0.0, abs=1e-11)

    def test_quadratic_residual_property(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            eta, gamma = rng.uniform(0.01, 10.0, 2)
            d = delta(eta, gamma)
            assert abs(gamma * d * d + (1 + gamma - eta) * d - eta) <= 1e-10

    def test_domain_rejection(self):
        with pytest.raises(ValueError):
            delta(0.0, 1.0)
        with pytest.raises(ValueError):
            delta(1.0, -0.1)

    def test_nan_rejected(self):
        for eta, gamma in ((0.2, math.nan), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="delta needs"):
                delta(eta, gamma)

    def test_matches_trace_of_built_resolvent(self):
        # consistency check: the closed form equals the normalized
        # trace of the matrix it describes, up to the O(1/p) rank-one term
        p = 500
        mu = np.zeros(p)
        mu[0] = 2.0
        for eta, gamma in ((0.2, 0.1), (1.0, 1.0), (2.0, 10.0)):
            d = delta(eta, gamma)
            Qbar = np.linalg.inv((np.outer(mu, mu) + np.eye(p)) / (1 + d) + gamma * np.eye(p))
            assert abs(d - eta / p * np.trace(Qbar)) < 1e-3


class TestGaussianTail:
    def test_at_zero(self):
        assert gaussian_upper_tail(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        for x in (0.5, 1.0, 2.0):
            assert gaussian_upper_tail(x) + gaussian_upper_tail(-x) == pytest.approx(1.0, abs=1e-14)

    def test_against_quadrature(self):
        # independent oracle: numerical integration of the density
        density = lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
        for x in (-1.0, 0.3, 1.959964, 3.0):
            ref, _ = quad(density, x, np.inf)
            assert gaussian_upper_tail(x) == pytest.approx(ref, abs=1e-12)
        assert gaussian_upper_tail(1.959964) == pytest.approx(0.025, abs=1e-6)


def _oracle(cfg_kwargs):
    """The stats of the same model at rho = (0, 0) with zero noise."""
    return theory_stats_isotropic(TheoryConfig(
        **{**cfg_kwargs, "eps_plus": 0.0, "eps_minus": 0.0, "rho": RhoParams()}))


class TestIsotropicStats:
    def test_oracle_case(self):
        # the oracle mean is mu' Qbar mu / (1 + delta) for the built resolvent
        eta, gamma, snr, p = 0.2, 0.1, 2.0, 400
        st = _oracle(dict(eta=eta, pi1=1 / 3, gamma=gamma, snr=snr))
        d = delta(eta, gamma)
        mu = np.zeros(p)
        mu[0] = snr
        Qbar = np.linalg.inv((np.outer(mu, mu) + np.eye(p)) / (1 + d) + gamma * np.eye(p))
        assert st.m_rho == pytest.approx(mu @ Qbar @ mu / (1 + d), abs=1e-14)
        assert st.nu_rho == pytest.approx(st.kappa + (1 - st.h) / st.h, abs=1e-14)

    def test_naive_mean_scaling(self):
        st = theory_stats_isotropic(TheoryConfig(**HIGHDIM))
        oracle = _oracle(HIGHDIM)
        shrink = 1 - 2 * ((1 / 3) * 0.3 + (2 / 3) * 0.4)
        assert st.m_rho == pytest.approx(shrink * oracle.m_rho, abs=1e-14)
        assert oracle.m_rho == pytest.approx(0.7810, abs=5e-5)
        assert st.m_rho == pytest.approx(0.2083, abs=5e-5)

    def test_unbiased_mean_equals_oracle(self):
        st = theory_stats_isotropic(TheoryConfig(**HIGHDIM, rho=RhoParams(0.4, 0.3)))
        assert st.m_rho == pytest.approx(_oracle(HIGHDIM).m_rho, abs=1e-14)

    def test_unbiased_variance_excess_formula(self):
        cfg = TheoryConfig(**HIGHDIM, rho=RhoParams(0.4, 0.3))
        st = theory_stats_isotropic(cfg)
        rho = cfg.rho
        beta, lm, lp = rho.beta, rho.lambda_minus, rho.lambda_plus
        pi1, pi2, ep, em = cfg.pi1, cfg.pi2, cfg.eps_plus, cfg.eps_minus
        excess = (1 - st.h) / st.h * (
            pi1 * (4 * beta**2 * em * (ep - em) + lm**2)
            + pi2 * (4 * beta**2 * ep * (em - ep) + lp**2)
            - 1.0
        )
        assert st.nu_rho - _oracle(HIGHDIM).nu_rho == pytest.approx(excess, rel=1e-12)
        assert excess > 0  # the high-dimensional variance inflation

    def test_zero_snr_gives_zero_mean(self):
        st = theory_stats_isotropic(TheoryConfig(
            eta=0.5, pi1=0.4, gamma=1.0, eps_plus=0.1, eps_minus=0.2, snr=0.0))
        assert st.m_rho == 0.0
        assert st.accuracy == pytest.approx(0.5)

    def test_variance_positive_on_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            eta, gamma = rng.uniform(0.05, 5.0, 2)
            snr = rng.uniform(0.2, 4.0)
            pi1 = rng.uniform(0.1, 0.9)
            ep, em = rng.uniform(0.0, 0.45, 2)
            rho = RhoParams(rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3))
            st = theory_stats_isotropic(TheoryConfig(
                eta=eta, pi1=pi1, gamma=gamma, eps_plus=ep, eps_minus=em,
                rho=rho, snr=snr))
            assert st.variance > 0
            assert 0 < st.h <= 1

    def test_naive_accuracy_decreasing_in_noise_mix(self):
        accs = []
        for ep in np.linspace(0.0, 0.45, 10):
            st = theory_stats_isotropic(TheoryConfig(
                eta=0.5, pi1=0.5, gamma=1.0, eps_plus=ep, eps_minus=ep, snr=2.0))
            accs.append(st.accuracy)
        assert np.all(np.diff(accs) < 0)

    def test_low_dimensional_score_limit(self):
        # fixed p with n -> infinity (eta -> 0): the unbiased discriminant
        # ratio approaches the SNR.  (Large gamma alone does not get there:
        # the label-noise variance term stays comparable along that route.)
        for eta, gamma in ((1e-9, 1.0), (1e-7, 0.1)):
            st = theory_stats_isotropic(TheoryConfig(
                eta=eta, pi1=0.3, gamma=gamma, eps_plus=0.4, eps_minus=0.3,
                rho=RhoParams(0.4, 0.3), snr=2.0))
            ratio = st.m_rho / math.sqrt(st.variance)
            assert ratio == pytest.approx(2.0, rel=0.01)

    def test_resolvent_mean_form_identity(self):
        # mu' Qbar mu for the numerically built deterministic equivalent
        p, eta, gamma, snr = 400, 0.8, 0.7, 1.7
        d = delta(eta, gamma)
        mu = np.zeros(p)
        mu[0] = snr
        Qbar = np.linalg.inv((np.outer(mu, mu) + np.eye(p)) / (1 + d) + gamma * np.eye(p))
        expected = (1 + d) * snr**2 / (snr**2 + 1 + gamma * (1 + d))
        assert mu @ Qbar @ mu == pytest.approx(expected, abs=1e-10)


class TestAccuracyRisk:
    def test_zero_mean_is_random_guess(self):
        st = theory_stats_isotropic(TheoryConfig(
            eta=0.5, pi1=0.4, gamma=1.0, snr=0.0))
        assert st.accuracy == pytest.approx(0.5)

    def test_perfect_regressor_risk(self):
        # m = 1, nu = 1 would give risk 0; check the algebra on a synthetic stats object
        from lpc.theory import TheoryStats

        st = TheoryStats(delta=0.0, h=1.0, m_rho=1.0, nu_rho=1.5, kappa=None)
        assert st.risk == pytest.approx(0.5)
        st2 = TheoryStats(delta=0.0, h=1.0, m_rho=1.0, nu_rho=1.0 + 1e-9, kappa=None)
        assert st2.risk == pytest.approx(0.0, abs=1e-8)

    def test_non_positive_variance_raises_when_built(self):
        from lpc.theory import TheoryStats

        with pytest.raises(ValueError, match="non-positive decision variance"):
            TheoryStats(delta=0.0, h=1.0, m_rho=1.0, nu_rho=1.0, kappa=None)

    def test_nan_variance_raises_when_built(self):
        from lpc.theory import TheoryStats

        with pytest.raises(ValueError, match="non-positive decision variance"):
            TheoryStats(delta=0.0, h=1.0, m_rho=math.nan, nu_rho=1.0, kappa=None)


class TestOptimalRho:
    def test_symmetric_noise_balanced_classes(self):
        assert optimal_rho_plus(0.5, 0.2, 0.2, 0.7) == pytest.approx(0.7, abs=1e-14)

    def test_no_noise(self):
        assert optimal_rho_plus(0.3, 0.0, 0.0, 0.1) == pytest.approx(0.1, abs=1e-14)

    def test_reference_value(self):
        assert optimal_rho_plus(0.3, 0.4, 0.3, 0.0) == pytest.approx(1.5667, abs=1e-4)

    def test_singular_total_noise(self):
        with pytest.raises(ValueError, match="singular"):
            optimal_rho_plus(0.3, 0.6, 0.4, 0.0)

    def test_grid_search_oracle(self):
        # independent oracle: brute-force maximization of the predicted
        # accuracy over rho_plus must land on the closed form
        target = optimal_rho_plus(0.3, 0.4, 0.3, 0.0)
        grid = np.arange(-1.0, 3.0 + 1e-9, 0.02)
        accs = []
        for rp in grid:
            if abs(1.0 - rp) <= 0.02:
                accs.append(-np.inf)
                continue
            st = theory_stats_isotropic(TheoryConfig(
                eta=0.5, pi1=0.3, gamma=1.0, eps_plus=0.4, eps_minus=0.3,
                rho=RhoParams(rp, 0.0), snr=2.0))
            accs.append(st.accuracy)
        best = grid[int(np.argmax(accs))]
        assert abs(best - target) <= 0.02 + 1e-9

    def test_argmax_invariance_across_model_parameters(self):
        # the argmax location never moves when snr, gamma or eta change
        rng = np.random.default_rng(11)
        grid = np.arange(-1.0, 3.0 + 1e-9, 0.05)
        done = 0
        while done < 20:
            pi1 = rng.uniform(0.15, 0.85)
            if abs(pi1 - 0.5) < 0.05:
                continue
            ep, em = rng.uniform(0.0, 0.45, 2)
            if ep + em > 0.85:
                continue
            snr, gamma, eta = rng.uniform(1.0, 3.0), rng.uniform(0.1, 10.0), rng.uniform(0.3, 3.0)
            rm = rng.uniform(-0.2, 0.2)
            target = optimal_rho_plus(pi1, ep, em, rm)
            if not grid[2] < target < grid[-3]:
                continue
            accs = []
            for rp in grid:
                if abs(1.0 - rp - rm) <= 0.05:
                    accs.append(-np.inf)
                    continue
                st = theory_stats_isotropic(TheoryConfig(
                    eta=eta, pi1=pi1, gamma=gamma, eps_plus=ep, eps_minus=em,
                    rho=RhoParams(rp, rm), snr=snr))
                accs.append(st.accuracy)
            best = grid[int(np.argmax(accs))]
            assert abs(best - target) <= 0.05 + 1e-9, (
                f"argmax {best} vs closed form {target} at "
                f"(pi1={pi1}, ep={ep}, em={em}, snr={snr}, gamma={gamma}, eta={eta})"
            )
            done += 1


class TestWorstRho:
    def test_mean_vanishes(self):
        rho_bar = worst_rho_plus(0.3, 0.4, 0.3, 0.0)
        assert rho_bar == pytest.approx(-0.65, abs=1e-12)
        st = theory_stats_isotropic(TheoryConfig(
            eta=0.5, pi1=0.3, gamma=1.0, eps_plus=0.4, eps_minus=0.3,
            rho=RhoParams(rho_bar, 0.0), snr=2.0))
        assert abs(st.m_rho) <= 1e-12
        assert st.accuracy == pytest.approx(0.5, abs=1e-12)

    def test_balanced_classes_rejected(self):
        with pytest.raises(ValueError, match="no root"):
            worst_rho_plus(0.5, 0.4, 0.3)


class TestGeneralCovariance:
    def test_identity_reduction(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = int(rng.integers(30, 80))
            snr = rng.uniform(0.5, 3.0)
            mu = rng.standard_normal(p)
            mu *= snr / np.linalg.norm(mu)
            cfg_kwargs = dict(
                eta=float(rng.uniform(0.1, 3.0)), pi1=float(rng.uniform(0.2, 0.8)),
                gamma=float(rng.uniform(0.1, 5.0)), eps_plus=0.2, eps_minus=0.1,
                rho=RhoParams(float(rng.uniform(-0.3, 0.5)), 0.0),
            )
            iso = theory_stats_isotropic(TheoryConfig(**cfg_kwargs, snr=snr))
            gen = theory_stats_general(
                TheoryConfig(**cfg_kwargs, mu=mu, C1=np.eye(p), C2=np.eye(p)),
                test_class=2,
            )
            assert gen.m_rho == pytest.approx(iso.m_rho, rel=1e-8)
            assert gen.nu_rho == pytest.approx(iso.nu_rho, rel=1e-8)
            assert gen.delta == pytest.approx(iso.delta, rel=1e-9)
            assert gen.delta2 == pytest.approx(iso.delta, rel=1e-9)

    def test_scaled_identity_matches_scalar_fixed_point(self):
        # C = c * I: the per-class trace solves a scalar fixed point that a
        # plain 1-d iteration reproduces
        p, c_scale, eta, gamma = 60, 2.5, 0.7, 0.9
        mu = np.zeros(p)
        mu[0] = 1.5
        gen = theory_stats_general(TheoryConfig(
            eta=eta, pi1=0.4, gamma=gamma, snr=None,
            mu=mu, C1=c_scale * np.eye(p), C2=c_scale * np.eye(p)))
        d = 0.0
        for _ in range(100000):
            nxt = eta * c_scale * (1 + d) / (c_scale + gamma * (1 + d))
            if abs(nxt - d) < 1e-14:
                break
            d = 0.5 * d + 0.5 * nxt
        assert gen.delta == pytest.approx(d, abs=1e-9)

    def test_fixed_point_converges_at_large_delta(self):
        # delta ~ 1e4 here, so an absolute 1e-12 stop test would sit below
        # one ulp of delta and never be met
        p, pi1, gamma, eta = 200, 0.3, 1e-3, 5.0
        c1, c2 = np.linspace(0.01, 5.0, p), np.full(p, 3.0)
        mu = np.zeros(p)
        mu[0] = 1.0
        gen = theory_stats_general(TheoryConfig(
            eta=eta, pi1=pi1, gamma=gamma, mu=mu, C1=np.diag(c1), C2=np.diag(c2)))
        d1, d2 = gen.delta, gen.delta2
        assert min(d1, d2) > 5e3
        q0 = 1.0 / (pi1 * c1 / (1.0 + d1) + (1.0 - pi1) * c2 / (1.0 + d2) + gamma)
        np.testing.assert_allclose(eta / p * np.array([c1 @ q0, c2 @ q0]), [d1, d2],
                                   rtol=1e-11)
        iso = theory_stats_general(TheoryConfig(
            eta=eta, pi1=pi1, gamma=gamma, mu=mu, C1=np.eye(p), C2=np.eye(p)))
        assert iso.delta == pytest.approx(delta(eta, gamma), rel=1e-9)
        assert iso.delta2 == pytest.approx(delta(eta, gamma), rel=1e-9)

    def test_psd_validation(self):
        p = 5
        mu = np.zeros(p)
        bad = -np.eye(p)
        with pytest.raises(ValueError, match="PSD"):
            theory_stats_general(TheoryConfig(
                eta=0.5, pi1=0.5, gamma=1.0, mu=mu, C1=bad, C2=np.eye(p)))

    def test_test_class_changes_variance_only(self):
        rng = np.random.default_rng(3)
        p = 40
        mu = rng.standard_normal(p)
        mu *= 2.0 / np.linalg.norm(mu)
        C1 = np.diag(np.linspace(0.5, 2.0, p))
        cfg = TheoryConfig(eta=0.4, pi1=0.4, gamma=0.8, eps_plus=0.2,
                           eps_minus=0.1, mu=mu, C1=C1, C2=np.eye(p))
        s1 = theory_stats_general(cfg, test_class=1)
        s2 = theory_stats_general(cfg, test_class=2)
        assert s1.m_rho == pytest.approx(s2.m_rho, rel=1e-12)
        assert s1.nu_rho != pytest.approx(s2.nu_rho, rel=1e-6)


def test_theory_config_validation():
    with pytest.raises(ValueError, match="eta"):
        TheoryConfig(eta=0.0, pi1=0.5, gamma=1.0, snr=1.0)
    with pytest.raises(ValueError, match="snr or"):
        TheoryConfig(eta=1.0, pi1=0.5, gamma=1.0)
    with pytest.raises(ValueError, match="together"):
        TheoryConfig(eta=1.0, pi1=0.5, gamma=1.0, mu=np.ones(3))


@pytest.mark.parametrize("key", ["gamma", "eta", "snr"])
def test_nan_model_input_raises(key):
    # each came out as accuracy = nan
    with pytest.raises(ValueError, match=key):
        theory_stats_isotropic(TheoryConfig(**{**HIGHDIM, key: math.nan}))
