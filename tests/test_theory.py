import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from lpc import (
    GmmSpec,
    RhoParams,
    delta,
    gaussian_upper_tail,
    optimal_rho,
    theory_stats,
    worst_rho,
)
from lpc import theory

# heavy-noise high-dimensional reference configuration used across tests (eta = 0.2)
HIGHDIM = dict(p=1000, n=5000, pi1=1 / 3, gamma=0.1, eps_plus=0.4, eps_minus=0.3, snr=2.0)


def _iso(p, n, pi1, snr, gamma, **kwargs):
    """Theory of the isotropic model ``GmmSpec.isotropic(p, pi1, snr)`` at ``n``."""
    return theory_stats(GmmSpec.isotropic(p, pi1, snr), n, gamma, **kwargs)


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

    def test_numpy_tail_is_the_scalar_one(self):
        # Cody's erfc in numpy, on a grid and at the edges of its ranges
        # (|x| / sqrt 2 = 0.46875, 4 and the far end), to 1e-14 relative
        edges = np.array([0.46875, 4.0]) * math.sqrt(2.0)
        x = np.r_[np.linspace(-8.0, 37.0, 4501), edges, -edges, np.nextafter(edges, 0)]
        want = np.array([gaussian_upper_tail(v) for v in x])
        got = theory._upper_tail(x)
        assert np.max(np.abs(got - want) / want) <= 1e-14
        assert theory._upper_tail(x[:4500].reshape(-1, 3)).shape == (1500, 3)
        np.testing.assert_array_equal(theory._upper_tail([np.nan, np.inf, -np.inf, 40.0]),
                                      [np.nan, 0.0, 1.0, 0.0])


class TestOrthant:
    R = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.925, 0.95, 0.99, 0.999, 0.9999]

    @pytest.mark.parametrize("r", sorted({s * r for r in R for s in (1, -1)}))
    def test_against_scipy(self, r):
        # P(Z1 > h, Z2 > k) is scipy's lower orthant of (-Z1, -Z2) at (-h, -k),
        # over every branch: 6, 12 and 20 nodes and the expansion near |r| = 1
        from scipy.stats import multivariate_normal

        h, k = (g.ravel() for g in np.meshgrid(*[np.linspace(-6.0, 6.0, 17)] * 2))
        mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, r], [r, 1.0]])
        want = np.array([mvn.cdf([-a, -b]) for a, b in zip(h, k)])
        np.testing.assert_allclose(theory._orthant(h, k, r), want, rtol=0, atol=1e-10)

    def test_perfect_correlation(self):
        # r = 1: P(Z > max(h, k)); r = -1: P(h < Z < -k), or 0
        h, k = np.array([0.5, -1.0, 2.0]), np.array([0.2, 0.3, -3.0])
        np.testing.assert_allclose(theory._orthant(h, k, 1.0),
                                   [gaussian_upper_tail(max(a, b)) for a, b in zip(h, k)],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            theory._orthant(h, k, -1.0),
            [max(gaussian_upper_tail(a) - gaussian_upper_tail(-b), 0.0) for a, b in zip(h, k)],
            rtol=0, atol=1e-15)

    @pytest.mark.parametrize("r", [s * r for r in (0.1, 0.8, 0.95, 0.999) for s in (1, -1)])
    def test_memory_is_bounded_at_any_correlation(self, r, monkeypatch):
        # one block of a 3-seed, k = 3 search: 400 rows x 3 seeds x 3 classes.
        # The near-one branch's integrands were four 20 x points arrays, so a
        # model whose margins correlate at |r| >= 0.925 peaked at 2.98 MiB;
        # taken in slices of points they stay under the 20-node branch's
        rng = np.random.default_rng(0)
        h, k = rng.standard_normal((2, 400, 3, 3))
        r = np.full(h.shape, r)
        theory._orthant(h[:1], k[:1], r[:1])
        tracemalloc.start()
        try:
            got = theory._orthant(h, k, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"
        # the slices change no value
        monkeypatch.setattr(theory, "_NEAR_ONE_POINTS", h.size)
        np.testing.assert_allclose(got, theory._orthant(h, k, r), rtol=0, atol=1e-16)

    def test_shape_and_independence(self):
        h = np.linspace(-2, 2, 6).reshape(2, 3)
        got = theory._orthant(h, h * 0.5, 0.0)
        assert got.shape == (2, 3)
        want = theory._upper_tail(h) * theory._upper_tail(h * 0.5)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-16)


def _oracle(cfg_kwargs):
    """The stats of the same model at rho = (0, 0) with zero noise."""
    return _iso(**{**cfg_kwargs, "eps_plus": 0.0, "eps_minus": 0.0, "rho": RhoParams()})


class TestIsotropicStats:
    def test_oracle_case(self):
        # the oracle mean is mu' Qbar mu / (1 + delta) for the built resolvent
        eta, gamma, snr, p = 0.2, 0.1, 2.0, 400
        st = _oracle(dict(p=p, n=2000, pi1=1 / 3, gamma=gamma, snr=snr))
        d = delta(eta, gamma)
        mu = np.zeros(p)
        mu[0] = snr
        Qbar = np.linalg.inv((np.outer(mu, mu) + np.eye(p)) / (1 + d) + gamma * np.eye(p))
        assert st.m_rho == pytest.approx(mu @ Qbar @ mu / (1 + d), abs=1e-14)
        assert st.nu_rho == pytest.approx(st.kappa + (1 - st.h) / st.h, abs=1e-14)

    def test_validity_guard_names_its_bound(self):
        # at eta = 1 and a vanishing gamma, h is positive but under the guard;
        # the message said "h = 6.325e-07 <= 0"
        with pytest.raises(ValueError, match=r"h = 6\.325e-07 <= 1e-06 at \(eta, gamma\)"):
            _iso(p=100, n=100, pi1=0.5, snr=2.0, gamma=1e-13)

    def test_naive_mean_scaling(self):
        st = _iso(**HIGHDIM)
        oracle = _oracle(HIGHDIM)
        shrink = 1 - 2 * ((1 / 3) * 0.3 + (2 / 3) * 0.4)
        assert st.m_rho == pytest.approx(shrink * oracle.m_rho, abs=1e-14)
        assert oracle.m_rho == pytest.approx(0.7810, abs=5e-5)
        assert st.m_rho == pytest.approx(0.2083, abs=5e-5)

    def test_unbiased_mean_equals_oracle(self):
        st = _iso(**HIGHDIM, rho=RhoParams(0.4, 0.3))
        assert st.m_rho == pytest.approx(_oracle(HIGHDIM).m_rho, abs=1e-14)

    def test_unbiased_variance_excess_formula(self):
        rho = RhoParams(0.4, 0.3)
        st = _iso(**HIGHDIM, rho=rho)
        beta, lm, lp = rho.beta, rho.lambda_minus, rho.lambda_plus
        pi1, ep, em = HIGHDIM["pi1"], HIGHDIM["eps_plus"], HIGHDIM["eps_minus"]
        pi2 = 1.0 - pi1
        excess = (1 - st.h) / st.h * (
            pi1 * (4 * beta**2 * em * (ep - em) + lm**2)
            + pi2 * (4 * beta**2 * ep * (em - ep) + lp**2)
            - 1.0
        )
        assert st.nu_rho - _oracle(HIGHDIM).nu_rho == pytest.approx(excess, rel=1e-12)
        assert excess > 0  # the high-dimensional variance inflation

    def test_zero_snr_gives_zero_mean(self):
        st = _iso(p=500, n=1000, pi1=0.4, gamma=1.0, eps_plus=0.1, eps_minus=0.2, snr=0.0)
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
            st = _iso(p=100, n=100 / eta, pi1=pi1, gamma=gamma, eps_plus=ep, eps_minus=em,
                      rho=rho, snr=snr)
            assert st.variance > 0
            assert 0 < st.h <= 1

    def test_naive_accuracy_decreasing_in_noise_mix(self):
        accs = []
        for ep in np.linspace(0.0, 0.45, 10):
            st = _iso(p=500, n=1000, pi1=0.5, gamma=1.0, eps_plus=ep, eps_minus=ep, snr=2.0)
            accs.append(st.accuracy)
        assert np.all(np.diff(accs) < 0)

    def test_low_dimensional_score_limit(self):
        # fixed p with n -> infinity (eta -> 0): the unbiased discriminant
        # ratio approaches the SNR.  (Large gamma alone does not get there:
        # the label-noise variance term stays comparable along that route.)
        for n, gamma in ((10**9, 1.0), (10**7, 0.1)):  # eta = 1e-9, 1e-7 at p = 1
            st = _iso(p=1, n=n, pi1=0.3, gamma=gamma, eps_plus=0.4, eps_minus=0.3,
                      rho=RhoParams(0.4, 0.3), snr=2.0)
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
        st = _iso(p=500, n=1000, pi1=0.4, gamma=1.0, snr=0.0)
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


def paper_optimal_gap(pi1, eps_plus, eps_minus):
    """The paper's closed-form accuracy-optimal gap ``rho_plus - rho_minus``
    of an isotropic model: a function of the class proportions and the
    noise rates alone."""
    pi2 = 1.0 - pi1
    num = pi1**2 * eps_minus * (eps_minus - 1.0) + pi2**2 * eps_plus * (1.0 - eps_plus)
    return num / (pi1 * pi2 * (1.0 - eps_plus - eps_minus))


def _gap(rho):
    return rho.rho_plus - rho.rho_minus


# the README quick start: model, n, gamma, eps_plus, eps_minus
QUICK_START = (GmmSpec.isotropic(1000, 1 / 3, 2.0), 5000, 0.1, 0.4, 0.3)


def _unequal_covariances(c2):
    """The ``C1 = I``, ``C2 = c2 I`` model at ``p = 40``, ``mu = 2 e1``,
    ``pi1 = 0.3``, and its ``n``, ``gamma`` and flip rates."""
    p = 40
    mu = np.zeros(p)
    mu[0] = 2.0
    return GmmSpec.binary(0.3, mu, cov=(np.eye(p), c2 * np.eye(p))), 80, 0.5, 0.4, 0.3


def _diagonal_ramp():
    """A diagonal-ramp ``C1`` against ``C2 = I`` at ``p = 40``."""
    p = 40
    mu = np.random.default_rng(7).standard_normal(p)
    mu *= 2.0 / np.linalg.norm(mu)
    cov = (np.diag(np.linspace(0.5, 2.5, p)), np.eye(p))
    return GmmSpec.binary(0.4, mu, cov=cov), 100, 0.5, 0.3, 0.2


GENERAL_CASES = {"C2=2I": (_unequal_covariances(2.0), 2),
                 "C2=4I": (_unequal_covariances(4.0), 2),
                 "ramp-class1": (_diagonal_ramp(), 1),
                 "ramp-class2": (_diagonal_ramp(), 2)}


def _stats_at(setting, rho, test_class=2):
    model, n, gamma, ep, em = setting
    return theory_stats(model, n, gamma, ep, em, rho=rho, test_class=test_class)


class TestOptimalRho:
    def test_symmetric_noise_balanced_classes(self):
        rho = optimal_rho(GmmSpec.isotropic(100, 0.5, 2.0), 200, 1.0, 0.2, 0.2)
        assert _gap(rho) == pytest.approx(0.0, abs=1e-14)

    def test_no_noise(self):
        rho = optimal_rho(GmmSpec.isotropic(100, 0.3, 2.0), 200, 1.0, 0.0, 0.0)
        assert _gap(rho) == pytest.approx(0.0, abs=1e-14)

    def test_reference_value(self):
        rho = optimal_rho(GmmSpec.isotropic(500, 0.3, 2.0), 1000, 1.0, 0.4, 0.3)
        assert _gap(rho) == pytest.approx(1.5667, abs=1e-4)

    def test_quick_start_point(self):
        # the optimum in the least-risk gauge: risk 0.630 where the old
        # rho_minus = 0 gauge, rho = (1.25, 0), reads 17.59 at the same accuracy
        rho = optimal_rho(*QUICK_START)
        st = _stats_at(QUICK_START, rho)
        assert (rho.rho_plus, rho.rho_minus) == pytest.approx((0.4038, -0.8462), abs=1e-4)
        assert rho.beta == pytest.approx(0.6933, abs=1e-4)
        assert st.accuracy == pytest.approx(0.778267448345939, abs=1e-12)
        assert st.risk == pytest.approx(0.630, abs=1e-3)
        assert _stats_at(QUICK_START, RhoParams(1.25, 0.0)).risk == pytest.approx(17.59, abs=1e-2)

    def test_singular_total_noise(self):
        with pytest.raises(ValueError, match="must be < 1"):
            optimal_rho(GmmSpec.isotropic(100, 0.3, 2.0), 200, 1.0, 0.6, 0.4)

    def test_zero_snr_rejected(self):
        # no signal: the optimal label weights are zero, beta = 0
        with pytest.raises(ValueError, match="beta = 0"):
            optimal_rho(GmmSpec.isotropic(100, 0.3, 0.0), 200, 1.0, 0.2, 0.1)

    def test_gap_matches_paper_closed_form(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            pi1 = rng.uniform(0.05, 0.95)
            ep, em = rng.uniform(0.0, 0.6, 2)
            if ep + em > 0.95:
                continue
            p, eta = int(rng.integers(1, 500)), rng.uniform(0.05, 3.0)
            model = GmmSpec.isotropic(p, pi1, rng.uniform(0.3, 4.0))
            rho = optimal_rho(model, p / eta, 10 ** rng.uniform(-2, 2), ep, em)
            target = paper_optimal_gap(pi1, ep, em)
            assert _gap(rho) == pytest.approx(target, rel=1e-12, abs=1e-14)

    def test_off_the_old_singular_line(self):
        # the paper's gap is exactly 1 here, so its rho_minus = 0 pair
        # (1, 0) is singular; the least-risk pair is not
        model = GmmSpec.isotropic(100, 0.2, 2.0)
        assert paper_optimal_gap(0.2, 0.1, 0.6) == pytest.approx(1.0, abs=1e-15)
        rho = optimal_rho(model, 200, 0.1, 0.1, 0.6)
        assert _gap(rho) == pytest.approx(1.0, abs=1e-12)
        assert theory_stats(model, 200, 0.1, 0.1, 0.6, rho=rho).m_rho > 0

    def test_grid_search_oracle(self):
        # independent oracle: brute-force maximization of the predicted
        # accuracy over rho_plus must land on the optimal gap
        target = _gap(optimal_rho(GmmSpec.isotropic(500, 0.3, 2.0), 1000, 1.0, 0.4, 0.3))
        grid = np.arange(-1.0, 3.0 + 1e-9, 0.02)
        accs = []
        for rp in grid:
            if abs(1.0 - rp) <= 0.02:
                accs.append(-np.inf)
                continue
            st = _iso(p=500, n=1000, pi1=0.3, gamma=1.0, eps_plus=0.4, eps_minus=0.3,
                      rho=RhoParams(rp, 0.0), snr=2.0)
            accs.append(st.accuracy)
        best = grid[int(np.argmax(accs))]
        assert abs(best - target) <= 0.02 + 1e-9

    def test_argmax_invariance_across_model_parameters(self):
        # on the isotropic path the argmax gap never moves when snr, gamma
        # or eta change
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
            model = GmmSpec.isotropic(100, pi1, snr)
            target = _gap(optimal_rho(model, 100 / eta, gamma, ep, em)) + rm
            if not grid[2] < target < grid[-3]:
                continue
            accs = []
            for rp in grid:
                if abs(1.0 - rp - rm) <= 0.05:
                    accs.append(-np.inf)
                    continue
                st = theory_stats(model, 100 / eta, gamma, ep, em, rho=RhoParams(rp, rm))
                accs.append(st.accuracy)
            best = grid[int(np.argmax(accs))]
            assert abs(best - target) <= 0.05 + 1e-9, (
                f"argmax {best} vs optimum {target} at "
                f"(pi1={pi1}, ep={ep}, em={em}, snr={snr}, gamma={gamma}, eta={eta})"
            )
            done += 1

    @pytest.mark.parametrize("case", GENERAL_CASES)
    def test_general_path_matches_grid_argmax(self, case):
        # one grid of step 1e-3 over the gap at beta = 1, (g/2, -g/2), which
        # never meets the singular line, read off one model part
        (model, n, gamma, ep, em), test_class = GENERAL_CASES[case]
        part = theory._model_part(model, n, gamma, test_class)
        target = _gap(part.optimal_rho(ep, em))
        grid = np.linspace(-2.0, 4.0, 6001)
        accs = [part.stats(ep, em, RhoParams(g / 2, -g / 2)).accuracy for g in grid]
        best = grid[int(np.argmax(accs))]
        assert abs(best - target) <= 1e-3 + 1e-12

    def test_unequal_covariances_move_the_optimum(self):
        # the paper's gap holds for C1 = C2 only
        gaps = [_gap(optimal_rho(*_unequal_covariances(c2))) for c2 in (2.0, 4.0)]
        assert gaps == pytest.approx([1.2476, 0.7800], abs=1e-4)
        assert paper_optimal_gap(0.3, 0.4, 0.3) == pytest.approx(1.5667, abs=1e-4)

    @pytest.mark.parametrize("case", ["isotropic", *GENERAL_CASES])
    def test_mean_equals_second_moment_at_optimum(self, case):
        setting, test_class = (QUICK_START, 2) if case == "isotropic" else GENERAL_CASES[case]
        st = _stats_at(setting, optimal_rho(*setting, test_class=test_class), test_class)
        assert st.m_rho > 0
        assert st.m_rho == pytest.approx(st.nu_rho, rel=1e-12)

    def test_accuracy_depends_on_gap_alone(self):
        # g = 1.25 is the quick start's optimal gap; beta runs from -1.18 to 0.87
        for rm in (0.0, -0.7, 0.3, 2.0):
            st = _stats_at(QUICK_START, RhoParams(1.25 + rm, rm))
            assert st.accuracy == pytest.approx(0.778267448345939, abs=1e-12)


@pytest.mark.parametrize("entry", [theory_stats, optimal_rho, worst_rho],
                         ids=["theory_stats", "optimal_rho", "worst_rho"])
@pytest.mark.parametrize("rates", [(-0.2, 0.1), (0.1, -0.1), (0.1, math.nan), (1.0, 0.0)],
                         ids=["negative-plus", "negative-minus", "nan", "one"])
def test_out_of_range_rates_rejected(entry, rates):
    with pytest.raises(ValueError, match=r"flip probabilities must lie in \[0, 1\)"):
        entry(GmmSpec.isotropic(100, 1 / 3, 2.0), 200, 1.0, *rates)


class TestWorstRho:
    def test_mean_vanishes(self):
        rho_bar = worst_rho(GmmSpec.isotropic(500, 0.3, 2.0), 1000, 1.0, 0.4, 0.3)
        assert rho_bar.beta == pytest.approx(1.0, abs=1e-15)
        assert _gap(rho_bar) == pytest.approx(-0.65, abs=1e-12)
        st = _iso(p=500, n=1000, pi1=0.3, gamma=1.0, eps_plus=0.4, eps_minus=0.3,
                  rho=rho_bar, snr=2.0)
        assert abs(st.m_rho) <= 1e-12
        assert st.accuracy == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("case", GENERAL_CASES)
    def test_mean_vanishes_on_general_path(self, case):
        setting, test_class = GENERAL_CASES[case]
        rho_bar = worst_rho(*setting, test_class=test_class)
        assert abs(_stats_at(setting, rho_bar, test_class).m_rho) <= 1e-12

    def test_balanced_classes_rejected(self):
        with pytest.raises(ValueError, match="no root"):
            worst_rho(GmmSpec.isotropic(100, 0.5, 2.0), 200, 1.0, 0.4, 0.3)

    def test_zero_snr_rejected(self):
        # no signal: the decision mean is 0 at every rho, also with pi1 != 1/2
        with pytest.raises(ValueError, match=r"no root.*\(no signal\)"):
            worst_rho(GmmSpec.isotropic(100, 0.3, 0.0), 200, 1.0, 0.2, 0.1)


class TestGeneralCovariance:
    def test_identity_reduction(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = int(rng.integers(30, 80))
            snr = rng.uniform(0.5, 3.0)
            mu = rng.standard_normal(p)
            mu *= snr / np.linalg.norm(mu)
            eta, pi1 = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.2, 0.8))
            cfg_kwargs = dict(
                n=p / eta,
                gamma=float(rng.uniform(0.1, 5.0)), eps_plus=0.2, eps_minus=0.1,
                rho=RhoParams(float(rng.uniform(-0.3, 0.5)), 0.0),
            )
            iso = theory_stats(GmmSpec.binary(pi1, mu), **cfg_kwargs)
            gen = theory_stats(GmmSpec.binary(pi1, mu, cov=(np.eye(p), np.eye(p))), **cfg_kwargs,
                               test_class=2)
            assert gen.m_rho == pytest.approx(iso.m_rho, rel=1e-8)
            assert gen.nu_rho == pytest.approx(iso.nu_rho, rel=1e-8)
            assert gen.delta == pytest.approx(iso.delta, rel=1e-9)
            assert gen.delta2 == pytest.approx(iso.delta, rel=1e-9)

    def test_scaled_identity_matches_scalar_fixed_point(self):
        # C = c * I: the per-class trace solves a scalar fixed point that a
        # plain 1-d iteration reproduces
        p, n, c_scale, eta, gamma = 70, 100, 2.5, 0.7, 0.9
        mu = np.zeros(p)
        mu[0] = 1.5
        gen = theory_stats(GmmSpec.binary(0.4, mu, cov=(c_scale * np.eye(p), c_scale * np.eye(p))),
                           n, gamma)
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
        p, n, pi1, gamma, eta = 200, 40, 0.3, 1e-3, 5.0
        c1, c2 = np.linspace(0.01, 5.0, p), np.full(p, 3.0)
        mu = np.zeros(p)
        mu[0] = 1.0
        gen = theory_stats(GmmSpec.binary(pi1, mu, cov=(np.diag(c1), np.diag(c2))), n, gamma)
        d1, d2 = gen.delta, gen.delta2
        assert min(d1, d2) > 5e3
        q0 = 1.0 / (pi1 * c1 / (1.0 + d1) + (1.0 - pi1) * c2 / (1.0 + d2) + gamma)
        np.testing.assert_allclose(eta / p * np.array([c1 @ q0, c2 @ q0]), [d1, d2],
                                   rtol=1e-11)
        iso = theory_stats(GmmSpec.binary(pi1, mu, cov=(np.eye(p), np.eye(p))), n, gamma)
        assert iso.delta == pytest.approx(delta(eta, gamma), rel=1e-9)
        assert iso.delta2 == pytest.approx(delta(eta, gamma), rel=1e-9)

    @pytest.mark.parametrize("gamma", [1e-2, 1e-4, 1e-6, 1e-9, 1e-12])
    def test_identity_reduction_at_small_gamma(self, gamma):
        # at eta = 1 the guard's det(I - G) = h falls from 0.18 to 2e-6 over
        # these gammas, where the plain iteration's contraction rate tends to 1
        p = 100
        mu = np.zeros(p)
        mu[0] = 2.0
        rates = dict(eps_plus=0.2, eps_minus=0.1, rho=RhoParams(0.2, 0.0))
        iso = theory_stats(GmmSpec.binary(0.5, mu), p, gamma, **rates)
        gen = theory_stats(GmmSpec.binary(0.5, mu, cov=(np.eye(p), np.eye(p))), p, gamma, **rates)
        for got in (gen.delta, gen.delta2):
            assert got == pytest.approx(iso.delta, rel=1e-9)
        assert gen.m_rho == pytest.approx(iso.m_rho, rel=1e-9)
        assert gen.nu_rho == pytest.approx(iso.nu_rho, rel=1e-9)

    def test_validity_guard_on_general_path(self):
        # the solve converges where the guard decides: det(I - G) equals the
        # isotropic h that test_validity_guard_names_its_bound refuses
        p = 100
        mu = np.zeros(p)
        mu[0] = 2.0
        with pytest.raises(ValueError, match=r"det\(I - G\) = 6\.325e-07 <= 1e-06"):
            theory_stats(GmmSpec.binary(0.5, mu, cov=(np.eye(p), np.eye(p))), p, 1e-13)

    def test_newton_cap_names_the_last_step(self, monkeypatch):
        # the solve takes 14 steps here, so a cap of 3 stops it with its last
        # correction and det(I - G)
        monkeypatch.setattr(theory, "_NEWTON_MAX_STEPS", 3)
        p = 100
        mu = np.zeros(p)
        mu[0] = 2.0
        num = r"\d\.\d{3}e[+-]\d{2}"
        with pytest.raises(RuntimeError, match=rf"did not converge in 3 Newton steps; "
                           rf"last correction {num}, det\(I - G\) = {num}$"):
            theory_stats(GmmSpec.binary(0.5, mu, cov=(np.eye(p), np.eye(p))), p, 1e-6)

    def test_newton_solve_inverts_few_matrices(self, monkeypatch):
        # criterion 08's ramp at eta = 1, gamma = 1e-4, near the guard: one
        # p x p inverse per Newton step (a plain iteration takes about 1,300)
        p = 200
        mu = np.random.default_rng(7).standard_normal(p)
        mu *= 2.0 / np.linalg.norm(mu)
        model = GmmSpec.binary(0.4, mu, cov=(np.diag(np.linspace(0.5, 2.5, p)), np.eye(p)))
        inverses = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a.shape) or inv(a))
        part = theory._model_part(model, p, 1e-4)
        assert len(inverses) <= 30
        assert 0.0 < part.h < 0.1

    def test_psd_validation(self):
        p = 5
        mu = np.zeros(p)
        bad = -np.eye(p)
        with pytest.raises(ValueError, match="PSD"):
            GmmSpec.binary(0.5, mu, cov=(bad, np.eye(p)))

    def test_test_class_changes_variance_only(self):
        rng = np.random.default_rng(3)
        p = 40
        mu = rng.standard_normal(p)
        mu *= 2.0 / np.linalg.norm(mu)
        C1 = np.diag(np.linspace(0.5, 2.0, p))
        model = GmmSpec.binary(0.4, mu, cov=(C1, np.eye(p)))
        kwargs = dict(n=100, gamma=0.8, eps_plus=0.2, eps_minus=0.1)  # eta = 0.4
        s1 = theory_stats(model, **kwargs, test_class=1)
        s2 = theory_stats(model, **kwargs, test_class=2)
        assert s1.m_rho == pytest.approx(s2.m_rho, rel=1e-12)
        assert s1.nu_rho != pytest.approx(s2.nu_rho, rel=1e-6)


def test_theory_config_validation():
    with pytest.raises(ValueError, match="n > 0"):
        _iso(p=3, n=0, pi1=0.5, gamma=1.0, snr=1.0)


@pytest.mark.parametrize("entry", [theory_stats, optimal_rho, worst_rho],
                         ids=["theory_stats", "optimal_rho", "worst_rho"])
@pytest.mark.parametrize("key", ["n", "gamma"])
@pytest.mark.parametrize("path", ["isotropic", "general"])
def test_infinite_model_point_rejected(entry, key, path):
    # an infinite n or gamma is refused, with its cause, before any model
    # part is built: on the general path, before the trace fixed point runs
    model, n, gamma, ep, em = (QUICK_START if path == "isotropic"
                               else _unequal_covariances(2.0))
    point = {"n": n, "gamma": gamma, key: math.inf}
    with pytest.raises(ValueError, match="needs finite n > 0 and gamma > 0"):
        entry(model, point["n"], point["gamma"], ep, em)


def test_one_fixed_point_serves_a_rho_grid(monkeypatch):
    # criterion 08's ramp at p = 200: one model part, so one solve of the
    # trace fixed point, serves a 1201-point rho grid and both closed-form
    # rhos, with the public functions' values
    p = 200
    mu = np.random.default_rng(7).standard_normal(p)
    mu *= 2.0 / np.linalg.norm(mu)
    model = GmmSpec.binary(0.4, mu, cov=(np.diag(np.linspace(0.5, 2.5, p)), np.eye(p)))
    n, gamma, ep, em = 1000, 0.5, 0.3, 0.2
    runs = []
    build = theory._general_part
    monkeypatch.setattr(theory, "_general_part",
                        lambda *args: runs.append(args) or build(*args))
    part = theory._model_part(model, n, gamma)
    grid = np.linspace(-2.0, 4.0, 1201)
    stats = [part.stats(ep, em, RhoParams(g / 2, -g / 2)) for g in grid]
    best, worst = part.optimal_rho(ep, em), part.worst_rho(ep, em)
    assert len(runs) == 1
    assert abs(grid[int(np.argmax([st.accuracy for st in stats]))] - _gap(best)) <= 5e-3
    assert stats[600] == theory_stats(model, n, gamma, ep, em, RhoParams(0.5, -0.5))
    assert (best, worst) == (optimal_rho(model, n, gamma, ep, em),
                             worst_rho(model, n, gamma, ep, em))


@pytest.mark.parametrize("key, match", [
    ("gamma", "gamma"), ("eta", "n > 0"), ("snr", "mu contains non-finite entries")],
    ids=["gamma", "eta", "snr"])
def test_nan_model_input_raises(key, match):
    # each came out as accuracy = nan; the eta case is a NaN sample count n
    with pytest.raises(ValueError, match=match):
        _iso(**{**HIGHDIM, "n" if key == "eta" else key: math.nan})
