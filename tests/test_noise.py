import numpy as np
import pytest

from lpc import (
    GmmSpec,
    LabeledDataset,
    RhoParams,
    derive_seed,
    estimate_noise_rates,
    flip_labels,
    generate_gmm,
    loo_decisions,
)
from lpc.core import _targets
from lpc.noise import solve_noise_system
from lpc.theory import theory_stats

PROBES = (RhoParams(0.0, 0.1), RhoParams(0.0, 0.4))
# (model, n, gamma) at eta = 0.1, gamma = 0.1, snr = 2, pi1 = 1/3
SETTING = (GmmSpec.isotropic(100, 1 / 3, 2.0), 1000, 0.1)


def _noisy(p, n, pi1, snr, eps, seed):
    ds = generate_gmm(GmmSpec.isotropic(p, pi1, snr), n, derive_seed(seed, 0))
    return flip_labels(ds, eps[0], eps[1], derive_seed(seed, 1))


def _exact_moments(model, n, gamma, ep, em, probes):
    return np.array([theory_stats(model, n, gamma, ep, em, rho=pr).nu_rho for pr in probes])


def _moment_surface(model, n, gamma, probes):
    """Both probes' exact moments at array-valued rates: each is a quadratic
    in (eps_plus, eps_minus), fitted through six exact points."""
    def basis(ep, em):
        return np.stack([np.ones_like(ep), ep, em, ep * ep, ep * em, em * em])

    ep, em = np.array([(0, 0), (0.5, 0), (0, 0.5), (0.25, 0), (0, 0.25), (0.25, 0.25)]).T
    values = [_exact_moments(model, n, gamma, a, b, probes) for a, b in zip(ep, em)]
    coef = np.linalg.solve(basis(ep, em).T, np.array(values))
    return lambda ep, em: coef.T @ basis(ep, em)


class TestEmpiricalSecondMoment:
    def test_zero_features(self):
        ds = LabeledDataset(X=np.zeros((2, 6)), y_noisy=np.array([1, -1, 1, -1, 1, -1]))
        assert np.mean(loo_decisions(ds, RhoParams(), 1.0) ** 2) == 0.0

    def test_matches_brute_force_average(self):
        ds = _noisy(2, 6, 0.5, 1.2, (0.2, 0.1), seed=4)
        rho, gamma = RhoParams(0.1, 0.0), 0.6
        t = _targets(ds.y_noisy, rho)
        vals = []
        for i in range(ds.n):
            keep = np.arange(ds.n) != i
            Xi = ds.X[:, keep]
            A = Xi @ Xi.T / ds.n + gamma * np.eye(ds.p)
            wi = np.linalg.solve(A, Xi @ t[keep] / ds.n)
            vals.append((ds.X[:, i] @ wi) ** 2)
        assert np.mean(loo_decisions(ds, rho, gamma) ** 2) == pytest.approx(
            np.mean(vals), abs=1e-10
        )

    def test_tracks_theory_second_moment(self):
        # high-dimensional configuration: the loo moment approximates nu
        p, n, pi1, snr, gamma = 1000, 5000, 1 / 3, 2.0, 0.1
        ep, em = 0.4, 0.3
        vals = []
        for seed in range(3):
            ds = _noisy(p, n, pi1, snr, (ep, em), seed)
            vals.append(np.mean(loo_decisions(ds, RhoParams(), gamma) ** 2))
        nu = _exact_moments(GmmSpec.isotropic(p, pi1, snr), n, gamma, ep, em, (RhoParams(),))[0]
        assert np.mean(vals) == pytest.approx(nu, rel=0.05)


class TestEstimateNoiseRates:
    def test_probes_must_differ(self):
        ds = _noisy(10, 40, 0.5, 1.0, (0.1, 0.1), seed=0)
        with pytest.raises(ValueError, match="distinct"):
            estimate_noise_rates(ds, PROBES[0], PROBES[0], 1.0, 1.0, 0.5)

    def test_equal_gap_probes_rejected(self):
        # equal rho_plus - rho_minus: the second probe's targets are a
        # rescaled copy of the first's, so the rates are not identifiable.
        # The check runs before any leave-one-out pass, which rejects n = 1.
        probes = (RhoParams(0.1, 0.0), RhoParams(0.3, 0.2))
        tiny = LabeledDataset(X=np.ones((2, 1)), y_noisy=np.array([1]))
        with pytest.raises(ValueError, match="distinct"):
            estimate_noise_rates(tiny, *probes, 0.1, 2.0, 1 / 3)
        nu = _exact_moments(*SETTING, 0.3337, 0.2011, probes)
        with pytest.raises(ValueError, match="distinct"):
            solve_noise_system(nu, *SETTING, probes)

    def test_input_validation(self):
        ds = _noisy(10, 40, 0.5, 1.0, (0.1, 0.1), seed=0)
        with pytest.raises(ValueError, match="snr"):
            estimate_noise_rates(ds, PROBES[0], PROBES[1], 1.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="pi1"):
            estimate_noise_rates(ds, PROBES[0], PROBES[1], 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            solve_noise_system(np.array([np.nan, 0.5]), *SETTING, PROBES)
        general = GmmSpec(1 / 3, SETTING[0].mu, cov=(np.eye(100), np.eye(100)))
        with pytest.raises(ValueError, match="isotropic"):
            solve_noise_system(np.array([0.2, 0.5]), general, 1000, 0.1, PROBES)

    def test_noiseless_recovery(self):
        hats = []
        for seed in range(5):
            ds = _noisy(100, 1000, 1 / 3, 2.0, (0.0, 0.0), seed)
            est = estimate_noise_rates(ds, PROBES[0], PROBES[1], 0.1, 2.0, 1 / 3)
            hats.append((est.eps_plus, est.eps_minus))
        hats = np.array(hats)
        assert np.all(np.abs(hats.mean(axis=0)) <= 0.03)

    def test_estimates_stay_on_simplex(self):
        for seed in range(6):
            ds = _noisy(80, 600, 0.4, 1.5, (0.45, 0.45), seed)
            est = estimate_noise_rates(ds, PROBES[0], PROBES[1], 0.1, 1.5, 0.4)
            assert est.eps_plus >= 0 and est.eps_minus >= 0
            assert est.eps_plus + est.eps_minus < 1.0
            assert np.isfinite(est.residual)

    def test_consistency_with_more_data(self):
        # fixed dimension ratio: the endpoint of the n-sweep improves on the
        # smallest size (strict per-step monotonicity is noise at 3 seeds)
        def mean_error(n):
            errs = []
            for seed in range(3):
                ds = _noisy(n // 10, n, 1 / 3, 2.0, (0.3, 0.2), 100 + seed)
                est = estimate_noise_rates(ds, PROBES[0], PROBES[1], 0.1, 2.0, 1 / 3)
                errs.append(abs(est.eps_plus - 0.3) + abs(est.eps_minus - 0.2))
            return float(np.mean(errs))

        sweep = {n: mean_error(n) for n in (250, 500, 1000, 2000)}
        assert sweep[2000] <= sweep[250], sweep


class TestForwardInverse:
    def test_exact_moment_inversion(self):
        # feeding exact theoretical moments must reproduce the noise rates
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 50:
            ep, em = rng.uniform(0.0, 0.7, 2)
            if ep + em > 0.9:
                continue
            nu = _exact_moments(*SETTING, ep, em, PROBES)
            est = solve_noise_system(nu, *SETTING, PROBES)
            assert abs(est.eps_plus - ep) <= 1e-8
            assert abs(est.eps_minus - em) <= 1e-8
            assert est.residual <= 1e-10
            checked += 1

    @pytest.mark.parametrize("snr", [1.0, 2.0, 3.0])
    def test_exact_moments_on_criterion_06_grid(self, snr):
        setting, em = (GmmSpec.isotropic(100, 1 / 3, snr), 1000, 0.1), 0.2  # eta = 0.1
        for ep in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            nu = _exact_moments(*setting, ep, em, PROBES)
            est = solve_noise_system(nu, *setting, PROBES)
            assert est.roots and not est.ambiguous
            assert abs(est.eps_plus - ep) <= 1e-12
            assert abs(est.eps_minus - em) <= 1e-12

    def test_true_rates_among_roots(self):
        rng = np.random.default_rng(11)
        probe_pairs = [PROBES, (RhoParams(0.2, 0.0), RhoParams(0.0, 0.3)),
                       (RhoParams(0.1, 0.1), RhoParams(0.3, -0.1))]
        checked = 0
        while checked < 300:
            probes = probe_pairs[checked % 3]
            eta, gamma = rng.uniform(0.05, 2.0, 2)
            snr, pi1 = rng.uniform(0.5, 4.0), rng.uniform(0.2, 0.8)
            ep, em = rng.uniform(0.0, 0.9, 2)
            if ep + em > 0.95:
                continue
            setting = (GmmSpec.isotropic(100, pi1, snr), 100 / eta, gamma)
            try:
                nu = _exact_moments(*setting, ep, em, probes)
            except ValueError:  # h <= 0: outside the theory's validity range
                continue
            est = solve_noise_system(nu, *setting, probes)
            assert min(max(abs(r[0] - ep), abs(r[1] - em)) for r in est.roots) <= 1e-9
            assert (est.eps_plus, est.eps_minus) == est.roots[0]
            checked += 1

    @pytest.mark.parametrize("eps", [(0.05, 0.0), (0.1, 0.0), (0.0, 0.3), (0.6, 0.39)])
    def test_roots_on_the_boundary_are_kept(self, eps):
        # rounding puts such a root just outside the capped simplex; it is
        # snapped onto it instead of being dropped
        setting = (GmmSpec.isotropic(100, 1 / 3, 1.0), 1000, 0.1)  # eta = 0.1
        nu = _exact_moments(*setting, *eps, PROBES)
        est = solve_noise_system(nu, *setting, PROBES)
        root = min(est.roots, key=lambda r: max(abs(r[0] - eps[0]), abs(r[1] - eps[1])))
        assert np.allclose(root, eps, rtol=0, atol=1e-12)
        assert min(root) >= 0.0 and sum(root) <= 0.99

    def test_two_roots_reported(self):
        setting = (GmmSpec.isotropic(100, 0.7, 1.0), 1000, 0.1)  # eta = 0.1
        nu = _exact_moments(*setting, 0.3, 0.6, PROBES)
        est = solve_noise_system(nu, *setting, PROBES)
        assert est.ambiguous and len(est.roots) == 2
        for root in est.roots:
            np.testing.assert_allclose(
                _exact_moments(*setting, *root, PROBES), nu, rtol=1e-12)
        assert np.allclose(est.roots[1], (0.3, 0.6), atol=1e-12)
        assert sum(est.roots[0]) < sum(est.roots[1])
        assert (est.eps_plus, est.eps_minus) == est.roots[0]

    def test_double_root_is_one_root(self):
        # the true rates sit where the two roots of q meet: rounding leaves
        # a discriminant of ~1e-16 * c1^2, which must not split the root
        setting, eps = (GmmSpec.isotropic(100, 1 / 3, 0.5), 1000, 0.1), (0.65, 0.2)
        nu = _exact_moments(*setting, *eps, PROBES)
        est = solve_noise_system(nu, *setting, PROBES)
        assert len(est.roots) == 1 and not est.ambiguous
        assert np.allclose(est.roots[0], eps, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("nu, setting, probes", [
        # least-squares point on an edge
        ((0.2429, 0.5348), SETTING, PROBES),
        # at the vertex of q, inside the simplex (eta = 0.9)
        ((1.0, 0.1), (GmmSpec.isotropic(90, 0.64, 1.3), 100, 0.35),
         (RhoParams(0.3, -0.1), RhoParams(-0.3, -0.15))),
        # far from any attainable moment pair
        ((50.0, 0.01), SETTING, PROBES),
    ])
    def test_no_root_is_least_squares(self, nu, setting, probes):
        est = solve_noise_system(np.array(nu), *setting, probes)
        assert est.roots == () and not est.newton_converged
        # brute-force reference: a 0.001-spaced grid of the capped simplex
        axis = np.linspace(0.0, 0.99, 991)
        ep, em = np.meshgrid(axis, axis, indexing="ij")
        inside = ep + em <= 0.99
        grid = _moment_surface(*setting, probes)(ep[inside], em[inside])
        best = np.min(np.linalg.norm(grid - np.array(nu)[:, None], axis=0))
        assert est.residual <= best * (1 + 1e-12)
        assert est.residual == pytest.approx(
            np.linalg.norm(_exact_moments(*setting, est.eps_plus, est.eps_minus, probes) - nu),
            rel=1e-10)

    def test_high_residual_flag(self):
        # moments that no simplex point can produce leave a large residual
        est = solve_noise_system(np.array([50.0, 0.01]), *SETTING, PROBES)
        assert est.high_residual

    @pytest.mark.parametrize("nu_hat", [(0.5, 0.6, 100.0), (0.5,), ((0.5,), (0.6,))],
                             ids=["three", "one", "column"])
    def test_nu_hat_shape_checked(self, nu_hat):
        # one moment per probe: a third entry would only enter the
        # high_residual scale, and (0.5, 0.6, 100) clears a flag that
        # (0.5, 0.6) sets
        assert solve_noise_system(np.array([0.5, 0.6]), *SETTING, PROBES).high_residual
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            solve_noise_system(np.array(nu_hat), *SETTING, PROBES)
