import itertools
import math
import warnings

import numpy as np
import pytest

from lpc import (
    Classifier,
    GmmSpec,
    RhoParams,
    decision,
    evaluate,
    flip_labels,
    generate_gmm,
    load_classifier,
    loo_decisions,
    save_classifier,
    train_lpc,
    train_lpc_bce,
)
from lpc.core import _loo_block, _targets, perturbed_bce_loss


def _noisy_dataset(p, n, pi1=0.4, snr=1.5, eps=(0.2, 0.1), seed=0):
    ds = generate_gmm(GmmSpec.isotropic(p, n, pi1, snr, seed=seed))
    return flip_labels(ds, eps[0], eps[1], seed=seed + 1000)


class TestRhoParams:
    def test_singularity_guard(self):
        with pytest.raises(ValueError, match="singular"):
            RhoParams(0.7, 0.3)
        with pytest.raises(ValueError):
            RhoParams(0.5, 0.5 - 1e-12)

    def test_derived_weights_example(self):
        rho = RhoParams(0.2, 0.0)
        assert rho.lambda_plus == pytest.approx(1.5)
        assert rho.lambda_minus == pytest.approx(1.0)
        assert rho.beta == pytest.approx(1.25)

    def test_beta_is_mean_of_lambdas(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            rp, rm = rng.uniform(-1.5, 1.5, 2)
            if abs(1 - rp - rm) < 1e-3:
                continue
            rho = RhoParams(rp, rm)
            assert abs(rho.beta - (rho.lambda_minus + rho.lambda_plus) / 2) < 1e-12


class TestTrainLpc:
    def test_zero_rho_recovers_plain_ridge(self):
        ds = _noisy_dataset(6, 30)
        c = train_lpc(ds, RhoParams(), gamma=0.5)
        A = ds.X @ ds.X.T / ds.n + 0.5 * np.eye(ds.p)
        w_direct = np.linalg.solve(A, ds.X @ ds.y_noisy / ds.n)
        np.testing.assert_allclose(c.w, w_direct, atol=1e-12)

    def test_toy_instance_matches_explicit_inverse(self):
        from lpc.datasets import LabeledDataset

        X = np.array([[1.0, -0.5, 2.0], [0.0, 1.5, -1.0]])
        y = np.array([1, -1, 1])
        ds = LabeledDataset(X=X, y_noisy=y, y_clean=y)
        rho = RhoParams(0.2, 0.1)
        gamma = 0.7
        c = train_lpc(ds, rho, gamma)
        t = np.where(y == 1, rho.lambda_plus, -rho.lambda_minus)
        w_exact = np.linalg.inv(X @ X.T / 3 + gamma * np.eye(2)) @ (X @ t / 3)
        np.testing.assert_allclose(c.w, w_exact, atol=1e-12)

    def test_gamma_must_be_positive(self):
        ds = _noisy_dataset(4, 12)
        with pytest.raises(ValueError, match="gamma"):
            train_lpc(ds, RhoParams(), gamma=0.0)
        # a NaN gamma failed the residual check with FloatingPointError
        with pytest.raises(ValueError, match="gamma"):
            train_lpc(ds, RhoParams(), gamma=math.nan)

    def test_nonfinite_features_rejected(self):
        from lpc.datasets import LabeledDataset

        X = np.ones((2, 4))
        X[0, 0] = np.inf
        ds = LabeledDataset(X=X, y_noisy=np.array([1, -1, 1, -1]))
        with pytest.raises(ValueError, match="non-finite"):
            train_lpc(ds, RhoParams(), gamma=1.0)

    def test_weights_linear_in_label_weights(self):
        # w decomposes as lambda_plus * (positive part) - lambda_minus * (negative part)
        ds = _noisy_dataset(8, 40, seed=3)
        gamma = 0.9
        A = ds.X @ ds.X.T / ds.n + gamma * np.eye(ds.p)
        pos = (ds.y_noisy == 1).astype(float)
        w_pos = np.linalg.solve(A, ds.X @ pos / ds.n)
        w_neg = np.linalg.solve(A, ds.X @ (1.0 - pos) / ds.n)
        for rho in (RhoParams(0.3, 0.1), RhoParams(-0.4, 0.2), RhoParams(1.3, 0.0)):
            c = train_lpc(ds, rho, gamma)
            np.testing.assert_allclose(
                c.w, rho.lambda_plus * w_pos - rho.lambda_minus * w_neg, atol=1e-10
            )

    def test_target_convention_matches_loss_gradient(self):
        # the reweighted squared loss per sample is
        #   ((1 - rho_{-y}) (w@x - y)^2 - rho_y (w@x + y)^2) * beta
        # and the trained w must be its stationary point
        ds = _noisy_dataset(5, 25, seed=7)
        rho, gamma = RhoParams(0.3, 0.1), 0.8

        def loss(w):
            s = w @ ds.X
            y = ds.y_noisy
            keep = np.where(y == 1, 1.0 - rho.rho_minus, 1.0 - rho.rho_plus)
            flip = np.where(y == 1, rho.rho_plus, rho.rho_minus)
            per = (keep * (s - y) ** 2 - flip * (s + y) ** 2) * rho.beta
            return float(np.mean(per)) + gamma * float(w @ w)

        w = train_lpc(ds, rho, gamma).w
        h = 1e-6
        for j in range(ds.p):
            e = np.zeros(ds.p)
            e[j] = h
            grad_j = (loss(w + e) - loss(w - e)) / (2 * h)
            assert abs(grad_j) < 1e-7

    def test_normal_equation_residual(self):
        ds = _noisy_dataset(30, 100, seed=5)
        c = train_lpc(ds, RhoParams(0.4, 0.3), gamma=0.05)
        A = ds.X @ ds.X.T / ds.n + 0.05 * np.eye(ds.p)
        rhs = ds.X @ _targets(ds.y_noisy, c.rho) / ds.n
        res = np.linalg.norm(A @ c.w - rhs)
        assert res <= 1e-8 * np.linalg.norm(c.w)

    @staticmethod
    def _scaled_draws():
        # a standard draw at gamma = 1e8, and its features x1e4 at small and
        # unit gamma: the residual grows with ||A||, past 1e-8 * ||w||
        from lpc.datasets import LabeledDataset

        ds = flip_labels(generate_gmm(GmmSpec.isotropic(200, 400, 0.4, 2.0)), 0.2, 0.1, 1)
        big = LabeledDataset(X=ds.X * 1e4, y_noisy=ds.y_noisy, y_clean=ds.y_clean)
        return [(ds, 1e8), (big, 1e-3), (big, 1.0), (ds, 1.0)]

    def test_residual_check_scales_with_the_system(self):
        for ds, gamma in self._scaled_draws():
            c = train_lpc(ds, RhoParams(), gamma)
            A = ds.X @ ds.X.T / ds.n + gamma * np.eye(ds.p)
            rhs = ds.X @ _targets(ds.y_noisy, c.rho) / ds.n
            backward = np.linalg.norm(A @ c.w - rhs) / (
                np.linalg.norm(A) * np.linalg.norm(c.w) + np.linalg.norm(rhs))
            assert backward <= 1e-14

    def test_residual_check_catches_a_perturbed_solve(self, monkeypatch):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda A, b: solve(A, b) * (1 + 1e-6))
        for ds, gamma in self._scaled_draws():
            with pytest.raises(FloatingPointError, match="residual"):
                train_lpc(ds, RhoParams(), gamma)


class TestDecisionEvaluate:
    def test_zero_weights_zero_scores(self):
        c = Classifier(w=np.zeros(3), gamma=1.0, rho=RhoParams())
        assert np.all(decision(c, np.ones((3, 5))) == 0.0)

    def test_unit_projection(self):
        w = np.array([3.0, 4.0])
        c = Classifier(w=w, gamma=1.0, rho=RhoParams())
        x = w / (w @ w)
        assert decision(c, x)[0] == pytest.approx(1.0)

    def test_dimension_mismatch_names_sizes(self):
        c = Classifier(w=np.zeros(3), gamma=1.0, rho=RhoParams())
        with pytest.raises(ValueError, match="p=3.*p=2"):
            decision(c, np.ones((2, 4)))

    def test_perfect_scores(self):
        c = Classifier(w=np.array([1.0]), gamma=1.0, rho=RhoParams())
        X = np.array([[1.0, -1.0, 1.0]])
        acc, risk = evaluate(c, X, np.array([1, -1, 1]))
        assert acc == 1.0 and risk == 0.0

    def test_zero_classifier_risk_and_tiebreak(self):
        c = Classifier(w=np.zeros(2), gamma=1.0, rho=RhoParams())
        y = np.array([1, -1, 1, 1])
        acc, risk = evaluate(c, np.zeros((2, 4)), y)
        assert risk == 1.0  # y^2 = 1 exactly
        assert acc == 0.75  # sign(0) = +1 matches the three positives

    def test_empty_test_set(self):
        c = Classifier(w=np.zeros(2), gamma=1.0, rho=RhoParams())
        with pytest.raises(ValueError, match="empty"):
            evaluate(c, np.zeros((2, 0)), np.array([]))

    @pytest.mark.parametrize("y", [[1], [[1], [-1], [1], [-1]]], ids=["short", "column"])
    def test_labels_must_match_the_test_columns(self, y):
        # neither broadcasts against the 4 scores
        c = Classifier(w=np.ones(2), gamma=1.0, rho=RhoParams())
        X = np.array([[1.0, -1.0, 2.0, -3.0], [0.5, 0.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match=r"y_test must have shape \(4,\)"):
            evaluate(c, X, np.array(y))

    def test_sign_invariance_under_positive_scaling(self):
        ds = _noisy_dataset(5, 30, seed=9)
        c = train_lpc(ds, RhoParams(0.1, 0.0), gamma=1.0)
        scaled = Classifier(w=7.3 * c.w, gamma=c.gamma, rho=c.rho)
        s1, s2 = decision(c, ds.X), decision(scaled, ds.X)
        assert np.array_equal(np.sign(s1), np.sign(s2))


class TestLooDecisions:
    def _brute_force(self, ds, rho, gamma):
        t = _targets(ds.y_noisy, rho)
        out = np.empty(ds.n)
        for i in range(ds.n):
            keep = np.arange(ds.n) != i
            Xi = ds.X[:, keep]
            A = Xi @ Xi.T / ds.n + gamma * np.eye(ds.p)
            wi = np.linalg.solve(A, Xi @ t[keep] / ds.n)
            out[i] = ds.X[:, i] @ wi
        return out

    def _brute_force_dual(self, ds, rho, gamma):
        # the same retrains through the (n - 1) x (n - 1) dual system, which
        # stays well conditioned when p >= n and gamma is tiny
        t = _targets(ds.y_noisy, rho)
        out = np.empty(ds.n)
        for i in range(ds.n):
            keep = np.arange(ds.n) != i
            Xi = ds.X[:, keep]
            K = Xi.T @ Xi / ds.n + gamma * np.eye(ds.n - 1)
            out[i] = ds.X[:, i] @ Xi @ np.linalg.solve(K, t[keep]) / ds.n
        return out

    def test_matches_brute_force_small(self):
        ds = _noisy_dataset(3, 5, seed=21)
        rho, gamma = RhoParams(0.2, 0.1), 0.8
        np.testing.assert_allclose(
            loo_decisions(ds, rho, gamma), self._brute_force(ds, rho, gamma), atol=1e-10
        )

    def test_duplicated_columns_stability(self):
        # leave-one-out of a duplicated column stays close to the full-data
        # score; the gap shrinks like 1/n (constant fitted at the small size)
        rng = np.random.default_rng(31)

        def max_gap(n_half):
            base = rng.standard_normal((4, n_half))
            X = np.concatenate([base, base], axis=1)
            half = np.where(rng.standard_normal(n_half) >= 0, 1, -1)
            y = np.concatenate([half, half]).astype(int)
            from lpc.datasets import LabeledDataset

            ds = LabeledDataset(X=X, y_noisy=y, y_clean=y)
            w_full = train_lpc(ds, RhoParams(), 1.0).w
            loo = loo_decisions(ds, RhoParams(), 1.0)
            return float(np.max(np.abs(loo - X.T @ w_full)))

        gap_small = max_gap(20)  # n = 40
        C = gap_small * 40 * 3.0
        assert max_gap(80) <= C / 160  # n = 160

    def test_degenerate_downdate_falls_back_to_dual_press(self):
        # scaling sample 0 drives its downdate denominator 1 - d_0 toward 0;
        # once rounding could cost 1e-8, that index is scored by the exact
        # dual PRESS form instead (at 1e6 it always is)
        from lpc.datasets import LabeledDataset

        rho, gamma = RhoParams(0.2, 0.1), 1e-3
        for (p, n), seed in itertools.product([(3, 12), (40, 80)], range(5)):
            base = _noisy_dataset(p, n, seed=seed)
            for scale in np.logspace(1, 6, 11):
                X = base.X.copy()
                X[:, 0] *= scale
                ds = LabeledDataset(X=X, y_noisy=base.y_noisy, y_clean=base.y_clean)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    scores = loo_decisions(ds, rho, gamma)
                if scale == 1e6:
                    assert any("degenerate" in str(w.message) for w in caught)
                expected = self._brute_force(ds, rho, gamma)
                np.testing.assert_allclose(
                    scores, expected, rtol=0, atol=1e-8 * np.max(np.abs(expected))
                )
        # p >= n with a tiny gamma: every index is degenerate, and the primal
        # system (condition ~ 1 / gamma) is itself off, so the reference is
        # the dual brute force
        ds = _noisy_dataset(200, 100, seed=0)
        with pytest.warns(UserWarning, match="degenerate for 100 indices"):
            scores = loo_decisions(ds, rho, 1e-9)
        expected = self._brute_force_dual(ds, rho, 1e-9)
        np.testing.assert_allclose(
            scores, expected, rtol=0, atol=1e-8 * np.max(np.abs(expected))
        )

    def test_block_matches_brute_force_per_column(self):
        # the two-probe block of the noise estimator: one factorization for
        # both columns, and a degenerate index is rescored in both
        from lpc.datasets import LabeledDataset

        rhos, gamma = (RhoParams(0.2, 0.1), RhoParams(0.0, 0.4)), 1e-3
        base = _noisy_dataset(3, 12, seed=2)
        X = base.X.copy()
        X[:, 0] *= 1e6
        for ds in (base, LabeledDataset(X=X, y_noisy=base.y_noisy)):
            T = np.column_stack([_targets(ds.y_noisy, rho) for rho in rhos])
            if ds is base:
                block = _loo_block(ds.X, T, gamma)
            else:
                with pytest.warns(UserWarning, match="degenerate"):
                    block = _loo_block(ds.X, T, gamma)
            for k, rho in enumerate(rhos):
                expected = self._brute_force(ds, rho, gamma)
                np.testing.assert_allclose(
                    block[:, k], expected, rtol=0, atol=1e-8 * np.max(np.abs(expected))
                )

    def test_large_gamma_shrinks_scores(self):
        ds = _noisy_dataset(4, 20, seed=8)
        scores = loo_decisions(ds, RhoParams(), gamma=1e8)
        assert np.max(np.abs(scores)) < 1e-6

    def test_needs_two_samples(self):
        from lpc.datasets import LabeledDataset

        ds = LabeledDataset(X=np.ones((2, 1)), y_noisy=np.array([1]))
        with pytest.raises(ValueError, match="n >= 2"):
            loo_decisions(ds, RhoParams(), 1.0)


class TestBce:
    def test_gradient_matches_finite_differences_at_zero(self):
        ds = _noisy_dataset(6, 50, eps=(0.3, 0.2), seed=12)
        y01 = (ds.y_noisy == 1).astype(float)
        rho, gamma = RhoParams(0.25, 0.1), 0.01
        w0 = np.zeros(ds.p)
        _, grad = perturbed_bce_loss(w0, ds.X, y01, rho, gamma)
        num = np.empty(ds.p)
        h = 1e-6
        for j in range(ds.p):
            e = np.zeros(ds.p)
            e[j] = h
            vp, _ = perturbed_bce_loss(w0 + e, ds.X, y01, rho, gamma)
            vm, _ = perturbed_bce_loss(w0 - e, ds.X, y01, rho, gamma)
            num[j] = (vp - vm) / (2 * h)
        np.testing.assert_allclose(grad, num, rtol=1e-5)

    def test_separable_two_points(self):
        from lpc.datasets import LabeledDataset

        X = np.array([[-2.0, 2.0]])
        y = np.array([-1, 1])
        ds = LabeledDataset(X=X, y_noisy=y, y_clean=y)
        c = train_lpc_bce(ds, RhoParams(), learning_rate=0.5, iters=500)
        acc, _ = evaluate(c, X, y)
        assert acc == 1.0

    def test_deterministic(self):
        ds = _noisy_dataset(5, 40, seed=17)
        a = train_lpc_bce(ds, RhoParams(0.2, 0.0), 0.1, 50)
        b = train_lpc_bce(ds, RhoParams(0.2, 0.0), 0.1, 50)
        assert np.array_equal(a.w, b.w)

    def test_gradient_coefficients_in_the_sigmoid_tails(self):
        # Samples (label, logit) with w = e_0: row 0 of X holds the logits and
        # rows 1..4 are the identity, so grad[1:] * n is each sample's
        # coefficient dloss/dlogit exactly.  At rho = (0, 0) that is s for
        # label 0 and s - 1 for label 1, with s = sigmoid(logit).
        samples = [(0, -40.0), (0, 40.0), (1, -40.0), (1, 40.0)]
        n = len(samples)
        X = np.vstack([[t for _, t in samples], np.eye(n)])
        y01 = np.array([y for y, _ in samples], dtype=float)
        w = np.zeros(n + 1)
        w[0] = 1.0
        _, grad = perturbed_bce_loss(w, X, y01, RhoParams(), 0.01)
        sigmoid = [1.0 / (1.0 + math.exp(-t)) for _, t in samples]
        expected = [s - y for (y, _), s in zip(samples, sigmoid)]
        np.testing.assert_allclose(grad[1:] * n, expected, rtol=1e-15, atol=0)
        assert grad[1] > 0  # label 0 at logit -40: about 4.2e-18, not rounded to 0

    def test_halts_on_divergence(self):
        ds = _noisy_dataset(5, 40, seed=18)
        with pytest.warns(UserWarning, match="halted at step"):
            c = train_lpc_bce(ds, RhoParams(), learning_rate=1e12, iters=200)
        assert np.all(np.isfinite(c.w))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = _noisy_dataset(7, 30, seed=19)
        c = train_lpc(ds, RhoParams(0.3, -0.1), gamma=2.5)
        path = tmp_path / "clf.txt"
        save_classifier(c, path)
        back = load_classifier(path)
        np.testing.assert_array_equal(back.w, c.w)
        assert back.gamma == c.gamma
        assert back.rho == c.rho
        assert back.loss_kind == "squared"

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something-else\n1.0\n")
        with pytest.raises(ValueError, match="not a lpc-classifier"):
            load_classifier(path)
