from dataclasses import replace

import numpy as np
import pytest

from lpc.datasets import derive_seed
from lpc.multiclass import (
    _CHUNK_ROWS,
    AlphaBeta,
    MultiGmmSpec,
    _SeedEvaluator,
    build_label_matrix,
    generate_multi_gmm,
    multi_accuracy,
    search_alpha_beta,
    train_multi_lpc,
)

EPS3 = np.array([[0.0, 0.3, 0.0], [0.0, 0.0, 0.4], [0.5, 0.0, 0.0]])
PI3 = np.array([0.3, 0.3, 0.4])


def _spec3(n=600, p=20, seed=0):
    means = np.zeros((3, p))
    means[0, 0], means[2, 0] = -2.0, 2.0
    return MultiGmmSpec(k=3, p=p, n=n, means=means, pi=PI3, eps=EPS3, seed=seed)


class TestSpecValidation:
    def test_pi_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MultiGmmSpec(k=2, p=3, n=10, means=np.zeros((2, 3)),
                         pi=np.array([0.5, 0.6]), eps=np.zeros((2, 2)))

    def test_eps_diagonal_must_be_zero(self):
        eps = np.array([[0.1, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            MultiGmmSpec(k=2, p=3, n=10, means=np.zeros((2, 3)),
                         pi=np.array([0.5, 0.5]), eps=eps)

    def test_eps_column_mass_below_one(self):
        eps = np.array([[0.0, 0.6], [0.5, 0.0]])
        eps[0, 1] = 1.0
        with pytest.raises(ValueError, match="flip mass"):
            MultiGmmSpec(k=2, p=3, n=10, means=np.zeros((2, 3)),
                         pi=np.array([0.5, 0.5]), eps=eps)


class TestGenerate:
    def test_two_classes_reduce_to_binary_layout(self):
        means = np.zeros((2, 4))
        means[0, 0], means[1, 0] = -1.5, 1.5
        eps = np.array([[0.0, 0.2], [0.1, 0.0]])
        spec = MultiGmmSpec(k=2, p=4, n=1000, means=means,
                            pi=np.array([0.5, 0.5]), eps=eps, seed=3)
        ds = generate_multi_gmm(spec)
        assert set(np.unique(ds.y_clean)) == {1, 2}
        m1 = ds.X[0, ds.y_clean == 1].mean()
        m2 = ds.X[0, ds.y_clean == 2].mean()
        assert m1 < 0 < m2

    def test_no_flip_mass_keeps_labels(self):
        spec = MultiGmmSpec(k=3, p=5, n=200, means=np.zeros((3, 5)),
                            pi=PI3, eps=np.zeros((3, 3)), seed=1)
        ds = generate_multi_gmm(spec)
        assert np.array_equal(ds.y_noisy, ds.y_clean)

    def test_flip_fractions_match_matrix(self):
        spec = _spec3(n=20000, seed=5)
        ds = generate_multi_gmm(spec)
        for true_cls in range(1, 4):
            idx = ds.y_clean == true_cls
            n_cls = int(np.sum(idx))
            for noisy_cls in range(1, 4):
                if noisy_cls == true_cls:
                    continue
                rate = EPS3[noisy_cls - 1, true_cls - 1]
                count = int(np.sum(ds.y_noisy[idx] == noisy_cls))
                tol = 3.0 * np.sqrt(n_cls * max(rate, 0.01) * (1 - min(rate, 0.99)))
                assert abs(count - rate * n_cls) <= tol

    def test_deterministic(self):
        a = generate_multi_gmm(_spec3(seed=9))
        b = generate_multi_gmm(_spec3(seed=9))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y_noisy, b.y_noisy)


class TestLabelMatrix:
    def test_one_hot_at_naive_point(self):
        y = np.array([1, 3, 2, 1])
        Y = build_label_matrix(y, 3, AlphaBeta.naive(3))
        expected = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)
        np.testing.assert_array_equal(Y, expected)

    def test_constant_when_alpha_equals_beta(self):
        Y = build_label_matrix(np.array([1, 2]), 2,
                               AlphaBeta(alpha=np.full(2, 0.7), beta=np.full(2, 0.7)))
        np.testing.assert_array_equal(Y, np.full((2, 2), 0.7))

    def test_hand_built_example(self):
        y = np.array([1, 3, 2, 1])
        ab = AlphaBeta(alpha=np.array([2.0, 0.0, 1.0]), beta=np.array([0.0, 1.0, -1.0]))
        Y = build_label_matrix(y, 3, ab)
        expected = np.array([
            [2.0, 1.0, -1.0],
            [0.0, 1.0, 1.0],
            [0.0, 0.0, -1.0],
            [2.0, 1.0, -1.0],
        ])
        np.testing.assert_array_equal(Y, expected)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="out of range"):
            build_label_matrix(np.array([1, 4]), 3, AlphaBeta.naive(3))

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        y = rng.integers(1, 4, size=12)
        ab = AlphaBeta(alpha=rng.standard_normal(3), beta=rng.standard_normal(3))
        perm = rng.permutation(12)
        np.testing.assert_array_equal(
            build_label_matrix(y, 3, ab)[perm], build_label_matrix(y[perm], 3, ab)
        )


class TestTrainMulti:
    def test_zero_labels_zero_weights(self):
        X = np.random.default_rng(1).standard_normal((4, 10))
        W = train_multi_lpc(X, np.zeros((10, 3)), gamma=1.0)
        np.testing.assert_allclose(W, 0.0, atol=1e-14)

    def test_toy_matches_explicit_inverse(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((2, 4))
        Y = rng.standard_normal((4, 3))
        W = train_multi_lpc(X, Y, gamma=0.4)
        W_exact = np.linalg.inv(X @ X.T / 4 + 0.4 * np.eye(2)) @ (X @ Y / 4)
        np.testing.assert_allclose(W, W_exact, atol=1e-12)

    def test_column_residuals(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 200))
        Y = rng.standard_normal((200, 4))
        gamma = 0.7
        W = train_multi_lpc(X, Y, gamma)
        A = X @ X.T / 200 + gamma * np.eye(30)
        res = np.linalg.norm(A @ W - X @ Y / 200, axis=0)
        assert np.all(res <= 1e-8 * np.maximum(np.linalg.norm(W, axis=0), 1e-30))

    def test_binary_recoding(self):
        # one-hot two-class training: the column difference is the +-1 ridge
        ds = generate_multi_gmm(MultiGmmSpec(
            k=2, p=5, n=40,
            means=np.vstack([-np.ones(5), np.ones(5)]),
            pi=np.array([0.5, 0.5]),
            eps=np.array([[0.0, 0.1], [0.2, 0.0]]), seed=4))
        gamma = 0.9
        W = train_multi_lpc(ds.X, build_label_matrix(ds.y_noisy, 2, AlphaBeta.naive(2)), gamma)
        y_pm = np.where(ds.y_noisy == 2, 1.0, -1.0)
        w_binary = np.linalg.solve(
            ds.X @ ds.X.T / ds.X.shape[1] + gamma * np.eye(5),
            ds.X @ y_pm / ds.X.shape[1],
        )
        np.testing.assert_allclose(W[:, 1] - W[:, 0], w_binary, atol=1e-10)


class TestAccuracyAndSearch:
    def test_argmax_of_one_hot_scores(self):
        W = np.eye(3)
        X = np.eye(3)
        assert multi_accuracy(W, X, np.array([1, 2, 3])) == 1.0

    def test_zero_weights_predict_first_class(self):
        X = np.random.default_rng(5).standard_normal((3, 7))
        acc = multi_accuracy(np.zeros((3, 2)), X, np.ones(7, dtype=int))
        assert acc == 1.0  # everything ties to class 1

    def test_single_candidate(self):
        res = search_alpha_beta(_spec3(n=200, p=10), grid_size=1,
                                eval_seeds=[0], gamma=1.0, n_test=200, tau_points=3)
        np.testing.assert_array_equal(res.ab_best.alpha, res.ab_worst.alpha)
        assert res.tau_accuracy[-1].mean() == res.tau_accuracy[0].mean()

    def test_injected_naive_never_beats_best(self):
        res = search_alpha_beta(
            _spec3(n=300, p=10), grid_size=60, eval_seeds=[0, 1], gamma=1.0,
            n_test=300, tau_points=3, extra_candidates=[AlphaBeta.naive(3)],
        )
        assert res.tau_accuracy[-1].mean() >= res.naive_seed_accuracy.mean()

    def test_bit_identical_reruns(self):
        kwargs = dict(grid_size=40, eval_seeds=[0, 1], gamma=1.0,
                      n_test=250, tau_points=5, search_seed=7)
        a = search_alpha_beta(_spec3(n=250, p=8), **kwargs)
        b = search_alpha_beta(_spec3(n=250, p=8), **kwargs)
        np.testing.assert_array_equal(a.tau_accuracy, b.tau_accuracy)
        np.testing.assert_array_equal(a.ab_best.alpha, b.ab_best.alpha)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError, match="grid_size"):
            search_alpha_beta(_spec3(), grid_size=0, eval_seeds=[0], gamma=1.0)
        with pytest.raises(ValueError, match="eval_seeds"):
            search_alpha_beta(_spec3(), grid_size=1, eval_seeds=[], gamma=1.0)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(tau_points=0), "tau_points"),
        (dict(tau_points=1), "tau_points"),
        (dict(box=(2.0, -2.0)), "box"),
        (dict(box=(1.0, 1.0)), "box"),
        (dict(extra_candidates=[AlphaBeta.naive(3), AlphaBeta(alpha=[5.0], beta=[0.0])]),
         "length 1 does not match k=3"),
    ])
    def test_search_range_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            search_alpha_beta(_spec3(n=60, p=4), grid_size=2, eval_seeds=[0],
                              gamma=1.0, n_test=30, **kwargs)


def _scalar_accuracies(ev, A, B):
    """The per-candidate rule: argmax over classes, first maximum wins."""
    on = np.hstack([on_c for on_c, _ in ev.by_class])
    off = np.hstack([off_c for _, off_c in ev.by_class])
    y = np.concatenate([np.full(on_c.shape[1], c) for c, (on_c, _) in
                        enumerate(ev.by_class, start=1)])
    return np.array([
        np.mean(np.argmax(alpha[:, None] * on + beta[:, None] * off, axis=0) + 1 == y)
        for alpha, beta in zip(A, B)
    ])


class TestBlockScoring:
    def test_matches_scalar_rule_with_ties(self):
        ev = _SeedEvaluator(_spec3(n=300, p=10), gamma=1.0, seed=4, n_test=250)
        rng = np.random.default_rng(0)
        A, B = rng.uniform(-2, 2, (40, 3)), rng.uniform(-2, 2, (40, 3))
        A[0], B[0] = 0.0, 0.0  # every class ties at zero
        A[1], B[1] = 1.0, 1.0  # s_j = on_j + off_j: near-ties within rounding
        A[2:6] = 0.7  # equal alphas
        np.testing.assert_array_equal(ev.accuracies(A, B), _scalar_accuracies(ev, A, B))

    def test_exact_integer_ties(self):
        # small integer tables make most columns tie across classes
        rng = np.random.default_rng(1)
        ev = _SeedEvaluator.__new__(_SeedEvaluator)
        ev.by_class = [(rng.integers(-1, 2, (3, m)).astype(float),
                        rng.integers(-1, 2, (3, m)).astype(float)) for m in (7, 5, 9)]
        ev.m = 21
        A = rng.integers(-1, 2, (200, 3)).astype(float)
        B = rng.integers(-1, 2, (200, 3)).astype(float)
        np.testing.assert_array_equal(ev.accuracies(A, B), _scalar_accuracies(ev, A, B))

    def test_chunk_boundary(self):
        ev = _SeedEvaluator(_spec3(n=200, p=6), gamma=0.5, seed=2, n_test=120)
        rng = np.random.default_rng(3)
        A, B = rng.uniform(-2, 2, (2, _CHUNK_ROWS + 1, 3))
        row_by_row = np.concatenate([ev.accuracies(A[i:i + 1], B[i:i + 1])
                                     for i in range(len(A))])
        np.testing.assert_array_equal(ev.accuracies(A, B), row_by_row)

    def test_search_matches_public_api(self):
        spec, seeds, gamma, n_test = _spec3(n=300, p=10), [0, 1], 0.8, 250
        res = search_alpha_beta(spec, grid_size=50, eval_seeds=seeds, gamma=gamma,
                                n_test=n_test, tau_points=3, search_seed=5)

        def public(ab):
            accs = []
            for seed in seeds:
                train = generate_multi_gmm(replace(spec, seed=derive_seed(seed, 0)))
                test = generate_multi_gmm(replace(spec, n=n_test, seed=derive_seed(seed, 1)))
                W = train_multi_lpc(train.X, build_label_matrix(train.y_noisy, 3, ab), gamma)
                accs.append(multi_accuracy(W, test.X, test.y_clean))
            return np.mean(accs)

        for ab, acc in [(res.ab_best, res.tau_accuracy[-1].mean()),
                        (res.ab_worst, res.tau_accuracy[0].mean()),
                        (AlphaBeta.naive(3), res.naive_seed_accuracy.mean())]:
            assert abs(public(ab) - acc) <= 1.0 / n_test
