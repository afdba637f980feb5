import numpy as np
import pytest

from lpc.datasets import (
    GmmSpec,
    TrainingStats,
    derive_seed,
    flip_label_vector,
    generate_scores,
    generate_training_stats,
)
from lpc.multiclass import (
    _CHUNK_ROWS,
    AlphaBeta,
    MultiGmmSpec,
    _SeedEvaluator,
    build_label_matrix,
    flip_multi_labels,
    generate_multi_gmm,
    multi_accuracy,
    search_alpha_beta,
    train_multi_lpc,
)

EPS3 = np.array([[0.0, 0.3, 0.0], [0.0, 0.0, 0.4], [0.5, 0.0, 0.0]])
PI3 = np.array([0.3, 0.3, 0.4])


def _spec3(p=20):
    means = np.zeros((3, p))
    means[0, 0], means[2, 0] = -2.0, 2.0
    return MultiGmmSpec(means=means, pi=PI3, eps=EPS3)


class TestSpecValidation:
    def test_pi_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MultiGmmSpec(means=np.zeros((2, 3)), pi=np.array([0.5, 0.6]), eps=np.zeros((2, 2)))

    def test_eps_diagonal_must_be_zero(self):
        eps = np.array([[0.1, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            MultiGmmSpec(means=np.zeros((2, 3)), pi=np.array([0.5, 0.5]), eps=eps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_means_must_be_finite(self, bad):
        # a NaN mean drew non-finite features, refused only by the ridge solve
        means = np.zeros((3, 2))
        means[1, 0] = bad
        with pytest.raises(ValueError, match="means contains non-finite"):
            MultiGmmSpec(means=means, pi=PI3, eps=EPS3)

    def test_eps_column_mass_below_one(self):
        eps = np.array([[0.0, 0.6], [0.5, 0.0]])
        eps[0, 1] = 1.0
        with pytest.raises(ValueError, match="flip mass"):
            MultiGmmSpec(means=np.zeros((2, 3)), pi=np.array([0.5, 0.5]), eps=eps)


class TestGenerate:
    def test_two_classes_reduce_to_binary_layout(self):
        means = np.zeros((2, 4))
        means[0, 0], means[1, 0] = -1.5, 1.5
        eps = np.array([[0.0, 0.2], [0.1, 0.0]])
        spec = MultiGmmSpec(means=means, pi=np.array([0.5, 0.5]), eps=eps)
        ds = generate_multi_gmm(spec, 1000, 3)
        assert set(np.unique(ds.y_clean)) == {1, 2}
        m1 = ds.X[0, ds.y_clean == 1].mean()
        m2 = ds.X[0, ds.y_clean == 2].mean()
        assert m1 < 0 < m2

    def test_no_flip_mass_keeps_labels(self):
        spec = MultiGmmSpec(means=np.zeros((3, 5)), pi=PI3, eps=np.zeros((3, 3)))
        ds = generate_multi_gmm(spec, 200, 1)
        assert np.array_equal(ds.y_noisy, ds.y_clean)

    def test_deterministic(self):
        a = generate_multi_gmm(_spec3(), 600, 9)
        b = generate_multi_gmm(_spec3(), 600, 9)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y_noisy, b.y_noisy)

    def test_flip_fractions_match_matrix(self):
        ds = generate_multi_gmm(_spec3(), 20000, 5)
        _check_flip_fractions(ds.y_clean, ds.y_noisy)

    def test_flip_multi_labels_fractions_match_matrix(self):
        y_clean = _spec3().labels(20000)
        _check_flip_fractions(y_clean, flip_multi_labels(_spec3(), y_clean, 5))

    @pytest.mark.parametrize("y_clean", [[1, 4, 2], [0, 1, 2], [[1, 2], [3, 1]]],
                             ids=["above", "below", "matrix"])
    def test_flip_multi_labels_rejects_bad_labels(self, y_clean):
        with pytest.raises(ValueError, match="labels in 1..3"):
            flip_multi_labels(_spec3(), np.array(y_clean), 0)

    def test_two_classes_draw_as_the_binary_model(self):
        # means (-mu, +mu): the same noisy labels, training statistics and test
        # scores, bit for bit, as the binary spec at the same seeds (class 1
        # is label -1, class 2 label +1)
        mu = np.linspace(-0.7, 1.1, 7)
        binary = GmmSpec(pi1=0.4, mu=mu)
        multi = MultiGmmSpec(means=np.stack([-mu, mu]), pi=[0.4, 0.6],
                             eps=np.array([[0.0, 0.3], [0.2, 0.0]]))
        n, W = 50, np.random.default_rng(1).standard_normal((7, 3))
        for seed in range(3):
            y_b = flip_label_vector(binary.labels(n), 0.3, 0.2, derive_seed(seed, 1))
            y_m = flip_multi_labels(multi, multi.labels(n), derive_seed(seed, 1))
            assert np.array_equal(y_m, np.where(y_b > 0, 2, 1))
            st_b = generate_training_stats(binary, [binary.labels(n), y_b], derive_seed(seed, 0))
            st_m = generate_training_stats(multi, [multi.labels(n), y_m], derive_seed(seed, 0))
            for name in ("gram", "xu", "group"):
                assert np.array_equal(getattr(st_m, name), getattr(st_b, name)), name
            S_b, t_b = generate_scores(binary, W, n, derive_seed(seed, 2))
            S_m, t_m = generate_scores(multi, W, n, derive_seed(seed, 2))
            assert np.array_equal(S_m, S_b)
            assert np.array_equal(t_m, np.where(t_b > 0, 2, 1))


def _check_flip_fractions(y_clean, y_noisy):
    """Each off-diagonal flip count of ``_spec3`` is within 3 standard
    deviations of its ``EPS3`` rate."""
    for true_cls in range(1, 4):
        idx = y_clean == true_cls
        n_cls = int(np.sum(idx))
        for noisy_cls in range(1, 4):
            if noisy_cls == true_cls:
                continue
            rate = EPS3[noisy_cls - 1, true_cls - 1]
            count = int(np.sum(y_noisy[idx] == noisy_cls))
            tol = 3.0 * np.sqrt(n_cls * max(rate, 0.01) * (1 - min(rate, 0.99)))
            assert abs(count - rate * n_cls) <= tol


class TestLabelMatrix:
    def test_one_hot_at_naive_point(self):
        y = np.array([1, 3, 2, 1])
        Y = build_label_matrix(y, AlphaBeta.naive(3))
        expected = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)
        np.testing.assert_array_equal(Y, expected)

    def test_constant_when_alpha_equals_beta(self):
        Y = build_label_matrix(np.array([1, 2]),
                               AlphaBeta(alpha=np.full(2, 0.7), beta=np.full(2, 0.7)))
        np.testing.assert_array_equal(Y, np.full((2, 2), 0.7))

    def test_hand_built_example(self):
        y = np.array([1, 3, 2, 1])
        ab = AlphaBeta(alpha=np.array([2.0, 0.0, 1.0]), beta=np.array([0.0, 1.0, -1.0]))
        Y = build_label_matrix(y, ab)
        expected = np.array([
            [2.0, 1.0, -1.0],
            [0.0, 1.0, 1.0],
            [0.0, 0.0, -1.0],
            [2.0, 1.0, -1.0],
        ])
        np.testing.assert_array_equal(Y, expected)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="out of range"):
            build_label_matrix(np.array([1, 4]), AlphaBeta.naive(3))

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        y = rng.integers(1, 4, size=12)
        ab = AlphaBeta(alpha=rng.standard_normal(3), beta=rng.standard_normal(3))
        perm = rng.permutation(12)
        np.testing.assert_array_equal(
            build_label_matrix(y, ab)[perm], build_label_matrix(y[perm], ab)
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

    def test_statistics_match_features(self):
        # statistics formed from one feature draw train any label matrix built
        # from its noisy labels to the features' weights
        spec, n, gamma = _spec3(p=12), 90, 0.6
        ds = generate_multi_gmm(spec, n, 2)
        group = generate_training_stats(spec, [ds.y_clean, ds.y_noisy], 0).group
        sizes = np.bincount(group)
        U = np.zeros((n, sizes.size))
        U[np.arange(n), group] = 1.0 / np.sqrt(sizes[group])
        stats = TrainingStats(gram=ds.X @ ds.X.T, xu=ds.X @ U, group=group)
        ab = AlphaBeta(alpha=np.array([1.5, -0.2, 0.7]), beta=np.array([0.3, -1.0, 0.0]))
        Y = build_label_matrix(ds.y_noisy, ab)
        W = train_multi_lpc(ds.X, Y, gamma)
        assert np.linalg.norm(train_multi_lpc(stats, Y, gamma) - W) <= 1e-12 * np.linalg.norm(W)
        with pytest.raises(ValueError, match="targets must have 90 rows"):
            train_multi_lpc(stats, Y[1:], gamma)

    def test_binary_recoding(self):
        # one-hot two-class training: the column difference is the +-1 ridge
        ds = generate_multi_gmm(MultiGmmSpec(
            means=np.vstack([-np.ones(5), np.ones(5)]),
            pi=np.array([0.5, 0.5]),
            eps=np.array([[0.0, 0.1], [0.2, 0.0]])), 40, 4)
        gamma = 0.9
        W = train_multi_lpc(ds.X, build_label_matrix(ds.y_noisy, AlphaBeta.naive(2)), gamma)
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
        res = search_alpha_beta(_spec3(p=10), 200, grid_size=1,
                                eval_seeds=[0], gamma=1.0, n_test=200, tau_points=3)
        np.testing.assert_array_equal(res.ab_best.alpha, res.ab_worst.alpha)
        assert res.tau_accuracy[-1].mean() == res.tau_accuracy[0].mean()

    def test_bit_identical_reruns(self):
        kwargs = dict(grid_size=40, eval_seeds=[0, 1], gamma=1.0,
                      n_test=250, tau_points=5, search_seed=7)
        a = search_alpha_beta(_spec3(p=8), 250, **kwargs)
        b = search_alpha_beta(_spec3(p=8), 250, **kwargs)
        np.testing.assert_array_equal(a.tau_accuracy, b.tau_accuracy)
        np.testing.assert_array_equal(a.ab_best.alpha, b.ab_best.alpha)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError, match="grid_size"):
            search_alpha_beta(_spec3(), 600, grid_size=0, eval_seeds=[0], gamma=1.0)
        with pytest.raises(ValueError, match="eval_seeds"):
            search_alpha_beta(_spec3(), 600, grid_size=1, eval_seeds=[], gamma=1.0)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(tau_points=0), "tau_points"),
        (dict(tau_points=1), "tau_points"),
    ])
    def test_search_range_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            search_alpha_beta(_spec3(p=4), 60, grid_size=2, eval_seeds=[0],
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
        ev = _SeedEvaluator(_spec3(p=10), 300, gamma=1.0, seed=4, n_test=250)
        rng = np.random.default_rng(0)
        A, B = rng.uniform(-2, 2, (40, 3)), rng.uniform(-2, 2, (40, 3))
        A[0], B[0] = 0.0, 0.0  # every class ties at zero
        A[1], B[1] = 1.0, 1.0  # s_j = on_j + off_j: near-ties within rounding
        A[2:6] = 0.7  # equal alphas
        np.testing.assert_array_equal(ev.accuracies(A, B), _scalar_accuracies(ev, A, B))

    @pytest.mark.parametrize("k", [2, 4])
    def test_matches_scalar_rule_at_other_class_counts(self, k):
        # the filter's threshold grows with k
        means = np.zeros((k, 8))
        means[:, 0] = np.linspace(-2.0, 2.0, k)
        eps = np.full((k, k), 0.1)
        np.fill_diagonal(eps, 0.0)
        ev = _SeedEvaluator(MultiGmmSpec(means=means, pi=np.full(k, 1.0 / k), eps=eps),
                            200, gamma=1.0, seed=k, n_test=240)
        A, B = np.random.default_rng(k).uniform(-2, 2, (2, 60, k))
        A[0], B[0] = 0.0, 0.0
        A[1], B[1] = 1.0, 1.0
        A[2:6, 1:] = A[2:6, :1]  # equal alphas
        np.testing.assert_array_equal(ev.accuracies(A, B), _scalar_accuracies(ev, A, B))

    @pytest.mark.parametrize("power", [0, -500, 500])
    def test_rounding_level_margins_at_any_scale(self, power):
        # each candidate has its own columns where its two classes' scores agree
        # up to rounding, so the product's sign alone gets some of them wrong.
        # Row 1 is the A = B = 1 near-tie and row 0 becomes the zero candidate.
        # Scaling (A, B) by 2**power and the score tables by 2**-power moves no
        # count: the threshold is relative to each coefficient row and each
        # test column, with no absolute floor
        rng = np.random.default_rng(1)
        k, rows, per = 2, 20, 10
        A, B = rng.uniform(0.5, 2, (2, rows, k))
        A[1], B[1] = 1.0, 1.0
        a, b = np.repeat(A, per, axis=0).T, np.repeat(B, per, axis=0).T  # k x columns
        tables = []
        for c, j in [(0, 1), (1, 0)]:
            on, off = rng.uniform(-1, 1, (2, k, rows * per))
            on[j] = (a[c] * on[c] + b[c] * off[c] - b[j] * off[j]) / a[j]
            tables.append((on, off))
        A[0], B[0] = 0.0, 0.0
        ev, scaled = _SeedEvaluator.__new__(_SeedEvaluator), _SeedEvaluator.__new__(_SeedEvaluator)
        ev.by_class, ev.m = tables, k * rows * per
        scaled.by_class = [(on * 2.0 ** -power, off * 2.0 ** -power) for on, off in tables]
        scaled.m = ev.m
        np.testing.assert_array_equal(scaled.accuracies(A * 2.0 ** power, B * 2.0 ** power),
                                      _scalar_accuracies(ev, A, B))

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
        ev = _SeedEvaluator(_spec3(p=6), 200, gamma=0.5, seed=2, n_test=120)
        rng = np.random.default_rng(3)
        A, B = rng.uniform(-2, 2, (2, _CHUNK_ROWS + 1, 3))
        row_by_row = np.concatenate([ev.accuracies(A[i:i + 1], B[i:i + 1])
                                     for i in range(len(A))])
        np.testing.assert_array_equal(ev.accuracies(A, B), row_by_row)

    def test_search_matches_public_api(self):
        spec, n, seeds, gamma, n_test = _spec3(p=10), 300, [0, 1], 0.8, 250
        res = search_alpha_beta(spec, n, grid_size=50, eval_seeds=seeds, gamma=gamma,
                                n_test=n_test, tau_points=3, search_seed=5)

        def public(ab):
            # seed s flips from stream 1, trains from stream 0 and tests from
            # stream 2, whose scores are drawn under the one-hot and all-ones
            # weights; a candidate's label matrix is onehot diag(alpha - beta)
            # + ones beta', so its weights are W M and its scores M.T S
            M = np.vstack([np.diag(ab.alpha - ab.beta), ab.beta])
            accs = []
            for seed in seeds:
                y_clean = spec.labels(n)
                y_noisy = flip_multi_labels(spec, y_clean, derive_seed(seed, 1))
                stats = generate_training_stats(spec, [y_clean, y_noisy], derive_seed(seed, 0))
                onehot = build_label_matrix(y_noisy, AlphaBeta.naive(3))
                W = train_multi_lpc(stats, np.column_stack([onehot, np.ones(n)]), gamma)
                W_ab = train_multi_lpc(stats, build_label_matrix(y_noisy, ab), gamma)
                assert np.linalg.norm(W @ M - W_ab) <= 1e-12 * np.linalg.norm(W_ab)
                S, y = generate_scores(spec, W, n_test, derive_seed(seed, 2))
                accs.append(multi_accuracy(M, S, y))
            return np.mean(accs)

        for ab, acc in [(res.ab_best, res.tau_accuracy[-1].mean()),
                        (res.ab_worst, res.tau_accuracy[0].mean()),
                        (AlphaBeta.naive(3), res.naive_seed_accuracy.mean())]:
            assert abs(public(ab) - acc) <= 1.0 / n_test
