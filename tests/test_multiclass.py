import inspect
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from lpc import multiclass
from lpc.core import RhoParams, train_lpc
from lpc.datasets import (
    GmmSpec,
    TrainingStats,
    _rng,
    derive_seed,
    flip_label_vector,
    generate_gmm,
    generate_scores,
    generate_training_stats,
)
from lpc.experiments import (
    ConfigError,
    ExperimentConfig,
    parse_config_file,
    parse_config_text,
    run_experiment,
)
from lpc.experiments import runner
from lpc.multiclass import (
    _CHUNK_ROWS,
    AlphaBeta,
    _conditional_accuracies,
    _rule_accuracies,
    _SeedEvaluator,
    build_label_matrix,
    flip_multi_labels,
    multi_accuracy,
    search_alpha_beta,
    train_multi_lpc,
)
from lpc.theory import gaussian_upper_tail

EPS3 = np.array([[0.0, 0.3, 0.0], [0.0, 0.0, 0.4], [0.5, 0.0, 0.0]])
PI3 = np.array([0.3, 0.3, 0.4])


def _spec3(p=20):
    means = np.zeros((3, p))
    means[0, 0], means[2, 0] = -2.0, 2.0
    return GmmSpec(means=means, pi=PI3)


class TestSpecValidation:
    # the spec is lpc.datasets.GmmSpec; the flip matrix is flip_multi_labels'
    # argument, checked there
    def test_pi_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GmmSpec(means=np.zeros((2, 3)), pi=np.array([0.5, 0.6]))

    def test_eps_diagonal_must_be_zero(self):
        eps = np.array([[0.1, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            flip_multi_labels(eps, np.array([-1, 1]), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_means_must_be_finite(self, bad):
        # a NaN mean drew non-finite features, refused only by the ridge solve
        means = np.zeros((3, 2))
        means[1, 0] = bad
        with pytest.raises(ValueError, match="means contains non-finite"):
            GmmSpec(means=means, pi=PI3)

    def test_eps_entries_nonnegative(self):
        with pytest.raises(ValueError, match="eps entries must be >= 0"):
            flip_multi_labels([[0.0, -0.1], [0.1, 0.0]], np.array([-1, 1]), 0)

    def test_empty_class_rejected(self):
        # n = 2 at pi = (0.3, 0.3, 0.4) rounds to sizes (1, 1), leaving none
        # for the last class
        assert _spec3().class_sizes(10).tolist() == [3, 3, 4]
        with pytest.raises(ValueError, match=r"class sizes \(?\[?1,? 1,? 0"):
            _spec3().class_sizes(2)

    def test_eps_column_mass_below_one(self):
        eps = np.array([[0.0, 0.6], [0.5, 0.0]])
        eps[0, 1] = 1.0
        with pytest.raises(ValueError, match="flip mass"):
            flip_multi_labels(eps, np.array([-1, 1]), 0)


def _noisy_draw(spec, eps, n, seed):
    """A noisy k-class draw: generate_gmm's features and clean labels from
    stream 0, the labels flipped by ``eps`` from stream 1."""
    ds = generate_gmm(spec, n, derive_seed(seed, 0))
    return ds, flip_multi_labels(eps, ds.y_clean, derive_seed(seed, 1))


class TestGenerate:
    def test_two_classes_reduce_to_binary_layout(self):
        # a two-class draw is labelled -1 (class 1) and +1 (class 2)
        means = np.zeros((2, 4))
        means[0, 0], means[1, 0] = -1.5, 1.5
        eps = np.array([[0.0, 0.2], [0.1, 0.0]])
        spec = GmmSpec(means=means, pi=np.array([0.5, 0.5]))
        ds, y_noisy = _noisy_draw(spec, eps, 1000, 3)
        assert set(np.unique(ds.y_clean)) == set(np.unique(y_noisy)) == {-1, 1}
        m1 = ds.X[0, ds.y_clean == -1].mean()
        m2 = ds.X[0, ds.y_clean == 1].mean()
        assert m1 < 0 < m2

    def test_no_flip_mass_keeps_labels(self):
        spec = GmmSpec(means=np.zeros((3, 5)), pi=PI3)
        ds, y_noisy = _noisy_draw(spec, np.zeros((3, 3)), 200, 1)
        assert np.array_equal(y_noisy, ds.y_clean)

    def test_deterministic(self):
        a, ya = _noisy_draw(_spec3(), EPS3, 600, 9)
        b, yb = _noisy_draw(_spec3(), EPS3, 600, 9)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(ya, yb)

    def test_flip_fractions_match_matrix(self):
        ds, y_noisy = _noisy_draw(_spec3(), EPS3, 20000, 5)
        _check_flip_fractions(ds.y_clean, y_noisy)

    def test_flip_multi_labels_fractions_match_matrix(self):
        y_clean = _spec3().labels(20000)
        _check_flip_fractions(y_clean, flip_multi_labels(EPS3, y_clean, 5))

    @pytest.mark.parametrize("y_clean", [[1, 4, 2], [0, 1, 2], [[1, 2], [3, 1]]],
                             ids=["above", "below", "matrix"])
    def test_flip_multi_labels_rejects_bad_labels(self, y_clean):
        with pytest.raises(ValueError, match="labels in 1..3"):
            flip_multi_labels(EPS3, np.array(y_clean), 0)

    def test_flip_multi_labels_accepts_float_labels(self):
        # float labels raised IndexError (they index the flip edges), while
        # the binary flip_label_vector accepts float +-1 labels
        y_clean = _spec3().labels(500)
        flipped = flip_multi_labels(EPS3, y_clean.astype(float), 7)
        np.testing.assert_array_equal(flipped, flip_multi_labels(EPS3, y_clean, 7))
        assert flipped.dtype == np.int64

    def test_two_classes_draw_as_the_binary_model(self):
        # means (-mu, +mu): the same noisy labels, training statistics and test
        # scores, bit for bit, as the binary spec at the same seeds, with the
        # flip matrix [[0, eps_plus], [eps_minus, 0]]
        mu = np.linspace(-0.7, 1.1, 7)
        binary = GmmSpec.binary(0.4, mu)
        multi = GmmSpec(means=np.stack([-mu, mu]), pi=[0.4, 0.6])
        eps = np.array([[0.0, 0.3], [0.2, 0.0]])
        n, W = 50, np.random.default_rng(1).standard_normal((7, 3))
        for seed in range(3):
            y_b = flip_label_vector(binary.labels(n), 0.3, 0.2, derive_seed(seed, 1))
            y_m = flip_multi_labels(eps, multi.labels(n), derive_seed(seed, 1))
            assert np.array_equal(y_m, y_b)
            st_b = generate_training_stats(binary, [binary.labels(n), y_b], derive_seed(seed, 0))
            st_m = generate_training_stats(multi, [multi.labels(n), y_m], derive_seed(seed, 0))
            for name in ("gram", "xu", "group"):
                assert np.array_equal(getattr(st_m, name), getattr(st_b, name)), name
            S_b, t_b = generate_scores(binary, W, n, derive_seed(seed, 2))
            S_m, t_m = generate_scores(multi, W, n, derive_seed(seed, 2))
            assert np.array_equal(S_m, S_b)
            assert np.array_equal(t_m, t_b)


def _recording(calls):
    """generate_training_stats, keeping each draw in ``calls``."""
    def record(*args):
        calls.append(generate_training_stats(*args))
        return calls[-1]
    return record


class TestTwoClassConfigIsTheBinaryModel:
    """A k = 2 multiclass config's symmetric spec is the binary spec, and its
    seeds make the binary harness's draws."""

    MULTI = ("schema_version = 1\nexperiment = multiclass\nn = 300\np = 20\nn_test = 200\n"
             "means = -2,2\npis = 0.4,0.6\neps_rows = 0,0.3; 0.2,0\ngamma = 0.8\n"
             "grid_size = 5\nseeds = 4,5\n")
    BINARY = ("schema_version = 1\nexperiment = histogram\nn = 300\np = 20\nn_test = 200\n"
              "pi1 = 0.4\nsnr = 2\neps_plus = 0.3\neps_minus = 0.2\ngamma = 0.8\n"
              "variants = naive\nseeds = 4,5\n")

    def test_spec_and_flips(self):
        cfg = parse_config_text(self.MULTI)
        binary = GmmSpec.isotropic(cfg.p, 0.4, 2.0)
        assert np.array_equal(cfg.model.means, binary.means)
        assert np.array_equal(cfg.model.pi, binary.pi) and cfg.model.cov is None
        assert (cfg.model.pi1, cfg.model.mu.tolist()) == (0.4, binary.mu.tolist())
        y = binary.labels(1001)
        for (ep, em), seed in [((0.3, 0.2), 0), ((0.0, 0.45), 1), ((0.6, 0.35), 2)]:
            np.testing.assert_array_equal(flip_multi_labels([[0, ep], [em, 0]], y, seed),
                                          flip_label_vector(y, ep, em, seed))

    def test_training_draw_and_weights(self, monkeypatch):
        # _SeedEvaluator's training draw is _run_paired's bit for bit; the
        # weights differ by rounding only, as the two target matrices differ
        drawn = {runner: [], multiclass: []}
        for module, calls in drawn.items():
            monkeypatch.setattr(module, "generate_training_stats", _recording(calls))
        cfg = parse_config_text(self.MULTI)
        run_experiment(parse_config_text(self.BINARY))
        for seed in cfg.seeds:
            _SeedEvaluator(cfg.model, cfg.eps_rows, cfg.n, cfg.gamma, seed, cfg.n_test)
        assert len(drawn[runner]) == len(cfg.seeds) == len(drawn[multiclass])
        rng = np.random.default_rng(7)
        for seed, paired, stats in zip(cfg.seeds, drawn[runner], drawn[multiclass]):
            for name in ("gram", "xu", "group"):
                assert np.array_equal(getattr(stats, name), getattr(paired, name)), name
            assert all(np.array_equal(a, b) for a, b in zip(stats.frame, paired.frame))
            y_noisy = flip_multi_labels(cfg.eps_rows, cfg.model.labels(cfg.n),
                                        derive_seed(seed, 1))
            for _ in range(3):
                ab = AlphaBeta(alpha=rng.uniform(1.0, 2.0, 2), beta=rng.uniform(-0.5, 0.5, 2))
                W = train_multi_lpc(stats, build_label_matrix(y_noisy, ab), cfg.gamma)
                lam_plus, lam_minus = ab.alpha[1] - ab.beta[0], ab.alpha[0] - ab.beta[1]
                s = 1 - 2 / (lam_plus + lam_minus)
                g = (lam_plus - lam_minus) / (lam_plus + lam_minus)
                w = train_lpc(stats, RhoParams((s + g) / 2, (s - g) / 2), cfg.gamma,
                              labels=y_noisy).w
                np.testing.assert_allclose(W[:, 1] - W[:, 0], w, rtol=1e-10)


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
        Y = build_label_matrix(np.array([-1, 1]),  # k = 2: labels -1, +1
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


class TestAlphaBeta:
    @pytest.mark.parametrize("alpha, beta, match", [
        ([1.0, 2.0], [0.0], "equal length"),
        ([[1.0, 2.0]], [[0.0, 0.0]], "1-d arrays"),
        ([1.0, np.nan], [0.0, 0.0], "finite"),
        ([1.0, 1.0], [np.inf, 0.0], "finite"),
    ], ids=["lengths", "two_d", "nan_alpha", "inf_beta"])
    def test_invalid_pairs_rejected(self, alpha, beta, match):
        with pytest.raises(ValueError, match=match):
            AlphaBeta(alpha=alpha, beta=beta)


class TestTrainMulti:
    def test_label_matrix_rows_must_match_n(self):
        with pytest.raises(ValueError, match=r"label matrix rows \(4\) must match n=5"):
            train_multi_lpc(np.ones((3, 5)), np.ones((4, 2)), 1.0)

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
        ds, y_noisy = _noisy_draw(spec, EPS3, n, 2)
        group = generate_training_stats(spec, [ds.y_clean, y_noisy], 0).group
        sizes = np.bincount(group)
        U = np.zeros((n, sizes.size))
        U[np.arange(n), group] = 1.0 / np.sqrt(sizes[group])
        stats = TrainingStats(gram=ds.X @ ds.X.T, xu=ds.X @ U, group=group)
        ab = AlphaBeta(alpha=np.array([1.5, -0.2, 0.7]), beta=np.array([0.3, -1.0, 0.0]))
        Y = build_label_matrix(y_noisy, ab)
        W = train_multi_lpc(ds.X, Y, gamma)
        assert np.linalg.norm(train_multi_lpc(stats, Y, gamma) - W) <= 1e-12 * np.linalg.norm(W)
        with pytest.raises(ValueError, match="targets must have 90 rows"):
            train_multi_lpc(stats, Y[1:], gamma)

    def test_binary_recoding(self):
        # one-hot two-class training: the column difference is the +-1 ridge
        ds, y_noisy = _noisy_draw(
            GmmSpec(means=np.vstack([-np.ones(5), np.ones(5)]), pi=np.array([0.5, 0.5])),
            np.array([[0.0, 0.1], [0.2, 0.0]]), 40, 4)
        gamma = 0.9
        W = train_multi_lpc(ds.X, build_label_matrix(y_noisy, AlphaBeta.naive(2)), gamma)
        y_pm = y_noisy.astype(float)
        w_binary = np.linalg.solve(
            ds.X @ ds.X.T / ds.X.shape[1] + gamma * np.eye(5),
            ds.X @ y_pm / ds.X.shape[1],
        )
        np.testing.assert_allclose(W[:, 1] - W[:, 0], w_binary, atol=1e-10)

    def test_two_classes_reduce_to_the_binary_lpc(self):
        # at k = 2 the column difference trains on +lambda_plus = alpha_2 - beta_1
        # for label +1 and -lambda_minus = beta_2 - alpha_1 for label -1: the
        # binary LPC at the rho whose label weights these are
        means = np.zeros((2, 200))
        means[0, 0], means[1, 0] = -1.0, 1.0
        spec = GmmSpec(means=means, pi=[0.4, 0.6])
        y_clean = spec.labels(1000)
        y_noisy = flip_multi_labels([[0.0, 0.2], [0.3, 0.0]], y_clean, 1)
        stats = generate_training_stats(spec, [y_clean, y_noisy], 0)
        rng = np.random.default_rng(7)
        for _ in range(5):
            ab = AlphaBeta(alpha=rng.uniform(1.0, 2.0, 2), beta=rng.uniform(-0.5, 0.5, 2))
            W = train_multi_lpc(stats, build_label_matrix(y_noisy, ab), 1.0)
            lam_plus, lam_minus = ab.alpha[1] - ab.beta[0], ab.alpha[0] - ab.beta[1]
            beta = (lam_plus + lam_minus) / 2
            g = (lam_plus - lam_minus) / (lam_plus + lam_minus)
            s = 1 - 1 / beta
            rho = RhoParams((s + g) / 2, (s - g) / 2)
            np.testing.assert_allclose((rho.lambda_plus, rho.lambda_minus),
                                       (lam_plus, lam_minus), rtol=1e-12)
            w = train_lpc(stats, rho, 1.0, labels=y_noisy).w
            np.testing.assert_allclose(W[:, 1] - W[:, 0], w, rtol=1e-10)


class TestAccuracyAndSearch:
    def test_argmax_of_one_hot_scores(self):
        W = np.eye(3)
        X = np.eye(3)
        assert multi_accuracy(W, X, np.array([1, 2, 3])) == 1.0

    def test_zero_weights_predict_first_class(self):
        X = np.random.default_rng(5).standard_normal((3, 7))
        acc = multi_accuracy(np.zeros((3, 2)), X, -np.ones(7, dtype=int))
        assert acc == 1.0  # everything ties to class 1, label -1 at k = 2

    def test_single_candidate(self):
        res = search_alpha_beta(_spec3(p=10), EPS3, 200, grid_size=1,
                                eval_seeds=[0], gamma=1.0, n_test=200, tau_points=3)
        np.testing.assert_array_equal(res.ab_best.alpha, res.ab_worst.alpha)
        assert res.tau_accuracy[-1].mean() == res.tau_accuracy[0].mean()

    def test_bit_identical_reruns(self):
        kwargs = dict(grid_size=40, eval_seeds=[0, 1], gamma=1.0,
                      n_test=250, tau_points=5, search_seed=7)
        a = search_alpha_beta(_spec3(p=8), EPS3, 250, **kwargs)
        b = search_alpha_beta(_spec3(p=8), EPS3, 250, **kwargs)
        np.testing.assert_array_equal(a.tau_accuracy, b.tau_accuracy)
        np.testing.assert_array_equal(a.ab_best.alpha, b.ab_best.alpha)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError, match="grid_size"):
            search_alpha_beta(_spec3(), EPS3, 600, grid_size=0, eval_seeds=[0], gamma=1.0)
        with pytest.raises(ValueError, match="eval_seeds"):
            search_alpha_beta(_spec3(), EPS3, 600, grid_size=1, eval_seeds=[], gamma=1.0)

    def test_n_test_default_is_the_configs(self):
        # one omitted n_test gives one test-set size, in the library and the config
        default = inspect.signature(search_alpha_beta).parameters["n_test"].default
        assert default == ExperimentConfig.n_test

    @pytest.mark.parametrize("seeds", [np.array([0]), np.arange(2)], ids=["one", "arange"])
    def test_eval_seeds_may_be_an_array(self, seeds):
        # a one-seed array was refused as empty, and a longer one raised
        # numpy's truth-value error
        kwargs = dict(grid_size=20, gamma=1.0, n_test=60, tau_points=3, search_seed=2)
        a = search_alpha_beta(_spec3(p=4), EPS3, 60, eval_seeds=seeds, **kwargs)
        b = search_alpha_beta(_spec3(p=4), EPS3, 60, eval_seeds=[int(s) for s in seeds],
                              **kwargs)
        np.testing.assert_array_equal(a.candidate_accuracy, b.candidate_accuracy)
        np.testing.assert_array_equal(a.tau_accuracy, b.tau_accuracy)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(tau_points=0), "tau_points"),
        (dict(tau_points=1), "tau_points"),
        (dict(search_seed=-3), "search_seed"),
    ])
    def test_search_range_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            search_alpha_beta(_spec3(p=4), EPS3, 60, grid_size=2, eval_seeds=[0],
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


def _tail(evaluators, A, B):
    """The sampled accuracies of the tau path's rule, rows ``A | B``."""
    return _rule_accuracies(evaluators, np.hstack([A, B]))


def _tables_evaluator(by_class):
    """An evaluator of the given per-class ``(on, off)`` tables."""
    ev = _SeedEvaluator.__new__(_SeedEvaluator)
    ev.by_class, ev.m = by_class, sum(on.shape[1] for on, _ in by_class)
    return ev


def _near_tie_tables(rng, A, B, per):
    """k = 2 tables on which candidate row i's two class scores agree up to
    rounding on its own ``per`` test columns of either true class."""
    a, b = np.repeat(A, per, axis=0).T, np.repeat(B, per, axis=0).T  # k x columns
    tables = []
    for c, j in [(0, 1), (1, 0)]:
        on, off = rng.uniform(-1, 1, (2, 2, a.shape[1]))
        on[j] = (a[c] * on[c] + b[c] * off[c] - b[j] * off[j]) / a[j]
        tables.append((on, off))
    return tables


def _draw_weights(spec, eps, n, gamma, seed):
    """Seed ``seed``'s one-hot and all-ones weights, drawn through the public
    API as :class:`_SeedEvaluator` draws them."""
    y_clean = spec.labels(n)
    y_noisy = flip_multi_labels(eps, y_clean, derive_seed(seed, 1))
    stats = generate_training_stats(spec, [y_clean, y_noisy], derive_seed(seed, 0))
    onehot = build_label_matrix(y_noisy, AlphaBeta.naive(spec.k))
    return train_multi_lpc(stats, np.column_stack([onehot, np.ones(n)]), gamma)


def _scipy_accuracy(spec, W, n_test, alpha, beta):
    """A candidate's accuracy given the weights ``W``, by scipy: class c's
    margins ``s_c - s_j`` are ``N(V W^T m_c, V W^T W V^T)`` for the rows
    ``V`` of ``e_c - e_j`` times the candidate's score map, and a hit is
    every margin positive."""
    from scipy.stats import multivariate_normal, norm

    D = np.hstack([np.diag(alpha - beta), beta[:, None]])  # k x (k + 1)
    acc = 0.0
    for c, size in enumerate(spec.class_sizes(n_test)):
        V = np.array([np.eye(spec.k)[c] - np.eye(spec.k)[j] for j in range(spec.k)
                      if j != c]) @ D
        mu, cov = V @ W.T @ spec.means[c], V @ W.T @ W @ V.T
        p = (norm.sf(-mu[0] / math.sqrt(cov[0, 0])) if spec.k == 2 else
             multivariate_normal(mean=-mu, cov=cov).cdf(np.zeros(2)))
        acc += size / n_test * p
    return acc


class TestBlockScoring:
    """The search scores its candidates exactly, block by block, and measures
    the tau path and the naive candidate by the sampled rounded rule."""

    def test_matches_scalar_rule_with_ties(self):
        ev = _SeedEvaluator(_spec3(p=10), EPS3, 300, gamma=1.0, seed=4, n_test=250)
        rng = np.random.default_rng(0)
        A, B = rng.uniform(-2, 2, (40, 3)), rng.uniform(-2, 2, (40, 3))
        A[0], B[0] = 0.0, 0.0  # every class ties at zero
        A[1], B[1] = 1.0, 1.0  # s_j = on_j + off_j: near-ties within rounding
        A[2:6] = 0.7  # equal alphas
        np.testing.assert_array_equal(_tail([ev], A, B)[:, 0], _scalar_accuracies(ev, A, B))

    @pytest.mark.parametrize("k", [2])
    def test_matches_scalar_rule_at_other_class_counts(self, k):
        means = np.zeros((k, 8))
        means[:, 0] = np.linspace(-2.0, 2.0, k)
        eps = np.full((k, k), 0.1)
        np.fill_diagonal(eps, 0.0)
        ev = _SeedEvaluator(GmmSpec(means=means, pi=np.full(k, 1.0 / k)), eps,
                            200, gamma=1.0, seed=k, n_test=240)
        A, B = np.random.default_rng(k).uniform(-2, 2, (2, 60, k))
        A[0], B[0] = 0.0, 0.0
        A[1], B[1] = 1.0, 1.0
        A[2:6, 1:] = A[2:6, :1]  # equal alphas
        np.testing.assert_array_equal(_tail([ev], A, B)[:, 0], _scalar_accuracies(ev, A, B))

    @pytest.mark.parametrize("power", [0, -500, 500])
    def test_rounding_level_margins_at_any_scale(self, power):
        # each candidate has its own columns where its two classes' scores agree
        # up to rounding, where the rule's comparisons must round as the
        # argmax does.  Row 1 is the A = B = 1 near-tie and row 0 becomes the
        # zero candidate.  Scaling (A, B) by 2**power and the score tables by
        # 2**-power moves no count
        rng = np.random.default_rng(1)
        A, B = rng.uniform(0.5, 2, (2, 20, 2))
        A[1], B[1] = 1.0, 1.0
        tables = _near_tie_tables(rng, A, B, per=10)
        A[0], B[0] = 0.0, 0.0
        # a second seed of every third column has tables of another width
        ev = _tables_evaluator(tables)
        thinned = _tables_evaluator([(on[:, ::3], off[:, ::3]) for on, off in tables])
        scaled = [_tables_evaluator([(on * 2.0 ** -power, off * 2.0 ** -power)
                                     for on, off in e.by_class]) for e in (ev, thinned)]
        acc = _tail(scaled, A * 2.0 ** power, B * 2.0 ** power)
        np.testing.assert_array_equal(acc[:, 0], _scalar_accuracies(ev, A, B))
        np.testing.assert_array_equal(acc[:, 1], _scalar_accuracies(thinned, A, B))

    def test_exact_integer_ties(self):
        # small integer tables make most columns tie across classes; two
        # seeds whose classes have different column counts
        rng = np.random.default_rng(1)
        evs = [_tables_evaluator([(rng.integers(-1, 2, (3, m)).astype(float),
                                   rng.integers(-1, 2, (3, m)).astype(float)) for m in widths])
               for widths in [(7, 5, 9), (11, 3, 4)]]
        A = rng.integers(-1, 2, (200, 3)).astype(float)
        B = rng.integers(-1, 2, (200, 3)).astype(float)
        acc = _tail(evs, A, B)
        for s, ev in enumerate(evs):
            np.testing.assert_array_equal(acc[:, s], _scalar_accuracies(ev, A, B))

    def test_tail_rule_breaks_ties_toward_the_smallest_class(self):
        # one test column per true class, every score equal: each candidate
        # predicts class 1, and only class 1's column is a hit; with class 3's
        # score above, class 3's column is the hit
        ones = np.ones((3, 1))
        ev = _tables_evaluator([(ones, ones)] * 3)
        A, B = np.full((2, 3), 0.5), np.full((2, 3), 0.25)
        A[1, 2] = 0.75
        np.testing.assert_array_equal(_tail([ev], A, B)[:, 0], [1 / 3, 1 / 3])
        hits = [multiclass._rule_hits(A, B, ones, ones, c) for c in range(3)]
        np.testing.assert_array_equal(np.column_stack(hits), [[1, 0, 0], [0, 0, 1]])

    def test_seeds_of_different_widths_over_several_blocks(self):
        # one call scores three seeds whose test draws differ in size, so
        # their class shares differ; the candidates fill two blocks and part
        # of a third, and each row scores as it does alone
        spec = _spec3(p=8)
        evs = [_SeedEvaluator(spec, EPS3, 200, gamma=0.7, seed=s, n_test=n_test)
               for s, n_test in [(0, 90), (1, 160), (2, 45)]]
        rows = np.random.default_rng(6).uniform(-2, 2, (2 * _CHUNK_ROWS + 7, 6))
        acc = _conditional_accuracies(evs, rows)
        assert acc.shape == (len(rows), len(evs))
        pick = [0, _CHUNK_ROWS - 1, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 6]
        for s, ev in enumerate(evs):
            alone = np.concatenate([_conditional_accuracies([ev], rows[i:i + 1])[:, 0]
                                    for i in pick])
            np.testing.assert_allclose(acc[pick, s], alone, rtol=0, atol=1e-15)

    def test_search_scores_every_candidate_by_the_rule(self):
        # each candidate's search score is its seed mean of the exact
        # accuracies given each seed's draw, over more candidates than one
        # block holds
        spec, n, seeds, gamma, n_test, grid = _spec3(p=8), 200, [3, 5], 0.9, 150, _CHUNK_ROWS + 9
        res = search_alpha_beta(spec, EPS3, n, grid_size=grid, eval_seeds=seeds, gamma=gamma,
                                n_test=n_test, tau_points=3, search_seed=11)
        rows = _rng(11).uniform(-2.0, 2.0, size=(grid, 6))
        evs = [_SeedEvaluator(spec, EPS3, n, gamma, s, n_test) for s in seeds]
        np.testing.assert_array_equal(res.candidate_accuracy,
                                      _conditional_accuracies(evs, rows).mean(axis=1))
        assert res.ab_best.alpha.tolist() == rows[np.argmax(res.candidate_accuracy), :3].tolist()
        assert res.ab_worst.beta.tolist() == rows[np.argmin(res.candidate_accuracy), 3:].tolist()

    def test_chunk_boundary(self):
        ev = _SeedEvaluator(_spec3(p=6), EPS3, 200, gamma=0.5, seed=2, n_test=120)
        rows = np.random.default_rng(3).uniform(-2, 2, (_CHUNK_ROWS + 1, 6))
        row_by_row = np.concatenate([_conditional_accuracies([ev], rows[i:i + 1])
                                     for i in range(len(rows))])
        np.testing.assert_allclose(_conditional_accuracies([ev], rows), row_by_row,
                                   rtol=0, atol=1e-15)

    def test_candidate_accuracy_is_scipys_orthants(self):
        # a k = 3 search's candidate scores against scipy's bivariate normal
        # orthants of each seed's margins, weighted by the test class sizes
        spec, n, seeds, gamma, n_test = _spec3(p=10), 300, [0, 1], 0.8, 250
        res = search_alpha_beta(spec, EPS3, n, grid_size=30, eval_seeds=seeds, gamma=gamma,
                                n_test=n_test, tau_points=3, search_seed=4)
        rows = _rng(4).uniform(-2.0, 2.0, size=(30, 6))
        weights = [_draw_weights(spec, EPS3, n, gamma, s) for s in seeds]
        want = [np.mean([_scipy_accuracy(spec, W, n_test, row[:3], row[3:]) for W in weights])
                for row in rows]
        np.testing.assert_allclose(res.candidate_accuracy, want, rtol=0, atol=1e-10)

    def test_two_classes_exact_score_is_the_binary_conditional_accuracy(self):
        # at k = 2 a candidate scores sum_a (m_a / m) P(its sign of w.x is
        # class a's), w = w_2 - w_1 the binary LPC at the rho whose label
        # weights are lambda_plus = alpha_2 - beta_1, lambda_minus = alpha_1 -
        # beta_2, trained on the same draw: w.x is N(w.mu_a, |w|^2)
        means = np.zeros((2, 50))
        means[0, 0], means[1, 0] = -1.0, 1.0
        spec, eps = GmmSpec(means=means, pi=[0.4, 0.6]), [[0.0, 0.2], [0.3, 0.0]]
        n, gamma, seed, n_test = 400, 1.0, 3, 500
        rng = np.random.default_rng(9)
        rows = np.hstack([rng.uniform(1.0, 2.0, (6, 2)), rng.uniform(-0.5, 0.5, (6, 2))])
        exact = _conditional_accuracies([_SeedEvaluator(spec, eps, n, gamma, seed, n_test)], rows)
        y_clean = spec.labels(n)
        y_noisy = flip_multi_labels(eps, y_clean, derive_seed(seed, 1))
        stats = generate_training_stats(spec, [y_clean, y_noisy], derive_seed(seed, 0))
        m1, m2 = spec.class_sizes(n_test) / n_test
        for row, got in zip(rows, exact[:, 0]):
            lam_plus, lam_minus = row[1] - row[2], row[0] - row[3]
            s, g = 1 - 2 / (lam_plus + lam_minus), (lam_plus - lam_minus) / (lam_plus + lam_minus)
            w = train_lpc(stats, RhoParams((s + g) / 2, (s - g) / 2), gamma,
                          labels=y_noisy).w
            norm = np.linalg.norm(w)
            want = (m1 * gaussian_upper_tail(w @ means[0] / norm)
                    + m2 * gaussian_upper_tail(-(w @ means[1]) / norm))
            assert abs(got - want) <= 1e-9

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_margin_of_zero_variance_is_refused(self, k):
        # equal scores for every class (row 2: alpha = beta, the same for all
        # classes) and, at k = 2, s_1 = on_1 = all - on_2 = s_2 (row 4): a
        # margin that vanishes identically has no hit probability
        spec = _spec3(p=6) if k == 3 else GmmSpec(means=np.eye(2, 6), pi=[0.5, 0.5])
        ev = _SeedEvaluator(spec, EPS3 if k == 3 else np.zeros((2, 2)), 100, gamma=1.0, seed=0,
                            n_test=50)
        rows = np.random.default_rng(k).uniform(-2, 2, (5, 2 * k))
        rows[2] = 0.7
        with pytest.raises(ValueError, match="candidate row 2: the margin of class 1 over "
                                             "class 2 has zero variance"):
            _conditional_accuracies([ev], rows)
        if k == 2:
            rows[2] = rows[1]
            rows[4] = [1.0, 0.0, 0.0, 1.0]
            with pytest.raises(ValueError, match="candidate row 4: .* zero variance"):
                _conditional_accuracies([ev], rows)

    def test_four_classes_refused(self):
        means = np.zeros((4, 6))
        means[:, 0] = [-3.0, -1.0, 1.0, 3.0]
        spec = GmmSpec(means=means, pi=np.full(4, 0.25))
        with pytest.raises(ValueError, match="2 or 3 classes.*k=4 means"):
            search_alpha_beta(spec, np.zeros((4, 4)), 100, grid_size=2, eval_seeds=[0],
                              gamma=1.0, n_test=40)
        with pytest.raises(ConfigError, match="means"):
            parse_config_text("schema_version = 1\nexperiment = multiclass\nmeans = -3,-1,1,3\n"
                              "pis = 0.25,0.25,0.25,0.25\n"
                              "eps_rows = 0,0,0,0; 0,0,0,0; 0,0,0,0; 0,0,0,0\n")

    def test_search_matches_public_api(self):
        spec, n, seeds, gamma, n_test = _spec3(p=10), 300, [0, 1], 0.8, 250
        res = search_alpha_beta(spec, EPS3, n, grid_size=50, eval_seeds=seeds, gamma=gamma,
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
                y_noisy = flip_multi_labels(EPS3, y_clean, derive_seed(seed, 1))
                stats = generate_training_stats(spec, [y_clean, y_noisy], derive_seed(seed, 0))
                W = _draw_weights(spec, EPS3, n, gamma, seed)
                W_ab = train_multi_lpc(stats, build_label_matrix(y_noisy, ab), gamma)
                assert np.linalg.norm(W @ M - W_ab) <= 1e-12 * np.linalg.norm(W_ab)
                S, y = generate_scores(spec, W, n_test, derive_seed(seed, 2))
                accs.append(multi_accuracy(M, S, y))
            return np.mean(accs)

        for ab, acc in [(res.ab_best, res.tau_accuracy[-1].mean()),
                        (res.ab_worst, res.tau_accuracy[0].mean()),
                        (AlphaBeta.naive(3), res.naive_seed_accuracy.mean())]:
            assert abs(public(ab) - acc) <= 1.0 / n_test


def _shipped_config():
    cfg = parse_config_file(pathlib.Path(__file__).resolve().parent.parent
                            / "configs" / "multiclass.cfg")
    assert (len(cfg.seeds), cfg.grid_size) == (3, 5000)
    return cfg


def test_search_at_shipped_size_matches_rule():
    # configs/multiclass.cfg's search: its path and naive cells are the
    # rounded rule's counts on each seed's test draw, and its ends are the
    # best and worst of the exact scores of all 5000 candidates
    cfg = _shipped_config()
    res = search_alpha_beta(cfg.model, cfg.eps_rows, cfg.n, grid_size=cfg.grid_size,
                            eval_seeds=cfg.seeds,
                            gamma=cfg.gamma, n_test=cfg.n_test, tau_points=cfg.tau_points,
                            search_seed=cfg.search_seed)
    evs = [_SeedEvaluator(cfg.model, cfg.eps_rows, cfg.n, cfg.gamma, s, cfg.n_test)
           for s in cfg.seeds]
    rows = _rng(cfg.search_seed).uniform(-2.0, 2.0, size=(cfg.grid_size, 6))
    best, worst = rows[np.argmax(res.candidate_accuracy)], rows[np.argmin(res.candidate_accuracy)]
    path = res.tau_grid[:, None] * best + (1 - res.tau_grid)[:, None] * worst
    for s, ev in enumerate(evs):
        np.testing.assert_array_equal(res.tau_accuracy[:, s],
                                      _scalar_accuracies(ev, path[:, :3], path[:, 3:]))
        assert res.naive_seed_accuracy[s] == _scalar_accuracies(ev, [np.ones(3)],
                                                                [np.zeros(3)])[0]


def test_search_memory_at_shipped_size():
    # configs/multiclass.cfg's search (3 seeds, 5000 candidates) holds its
    # candidates, their scores and one block's orthant integrands
    cfg = _shipped_config()
    # a first search imports modules (numpy's seed sequence pulls in secrets),
    # which would count about 0.7 MiB of module objects
    search_alpha_beta(cfg.model, cfg.eps_rows, 60, grid_size=2, eval_seeds=[0], gamma=cfg.gamma,
                      n_test=60)
    tracemalloc.start()
    try:
        search_alpha_beta(cfg.model, cfg.eps_rows, cfg.n, grid_size=cfg.grid_size,
                          eval_seeds=cfg.seeds,
                          gamma=cfg.gamma, n_test=cfg.n_test, tau_points=cfg.tau_points,
                          search_seed=cfg.search_seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 2**20, f"peak {peak / 2**20:.2f} MiB"
