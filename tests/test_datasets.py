import numpy as np
import pytest

from lpc import (
    GmmSpec,
    LabeledDataset,
    RhoParams,
    TrainingStats,
    derive_seed,
    flip_label_vector,
    flip_labels,
    generate_gmm,
    generate_scores,
    generate_training_stats,
    load_features_csv,
    optimal_rho,
    standardize_and_estimate,
    train_lpc,
)
from lpc.datasets import _rng


class TestGmmSpecValidation:
    def test_pi1_bounds(self):
        for pi1 in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                GmmSpec.isotropic(4, pi1, 1.0)

    def test_empty_class_rejected(self):
        # round(0.01 * 10) = 0 samples in class 1
        with pytest.raises(ValueError, match="class"):
            GmmSpec.isotropic(4, 0.01, 1.0).class_sizes(10)

    def test_mu_must_be_finite(self):
        with pytest.raises(ValueError, match="mu"):
            GmmSpec.isotropic(4, 0.5, snr=np.nan)

    @pytest.mark.parametrize("make", [
        lambda: GmmSpec.isotropic(0, 0.5, 2.0),
        lambda: GmmSpec(0.5, np.zeros(0)),
        lambda: GmmSpec(0.5, np.zeros((2, 2))),
    ], ids=["isotropic_p0", "empty_mu", "matrix_mu"])
    def test_mu_must_be_a_nonempty_vector(self, make):
        # an IndexError, a p = 0 model and a mean flattened to p = 4
        with pytest.raises(ValueError, match="nonempty 1-d"):
            make()

    def test_asymmetric_covariance_rejected(self):
        C = np.eye(3)
        C[0, 1] = 0.5
        with pytest.raises(ValueError, match="C2 is not symmetric"):
            GmmSpec(pi1=0.5, mu=np.zeros(3), cov=(np.eye(3), C))

    def test_non_psd_covariance_rejected_with_name(self):
        C = np.diag([1.0, -0.5, 1.0])
        with pytest.raises(ValueError, match="C1 is not positive semi-definite"):
            GmmSpec(pi1=0.5, mu=np.zeros(3), cov=(C, np.eye(3)))


class TestGenerateGmm:
    def test_small_construction(self):
        spec = GmmSpec(pi1=0.5, mu=np.array([1.0, 0.0]))
        ds = generate_gmm(spec, 4, 7)
        assert ds.class_counts == (2, 2)
        assert np.array_equal(np.sort(ds.y_clean), [-1, -1, 1, 1])
        m1 = ds.X[:, ds.y_clean == -1].mean(axis=1)
        m2 = ds.X[:, ds.y_clean == +1].mean(axis=1)
        # the two group means are separated along coordinate 0
        assert m2[0] > m1[0]

    def test_reproducibility_bit_identical(self):
        spec = GmmSpec.isotropic(20, 0.4, 2.0)
        a, b = generate_gmm(spec, 50, 99), generate_gmm(spec, 50, 99)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y_clean, b.y_clean)

    def test_class_mean_concentration(self):
        # law of large numbers at the stated scale: ||mean of class 2|| is
        # within 3 * sqrt(p / n2) of the true norm 2
        spec = GmmSpec.isotropic(1000, 1 / 3, 2.0)
        ds = generate_gmm(spec, 5000, 3)
        n2 = ds.class_counts[1]
        mean2 = ds.X[:, ds.y_clean == +1].mean(axis=1)
        assert abs(np.linalg.norm(mean2) - 2.0) < 3.0 * np.sqrt(spec.p / n2)

    def test_general_covariance_scales_variance(self):
        C = 4.0 * np.eye(5)
        spec = GmmSpec(pi1=0.5, mu=np.zeros(5), cov=(C, np.eye(5)))
        ds = generate_gmm(spec, 4000, 1)
        v1 = ds.X[:, ds.y_clean == -1].var(axis=1).mean()
        v2 = ds.X[:, ds.y_clean == +1].var(axis=1).mean()
        assert v1 == pytest.approx(4.0, rel=0.15)
        assert v2 == pytest.approx(1.0, rel=0.15)

    @pytest.mark.parametrize("mu", [np.linspace(-1.0, 2.0, 12), 2.0 * np.eye(12)[0]],
                             ids=["dense", "snr_e1"])
    def test_shift_matches_full_shift(self, mu):
        # only the rows where mu is nonzero are shifted, bit-identical to
        # shifting every row
        from lpc.datasets import _rng

        spec = GmmSpec(pi1=0.3, mu=mu)
        n1, _ = spec.class_sizes(50)
        X = _rng(5).standard_normal((12, 50))
        X[:, :n1] -= mu[:, None]
        X[:, n1:] += mu[:, None]
        assert np.array_equal(generate_gmm(spec, 50, 5).X, X)


def _ramp_cov(p, lo, hi, seed):
    """A symmetric positive-definite ``p x p`` matrix with eigenvalues
    ``linspace(lo, hi, p)`` in a random basis."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, p)))
    return (q * np.linspace(lo, hi, p)) @ q.T


class TestGenerateScores:
    @pytest.mark.parametrize("mu", [np.linspace(-1.0, 2.0, 30), 2.0 * np.eye(30)[0]],
                             ids=["dense", "snr_e1"])
    def test_identity_weights_reproduce_generate_gmm(self, mu):
        spec = GmmSpec(pi1=0.4, mu=mu)
        ds = generate_gmm(spec, 200, 11)
        S, y = generate_scores(spec, np.eye(30), 200, 11)
        assert np.array_equal(S, ds.X)
        assert np.array_equal(y, ds.y_clean)

    @pytest.mark.parametrize("p, k, cov", [(6, 3, False), (6, 3, True), (3, 5, False),
                                           (3, 5, True)],
                             ids=["tall", "tall_cov", "wide", "wide_cov"])
    def test_class_moments(self, p, k, cov):
        # per class, the sample mean and covariance are within 5 standard
        # errors of -+W.T mu and W.T C_a W (C1 != C2 with cov)
        mu = np.linspace(0.5, -1.0, p)
        covs = (_ramp_cov(p, 0.5, 3.0, 1), _ramp_cov(p, 0.2, 1.0, 2)) if cov else None
        spec = GmmSpec(pi1=0.4, mu=mu, cov=covs)
        W = np.random.default_rng(3).standard_normal((p, k))
        S, y = generate_scores(spec, W, 20000, 4)
        assert S.shape == (k, 20000)
        for a, sign in ((0, -1.0), (1, 1.0)):
            C = covs[a] if cov else np.eye(p)
            sigma = W.T @ C @ W
            Sa = S[:, y == sign]
            m, d = Sa.shape[1], np.diag(sigma)
            assert np.all(np.abs(Sa.mean(axis=1) - sign * W.T @ mu) <= 5 * np.sqrt(d / m))
            cov_se = np.sqrt((np.outer(d, d) + sigma**2) / m)
            assert np.all(np.abs(np.cov(Sa) - sigma) <= 5 * cov_se)

    def test_wide_weights_stay_in_the_row_space(self):
        # k > p: the k scores of a sample are W.T x for one x in R^p
        spec = GmmSpec(pi1=0.5, mu=np.array([1.0, -0.5, 0.0]))
        W = np.random.default_rng(6).standard_normal((3, 7))
        S, _ = generate_scores(spec, W, 300, 2)
        X, *_ = np.linalg.lstsq(W.T, S, rcond=None)
        assert np.allclose(W.T @ X, S, rtol=0, atol=1e-12 * np.abs(S).max())

    @pytest.mark.parametrize("cov", [False, True], ids=["isotropic", "cov"])
    def test_repeated_and_dependent_columns(self, cov):
        p = 40
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(p), rng.standard_normal(p)
        c = rng.standard_normal(p)
        # a dependent column before an independent one: c's scores do not
        # hinge on the rounding residual of 2a + b
        W = np.column_stack([a, b, a, 2 * a + b, c, b])
        covs = (_ramp_cov(p, 0.5, 2.0, 9), np.eye(p)) if cov else None
        spec = GmmSpec(pi1=0.3, mu=np.full(p, 0.2), cov=covs)
        S, _ = generate_scores(spec, W, 500, 1)
        scale = np.abs(S).max()
        assert np.abs(S[2] - S[0]).max() <= 1e-12 * scale
        assert np.abs(S[5] - S[1]).max() <= 1e-12 * scale
        assert np.abs(S[3] - (2 * S[0] + S[1])).max() <= 1e-12 * scale
        # rounding-level changes to W move every score by rounding only
        S2, _ = generate_scores(spec, W * (1 + 1e-15 * rng.standard_normal(W.shape)), 500, 1)
        assert np.abs(S2 - S).max() <= 1e-12 * scale

    @pytest.mark.parametrize("W, match", [
        (np.ones((4, 2)), "p x k with p=5"),
        (np.ones(5), "p x k with p=5"),
        (np.array([[1.0], [np.nan], [0.0], [0.0], [0.0]]), "non-finite"),
        (np.array([[1.0], [np.inf], [0.0], [0.0], [0.0]]), "non-finite"),
    ], ids=["rows", "vector", "nan", "inf"])
    def test_invalid_weights_raise(self, W, match):
        with pytest.raises(ValueError, match=match):
            generate_scores(GmmSpec.isotropic(5, 0.5, 1.0), W, 20, 0)


class TestFlipLabels:
    def test_zero_rates_are_identity(self):
        ds = generate_gmm(GmmSpec.isotropic(5, 0.5, 1.0), 40, 0)
        out = flip_labels(ds, 0.0, 0.0, seed=5)
        assert np.array_equal(out.y_noisy, ds.y_clean)

    def test_requires_ground_truth(self):
        ds = LabeledDataset(X=np.zeros((2, 4)), y_noisy=np.array([1, -1, 1, -1]))
        with pytest.raises(ValueError, match="cannot flip without ground truth"):
            flip_labels(ds, 0.1, 0.0, seed=0)

    def test_noise_rates_must_sum_below_one(self):
        ds = generate_gmm(GmmSpec.isotropic(4, 0.5, 1.0), 10, 0)
        with pytest.raises(ValueError, match="eps_plus"):
            flip_labels(ds, 0.6, 0.4, seed=0)
        for rates in ((-0.5, 0.2), (0.1, -0.1), (1.2, -0.5)):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                flip_labels(ds, *rates, seed=0)

    def test_features_and_clean_labels_untouched(self):
        ds = generate_gmm(GmmSpec.isotropic(5, 0.5, 1.0), 100, 2)
        out = flip_labels(ds, 0.4, 0.3, seed=11)
        assert out.X is ds.X
        assert np.array_equal(out.y_clean, ds.y_clean)
        assert not np.array_equal(out.y_noisy, ds.y_clean)

    def test_binomial_concentration_per_class(self):
        # n1 = 10000 negatives flipped at 0.3: count within 3 binomial sigmas
        ds = generate_gmm(GmmSpec.isotropic(2, 0.5, 1.0), 20000, 4)
        out = flip_labels(ds, 0.0, 0.3, seed=21)
        flipped = np.sum((ds.y_clean == -1) & (out.y_noisy == +1))
        assert abs(flipped - 3000) < 3.0 * np.sqrt(10000 * 0.3 * 0.7)

    def test_mixture_flip_fraction(self):
        n = 30000
        ds = generate_gmm(GmmSpec.isotropic(2, 1 / 3, 1.0), n, 8)
        out = flip_labels(ds, 0.4, 0.3, seed=13)
        frac = np.mean(out.y_noisy != ds.y_clean)
        expected = (1 / 3) * 0.3 + (2 / 3) * 0.4
        assert abs(frac - expected) < 3.0 * np.sqrt(expected * (1 - expected) / n)

    def test_marginal_flip_law_many_seeds(self):
        # class-1 flip fraction averaged over many independent flips
        ds = generate_gmm(GmmSpec.isotropic(2, 0.5, 1.0), 100, 6)
        n1 = ds.class_counts[0]
        eps_minus = 0.3
        reps = 1000
        fracs = np.empty(reps)
        for s in range(reps):
            out = flip_labels(ds, 0.0, eps_minus, seed=s)
            fracs[s] = np.mean(out.y_noisy[ds.y_clean == -1] != -1)
        se = np.sqrt(eps_minus * (1 - eps_minus) / (reps * n1))
        assert abs(fracs.mean() - eps_minus) < 3.0 * se


    def test_label_vector_rule_is_flip_labels(self):
        ds = generate_gmm(GmmSpec.isotropic(3, 0.4, 1.0), 200, 0)
        out = flip_labels(ds, 0.4, 0.3, seed=17)
        assert np.array_equal(flip_label_vector(ds.y_clean, 0.4, 0.3, 17), out.y_noisy)


def _indicators(group: np.ndarray) -> np.ndarray:
    """``U``: the normalized indicators of the sample groups ``group``."""
    U = np.zeros((group.size, group.max() + 1))
    U[np.arange(group.size), group] = 1.0
    return U / np.sqrt(U.sum(axis=0))


class TestGenerateTrainingStats:
    # (p, pi1, n, noisy label vectors), one per regime of d = n - r against p
    REGIMES = {
        "d>p": (3, 0.4, 10, [[-1, -1, 1, -1, 1, 1, -1, 1, 1, 1]]),
        "d<p": (5, 0.5, 6, [[-1, 1, -1, 1, -1, 1]]),
        "d=0": (3, 0.5, 4, [[-1, 1, -1, 1]]),  # every sample its own group
    }

    @pytest.mark.parametrize("regime", REGIMES)
    def test_law_matches_feature_draws(self, regime):
        # the mean and variance of every entry of the Gram, of X U and of the
        # rest X X^T - (X U)(X U)^T (zero for d = 0) agree with those formed
        # from generate_gmm's features, within 5 standard errors over 1000
        # draws each
        p, pi1, n, noisy = self.REGIMES[regime]
        spec = GmmSpec(pi1=pi1, mu=np.array([0.9, -0.5, 0.3, 0.2, -0.1])[:p])
        labels = [spec.labels(n), *(np.array(y) for y in noisy)]
        stats = generate_training_stats(spec, labels, 0)
        d = n - stats.sizes.size
        assert {"d>p": d > p, "d<p": 0 < d < p, "d=0": d == 0}[regime]
        U, upper, reps = _indicators(stats.group), np.triu_indices(p), 1000

        def entries(gram, xu):
            rest = (gram - xu @ xu.T)[upper] if d else []
            return np.concatenate([gram[upper], xu.ravel(), rest])

        drawn = np.array([entries(st.gram, st.xu) for st in (
            generate_training_stats(spec, labels, derive_seed(s, 0)) for s in range(reps))])
        formed = np.array([entries(X @ X.T, X @ U) for X in (
            generate_gmm(spec, n, derive_seed(s, 1)).X for s in range(reps))])
        means, variances, fourth = [], [], []
        for a in (drawn, formed):
            centered = a - a.mean(axis=0)
            means.append(a.mean(axis=0))
            variances.append(centered.var(axis=0))
            fourth.append((centered**4).mean(axis=0))
        z_mean = (means[0] - means[1]) / np.sqrt((variances[0] + variances[1]) / reps)
        se_var = np.sqrt((fourth[0] - variances[0]**2 + fourth[1] - variances[1]**2) / reps)
        z_var = (variances[0] - variances[1]) / se_var
        assert np.max(np.abs(z_mean)) < 5 and np.max(np.abs(z_var)) < 5

    def test_weights_match_features_for_every_variant(self):
        # statistics formed from one feature draw train every variant's
        # targets to train_lpc's weights on the features
        spec = GmmSpec.isotropic(40, 1 / 3, 2.0)
        n, gamma = 120, 0.5
        ds = generate_gmm(spec, n, 3)
        noisy = [flip_label_vector(ds.y_clean, e, 0.2, seed) for e, seed in ((0.1, 4), (0.4, 5))]
        group = generate_training_stats(spec, [ds.y_clean, *noisy], 0).group
        stats = TrainingStats(gram=ds.X @ ds.X.T, xu=ds.X @ _indicators(group), group=group)
        for eps_plus, y in zip((0.1, 0.4), noisy):
            for labels, rho in ((y, RhoParams()), (y, RhoParams(eps_plus, 0.2)),
                                (y, optimal_rho(spec, n, gamma, eps_plus, 0.2)),
                                (y, RhoParams(1.5, -0.3)), (ds.y_clean, RhoParams())):
                w = train_lpc(ds, rho, gamma, labels=labels).w
                w_stats = train_lpc(stats, rho, gamma, labels=labels).w
                assert np.linalg.norm(w_stats - w) <= 1e-12 * np.linalg.norm(w)

    def test_stream_order(self):
        # X U, then the rows of L below the diagonal, then the chi-squares
        spec = GmmSpec(pi1=0.5, mu=np.array([1.0, 0.0, -2.0, 0.5]))
        labels = [spec.labels(8), np.array([-1, 1, -1, -1, 1, 1, -1, 1])]
        stats = generate_training_stats(spec, labels, 9)
        _, first, sizes = np.unique(stats.group, return_index=True, return_counts=True)
        p, r = 4, sizes.size
        d = 8 - r
        rng = _rng(9)
        xu = rng.standard_normal((p, r)) + np.outer(spec.mu, labels[0][first] * np.sqrt(sizes))
        L = np.zeros((p, p))
        for i in range(1, p):
            L[i, :i] = rng.standard_normal(i)
        L[range(p), range(p)] = np.sqrt(rng.chisquare(d - np.arange(p)))
        np.testing.assert_array_equal(stats.xu, xu)
        np.testing.assert_allclose(stats.gram, L @ L.T + xu @ xu.T, rtol=1e-14, atol=1e-13)

    def test_groups_and_their_sums(self):
        # groups in the lexicographic order of the label columns; a repeated
        # label vector changes nothing
        spec = GmmSpec.isotropic(2, 0.5, 1.0)
        y_clean, y = spec.labels(6), np.array([1, -1, -1, 1, 1, -1])
        stats = generate_training_stats(spec, [y_clean, y], 4)
        assert stats.group.tolist() == [1, 0, 0, 3, 3, 2]
        assert stats.sizes.tolist() == [2, 1, 1, 2]
        again = generate_training_stats(spec, [y_clean, y, y, y_clean], 4)
        for name in ("gram", "xu", "group"):
            assert np.array_equal(getattr(again, name), getattr(stats, name))

    def test_no_remaining_noise_leaves_the_group_sums(self):
        spec = GmmSpec.isotropic(3, 0.5, 1.0)
        stats = generate_training_stats(spec, [spec.labels(4), [-1, 1, -1, 1]], 2)
        assert np.array_equal(stats.gram, stats.xu @ stats.xu.T)

    def test_targets_must_be_constant_on_groups(self):
        spec = GmmSpec.isotropic(3, 0.5, 1.0)
        y = np.array([-1, 1, -1, 1, 1, 1])
        stats = generate_training_stats(spec, [spec.labels(6), y], 2)
        train_lpc(stats, RhoParams(0.1, 0.2), 1.0, labels=y)
        with pytest.raises(ValueError, match="not constant on the label groups"):
            train_lpc(stats, RhoParams(), 1.0, labels=[1, -1, -1, 1, 1, 1])
        with pytest.raises(ValueError, match="pass the labels"):
            train_lpc(stats, RhoParams(), 1.0)

    @pytest.mark.parametrize("spec, labels, match", [
        (GmmSpec(0.5, np.zeros(2), cov=(np.eye(2), np.eye(2))), None, "generate_gmm"),
        (GmmSpec.isotropic(2, 0.5, 1.0), [[1, 1, -1, -1]], "start with the clean labels"),
        (GmmSpec.isotropic(2, 0.5, 1.0), [[-1, -1, 1, 1], [1, 0, 1, 1]], "-1 or \\+1"),
    ], ids=["covariance", "clean_first", "label_values"])
    def test_invalid_input_raises(self, spec, labels, match):
        with pytest.raises(ValueError, match=match):
            generate_training_stats(spec, labels or [spec.labels(4)], 0)

    def test_nonfinite_statistics_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            TrainingStats(gram=np.full((2, 2), np.nan), xu=np.ones((2, 1)),
                          group=np.zeros(3, dtype=int))


class TestCsvIngestion:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_basic_parse(self, tmp_path):
        path = self._write(tmp_path, "1,0.5,2.0\n-1,1.5,3.0\n1,2.5,4.0\n")
        ds = load_features_csv(path, label_column=0, has_clean_labels=True)
        assert (ds.n, ds.p) == (3, 2)
        assert ds.class_counts == (1, 2)
        assert np.array_equal(ds.y_clean, [1, -1, 1])
        np.testing.assert_allclose(ds.X[:, 1], [1.5, 3.0])

    def test_zero_one_labels_remapped(self, tmp_path):
        path = self._write(tmp_path, "0,1.0\n1,2.0\n0,3.0\n")
        ds = load_features_csv(path, label_column=0)
        assert np.array_equal(ds.y_noisy, [-1, 1, -1])
        assert ds.y_clean is None

    def test_ragged_row_cites_row_number(self, tmp_path):
        path = self._write(tmp_path, "1,1.0,2.0\n-1,1.0,2.0\n1,1.0,2.0\n-1,1.0,2.0\n1,1.0\n")
        with pytest.raises(ValueError, match="row 5"):
            load_features_csv(path, label_column=0)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_features_csv(self._write(tmp_path, ""))

    def test_label_only_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="feature column"):
            load_features_csv(self._write(tmp_path, "1\n-1\n"))

    def test_bad_labels(self, tmp_path):
        path = self._write(tmp_path, "2,1.0\n1,2.0\n")
        with pytest.raises(ValueError, match="labels"):
            load_features_csv(path, label_column=0)

    def test_unparsable_value_cites_row(self, tmp_path):
        path = self._write(tmp_path, "1,1.0\n-1,oops\n")
        with pytest.raises(ValueError, match="row 2"):
            load_features_csv(path, label_column=0)

    def test_header_and_named_column(self, tmp_path):
        path = self._write(tmp_path, "f1,label,f2\n0.5,1,2.0\n1.5,-1,3.0\n")
        ds = load_features_csv(path, label_column="label", has_header=True)
        assert (ds.n, ds.p) == (2, 2)
        np.testing.assert_allclose(ds.X[:, 0], [0.5, 2.0])

    def test_named_column_requires_header(self, tmp_path):
        path = self._write(tmp_path, "1,1.0\n")
        with pytest.raises(ValueError, match="has_header"):
            load_features_csv(path, label_column="label")


class TestStandardize:
    def test_idempotent_on_standardized_data(self):
        ds = generate_gmm(GmmSpec.isotropic(10, 0.5, 1.5), 400, 14)
        first = standardize_and_estimate(ds)
        second = standardize_and_estimate(first.dataset)
        np.testing.assert_allclose(second.dataset.X, first.dataset.X, atol=1e-10)

    def test_class_means_centered(self):
        ds = generate_gmm(GmmSpec.isotropic(20, 0.3, 2.0), 300, 15)
        res = standardize_and_estimate(ds)
        X, y = res.dataset.X, res.dataset.y_clean
        m1 = X[:, y == -1].mean(axis=1)
        m2 = X[:, y == +1].mean(axis=1)
        np.testing.assert_allclose(m1 + m2, 0.0, atol=1e-10)

    def test_snr_estimate_near_truth(self):
        # signal spread over the coordinates, as for standardized real data
        p = 100
        mu = np.full(p, 2.0 / np.sqrt(p))
        ds = generate_gmm(GmmSpec(pi1=0.5, mu=mu), 5000, 16)
        res = standardize_and_estimate(ds)
        assert 1.9 <= res.snr_estimate <= 2.1
        assert res.pi1_estimate == pytest.approx(0.5)
        assert res.dataset.y_clean is not None

    def test_zero_variance_rows_kept(self):
        X = np.vstack([np.ones(6), np.arange(6.0)])
        ds = LabeledDataset(X=X, y_noisy=np.array([-1, -1, -1, 1, 1, 1]),
                            y_clean=np.array([-1, -1, -1, 1, 1, 1]))
        res = standardize_and_estimate(ds)
        assert res.dataset.p == 2

    def test_single_class_flagged(self):
        X = np.random.default_rng(0).standard_normal((3, 8))
        y = np.ones(8, dtype=int)
        ds = LabeledDataset(X=X, y_noisy=y, y_clean=y)
        with pytest.raises(ValueError, match="one label"):
            standardize_and_estimate(ds)

    def test_noisy_fallback_flagged(self):
        X = np.random.default_rng(1).standard_normal((3, 8))
        y = np.array([-1, 1, -1, 1, -1, 1, -1, 1])
        ds = LabeledDataset(X=X, y_noisy=y)
        with pytest.warns(UserWarning, match="noisy labels"):
            res = standardize_and_estimate(ds)
        assert res.dataset.y_clean is None


def test_derive_seed_streams_differ():
    seeds = {derive_seed(7, k) for k in range(32)}
    assert len(seeds) == 32
    assert derive_seed(7, 3) == derive_seed(7, 3)
