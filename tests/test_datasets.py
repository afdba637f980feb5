import numpy as np
import pytest

from lpc import (
    GmmSpec,
    LabeledDataset,
    derive_seed,
    flip_labels,
    generate_gmm,
    load_features_csv,
    standardize_and_estimate,
)


class TestGmmSpecValidation:
    def test_pi1_bounds(self):
        for pi1 in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                GmmSpec.isotropic(4, 10, pi1, 1.0)

    def test_empty_class_rejected(self):
        # round(0.01 * 10) = 0 samples in class 1
        with pytest.raises(ValueError, match="class"):
            GmmSpec.isotropic(4, 10, 0.01, 1.0)

    def test_mu_length_must_match_p(self):
        with pytest.raises(ValueError, match="mu"):
            GmmSpec(p=3, n=10, pi1=0.5, mu=np.ones(2))

    def test_mu_must_be_finite(self):
        with pytest.raises(ValueError, match="mu"):
            GmmSpec.isotropic(4, 10, 0.5, snr=np.nan)

    def test_asymmetric_covariance_rejected(self):
        C = np.eye(3)
        C[0, 1] = 0.5
        with pytest.raises(ValueError, match="C2 is not symmetric"):
            GmmSpec(p=3, n=10, pi1=0.5, mu=np.zeros(3), cov=(np.eye(3), C))

    def test_non_psd_covariance_rejected_with_name(self):
        C = np.diag([1.0, -0.5, 1.0])
        with pytest.raises(ValueError, match="C1 is not positive semi-definite"):
            GmmSpec(p=3, n=10, pi1=0.5, mu=np.zeros(3), cov=(C, np.eye(3)))


class TestGenerateGmm:
    def test_small_construction(self):
        spec = GmmSpec(p=2, n=4, pi1=0.5, mu=np.array([1.0, 0.0]), seed=7)
        ds = generate_gmm(spec)
        assert ds.class_counts == (2, 2)
        assert np.array_equal(np.sort(ds.y_clean), [-1, -1, 1, 1])
        m1 = ds.X[:, ds.y_clean == -1].mean(axis=1)
        m2 = ds.X[:, ds.y_clean == +1].mean(axis=1)
        # the two group means are separated along coordinate 0
        assert m2[0] > m1[0]

    def test_reproducibility_bit_identical(self):
        spec = GmmSpec.isotropic(20, 50, 0.4, 2.0, seed=99)
        a, b = generate_gmm(spec), generate_gmm(spec)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y_clean, b.y_clean)

    def test_class_mean_concentration(self):
        # law of large numbers at the stated scale: ||mean of class 2|| is
        # within 3 * sqrt(p / n2) of the true norm 2
        spec = GmmSpec.isotropic(1000, 5000, 1 / 3, 2.0, seed=3)
        ds = generate_gmm(spec)
        n2 = ds.class_counts[1]
        mean2 = ds.X[:, ds.y_clean == +1].mean(axis=1)
        assert abs(np.linalg.norm(mean2) - 2.0) < 3.0 * np.sqrt(spec.p / n2)

    def test_general_covariance_scales_variance(self):
        C = 4.0 * np.eye(5)
        spec = GmmSpec(p=5, n=4000, pi1=0.5, mu=np.zeros(5), cov=(C, np.eye(5)), seed=1)
        ds = generate_gmm(spec)
        v1 = ds.X[:, ds.y_clean == -1].var(axis=1).mean()
        v2 = ds.X[:, ds.y_clean == +1].var(axis=1).mean()
        assert v1 == pytest.approx(4.0, rel=0.15)
        assert v2 == pytest.approx(1.0, rel=0.15)


class TestFlipLabels:
    def test_zero_rates_are_identity(self):
        ds = generate_gmm(GmmSpec.isotropic(5, 40, 0.5, 1.0, seed=0))
        out = flip_labels(ds, 0.0, 0.0, seed=5)
        assert np.array_equal(out.y_noisy, ds.y_clean)

    def test_requires_ground_truth(self):
        ds = LabeledDataset(X=np.zeros((2, 4)), y_noisy=np.array([1, -1, 1, -1]))
        with pytest.raises(ValueError, match="cannot flip without ground truth"):
            flip_labels(ds, 0.1, 0.0, seed=0)

    def test_noise_rates_must_sum_below_one(self):
        ds = generate_gmm(GmmSpec.isotropic(4, 10, 0.5, 1.0))
        with pytest.raises(ValueError, match="eps_plus"):
            flip_labels(ds, 0.6, 0.4, seed=0)
        for rates in ((-0.5, 0.2), (0.1, -0.1), (1.2, -0.5)):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                flip_labels(ds, *rates, seed=0)

    def test_features_and_clean_labels_untouched(self):
        ds = generate_gmm(GmmSpec.isotropic(5, 100, 0.5, 1.0, seed=2))
        out = flip_labels(ds, 0.4, 0.3, seed=11)
        assert out.X is ds.X
        assert np.array_equal(out.y_clean, ds.y_clean)
        assert not np.array_equal(out.y_noisy, ds.y_clean)

    def test_binomial_concentration_per_class(self):
        # n1 = 10000 negatives flipped at 0.3: count within 3 binomial sigmas
        ds = generate_gmm(GmmSpec.isotropic(2, 20000, 0.5, 1.0, seed=4))
        out = flip_labels(ds, 0.0, 0.3, seed=21)
        flipped = np.sum((ds.y_clean == -1) & (out.y_noisy == +1))
        assert abs(flipped - 3000) < 3.0 * np.sqrt(10000 * 0.3 * 0.7)

    def test_mixture_flip_fraction(self):
        n = 30000
        ds = generate_gmm(GmmSpec.isotropic(2, n, 1 / 3, 1.0, seed=8))
        out = flip_labels(ds, 0.4, 0.3, seed=13)
        frac = np.mean(out.y_noisy != ds.y_clean)
        expected = (1 / 3) * 0.3 + (2 / 3) * 0.4
        assert abs(frac - expected) < 3.0 * np.sqrt(expected * (1 - expected) / n)

    def test_marginal_flip_law_many_seeds(self):
        # class-1 flip fraction averaged over many independent flips
        ds = generate_gmm(GmmSpec.isotropic(2, 100, 0.5, 1.0, seed=6))
        n1 = ds.class_counts[0]
        eps_minus = 0.3
        reps = 1000
        fracs = np.empty(reps)
        for s in range(reps):
            out = flip_labels(ds, 0.0, eps_minus, seed=s)
            fracs[s] = np.mean(out.y_noisy[ds.y_clean == -1] != -1)
        se = np.sqrt(eps_minus * (1 - eps_minus) / (reps * n1))
        assert abs(fracs.mean() - eps_minus) < 3.0 * se


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
        ds = generate_gmm(GmmSpec.isotropic(10, 400, 0.5, 1.5, seed=14))
        first = standardize_and_estimate(ds)
        second = standardize_and_estimate(first.dataset)
        np.testing.assert_allclose(second.dataset.X, first.dataset.X, atol=1e-10)

    def test_class_means_centered(self):
        ds = generate_gmm(GmmSpec.isotropic(20, 300, 0.3, 2.0, seed=15))
        res = standardize_and_estimate(ds)
        X, y = res.dataset.X, res.dataset.y_clean
        m1 = X[:, y == -1].mean(axis=1)
        m2 = X[:, y == +1].mean(axis=1)
        np.testing.assert_allclose(m1 + m2, 0.0, atol=1e-10)

    def test_snr_estimate_near_truth(self):
        # signal spread over the coordinates, as for standardized real data
        p = 100
        mu = np.full(p, 2.0 / np.sqrt(p))
        ds = generate_gmm(GmmSpec(p=p, n=5000, pi1=0.5, mu=mu, seed=16))
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
        with pytest.warns(UserWarning, match="one label"):
            res = standardize_and_estimate(ds)
        assert res.single_class
        assert res.pi1_estimate in (0.0, 1.0)

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
