import re
import tracemalloc

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
from lpc.core import _BLOCK, _targets
from lpc.datasets import _rng
from lpc.multiclass import (
    MultiGmmSpec,
    flip_multi_labels,
    generate_multi_gmm,
    train_multi_lpc,
)


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
        n2 = np.sum(ds.y_clean == +1)
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

    @pytest.mark.parametrize("p, k, model", [(6, 3, "isotropic"), (6, 3, "cov"),
                                             (3, 5, "isotropic"), (3, 5, "cov"),
                                             (6, 3, "k=3")],
                             ids=["tall", "tall_cov", "wide", "wide_cov", "multi_k3"])
    def test_class_moments(self, p, k, model):
        # per class, the sample mean and covariance are within 5 standard
        # errors of W.T m_a and W.T C_a W (C1 != C2 with cov); for the k = 3
        # MultiGmmSpec, of those of W.T X for generate_multi_gmm's features X
        mu = np.linspace(0.5, -1.0, p)
        W = np.random.default_rng(3).standard_normal((p, k))
        if model == "k=3":
            spec = MultiGmmSpec(means=np.stack([-mu, np.zeros(p), np.roll(mu, 2)]),
                                pi=[0.3, 0.3, 0.4], eps=np.zeros((3, 3)))
            covs = [np.eye(p)] * 3
            ref = generate_multi_gmm(spec, 20000, 5)
            ref_scores, ref_y = W.T @ ref.X, ref.y_clean
        else:
            covs = ((_ramp_cov(p, 0.5, 3.0, 1), _ramp_cov(p, 0.2, 1.0, 2)) if model == "cov"
                    else (np.eye(p), np.eye(p)))
            spec = GmmSpec(pi1=0.4, mu=mu, cov=covs if model == "cov" else None)
        S, y = generate_scores(spec, W, 20000, 4)
        assert S.shape == (k, 20000)
        for a, label in enumerate(spec.classes):
            sigma = W.T @ covs[a] @ W
            Sa = S[:, y == label]
            m, d = Sa.shape[1], np.diag(sigma)
            mean_se2, cov_se2 = d / m, (np.outer(d, d) + sigma**2) / m
            if model == "k=3":
                Ra = ref_scores[:, ref_y == label]
                mean, cov = Ra.mean(axis=1), np.cov(Ra)
                mean_se2 = mean_se2 + d / Ra.shape[1]
                cov_se2 = cov_se2 + (np.outer(d, d) + sigma**2) / Ra.shape[1]
            else:
                mean, cov = W.T @ spec.means[a], sigma
            assert np.all(np.abs(Sa.mean(axis=1) - mean) <= 5 * np.sqrt(mean_se2))
            assert np.all(np.abs(np.cov(Sa) - cov) <= 5 * np.sqrt(cov_se2))

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
        n1 = np.sum(ds.y_clean == -1)
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


def _dense_frame_gram(gram, V, T) -> tuple[np.ndarray, np.ndarray]:
    """``(Q, G_f)``, dense: the frame ``Q = I - V T V^T`` of a banded draw
    and its Gram in the frame, from ``gram`` and ``frame = (V, T)`` (or
    stacks of them, one draw per leading index)."""
    p = gram.shape[-1]
    G = np.zeros(gram.shape[:-2] + (p, p))
    for j in range(gram.shape[-2]):
        i = np.arange(p - j)
        G[..., i + j, i] = G[..., i, i + j] = gram[..., j, :p - j]
    return np.eye(p) - V @ T @ np.swapaxes(V, -1, -2), G


def _frame_width(stats: TrainingStats) -> int:
    """``s``: the frame's reflector count, the band's half-width."""
    return stats.frame[0].shape[1]


def _flipped(spec, n, seed):
    """One noisy label vector of ``n`` draws of ``spec``, as a list."""
    if isinstance(spec, GmmSpec):
        return [flip_label_vector(spec.labels(n), 0.3, 0.2, seed)]
    return [flip_multi_labels(spec, spec.labels(n), seed)]


class TestGenerateTrainingStats:
    MU = np.array([0.9, -0.5, 0.3, 0.2, -0.1, 0.4, -0.6, 0.1, 0.5, -0.2])
    MULTI = MultiGmmSpec(means=np.stack([-MU[:3], np.zeros(3), MU[2::-1]]),
                         pi=[0.25, 0.25, 0.5], eps=np.zeros((3, 3)))
    # three means in general position in p = 16
    NONCOLLINEAR = MultiGmmSpec(means=np.stack([np.resize(MU, 16), np.resize(MU[::-1], 16),
                                                np.resize(MU[::2], 16)]),
                                pi=[0.3, 0.3, 0.4], eps=np.array([[0, 0.2, 0.1], [0.1, 0, 0.2],
                                                                  [0.2, 0.1, 0]]))
    # (spec, noisy label vectors, the regime's condition on (p, d, s, blocks))
    REGIMES = {
        "d>p": (GmmSpec(0.4, MU[:8]), _flipped(GmmSpec(0.4, MU[:8]), 20, 5),
                lambda p, d, s, blocks: d > p > s),
        "d<p": (GmmSpec(0.5, MU), _flipped(GmmSpec(0.5, MU), 12, 3),
                lambda p, d, s, blocks: s < d < p),
        "d=0": (GmmSpec(0.5, MU[:8]), [[-1, 1, -1, 1]],  # every sample its own group
                lambda p, d, s, blocks: d == 0 and s < p),
        "d>p_multi_k3": (MULTI, [[1, 2, 1, 2, 2, 3, 3, 3, 1, 3, 2, 3]],
                         lambda p, d, s, blocks: d > p),
        "s>=p": (GmmSpec(0.4, MU[:3]), [[-1, -1, 1, -1, 1, 1, -1, 1, 1, 1]],
                 lambda p, d, s, blocks: s >= p),
        "3_blocks": (GmmSpec(1 / 3, np.resize(MU, 66)),
                     _flipped(GmmSpec(1 / 3, np.resize(MU, 66)), 80, 2),
                     lambda p, d, s, blocks: blocks >= 3),
        "multi_noncollinear": (NONCOLLINEAR, _flipped(NONCOLLINEAR, 30, 1),
                               lambda p, d, s, blocks: s < p < d),
    }

    @pytest.mark.parametrize("regime", REGIMES)
    def test_law_matches_feature_draws(self, regime):
        # the draw is exact up to an orthogonal map fixing span(means, X U):
        # the entries of X U, tr G, tr G^2 and, at two gammas with A = G/n +
        # gamma I, the entries of (X U)^T A^-1 X U, means^T A^-1 X U and
        # (X U)^T A^-2 X U agree in mean and variance with those formed from
        # generate_gmm's features (generate_multi_gmm's for a MultiGmmSpec),
        # within 5 standard errors over 1000 draws each
        spec, noisy, condition = self.REGIMES[regime]
        p, n = spec.p, len(noisy[0])
        labels = [spec.labels(n), *(np.array(y) for y in noisy)]
        stats = generate_training_stats(spec, labels, 0)
        d, s = n - stats.sizes.size, _frame_width(stats)
        assert condition(p, d, s, -(-p // max(s, _BLOCK)))
        U, reps = _indicators(stats.group), 1000
        features = generate_gmm if isinstance(spec, GmmSpec) else generate_multi_gmm

        def invariants(G, xu, xu_frame, means_frame):
            # stacked per draw: G, X U, and X U and the means' rows in G's frame
            out = [xu, np.trace(G, axis1=1, axis2=2), np.sum(G * G, axis=(1, 2))]
            for gamma in (0.3, 1.5):
                Y = np.linalg.solve(G / n + gamma * np.eye(p), xu_frame)  # A^-1 X U
                out += [xu_frame.transpose(0, 2, 1) @ Y, means_frame @ Y,
                        Y.transpose(0, 2, 1) @ Y]
            return np.column_stack([a.reshape(len(G), -1) for a in out])

        def drawn_invariants(seeds):
            stats = [generate_training_stats(spec, labels, derive_seed(s, 0)) for s in seeds]
            Q, G = _dense_frame_gram(*map(np.array, zip(*((st.gram, *st.frame) for st in stats))))
            xu = np.array([st.xu for st in stats])
            return invariants(G, xu, Q.transpose(0, 2, 1) @ xu, spec.means @ Q)

        def formed_invariants(seeds):
            X = np.array([features(spec, n, derive_seed(s, 1)).X for s in seeds])
            return invariants(X @ X.transpose(0, 2, 1), X @ U, X @ U, spec.means)

        chunks = np.array_split(np.arange(reps), 4)  # about 10 MB a chunk at p = 66
        drawn = np.vstack([drawn_invariants(c) for c in chunks])
        formed = np.vstack([formed_invariants(c) for c in chunks])
        # a zero mean row gives entries that are 0 in every draw
        constant = np.all(drawn == 0, axis=0) & np.all(formed == 0, axis=0)
        drawn, formed = drawn[:, ~constant], formed[:, ~constant]
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

    def test_band_fit_is_the_dense_fit_in_its_frame(self):
        # a draw over several blocks trains to the weights of its Gram made
        # dense in the original coordinates (one block, identity frame)
        spec = GmmSpec.isotropic(100, 0.4, 1.5)
        labels = [spec.labels(150), *_flipped(spec, 150, 4)]
        stats = generate_training_stats(spec, labels, 8)
        assert 100 > 2 * max(_frame_width(stats), _BLOCK)
        Q, G = _dense_frame_gram(stats.gram, *stats.frame)
        dense = TrainingStats(gram=Q @ G @ Q.T, xu=stats.xu, group=stats.group)
        T = np.column_stack([_targets(labels[1], RhoParams(0.3, 0.2)), labels[0]])
        for gamma in (1e-2, 1.0):
            for targets in (T, T[:, 0]):
                W = train_multi_lpc(stats, targets, gamma)
                W_dense = train_multi_lpc(dense, targets, gamma)
                assert W.shape == W_dense.shape
                assert np.linalg.norm(W - W_dense) <= 1e-12 * np.linalg.norm(W_dense)

    def test_no_p_by_p_array(self):
        # p = n = 20000: a dense Gram alone would take 3.2 GB
        spec = GmmSpec.isotropic(20000, 0.5, 2.0)
        y = spec.labels(20000)
        noisy = flip_label_vector(y, 0.2, 0.1, 1)
        tracemalloc.start()
        try:
            stats = generate_training_stats(spec, [y, noisy], 0)
            train_lpc(stats, RhoParams(0.2, 0.1), 0.5, labels=noisy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

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
        # X U, then the band's normals row by row, then the chi-squares of
        # the diagonal and of the outer diagonal (d < p: rows 6 and 7 have
        # no diagonal entry)
        spec = GmmSpec(pi1=0.5, mu=np.array([1.0, 0.0, -2.0, 0.5, 0.0, 0.0, 0.3, 0.0]))
        labels = [spec.labels(10), np.array([-1, 1, -1, -1, 1, 1, -1, 1, -1, 1])]
        stats = generate_training_stats(spec, labels, 9)
        _, first, sizes = np.unique(stats.group, return_index=True, return_counts=True)
        p, r = 8, sizes.size
        d, s = 10 - r, 2 + r
        assert (d, s) == (6, 6)
        rng = _rng(9)
        xu = rng.standard_normal((p, r)) + np.outer(spec.mu, labels[0][first] * np.sqrt(sizes))
        B = np.zeros((p, d))
        for i in range(p):
            lo, hi = max(0, i - s + 1), min(i, d)
            B[i, lo:hi] = rng.standard_normal(max(hi - lo, 0))
        B[range(d), range(d)] = np.sqrt(rng.chisquare(d - np.arange(d)))
        B[[6, 7], [0, 1]] = np.sqrt(rng.chisquare([2, 1]))
        Q = np.linalg.qr(np.hstack([spec.means.T, xu]), mode="complete")[0]
        G = B @ B.T + (Q.T @ xu) @ (Q.T @ xu).T
        np.testing.assert_array_equal(stats.xu, xu)
        Q_drawn, G_drawn = _dense_frame_gram(stats.gram, *stats.frame)
        np.testing.assert_allclose(Q_drawn, Q, rtol=0, atol=1e-14)
        np.testing.assert_allclose(G_drawn, G, rtol=1e-14, atol=1e-13)
        assert stats.gram.shape == (s + 1, p)

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
        assert all(np.array_equal(a, b) for a, b in zip(again.frame, stats.frame))

    def test_no_remaining_noise_leaves_the_group_sums(self):
        spec = GmmSpec.isotropic(8, 0.5, 1.0)
        stats = generate_training_stats(spec, [spec.labels(4), [-1, 1, -1, 1]], 2)
        Q, G = _dense_frame_gram(stats.gram, *stats.frame)
        np.testing.assert_allclose(Q @ G @ Q.T, stats.xu @ stats.xu.T, rtol=0, atol=1e-13)
        s = _frame_width(stats)
        assert s < 8 and not np.any(G[s:]) and not np.any(G[:, s:])

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
        (MultiGmmSpec(np.eye(3), [0.25, 0.25, 0.5], np.zeros((3, 3))),
         [[1, 3, 3, 2], [1, 2, 3, 3]], "start with the clean labels"),
        (MultiGmmSpec(np.eye(3), [0.25, 0.25, 0.5], np.zeros((3, 3))),
         [[1, 2, 3, 3], [1, 4, 3, 0]], "\\+1, \\+2 or \\+3"),
    ], ids=["covariance", "clean_first", "label_values", "multi_clean_first",
            "multi_label_values"])
    def test_invalid_input_raises(self, spec, labels, match):
        with pytest.raises(ValueError, match=match):
            generate_training_stats(spec, labels or [spec.labels(4)], 0)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(gram=np.eye(2), xu=np.ones(2), group=[0, 0]), "xu must be p x r"),
        (dict(gram=np.eye(3), xu=np.ones((2, 1)), group=[0, 0]), "gram must be p x p"),
        (dict(gram=np.ones((1, 2)), xu=np.ones((2, 1)), group=[0, 0],
              frame=(np.ones((2, 1)),)), r"frame must be the pair \(V, T\)"),
        (dict(gram=np.ones((1, 2)), xu=np.ones((2, 1)), group=[0, 0],
              frame=(np.ones((2, 1)), np.ones((2, 2)))), r"frame must be the pair \(V, T\)"),
        (dict(gram=np.ones((3, 2)), xu=np.ones((2, 1)), group=[0, 0],
              frame=(np.ones((2, 1)), np.ones((1, 1)))), "a banded gram must be"),
        (dict(gram=np.eye(2), xu=np.ones((2, 2)), group=[0, 2]), "group must number"),
        (dict(gram=np.eye(2), xu=np.ones((2, 1)), group=[[0, 0]]), "group must number"),
    ], ids=["xu_1d", "dense_gram_shape", "frame_length", "frame_t_shape",
            "banded_gram_shape", "group_gap", "group_2d"])
    def test_malformed_statistics_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrainingStats(**kwargs)

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_cites_path_and_row(self, tmp_path, value):
        # float() parses these spellings, so the loader must refuse them itself
        path = self._write(tmp_path, f"1,1.0,2.0\n-1,3.0,4.0\n1,5.0,{value}\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: non-finite .* row 3"):
            load_features_csv(path, label_column=0)

    def test_header_and_named_column(self, tmp_path):
        path = self._write(tmp_path, "f1,label,f2\n0.5,1,2.0\n1.5,-1,3.0\n")
        ds = load_features_csv(path, label_column="label", has_header=True)
        assert (ds.n, ds.p) == (2, 2)
        np.testing.assert_allclose(ds.X[:, 0], [0.5, 2.0])

    @pytest.mark.parametrize("text, kwargs, match", [
        ("f1,label\n", dict(label_column="label", has_header=True), "no data rows after header"),
        ("f1,label\n0.5,1\n", dict(label_column="lbl", has_header=True),
         "label column 'lbl' not found in header"),
        ("1,1.0,2.0\n-1,1.0,2.0\n", dict(label_column=3),
         "label column index 3 out of range for 3 columns"),
        ("1,1.0,2.0\n-1,1.0,2.0\n", dict(label_column=-4),
         "label column index -4 out of range for 3 columns"),
    ], ids=["header_only", "unknown_name", "index_past_end", "index_before_start"])
    def test_malformed_layout_rejected(self, tmp_path, text, kwargs, match):
        with pytest.raises(ValueError, match=match):
            load_features_csv(self._write(tmp_path, text), **kwargs)

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
