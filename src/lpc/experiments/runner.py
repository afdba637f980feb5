"""Experiment drivers reproducing the validation figures and tables.

Each ``run_*`` function consumes an :class:`ExperimentConfig` and returns a
:class:`RunReport` pairing every empirical cell with its theoretical
counterpart where one exists.  Variants differ only in their regression
targets:

- ``naive``      noisy labels, rho = (0, 0)
- ``unbiased``   noisy labels, rho = (eps_plus, eps_minus)
- ``optimized``  noisy labels, rho = :func:`~lpc.theory.optimal_rho` of the model
- ``oracle``     clean labels, rho = (0, 0); its theory is at zero noise
- ``custom``     noisy labels, configured rho

Each harness decision is made in one function: :func:`_variants` resolves
every variant's ``(rho, theory)`` at a model point, :func:`_draw` draws a
synthetic training set, :func:`_test_scores` a synthetic test set,
:func:`_ingest` loads and standardizes a CSV, and :func:`_score` trains and
scores cells.  Every variant and grid point that shares a training draw
(and ``gamma``) is one target column of a single block solve on that
draw's ridge system.

A synthetic test set is drawn as scores, not as features: given the ``p x
k`` weights ``W`` of all the cells that share it, a class-``a`` test point's
scores ``W.T @ x`` are exactly ``N(-+W.T mu, W.T C_a W)``, and
:func:`~lpc.datasets.generate_scores` draws ``k x n_test`` of them instead
of a ``p x n_test`` feature matrix.  The empirical cells are still a sample
of ``n_test`` test points, with the same law as scoring a feature draw, and
all the cells of a seed (every grid point of a sweep) share one test set.
A CSV run scores its held-out split's features.

Empirical accuracies are orientation-calibrated: predictions are
``sign(m_rho) * sign(w @ x)`` with ``sign(m_rho)`` taken from the theory
(heavy label noise turns the mean negative, as for ``naive`` at
``sweep_noise.cfg``'s ``eps_plus = 0.7``: the raw solution points away).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..core import RhoParams, _Ridge, _targets
from ..datasets import (
    GmmSpec,
    LabeledDataset,
    StandardizeResult,
    _rng,
    derive_seed,
    flip_labels,
    generate_gmm,
    generate_scores,
    load_features_csv,
    standardize_and_estimate,
)
from ..multiclass import search_alpha_beta
from ..noise import estimate_noise_rates
from ..theory import TheoryStats, optimal_rho, theory_stats
from .config import NOISE_FEATURE_STREAMS, NOISE_FLIP_STREAMS, ConfigError, ExperimentConfig
from .report import RunReport
from .svgplot import Figure

__all__ = [
    "run_experiment",
    "run_histogram",
    "run_multiclass",
    "run_noise_estimation",
    "run_real_data",
    "run_sweep",
    "theory_csv",
]


def _variants(cfg: ExperimentConfig, model: GmmSpec,
              n: int) -> dict[str, tuple[RhoParams, TheoryStats]]:
    """``{variant: (rho, theory)}`` of every configured variant at the
    config's flip rates and gamma (a grid point's: :meth:`~ExperimentConfig.at_grid_point`),
    trained on ``n`` draws of ``model``."""
    out = {}
    for v in cfg.variants:
        if v == "unbiased":
            rho = RhoParams(cfg.eps_plus, cfg.eps_minus)
        elif v == "optimized":
            rho = optimal_rho(model, n, cfg.gamma, cfg.eps_plus, cfg.eps_minus)
        elif v == "custom":
            rho = RhoParams(cfg.custom_rho_plus, cfg.custom_rho_minus)
        else:  # naive, oracle
            rho = RhoParams()
        noise = (0.0, 0.0) if v == "oracle" else (cfg.eps_plus, cfg.eps_minus)
        out[v] = rho, theory_stats(model, n, cfg.gamma, *noise, rho=rho)
    return out


def _score(X: np.ndarray, cells: list, test) -> tuple[list[tuple[np.ndarray, float, float]],
                                                      np.ndarray]:
    """``(test scores, accuracy, squared risk)`` of every cell ``(noisy,
    variant, rho, gamma, theory)`` trained on the features ``X``, one block
    solve per ``gamma``, and the test labels.  ``test(W) -> (scores, labels)``
    scores the ``p x len(cells)`` weights, column ``j`` of cell ``j``, on one
    test set.  ``oracle`` trains on the clean labels; predictions are
    oriented by the theory's ``sign(m_rho)``."""
    W = np.empty((X.shape[0], len(cells)))
    for gamma in dict.fromkeys(c[3] for c in cells):
        cols = [j for j, c in enumerate(cells) if c[3] == gamma]
        targets = [_targets(ds.y_clean if v == "oracle" else ds.y_noisy, rho)
                   for ds, v, rho, *_ in (cells[j] for j in cols)]
        W[:, cols] = _Ridge(X, gamma).weights(np.column_stack(targets))
    scores, y_test = test(W)
    out = []
    for s, (*_, st) in zip(scores, cells):
        pred = np.where((1.0 if st.m_rho >= 0 else -1.0) * s >= 0, 1, -1)
        out.append((s, float(np.mean(pred == y_test)), float(np.mean((s - y_test) ** 2))))
    return out, y_test


def _draw(cfg: ExperimentConfig, n: int, seed: int, stream: int) -> LabeledDataset:
    """``n`` samples of ``cfg.model``, from stream ``stream`` of ``seed``."""
    return generate_gmm(cfg.model, n, derive_seed(seed, stream))


def _test_scores(cfg: ExperimentConfig, seed: int, stream: int):
    """The test set of a synthetic run, ``cfg.n_test`` samples of
    ``cfg.model`` from stream ``stream`` of ``seed``, as the :func:`_score`
    callable ``W -> (scores, labels)``."""
    return lambda W: generate_scores(cfg.model, W, cfg.n_test, derive_seed(seed, stream))


def _ingest(cfg: ExperimentConfig, clean: bool) -> StandardizeResult:
    """Load ``cfg.data_path`` (its labels are ground truth when ``clean``)
    and standardize it; a single-class dataset raises."""
    try:
        label = int(cfg.label_column)
    except ValueError:
        label = cfg.label_column
    std = standardize_and_estimate(load_features_csv(
        cfg.data_path, label, has_clean_labels=clean, has_header=cfg.has_header))
    if std.single_class:
        raise ValueError("ingested data has a single class")
    return std


def _pool_map(fn, args, threads: int):
    if threads <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, args))


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def run_histogram(cfg: ExperimentConfig) -> RunReport:
    """Decision-value distributions of every variant against the predicted
    Gaussian mixture; bins from the first seed, moment rows from all."""
    report = RunReport(cfg)
    variants = _variants(cfg, cfg.model, cfg.n)
    theories = {v: st for v, (_, st) in variants.items()}

    def one_seed(seed: int):
        noisy = flip_labels(_draw(cfg, cfg.n, seed, 0),
                            cfg.eps_plus, cfg.eps_minus, derive_seed(seed, 1))
        cells = [(noisy, v, rho, cfg.gamma, st) for v, (rho, st) in variants.items()]
        return (seed, *_score(noisy.X, cells, _test_scores(cfg, seed, 2)))

    first_seed_scores: dict[str, np.ndarray] = {}
    for seed, scored, y in _pool_map(one_seed, list(cfg.seeds), cfg.threads):
        for (v, st), (scores, acc, risk) in zip(theories.items(), scored):
            sigma = math.sqrt(st.variance)
            c1, c2 = scores[y == -1], scores[y == +1]
            for metric, emp, theory in (
                ("mean_class1", c1.mean(), -st.m_rho), ("mean_class2", c2.mean(), st.m_rho),
                ("std_class1", c1.std(), sigma), ("std_class2", c2.std(), sigma),
                ("accuracy", acc, st.accuracy), ("risk", risk, st.risk),
            ):
                report.add(v, 0.0, seed, metric, emp, theory)
            if seed == cfg.seeds[0]:
                first_seed_scores[v] = scores

    report.figure_svg, report.extra_files["bins.csv"] = _histogram_outputs(
        cfg, first_seed_scores, theories
    )
    return report


def _gauss_mixture_density(x: np.ndarray, st: TheoryStats, pi1: float) -> np.ndarray:
    sigma = math.sqrt(st.variance)
    z1 = (x + st.m_rho) / sigma
    z2 = (x - st.m_rho) / sigma
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    return norm * (pi1 * np.exp(-0.5 * z1**2) + (1.0 - pi1) * np.exp(-0.5 * z2**2))


def _histogram_outputs(cfg, score_map, theories) -> tuple[str, str]:
    lo = min(float(s.min()) for s in score_map.values())
    hi = max(float(s.max()) for s in score_map.values())
    edges = np.linspace(lo, hi, cfg.bins + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    fig = Figure(title=f"decision values (p={cfg.p}, n={cfg.n})",
                 xlabel="w @ x", ylabel="density")
    lines = ["variant,bin_left,bin_right,density_empirical,density_theory"]
    for v, scores in score_map.items():
        dens, _ = np.histogram(scores, bins=edges, density=True)
        theory_dens = _gauss_mixture_density(centers, theories[v], cfg.pi1)
        fig.bars(centers, dens, width=float(edges[1] - edges[0]), label=f"{v} (emp)")
        fig.line(centers, theory_dens, label=f"{v} (theory)", dashed=True)
        for i in range(cfg.bins):
            lines.append(
                f"{v},{float(edges[i])!r},{float(edges[i + 1])!r},"
                f"{float(dens[i])!r},{float(theory_dens[i])!r}"
            )
    return fig.render(), "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def run_sweep(cfg: ExperimentConfig) -> RunReport:
    """Accuracy/risk versus a swept parameter (eps_plus, rho_plus or gamma),
    empirical markers against theory curves.

    The feature draw and the test set are shared across the grid per seed;
    for the eps_plus sweep only the flips are redrawn per grid point.
    """
    report = RunReport(cfg)
    points = []
    for g, value in enumerate(cfg.grid):
        point = cfg.at_grid_point(value)
        flip_stream = 10 + g if cfg.sweep_param == "eps_plus" else 1
        points.append((value, point.eps_plus, flip_stream, point.gamma,
                       _variants(point, cfg.model, cfg.n)))

    def one_seed(seed: int):
        train = _draw(cfg, cfg.n, seed, 0)
        cells, values = [], []
        for value, eps_plus, flip_stream, gamma, variants in points:
            noisy = flip_labels(train, eps_plus, cfg.eps_minus, derive_seed(seed, flip_stream))
            cells += [(noisy, v, rho, gamma, st) for v, (rho, st) in variants.items()]
            values += [value] * len(variants)
        scored, _ = _score(train.X, cells, _test_scores(cfg, seed, 2))
        return [(v, value, seed, acc, risk, st)
                for (_, v, *_, st), value, (_, acc, risk) in zip(cells, values, scored)]

    for rows in _pool_map(one_seed, list(cfg.seeds), cfg.threads):
        for v, value, seed, acc, risk, st in rows:
            report.add(v, value, seed, "accuracy", acc, st.accuracy)
            report.add(v, value, seed, "risk", risk, st.risk)

    report.figure_svg = _sweep_figure(cfg, report)
    return report


def _sweep_figure(cfg: ExperimentConfig, report: RunReport) -> str:
    fig = Figure(title=f"accuracy vs {cfg.sweep_param} (p={cfg.p}, n={cfg.n})",
                 xlabel=cfg.sweep_param, ylabel="test accuracy")
    for v in cfg.variants:
        emp = [report.mean_over_seeds(v, "accuracy", g) for g in cfg.grid]
        th = [report.theory_value(v, "accuracy", g) for g in cfg.grid]
        fig.line(cfg.grid, emp, label=f"{v} (emp)", markers=True)
        fig.line(cfg.grid, th, label=f"{v} (theory)", dashed=True)
    return fig.render()


# ---------------------------------------------------------------------------
# noise-rate estimation
# ---------------------------------------------------------------------------


def run_noise_estimation(cfg: ExperimentConfig) -> RunReport:
    """Sweep the true eps_plus and recover it from leave-one-out moments.

    Each cell also reports the solver's ``residual`` and ``roots``, the
    number of exact solutions in the capped simplex (0: the least-squares
    point was taken; 2: the estimate is ambiguous).

    With ``data_path`` set the sweep is skipped: the rates of the ingested
    noisy dataset are estimated once (single-shot), with SNR and class
    proportion taken from :func:`standardize_and_estimate` (approximate,
    noisy-label based), and reported as one row set at the first seed.
    """
    probe1 = RhoParams(cfg.probe1_rho_plus, cfg.probe1_rho_minus)
    probe2 = RhoParams(cfg.probe2_rho_plus, cfg.probe2_rho_minus)
    if cfg.data_path:
        return _estimate_from_file(cfg, probe1, probe2)
    report = RunReport(cfg)

    def one_seed(seed: int):
        rows = []
        for g, eps_plus in enumerate(cfg.grid):
            noisy = flip_labels(
                _draw(cfg, cfg.n, seed, NOISE_FEATURE_STREAMS + g),
                eps_plus, cfg.eps_minus, derive_seed(seed, NOISE_FLIP_STREAMS + g))
            est = estimate_noise_rates(noisy, probe1, probe2, cfg.gamma, cfg.snr, cfg.pi1)
            rows.append((eps_plus, seed, est))
        return rows

    for rows in _pool_map(one_seed, list(cfg.seeds), cfg.threads):
        for eps_plus, seed, est in rows:
            report.add("estimator", eps_plus, seed, "eps_plus_hat", est.eps_plus, eps_plus)
            report.add("estimator", eps_plus, seed, "eps_minus_hat", est.eps_minus,
                       cfg.eps_minus)
            report.add("estimator", eps_plus, seed, "residual", est.residual)
            report.add("estimator", eps_plus, seed, "roots", len(est.roots))

    fig = Figure(title=f"noise-rate recovery (snr={cfg.snr})",
                 xlabel="true eps_plus", ylabel="estimated eps_plus")
    means = [report.mean_over_seeds("estimator", "eps_plus_hat", g) for g in cfg.grid]
    fig.line(cfg.grid, cfg.grid, label="diagonal", dashed=True, color="#999999")
    fig.line(cfg.grid, means, label="estimate", markers=True)
    report.figure_svg = fig.render()
    return report


def _estimate_from_file(cfg: ExperimentConfig, probe1: RhoParams,
                        probe2: RhoParams) -> RunReport:
    report = RunReport(cfg)
    std = _ingest(cfg, clean=False)  # warns: noisy-label SNR is biased
    snr, pi1 = std.snr_estimate, std.pi1_estimate
    est = estimate_noise_rates(std.dataset, probe1, probe2, cfg.gamma, snr, pi1)
    seed = cfg.seeds[0]
    report.add("estimator", 0.0, seed, "eps_plus_hat", est.eps_plus)
    report.add("estimator", 0.0, seed, "eps_minus_hat", est.eps_minus)
    report.add("estimator", 0.0, seed, "residual", est.residual)
    report.add("estimator", 0.0, seed, "roots", len(est.roots))
    report.add("estimator", 0.0, seed, "snr_estimate", snr)
    report.add("estimator", 0.0, seed, "pi1_estimate", pi1)
    fig = Figure(title="noise-rate estimate (ingested data)",
                 xlabel="component (0 = eps_plus, 1 = eps_minus)", ylabel="estimate")
    fig.line([0, 1], [est.eps_plus, est.eps_minus], label="estimate", markers=True)
    report.figure_svg = fig.render()
    return report


# ---------------------------------------------------------------------------
# real data (or its synthetic stand-in)
# ---------------------------------------------------------------------------


def run_real_data(cfg: ExperimentConfig) -> RunReport:
    """Table-style variant comparison with noise injected on clean labels.

    With ``data_path`` set, ingests the CSV, standardizes it and splits it
    per seed into ``n`` training samples and the rest as the test set; the
    dimension is the CSV's, so ``p`` is ignored.  Otherwise draws a
    synthetic stand-in from ``cfg.model``.  For CSV data the theory's model
    is isotropic with the CSV's dimension, the estimated SNR and the
    split's class proportion, trained on the ``n`` split samples.
    """
    report = RunReport(cfg)
    data = None
    if cfg.data_path:
        std = _ingest(cfg, clean=True)
        data, snr = std.dataset, std.snr_estimate
        if cfg.n >= data.n:
            raise ValueError(f"n={cfg.n} needs held-out samples, dataset has {data.n}")

    def one_seed(seed: int):
        if data is not None:
            order = _rng(derive_seed(seed, 3)).permutation(data.n)
            tr, te = order[: cfg.n], order[cfg.n:]
            train = LabeledDataset(X=data.X[:, tr], y_noisy=data.y_clean[tr],
                                   y_clean=data.y_clean[tr])
            test_X, test_y = data.X[:, te], data.y_clean[te]

            def test(W):
                return W.T @ test_X, test_y
        else:
            train = _draw(cfg, cfg.n, seed, 5)
            test = _test_scores(cfg, seed, 6)
        noisy = flip_labels(train, cfg.eps_plus, cfg.eps_minus, derive_seed(seed, 4))
        model = cfg.model if data is None else GmmSpec.isotropic(
            noisy.p, noisy.class_counts[0] / noisy.n, snr)
        variants = _variants(cfg, model, noisy.n)
        cells = [(noisy, v, rho, cfg.gamma, st) for v, (rho, st) in variants.items()]
        scored, _ = _score(noisy.X, cells, test)
        return [(v, seed, acc, st.accuracy)
                for (_, v, *_, st), (_, acc, _) in zip(cells, scored)]

    for rows in _pool_map(one_seed, list(cfg.seeds), cfg.threads):
        for v, seed, acc, theory_acc in rows:
            report.add(v, 0.0, seed, "accuracy", acc, theory_acc)

    report.extra_files["table.txt"] = _accuracy_table(cfg, report)
    fig = Figure(title="accuracy by variant", xlabel="variant index", ylabel="accuracy")
    xs = list(range(len(cfg.variants)))
    fig.line(xs, [report.mean_over_seeds(v, "accuracy") for v in cfg.variants],
             label="empirical", markers=True)
    fig.line(xs, [report.theory_value(v, "accuracy") for v in cfg.variants],
             label="theory", dashed=True)
    report.figure_svg = fig.render()
    return report


def _accuracy_table(cfg: ExperimentConfig, report: RunReport) -> str:
    lines = [
        f"accuracy (% mean +- std over {len(cfg.seeds)} seeds), "
        f"eps_plus={cfg.eps_plus}, eps_minus={cfg.eps_minus}"
    ]
    for v in cfg.variants:
        vals = [100.0 * r.empirical for r in report.rows
                if r.variant == v and r.metric == "accuracy"]
        lines.append(f"{v:<12s} {np.mean(vals):6.2f} +- {np.std(vals):.2f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# multiclass
# ---------------------------------------------------------------------------

def run_multiclass(cfg: ExperimentConfig) -> RunReport:
    """Monte Carlo (alpha, beta) search and the best/worst mixing path.

    Multiclass cells are empirical-only (the binary theory does not apply);
    their theory column is left empty.  ``naive``, ``best`` and ``worst``
    have one row per seed, like the path.
    """
    report = RunReport(cfg)
    result = search_alpha_beta(cfg.model, cfg.n, grid_size=cfg.grid_size,
                               eval_seeds=list(cfg.seeds), gamma=cfg.gamma, n_test=cfg.n_test,
                               tau_points=cfg.tau_points, search_seed=cfg.search_seed)
    for j, seed in enumerate(cfg.seeds):
        for i, tau in enumerate(result.tau_grid):
            report.add("multi-lpc", float(tau), seed, "accuracy", result.tau_accuracy[i, j])
        # the path's ends are the best (tau 1) and the worst (tau 0) candidate
        report.add("naive", 1.0, seed, "accuracy", result.naive_seed_accuracy[j])
        report.add("best", 1.0, seed, "accuracy", result.tau_accuracy[-1, j])
        report.add("worst", 0.0, seed, "accuracy", result.tau_accuracy[0, j])

    lines = ["tau,mean,std," + ",".join(f"seed_{s}" for s in cfg.seeds)]
    for tau, per_seed in zip(result.tau_grid, result.tau_accuracy):
        vals = (tau, per_seed.mean(), per_seed.std(), *per_seed)
        lines.append(",".join(repr(float(x)) for x in vals))
    report.extra_files["tau_accuracy.csv"] = "\n".join(lines) + "\n"

    fig = Figure(title=f"multiclass (k={len(cfg.means)}, p={cfg.p}, n={cfg.n})",
                 xlabel="tau (worst -> best)", ylabel="accuracy")
    means = result.tau_accuracy.mean(axis=1)
    fig.line(result.tau_grid, means, label="multi-lpc path", markers=True)
    naive = float(result.naive_seed_accuracy.mean())
    fig.line([0.0, 1.0], [naive, naive], label="naive", dashed=True)
    report.figure_svg = fig.render()
    return report


# ---------------------------------------------------------------------------
# theory printout and dispatch
# ---------------------------------------------------------------------------


def theory_csv(cfg: ExperimentConfig) -> str:
    """TheoryStats of every variant at the configured model, as CSV text;
    ``m_oracle`` and ``nu_oracle`` are the moments at ``rho = (0, 0)`` and
    zero noise.

    A ``data_path`` config has no configured model (a run reads its
    dimension, SNR and class proportion from the CSV), and the binary theory
    does not describe a ``multiclass`` run, so both raise.
    """
    if cfg.data_path:
        raise ConfigError("theory needs a synthetic model; this config sets data_path, "
                          "whose p, snr and pi1 come from the CSV at run time")
    if cfg.experiment == "multiclass":
        raise ConfigError("theory describes the binary model; a multiclass run has "
                          "no closed form")
    eta = cfg.p / cfg.n
    oracle = theory_stats(cfg.model, cfg.n, cfg.gamma)
    cols = ("variant", "eta", "gamma", "delta", "h", "m_rho", "nu_rho",
            "variance", "kappa", "m_oracle", "nu_oracle", "accuracy", "risk")
    lines = [",".join(cols)]
    for v, (_, st) in _variants(cfg, cfg.model, cfg.n).items():
        vals = (v, eta, cfg.gamma, st.delta, st.h, st.m_rho, st.nu_rho, st.variance,
                st.kappa, oracle.m_rho, oracle.nu_rho, st.accuracy, st.risk)
        lines.append(",".join(v if isinstance(v, str) else repr(v) for v in vals))
    return "\n".join(lines) + "\n"


_RUNNERS = {
    "histogram": run_histogram,
    "sweep": run_sweep,
    "estimate-noise": run_noise_estimation,
    "multiclass": run_multiclass,
    "real-data": run_real_data,
}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run the experiment ``cfg`` declares."""
    return _RUNNERS[cfg.experiment](cfg)
