"""Experiment drivers reproducing the validation figures and tables.

:func:`run_experiment` runs the experiment an :class:`ExperimentConfig`
declares and returns a :class:`RunReport` pairing every empirical cell with
its theoretical counterpart where one exists.  Variants differ only in their
regression targets:

- ``naive``      noisy labels, rho = (0, 0)
- ``unbiased``   noisy labels, rho = (eps_plus, eps_minus)
- ``optimized``  noisy labels, rho = :func:`~lpc.theory.optimal_rho` of the model
- ``oracle``     clean labels, rho = (0, 0); its theory is at zero noise
- ``custom``     noisy labels, configured rho

``histogram``, ``sweep`` and ``real-data`` make one measurement, each
variant's Monte Carlo cell next to its closed-form prediction at a model
point, and :func:`_run_paired` is their one driver.  A sweep has a point per
grid value (:meth:`~ExperimentConfig.at_grid_point`); a histogram or
real-data run has one, at grid value 0.  A cell's numbers are fixed by
its key: its labels (clean for ``oracle``, else its point's flip-rate pair),
its ``rho`` and its ``gamma``.  Per seed the driver flips the clean labels
once per distinct rate pair, makes one training draw, trains and scores each
distinct key once with :func:`_score`, measures it once, and reports its
values in the row of every cell (point, then variant) that has that key
(:data:`_ROWS`): ``configs/sweep_rho.cfg`` has 55 cells per seed and 14
keys, as ``naive``, ``unbiased``, ``optimized`` and ``oracle`` do not read
the swept ``rho_plus`` and ``custom`` at ``rho_plus = 0`` is ``naive``.
Equal keys share the model, noise rates, ``rho`` and ``gamma``, so they
share the theory too.  :func:`_variants` reads every
variant's ``(rho, theory)`` off one model part of :mod:`lpc.theory`, which
depends on the model, ``n`` and ``gamma`` alone: it is built once per
distinct ``gamma`` of a synthetic run (once for a ``rho_plus`` or
``eps_plus`` sweep, once per point of a ``gamma`` sweep), once per seed of a
CSV run (each split has its own class proportion), and once for
:func:`theory_csv`.  :func:`_ingest` loads and standardizes a CSV.
A draw's Gram is formed once; every distinct key of a ``gamma`` is one
target column of a single block solve.

Seed ``s`` draws from the streams ``derive_seed(s, stream)``:

==========  ===========================  =====  ================
run         train                        flips  test
==========  ===========================  =====  ================
synthetic   0 (statistics, or features)  1      2 (scores)
CSV         3 (a split)                  1      the split's rest
==========  ===========================  =====  ================

Every grid point of a seed flips from the seed's one flip stream: each label
has one uniform, compared with every point's rate, so an ``eps_plus``
sweep's flipped sets are nested (common random numbers: the cells of a seed
move together along the grid, and each cell keeps its law).  Of the
synthetic runs only ``estimate-noise`` draws features
(:func:`~lpc.datasets.generate_gmm`); every other synthetic training set,
``multiclass``'s included, is drawn as the statistics the solve reads, not
as features: the targets are
functions of the labels, which are flipped before the draw, so
:func:`~lpc.datasets.generate_training_stats` draws the per-label-group sums
``X U`` of all the seed's label vectors (clean, then each distinct rate
pair's noisy ones), ``p x r`` normals for ``r`` groups, and the Gram
``X X^T`` in the orthogonal frame of the means and ``X U``, where its noise
part is banded with half-width ``s = k + r`` (``k`` mean rows): about
``p (s - 1)`` normals and ``2 p`` chi-squares instead of ``p x n`` features,
and a ridge fit in ``b x b`` blocks instead of a ``p x p`` solve.  A
synthetic test set is drawn as scores: given the ``p x k`` weights ``W`` of
all the distinct keys that share it, a class-``a`` test point's scores
``W.T @ x`` are exactly ``N(-+W.T mu, W.T C_a W)``, and
:func:`~lpc.datasets.generate_scores` draws ``k x n_test`` of them instead
of a ``p x n_test`` feature matrix.  The
training draw is exact up to an orthogonal map that fixes the span of the
means and ``X U``, which every fit's weights and every isotropic test
score see through; so the empirical cells have exactly the law of the
feature draws the two draws replace.  All the cells of a seed (every grid
point of a sweep) share one training draw and one test set.  A CSV run trains
on its split's features and scores its held-out rest.

A ``multiclass`` seed (:func:`~lpc.multiclass.search_alpha_beta`) makes the
same three draws through the same functions: its noisy labels by
:func:`~lpc.multiclass.flip_multi_labels`, the statistics for its clean and
noisy labels, and the scores of its test set under the ``p x (k + 1)``
one-hot and all-ones weights, which serve every candidate.  At
``configs/multiclass.cfg`` (``p = 200``, ``n = n_test = 2000``, ``k = 3``,
6 label groups) that is 1,200 + 1,564 normals, 391 chi-squares, 2,000 flip
uniforms and 6,000 score normals per seed, instead of two ``200 x 2000``
feature draws and their flips (804,000 numbers).  The search selects the
best and worst candidates on their exact accuracy given each seed's
training draw (``SearchResult.candidate_accuracy``); the reported path
between them, its ends ``best`` and ``worst`` included, and ``naive`` are
sampled, measured on each seed's test scores.

Three settings are fixed, not configured: a histogram run bins its first
seed's scores in :data:`_BINS` (60) bins, the noise estimator trains the
probes :data:`_PROBES`, ``rho = (0, 0.1)`` and ``(0, 0.4)``, and the
multiclass path has ``ExperimentConfig.tau_points`` (11) points.

Empirical accuracies are orientation-calibrated: predictions are
``sign(m_rho) * sign(w @ x)`` with ``sign(m_rho)`` taken from the theory
(heavy label noise turns the mean negative, as for ``naive`` at
``sweep_noise.cfg``'s ``eps_plus = 0.7``: the raw solution points away).
"""

from __future__ import annotations

import math

import numpy as np

from ..core import RhoParams, _accuracy, _loo_operator, _Ridge, _targets
from ..datasets import (
    GmmSpec,
    StandardizeResult,
    _rng,
    derive_seed,
    flip_label_vector,
    generate_gmm,
    generate_scores,
    generate_training_stats,
    load_features_csv,
    standardize_and_estimate,
)
from ..multiclass import search_alpha_beta
from ..noise import _estimate, estimate_noise_rates
from ..theory import TheoryStats, _model_part, _ModelPart
from .config import ConfigError, ExperimentConfig
from .report import RunReport
from .svgplot import Figure

__all__ = ["run_experiment", "theory_csv"]

# the histogram's bin count, and the noise estimator's two probes; their
# gaps rho_plus - rho_minus differ, as lpc.noise needs
_BINS = 60
_PROBES = RhoParams(0.0, 0.1), RhoParams(0.0, 0.4)


def _variants(cfg: ExperimentConfig, part: _ModelPart) -> dict[str, tuple[RhoParams, TheoryStats]]:
    """``{variant: (rho, theory)}`` of every configured variant at the
    config's flip rates (a grid point's: :meth:`~ExperimentConfig.at_grid_point`),
    all read from ``part``, the model part of the point's model, ``n`` and
    ``gamma``: the optimized ``rho`` and every variant's theory, the
    oracle's at zero noise."""
    out = {}
    for v in cfg.variants:
        if v == "unbiased":
            rho = RhoParams(cfg.eps_plus, cfg.eps_minus)
        elif v == "optimized":
            rho = part.optimal_rho(cfg.eps_plus, cfg.eps_minus)
        elif v == "custom":
            rho = RhoParams(cfg.custom_rho_plus, cfg.custom_rho_minus)
        else:  # naive, oracle
            rho = RhoParams()
        noise = (0.0, 0.0) if v == "oracle" else (cfg.eps_plus, cfg.eps_minus)
        out[v] = rho, part.stats(*noise, rho)
    return out


def _score(ridge: _Ridge, cells: list, test) -> tuple[np.ndarray, np.ndarray]:
    """The test scores (row ``j`` of cell ``j``) and test labels of the
    distinct cells ``(labels, rho, gamma)`` of one draw, each trained once on
    its ridge systems, one block solve per ``gamma``.  ``test(W) -> (scores,
    labels)`` scores the ``p x len(cells)`` weights, column ``j`` of cell
    ``j``, on one test set: 14 columns for ``configs/sweep_rho.cfg``'s 55
    report cells per seed."""
    W = np.empty((ridge.p, len(cells)))
    for gamma in dict.fromkeys(g for *_, g in cells):
        cols = [j for j, c in enumerate(cells) if c[2] == gamma]
        targets = [_targets(y, rho) for y, rho, _ in (cells[j] for j in cols)]
        W[:, cols] = ridge.weights(np.column_stack(targets), gamma)
    return test(W)


def _ingest(cfg: ExperimentConfig, clean: bool) -> StandardizeResult:
    """Load ``cfg.data_path`` (its labels are ground truth when ``clean``)
    and standardize it; a single-class dataset raises."""
    try:
        label = int(cfg.label_column)
    except ValueError:
        label = cfg.label_column
    return standardize_and_estimate(load_features_csv(
        cfg.data_path, label, has_clean_labels=clean, has_header=cfg.has_header))


# ---------------------------------------------------------------------------
# paired cells: histogram, sweep, real data
# ---------------------------------------------------------------------------


# metric -> (its empirical value at a cell's test scores s, test labels y and
# orientation o = sign(m_rho), its theory at the cell's TheoryStats st)
_METRICS = {
    "mean_class1": (lambda s, y, o: s[y == -1].mean(), lambda st: -st.m_rho),
    "mean_class2": (lambda s, y, o: s[y == +1].mean(), lambda st: st.m_rho),
    "std_class1": (lambda s, y, o: s[y == -1].std(), lambda st: math.sqrt(st.variance)),
    "std_class2": (lambda s, y, o: s[y == +1].std(), lambda st: math.sqrt(st.variance)),
    "accuracy": (_accuracy, lambda st: st.accuracy),
    "risk": (lambda s, y, o: np.mean((s - y) ** 2), lambda st: st.risk),
}

# the rows a paired experiment reports per cell and seed
_ROWS = {
    "histogram": tuple(_METRICS),
    "sweep": ("accuracy", "risk"),
    "real-data": ("accuracy",),
}


def _run_paired(cfg: ExperimentConfig) -> RunReport:
    """Every variant's Monte Carlo cells next to its theory, at every grid
    point, as the rows ``_ROWS[cfg.experiment]`` in seed, grid point,
    variant and metric order.

    A synthetic run draws its training statistics and test scores from
    ``cfg.model`` and reads the theory of that model.  With ``data_path``
    set, a ``real-data`` run ingests the CSV, standardizes it and splits it
    per seed into ``n`` training samples and the rest as the test set; the
    dimension is the CSV's (the config names no ``p``).  Its theory's model is
    isotropic with the CSV's dimension, the estimated SNR and the split's
    class proportion.
    """
    kind = cfg.experiment
    sweep = kind == "sweep"
    points = [(value, cfg.at_grid_point(value)) for value in cfg.grid] if sweep else [(0.0, cfg)]
    data = None
    if kind == "real-data" and cfg.data_path:
        std = _ingest(cfg, clean=True)
        data, snr = std.dataset, std.snr_estimate
        if cfg.n >= data.n:
            raise ValueError(f"n={cfg.n} needs held-out samples, dataset has {data.n}")
        fixed = [None] * len(points)  # each split's theory reads its class proportion
    else:
        # a part depends on the model, n and gamma alone: one per distinct gamma
        gammas = dict.fromkeys(pt.gamma for _, pt in points)
        parts = {g: _model_part(cfg.model, cfg.n, g) for g in gammas}
        fixed = [_variants(pt, parts[pt.gamma]) for _, pt in points]

    report = RunReport(cfg)
    for seed in cfg.seeds:
        if data is None:
            y_clean = cfg.model.labels(cfg.n)
        else:
            order = _rng(derive_seed(seed, 3)).permutation(data.n)
            tr, te = order[: cfg.n], order[cfg.n:]
            y_clean = data.y_clean[tr]
        # the label vectors a key names: "clean" (oracle) or a flip-rate pair
        labels = {"clean": y_clean}
        for _, point in points:
            rates = point.eps_plus, point.eps_minus
            if rates not in labels:
                labels[rates] = flip_label_vector(y_clean, *rates, derive_seed(seed, 1))
        if data is None:
            train = generate_training_stats(cfg.model, list(labels.values()), derive_seed(seed, 0))

            def test(W):
                return generate_scores(cfg.model, W, cfg.n_test, derive_seed(seed, 2))
        else:
            train = data.X[:, tr]

            def test(W):
                return W.T @ data.X[:, te], data.y_clean[te]
        cols, rows = {}, []  # key -> its column; (variant, value, theory, column) per row
        for (value, point), variants in zip(points, fixed):
            if variants is None:
                pi1 = int(np.sum(y_clean == -1)) / cfg.n
                model = GmmSpec.isotropic(data.p, pi1, snr)
                variants = _variants(point, _model_part(model, cfg.n, point.gamma))
            for v, (rho, st) in variants.items():
                key = ("clean" if v == "oracle" else (point.eps_plus, point.eps_minus),
                       rho, point.gamma)
                rows.append((v, value, st, cols.setdefault(key, len(cols))))
        scores, y = _score(_Ridge(train), [(labels[k], rho, g) for k, rho, g in cols], test)
        measured = {}  # column -> its empirical metrics; equal keys share the theory too
        for v, value, st, j in rows:
            if j not in measured:
                o = 1.0 if st.m_rho >= 0 else -1.0
                measured[j] = [_METRICS[m][0](scores[j], y, o) for m in _ROWS[kind]]
            for m, emp in zip(_ROWS[kind], measured[j]):
                report.add(v, value, seed, m, emp, _METRICS[m][1](st))
        if seed == cfg.seeds[0]:
            first_scores = {v: scores[j] for v, _, _, j in rows}
    if kind == "histogram":
        theories = {v: st for v, (_, st) in fixed[0].items()}
        report.figure_svg, report.extra_files["bins.csv"] = _histogram_outputs(
            cfg, first_scores, theories)
    elif sweep:
        report.figure_svg = _sweep_figure(cfg, report)
    else:
        report.figure_svg, report.extra_files["table.txt"] = _real_data_outputs(cfg, report)
    return report


def _gauss_mixture_density(x: np.ndarray, st: TheoryStats, pi1: float) -> np.ndarray:
    sigma = math.sqrt(st.variance)
    z1 = (x + st.m_rho) / sigma
    z2 = (x - st.m_rho) / sigma
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    return norm * (pi1 * np.exp(-0.5 * z1**2) + (1.0 - pi1) * np.exp(-0.5 * z2**2))


def _histogram_outputs(cfg, score_map, theories) -> tuple[str, str]:
    """Decision-value histograms of the first seed against the predicted
    Gaussian mixture: the figure and ``bins.csv``."""
    lo = min(float(s.min()) for s in score_map.values())
    hi = max(float(s.max()) for s in score_map.values())
    edges = np.linspace(lo, hi, _BINS + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    fig = Figure(title=f"decision values (p={cfg.p}, n={cfg.n})",
                 xlabel="w @ x", ylabel="density")
    lines = ["variant,bin_left,bin_right,density_empirical,density_theory"]
    for v, scores in score_map.items():
        dens, _ = np.histogram(scores, bins=edges, density=True)
        theory_dens = _gauss_mixture_density(centers, theories[v], cfg.pi1)
        fig.bars(centers, dens, width=float(edges[1] - edges[0]), label=f"{v} (emp)")
        fig.line(centers, theory_dens, label=f"{v} (theory)", dashed=True)
        for i in range(_BINS):
            lines.append(
                f"{v},{float(edges[i])!r},{float(edges[i + 1])!r},"
                f"{float(dens[i])!r},{float(theory_dens[i])!r}"
            )
    return fig.render(), "\n".join(lines) + "\n"


def _sweep_figure(cfg: ExperimentConfig, report: RunReport) -> str:
    fig = Figure(title=f"accuracy vs {cfg.sweep_param} (p={cfg.p}, n={cfg.n})",
                 xlabel=cfg.sweep_param, ylabel="test accuracy")
    for v in cfg.variants:
        emp = [report.mean_over_seeds(v, "accuracy", g) for g in cfg.grid]
        th = [report.theory_value(v, "accuracy", g) for g in cfg.grid]
        fig.line(cfg.grid, emp, label=f"{v} (emp)", markers=True)
        fig.line(cfg.grid, th, label=f"{v} (theory)", dashed=True)
    return fig.render()


def _real_data_outputs(cfg: ExperimentConfig, report: RunReport) -> tuple[str, str]:
    """The accuracy-by-variant figure and ``table.txt``."""
    fig = Figure(title="accuracy by variant", xlabel="variant index", ylabel="accuracy")
    xs = list(range(len(cfg.variants)))
    fig.line(xs, [report.mean_over_seeds(v, "accuracy") for v in cfg.variants],
             label="empirical", markers=True)
    fig.line(xs, [report.theory_value(v, "accuracy") for v in cfg.variants],
             label="theory", dashed=True)
    lines = [
        f"accuracy (% mean +- std over {len(cfg.seeds)} seeds), "
        f"eps_plus={cfg.eps_plus}, eps_minus={cfg.eps_minus}"
    ]
    for v in cfg.variants:
        vals = [100.0 * r.empirical for r in report.cells(v, "accuracy")]
        lines.append(f"{v:<12s} {np.mean(vals):6.2f} +- {np.std(vals):.2f}")
    return fig.render(), "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# noise-rate estimation
# ---------------------------------------------------------------------------


def _run_noise_estimation(cfg: ExperimentConfig) -> RunReport:
    """Sweep the true eps_plus and recover it from leave-one-out moments.

    Per seed one feature draw (stream 0) gets one leave-one-out operator, a
    single label-free solve (:func:`~lpc.core._loo_operator`).  Its clean
    labels are flipped at every grid point by
    :func:`~lpc.datasets.flip_label_vector` from the seed's one flip stream
    (stream 1), so a label flipped at one ``eps_plus`` stays flipped at
    every larger one.  Each point's labels go through the label step of
    :func:`~lpc.noise.estimate_noise_rates`, so a cell equals that function
    on the point's flipped draw; every cell inverts at the run's one model
    part.

    Each cell also reports the solver's ``residual`` and ``roots``, the
    number of exact solutions in the capped simplex (0: the least-squares
    point was taken; 2: the estimate is ambiguous).

    With ``data_path`` set the sweep is skipped: the rates of the ingested
    noisy dataset are estimated once (single-shot) and reported as one row
    set at the config's one seed.  That estimate is biased: the SNR and ``pi1``
    it inverts at are read from the noisy labels by
    :func:`standardize_and_estimate`, whose centering also moves the
    theory's origin.  On 10 CSVs of ``n = 1000`` draws of
    ``GmmSpec.isotropic(100, 1/3, 2)`` flipped at ``(0.3, 0.2)``, with
    ``gamma = 0.1`` and the probes :data:`_PROBES`, the mean estimate is
    ``(0.000, 0.138)``, read at ``pi1 = 0.465`` and ``snr = 0.52``.
    """
    if cfg.data_path:
        return _estimate_from_file(cfg)
    report = RunReport(cfg)
    part = _model_part(cfg.model, cfg.n, cfg.gamma)
    for seed in cfg.seeds:
        clean = generate_gmm(cfg.model, cfg.n, derive_seed(seed, 0))
        loo, flips = _loo_operator(clean.X, cfg.gamma), derive_seed(seed, 1)
        for eps_plus in cfg.grid:
            est = _estimate(loo, flip_label_vector(clean.y_clean, eps_plus, cfg.eps_minus, flips),
                            cfg.pi1, part, _PROBES)
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


def _estimate_from_file(cfg: ExperimentConfig) -> RunReport:
    report = RunReport(cfg)
    std = _ingest(cfg, clean=False)  # warns: noisy-label SNR is biased
    snr, pi1 = std.snr_estimate, std.pi1_estimate
    est = estimate_noise_rates(std.dataset, *_PROBES, cfg.gamma, snr, pi1)
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
# multiclass
# ---------------------------------------------------------------------------

def _run_multiclass(cfg: ExperimentConfig) -> RunReport:
    """The (alpha, beta) search and the best/worst mixing path.

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
    dimension, SNR and class proportion from the CSV), the binary theory
    does not describe a ``multiclass`` run, and an ``estimate-noise`` run
    reports no variant (its theory cells are the true flip rates), so all
    three raise.
    """
    if cfg.data_path:
        raise ConfigError("theory needs a synthetic model; this config sets data_path, "
                          "whose p, snr and pi1 come from the CSV at run time")
    if cfg.experiment == "multiclass":
        raise ConfigError("theory describes the binary model; a multiclass run has "
                          "no closed form")
    if cfg.experiment == "estimate-noise":
        raise ConfigError("an estimate-noise run reports no variant's theory: the theory "
                          "cells of its estimates are the true flip rates")
    eta = cfg.p / cfg.n
    part = _model_part(cfg.model, cfg.n, cfg.gamma)
    oracle = part.stats(0.0, 0.0, RhoParams())
    cols = ("variant", "eta", "gamma", "delta", "h", "m_rho", "nu_rho",
            "variance", "kappa", "m_oracle", "nu_oracle", "accuracy", "risk")
    lines = [",".join(cols)]
    for v, (_, st) in _variants(cfg, part).items():
        vals = (v, eta, cfg.gamma, st.delta, st.h, st.m_rho, st.nu_rho, st.variance,
                st.kappa, oracle.m_rho, oracle.nu_rho, st.accuracy, st.risk)
        lines.append(",".join(v if isinstance(v, str) else repr(v) for v in vals))
    return "\n".join(lines) + "\n"


_RUNNERS = {
    "histogram": _run_paired,
    "sweep": _run_paired,
    "estimate-noise": _run_noise_estimation,
    "multiclass": _run_multiclass,
    "real-data": _run_paired,
}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run the experiment ``cfg`` declares."""
    return _RUNNERS[cfg.experiment](cfg)
