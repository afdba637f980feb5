"""The benchmark's workloads, the inputs derived from a seed, and the
correctness gate applied to every ``report.csv``."""

from __future__ import annotations

import math
from dataclasses import dataclass

# Seed lists of different benchmark seeds never overlap.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    config: str  # shipped config, relative to the checkout root
    # Seeds of one run.  The shipped count, except where one run of it
    # would leave too few runs in a measuring window for a steady median.
    seeds_per_run: int
    # Config overrides of the self-test: the same code paths at tiny sizes.
    tiny: dict


# BENCHMARK.json lists all but estimate_noise.  Its pool threads and the
# BLAS threads oversubscribe the cores, and each run falls at random into a
# fast (about 1.5 s) or a slow (about 3.8 s) mode, so no median or mean over
# a run window is steady: 5 runs of 20 s spread by 0.41 (quartile distance
# over median).  It stays runnable by hand, being the only workload that
# reaches lpc.noise and the harness's thread pool.
WORKLOADS = {
    # Shipped with 5 seeds, about 10 s; one seed still does the 11 grid
    # points x 5 variants that refactor the same Gram matrix.
    "sweep_rho": Workload("configs/sweep_rho.cfg", 1,
                          {"n": 400, "p": 200, "n_test": 2000}),
    "histogram_highdim": Workload("configs/histogram_highdim.cfg", 1,
                                  {"n": 400, "p": 80, "n_test": 2000}),
    "estimate_noise": Workload("configs/estimate_noise.cfg", 10,
                               {"n": 300, "p": 30}),
    "multiclass": Workload("configs/multiclass.cfg", 3,
                           {"n": 300, "p": 30, "n_test": 300, "grid_size": 200}),
}


def overrides(workload: str, seed: int, out: str, tiny: bool) -> dict:
    """Config overrides: the seed list (and the multiclass candidate seed)
    derived from the benchmark seed, and the output directory.  The
    config's own ``threads`` is kept."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    w = WORKLOADS[workload]
    keys = {
        "seeds": tuple(seed * SEED_STRIDE + i for i in range(w.seeds_per_run)),
        "out": out,
    }
    if workload == "multiclass":
        keys["search_seed"] = seed
    if tiny:
        keys.update(w.tiny)
    return keys


# Per-cell tolerance |empirical - theory| <= atol + rtol * |theory|.  Set
# from the seed-to-seed spread of the shipped configs with a wide margin:
# the gate catches a broken estimator or a theory/empirical mismatch, not
# Monte Carlo noise.
TOLERANCE = {
    "accuracy": (0.15, 0.0),
    "risk": (0.05, 0.2),
    "mean_class1": (0.1, 0.2),
    "mean_class2": (0.1, 0.2),
    "std_class1": (0.1, 0.2),
    "std_class2": (0.1, 0.2),
    "eps_plus_hat": (0.5, 0.0),
    "eps_minus_hat": (0.5, 0.0),
}

_HISTOGRAM_METRICS = ("mean_class1", "mean_class2", "std_class1", "std_class2",
                      "accuracy", "risk")


def expected_cells(cfg) -> dict[tuple, bool]:
    """``(variant, grid_value, seed, metric)`` of every cell the run must
    report, mapped to whether the cell is paired with a theory value."""
    seeds = cfg.seeds
    if cfg.experiment == "histogram":
        return {(v, 0.0, s, m): True for v in cfg.variants for s in seeds
                for m in _HISTOGRAM_METRICS}
    if cfg.experiment == "sweep":
        return {(v, g, s, m): True for v in cfg.variants for g in cfg.grid for s in seeds
                for m in ("accuracy", "risk")}
    if cfg.experiment == "estimate-noise":
        return {("estimator", g, s, m): m != "residual" for g in cfg.grid for s in seeds
                for m in ("eps_plus_hat", "eps_minus_hat", "residual")}
    if cfg.experiment == "multiclass":
        import numpy as np  # the tau grid exactly as the harness builds it

        first = seeds[0]
        cells = {("multi-lpc", float(t), s, "accuracy"): False
                 for t in np.linspace(0.0, 1.0, cfg.tau_points) for s in seeds}
        cells.update({("naive", 1.0, first, "accuracy"): False,
                      ("best", 1.0, first, "accuracy"): False,
                      ("worst", 0.0, first, "accuracy"): False})
        return cells
    raise ValueError(f"no cell layout for experiment {cfg.experiment!r}")


@dataclass(frozen=True)
class Verdict:
    expected: int
    failed: int
    theory_gap: float | None  # mean |empirical - theory| over theory cells
    problems: tuple[str, ...]  # the first few failures, for the log


def check_report(path, cfg, read_report_csv) -> Verdict:
    """Parse ``report.csv`` and count the expected cells that fail.

    A cell fails if it is missing, non-finite, lacks its theory value, or
    lies outside :data:`TOLERANCE`; an accuracy must lie in [0, 1].  A
    non-finite value in a cell that is not expected counts as one more
    failure.
    """
    expected = expected_cells(cfg)
    try:
        rows = read_report_csv(path)
    except (OSError, ValueError) as exc:
        return Verdict(len(expected), len(expected), None, (f"unreadable report: {exc}",))
    problems = []
    seen = set()
    failed = 0
    gaps = []
    for r in rows:
        key = (r["variant"], r["grid_value"], r["seed"], r["metric"])
        values = [r["empirical"]] + [r[c] for c in ("theory", "gap") if r[c] is not None]
        ok = all(math.isfinite(v) for v in values)
        if r["theory"] is not None and ok:
            gaps.append(abs(r["empirical"] - r["theory"]))
        if key in expected and key not in seen:
            seen.add(key)
            ok = ok and _within_tolerance(r, expected[key])
        if not ok:
            failed += 1
            problems.append(f"{key}: empirical={r['empirical']!r} theory={r['theory']!r}")
    missing = expected.keys() - seen
    failed += len(missing)
    problems += [f"{key}: missing" for key in sorted(missing, key=repr)]
    gap = sum(gaps) / len(gaps) if gaps else None
    return Verdict(len(expected), failed, gap, tuple(problems[:5]))


def _within_tolerance(row, paired: bool) -> bool:
    metric, emp, theory = row["metric"], row["empirical"], row["theory"]
    if metric == "accuracy" and not 0.0 <= emp <= 1.0:
        return False
    if not paired:
        return True
    if theory is None:
        return False
    atol, rtol = TOLERANCE[metric]
    return abs(emp - theory) <= atol + rtol * abs(theory)
