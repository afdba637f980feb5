"""The names the benchmark in ``perfbench/`` reads from ``lpc``.

``perfbench/worker.py`` and ``perfbench/tracing.py`` reach into the library
by attribute and function name.  These tests read those modules, edit
nothing, and fail when a name they rely on is renamed or deleted.
"""

import importlib
import pathlib
import sys

import numpy as np
import pytest

import lpc
import lpc.experiments as ex
from lpc.datasets import LabeledDataset

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name)
               for name in ("workloads", "worker", "tracing")}
    finally:
        sys.path.remove(str(PERFBENCH))


def test_workload_configs_parse(bench, tmp_path):
    workloads = bench["workloads"]
    for name, w in workloads.WORKLOADS.items():
        cfg = ex.parse_config_file(PERFBENCH.parent / w.config,
                                   workloads.overrides(name, 0, str(tmp_path), tiny=True))
        assert cfg.threads >= 1 and cfg.seeds
        assert cfg.resolved_out() == str(tmp_path)
        assert workloads.expected_cells(cfg)


def test_worker_entry_points_exist():
    for attr in ("parse_config_file", "run_experiment", "emit_report", "read_report_csv"):
        assert callable(getattr(ex, attr))


def _tiny_calls(out_dir) -> dict:
    """``(args, kwargs)`` of one tiny call per traced function with a counter."""
    from lpc.multiclass import MultiGmmSpec

    model = lpc.GmmSpec.isotropic(10, 0.4, 2.0)
    noisy = lpc.flip_labels(lpc.generate_gmm(model, 200, 0), 0.2, 0.1, seed=1)
    means = np.zeros((2, 5))
    means[:, 0] = -1.0, 1.0
    cfg = ex.parse_config_text("schema_version = 1\nexperiment = histogram\nn = 40\n"
                               "p = 10\nn_test = 50\nvariants = naive\n")
    return {
        "datasets.generate_gmm": ((model, 200, 0), {}),
        "datasets.flip_labels": ((noisy, 0.2, 0.1, 1), {}),
        "noise.estimate_noise_rates": (
            (noisy, lpc.RhoParams(0.0, 0.1), lpc.RhoParams(0.0, 0.4)),
            dict(gamma=0.1, snr=2.0, pi1=0.4)),
        "multiclass.search_alpha_beta": (
            (MultiGmmSpec(means, pi=[0.5, 0.5], eps=np.zeros((2, 2))), 60),
            dict(grid_size=7, eval_seeds=[0], gamma=1.0, n_test=40, tau_points=2)),
        "experiments.emit_report": ((ex.run_experiment(cfg), str(out_dir)), {}),
    }


def test_traced_functions_exist(bench, tmp_path):
    # a span name is "<layer>.<function>"; its counter reads the call's result,
    # so each counter is applied to a real result of a tiny call
    tracing = bench["tracing"]
    calls = _tiny_calls(tmp_path)
    expected = {"datasets.generate_gmm": {"floats": 2000}, "datasets.flip_labels": {"floats": 200},
                "multiclass.search_alpha_beta": {"candidates": 7}}
    for name, counter in tracing._COUNTERS.items():
        layer, fn = name.split(".")
        if layer == tracing.LINALG:
            continue
        args, kwargs = calls[name]
        counts = counter(args, kwargs, getattr(importlib.import_module(f"lpc.{layer}"), fn)(
            *args, **kwargs))
        assert counts and all(int(v) == v >= 0 for v in counts.values()), (name, counts)
        assert counts == expected.get(name, counts), name
    assert (tmp_path / "report.csv").stat().st_size > 0


def test_noise_estimate_fields():
    ds = lpc.flip_labels(lpc.generate_gmm(lpc.GmmSpec.isotropic(10, 0.4, 2.0), 200, 0),
                         0.2, 0.1, seed=1)
    est = lpc.estimate_noise_rates(ds, lpc.RhoParams(0.0, 0.1), lpc.RhoParams(0.0, 0.4),
                                   gamma=0.1, snr=2.0, pi1=0.4)
    assert isinstance(est.iterations, int)
    assert isinstance(est.newton_converged, bool)
    assert isinstance(est.high_residual, bool)


def test_search_result_candidate_accuracy():
    from lpc.multiclass import MultiGmmSpec, search_alpha_beta

    spec = MultiGmmSpec(means=np.array([[-1.0] + [0] * 4, [1.0] + [0] * 4]),
                        pi=np.array([0.5, 0.5]), eps=np.zeros((2, 2)))
    res = search_alpha_beta(spec, 60, grid_size=7, eval_seeds=[0], gamma=1.0, n_test=40,
                            tau_points=2)
    assert res.candidate_accuracy.shape == (7,)


def test_degenerate_loo_warning_text(bench):
    # scaling sample 0 by 1e6 makes its downdate denominator degenerate
    base = lpc.flip_labels(lpc.generate_gmm(lpc.GmmSpec.isotropic(3, 0.4, 1.5), 12, 0),
                           0.2, 0.1, seed=1000)
    X = base.X.copy()
    X[:, 0] *= 1e6
    ds = LabeledDataset(X=X, y_noisy=base.y_noisy, y_clean=base.y_clean)
    with pytest.warns(UserWarning) as caught:
        lpc.loo_decisions(ds, lpc.RhoParams(0.2, 0.1), 1e-3)
    assert any(bench["worker"].LOO_FALLBACK_WARNING in str(w.message) for w in caught)
