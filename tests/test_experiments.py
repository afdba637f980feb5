import argparse
import dataclasses
import functools
import itertools
import os
import pathlib
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import lpc
import lpc.experiments as ex
from lpc.experiments import cli, config, runner
from lpc.experiments.cli import main as cli_main
from lpc.experiments.config import ConfigError, ExperimentConfig
from lpc.experiments.svgplot import Figure

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

SWEEP_CFG = """
schema_version = 1
experiment = sweep
sweep_param = eps_plus
grid = 0,0.2,0.4
n = 100
p = 50
pi1 = 0.3333333
snr = 2
gamma = 10
eps_minus = 0.2
variants = naive,oracle,custom
custom_rho_plus = 0.2
custom_rho_minus = 0
seeds = 0,1
n_test = 2000
"""


_PUBLIC_API_GRIDS = {"rho_plus": (-0.3, 0.6, 1.5), "eps_plus": (0.0, 0.3),
                     "gamma": (0.1, 1.0, 10.0)}


def _public_api_cfg(experiment, sweep=None):
    # pi1 * n is whole, so real-data's training class proportion is pi1; a
    # sweep names no swept key, which it does not read
    sweep_keys = (f"sweep_param = {sweep}\ngrid = {','.join(map(str, _PUBLIC_API_GRIDS[sweep]))}\n"
                  if sweep else "")
    swept = {"rho_plus": "custom_rho_plus"}.get(sweep, sweep)
    keys = "".join(f"{line}\n" for line in (
        "gamma = optimal", "eps_plus = 0.3", "eps_minus = 0.2",
        "variants = custom,naive,unbiased,optimized,oracle",
        "custom_rho_plus = 0.2", "custom_rho_minus = 0") if line.split()[0] != swept)
    return (f"schema_version = 1\nexperiment = {experiment}\n{sweep_keys}n = 120\np = 40\n"
            f"pi1 = 0.3\nsnr = 2\n{keys}seeds = 0,1\nn_test = 500\n")


def _replay(cfg, seed):
    """``{(variant, grid value): (test scores, test labels, theory)}`` of one
    seed of a synthetic run, by the public API: the labels flipped by
    ``lpc.flip_label_vector`` per grid point, ``lpc.train_lpc`` (on clean
    labels for ``oracle``) on ``lpc.generate_training_stats`` drawn for all
    of them, on the seed's ``derive_seed`` streams (0 train, 1 flips, 2
    test), the weights of every cell stacked in cell order (grid point, then
    variant) and scored by ``lpc.generate_scores``, and
    ``lpc.theory_stats``."""
    from lpc.datasets import derive_seed

    model = lpc.GmmSpec.isotropic(cfg.p, cfg.pi1, cfg.snr)
    y_clean = model.labels(cfg.n)
    points = []
    for value in cfg.grid or (0.0,):
        eps_plus, gamma, custom = cfg.eps_plus, ex.OPTIMAL_GAMMA, cfg.custom_rho_plus
        if cfg.experiment == "sweep" and cfg.sweep_param == "eps_plus":
            eps_plus = value
        elif cfg.experiment == "sweep" and cfg.sweep_param == "gamma":
            gamma = value
        elif cfg.experiment == "sweep":
            custom = value
        y_noisy = lpc.flip_label_vector(y_clean, eps_plus, cfg.eps_minus, derive_seed(seed, 1))
        points.append((value, eps_plus, gamma, custom, y_noisy))
    train = lpc.generate_training_stats(model, [y_clean] + [pt[-1] for pt in points],
                                        derive_seed(seed, 0))
    keys, weights, stats = [], [], []
    for value, eps_plus, gamma, custom, y_noisy in points:
        for variant in cfg.variants:
            rho = {
                "custom": lpc.RhoParams(custom, cfg.custom_rho_minus),
                "naive": lpc.RhoParams(),
                "unbiased": lpc.RhoParams(eps_plus, cfg.eps_minus),
                "optimized": lpc.optimal_rho(model, cfg.n, gamma, eps_plus, cfg.eps_minus),
                "oracle": lpc.RhoParams(),
            }[variant]
            labels, noise = y_noisy, (eps_plus, cfg.eps_minus)
            if variant == "oracle":
                labels, noise = y_clean, (0.0, 0.0)
            keys.append((variant, value))
            weights.append(lpc.train_lpc(train, rho, gamma, labels=labels).w)
            stats.append(lpc.theory_stats(model, cfg.n, gamma, *noise, rho=rho))
    S, y = lpc.generate_scores(model, np.column_stack(weights), cfg.n_test,
                               derive_seed(seed, 2))
    return {key: (s, y, st) for key, s, st in zip(keys, S, stats)}


def _toy_csv(path, seed, rows, features, shift, p_pos):
    """A labelled CSV (label first) whose class means are ``-+shift``."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(rows):
        label = 1 if rng.uniform() < p_pos else -1
        feats = rng.standard_normal(features) + shift * label
        lines.append(",".join([str(label)] + [f"{v:.6f}" for v in feats]))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestConfigParsing:
    def test_round_trip_of_known_keys(self):
        cfg = ex.parse_config_text(SWEEP_CFG)
        assert cfg.experiment == "sweep"
        assert cfg.grid == (0.0, 0.2, 0.4)
        assert cfg.variants == ("naive", "oracle", "custom")
        assert cfg.seeds == (0, 1)

    def test_comments_and_blank_lines(self):
        cfg = ex.parse_config_text(
            "# header\nschema_version = 1\n\nexperiment = histogram # trailing\n"
        )
        assert cfg.experiment == "histogram"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ex.parse_config_text("schema_version = 1\nexperiment = sweep\ngrid = 1\nbogus = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ex.parse_config_text("schema_version = 1\nschema_version = 1\nexperiment = histogram\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="experiment"):
            ex.parse_config_text("schema_version = 1\n")
        with pytest.raises(ConfigError, match="schema_version"):
            ex.parse_config_text("experiment = histogram\n")

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="schema_version"):
            ex.parse_config_text("schema_version = 2\nexperiment = histogram\n")

    def test_grid_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            ex.parse_config_text(
                "schema_version = 1\nexperiment = sweep\ngrid = 0.4,0.2\n"
            )

    @pytest.mark.parametrize("text, match", [
        ("experiment = histogram\nseeds =\n", "seeds must be nonempty"),
        ("experiment = histogram\nvariants =\n", "variants must be nonempty"),
        ("experiment = sweep\nsweep_param = pi1\ngrid = 1\n", "unknown sweep_param 'pi1'"),
        ("experiment = sweep\nsweep_param = gamma\n", "'sweep' needs a nonempty grid"),
        ("experiment = histogram\nhas_header = maybe\n",
         "key 'has_header': expected a boolean, got 'maybe'"),
        ("experiment = histogram\nn 40\n", "line 3: expected 'key = value', got 'n 40'"),
        ("experiment = histogram\nn = x\n", "key 'n': invalid literal"),
    ], ids=["empty_seeds", "empty_variants", "unknown_sweep_param", "sweep_without_grid",
            "bad_boolean", "line_without_equals", "non_integer"])
    def test_malformed_config_refused(self, text, match):
        with pytest.raises(ConfigError, match=match):
            ex.parse_config_text("schema_version = 1\n" + text)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            ex.parse_config_text(
                "schema_version = 1\nexperiment = histogram\nvariants = bogus\n"
            )

    def test_gamma_optimal_literal(self):
        cfg = ex.parse_config_text("schema_version = 1\nexperiment = histogram\ngamma = optimal\n")
        assert cfg.gamma == ex.OPTIMAL_GAMMA
        with pytest.raises(ConfigError, match="gamma"):
            ex.parse_config_text("schema_version = 1\nexperiment = histogram\ngamma = -3\n")

    def test_eps_rows(self):
        cfg = ex.parse_config_text(
            "schema_version = 1\nexperiment = multiclass\nmeans = -1,1\n"
            "pis = 0.5,0.5\neps_rows = 0,0.2; 0.1,0\ngrid_size = 5\n"
        )
        assert cfg.eps_rows == ((0.0, 0.2), (0.1, 0.0))

    @pytest.mark.parametrize("given", [
        "", "pis = 0.1,0.2,0.3,0.4\n",
        "eps_rows = 0,0,0,0.1; 0,0,0,0; 0,0,0,0; 0,0,0,0\n",
    ], ids=["neither", "pis_only", "eps_only"])
    def test_multiclass_defaults_fit_only_k_3(self, given):
        # the default pis and eps rows are a k = 3 model: any other count of
        # means must spell out both, and is refused at parse, not at run time
        with pytest.raises(ConfigError, match="k=4"):
            ex.parse_config_text("schema_version = 1\nexperiment = multiclass\n"
                                 "means = -3,-1,1,3\n" + given)

    @pytest.mark.parametrize("bad, match", [
        ("grid_size = 0", "grid_size"),
        ("gamma = optimal", "numeric gamma"),
        ("eps_rows = 0,0.3; 0,0; 0.5,0", "eps matrix"),
        ("search_seed = -3", "search_seed"),
    ], ids=["grid_size", "gamma", "eps_row_width", "search_seed"])
    def test_multiclass_search_ranges(self, bad, match):
        head = "schema_version = 1\nexperiment = multiclass\n"
        assert ex.parse_config_text(head + "grid_size = 1\n").grid_size == 1
        with pytest.raises(ConfigError, match=match):
            ex.parse_config_text(head + bad + "\n")

    @pytest.mark.parametrize("key", ["bins", "snr"])
    def test_override_keys_checked_as_file_keys(self, key):
        # an unknown override read "unknown config key: ExperimentConfig.__init__()
        # got an unexpected keyword argument", and an unread one ran
        head = "schema_version = 1\nexperiment = multiclass\n"

        def error(text, overrides=None):
            with pytest.raises(ConfigError) as exc:
                ex.parse_config_text(text, overrides)
            return str(exc.value)

        assert error(head, {key: 3}) == error(head + f"{key} = 3\n")
        assert error(head, {key: 3}).startswith(f"unknown config key '{key}'")

    def test_override_values_read_as_file_values(self):
        # a wrongly typed override read "unknown config key: '<' not supported
        # between instances of 'str' and 'int'"; it is now read as the line
        # its value would spell
        head = "schema_version = 1\nexperiment = histogram\n"
        assert ex.parse_config_text(head, {"n": "5"}) == ex.parse_config_text(head + "n = 5\n")
        for value in ("x", 5.5):
            with pytest.raises(ConfigError, match=r"^key 'n': invalid literal"):
                ex.parse_config_text(head, {"n": value})


class TestConfigHash:
    def test_semantic_fields_change_hash(self):
        base = ex.parse_config_text(SWEEP_CFG)
        changed = ex.parse_config_text(SWEEP_CFG.replace("snr = 2", "snr = 3"))
        assert base.config_hash() != changed.config_hash()

    def test_output_fields_do_not_change_hash(self):
        base = ex.parse_config_text(SWEEP_CFG)
        moved = ex.parse_config_text(SWEEP_CFG, overrides={"out": "elsewhere"})
        assert base.config_hash() == moved.config_hash()


class TestConfigEcho:
    """``config.echo`` spells every value as the parser reads it, so a run's
    echo is a config that re-runs the run."""

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
    def test_echo_parses_back_to_the_config(self, path, tmp_path):
        cfg = ex.parse_config_file(path)
        ex.emit_report(ex.RunReport(cfg), tmp_path)
        assert ex.parse_config_text((tmp_path / "config.echo").read_text()) == cfg

    def test_rerun_from_echo_is_byte_identical(self, tmp_path):
        src = tmp_path / "run.cfg"
        src.write_text(SWEEP_CFG)
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli_main(["run", "--config", str(src), "--out", str(first)]) == 0
        assert cli_main(["run", "--config", str(first / "config.echo"),
                         "--out", str(second)]) == 0
        for fname in ("report.csv", "plot.svg"):
            assert (first / fname).read_bytes() == (second / fname).read_bytes(), fname

        def echo(d):
            return [line for line in (d / "config.echo").read_text().splitlines()
                    if not line.startswith("out = ")]
        assert echo(first) == echo(second)

    def test_gamma_spellings_are_one_config(self):
        head = "schema_version = 1\nexperiment = histogram\n"
        named = ex.parse_config_text(head + "gamma = optimal\n")
        number = ex.parse_config_text(head + "gamma = 1000\n")
        assert named == number and named.config_hash() == number.config_hash()

    def test_empty_list_value(self):
        # an empty value is the empty list, which the grid check refuses
        with pytest.raises(ConfigError, match="'sweep' needs a nonempty grid"):
            ex.parse_config_text("schema_version = 1\nexperiment = sweep\ngrid =\n")

    def test_k_key_rejected(self):
        # the class count is len(means)
        with pytest.raises(ConfigError, match="unknown config key 'k'"):
            ex.parse_config_text("schema_version = 1\nexperiment = multiclass\nk = 3\n")

    def test_numbered_eps_row_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'eps_row_1'"):
            ex.parse_config_text("schema_version = 1\nexperiment = multiclass\n"
                                 "eps_row_1 = 0,0.3,0\n")


class TestEmitReport:
    def test_deterministic_bytes(self, tmp_path):
        cfg = ex.parse_config_text(SWEEP_CFG)
        paths = {}
        for name in ("a", "b"):
            rep = ex.run_experiment(cfg)
            ex.emit_report(rep, tmp_path / name)
            paths[name] = tmp_path / name
        for fname in ("report.csv", "plot.svg", "config.echo"):
            assert (paths["a"] / fname).read_bytes() == (paths["b"] / fname).read_bytes()

    def test_echo_states_each_line_once_with_machine(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        ex.emit_report(ex.RunReport(ex.parse_config_text(SWEEP_CFG)), tmp_path)
        lines = (tmp_path / "config.echo").read_text().splitlines()
        echo = dict(line.removeprefix("# ").split(" = ", 1) for line in lines)
        assert len(echo) == len(lines)  # no key stated twice
        for key in ("config_hash", "seeds", "numpy_blas", "cpus_allowed"):
            assert echo[key]
        assert "OPENBLAS_NUM_THREADS=1" in echo["num_threads_env"].split(",")

    def test_a_run_loads_numpy_only(self, tmp_path):
        # A second BLAS (scipy's) would load with scipy; a fresh interpreter
        # sees every import the library and a full run make: a sweep and
        # multiclass searches at k = 2 (normal tails) and k = 3 (orthants).
        multi = "schema_version = 1\nexperiment = multiclass\nn = 60\np = 4\nn_test = 60\n"
        configs = {"sweep": SWEEP_CFG, "multi3": multi + "grid_size = 20\n",
                   "multi2": multi + "grid_size = 20\nmeans = -1,1\npis = 0.5,0.5\n"
                                     "eps_rows = 0,0.2; 0.1,0\n"}
        code = "import sys\nimport lpc.experiments as ex\n" + "".join(
            f"cfg = ex.parse_config_text({text!r}, {{'out': {str(tmp_path / name)!r}}})\n"
            "ex.emit_report(ex.run_experiment(cfg), cfg.resolved_out())\n"
            for name, text in configs.items()
        ) + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        src = str(pathlib.Path(lpc.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert all((tmp_path / name / "report.csv").is_file() for name in configs)
        assert proc.stdout.strip() == "[]"

    def test_csv_self_parse_round_trip(self, tmp_path):
        cfg = ex.parse_config_text(SWEEP_CFG)
        rep = ex.run_experiment(cfg)
        ex.emit_report(rep, tmp_path)
        rows = ex.read_report_csv(tmp_path / "report.csv")
        assert len(rows) == len(rep.rows)
        by_key = {
            (r.variant, r.grid_value, r.seed, r.metric): r.empirical for r in rep.rows
        }
        for row in rows:
            key = (row["variant"], row["grid_value"], row["seed"], row["metric"])
            assert by_key[key] == row["empirical"]  # repr round-trips exactly

    def test_csv_with_other_columns_names_its_path(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("variant,metric,value\nnaive,accuracy,0.9\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: unexpected columns")):
            ex.read_report_csv(path)

    def test_multiclass_cells_have_no_theory_value(self):
        rep = ex.run_experiment(ex.parse_config_text(
            "schema_version = 1\nexperiment = multiclass\nn = 60\np = 4\nn_test = 60\n"
            "grid_size = 5\n"))
        assert rep.rows and all(r.theory is None for r in rep.rows)
        with pytest.raises(KeyError, match=r"no theory cell for \(best, accuracy, None\)"):
            rep.theory_value("best", "accuracy")

    def test_theory_cells_paired_where_applicable(self, tmp_path):
        cfg = ex.parse_config_text(SWEEP_CFG)
        rep = ex.run_experiment(cfg)
        assert all(r.theory is not None for r in rep.rows)

    def test_empty_variants_rejected_upstream(self):
        with pytest.raises(ConfigError, match="variants"):
            ex.parse_config_text(SWEEP_CFG + "variants =\n")


class TestRunners:
    def test_histogram_zero_noise_variants_coincide(self):
        cfg = ex.parse_config_text(
            "schema_version = 1\nexperiment = histogram\nn = 400\np = 80\n"
            "pi1 = 0.5\nsnr = 2\ngamma = 1\neps_plus = 0\neps_minus = 0\n"
            "variants = naive,unbiased,optimized,oracle\nseeds = 0\nn_test = 2000\n"
        )
        rep = ex.run_experiment(cfg)
        means = {v: rep.mean_over_seeds(v, "mean_class2") for v in cfg.variants}
        # with zero noise all four variants train on the same labels; the
        # optimum's gap is 0 and its least-risk scale beta multiplies them
        rho = lpc.optimal_rho(cfg.model, cfg.n, cfg.gamma, 0.0, 0.0)
        assert rho.rho_plus - rho.rho_minus == pytest.approx(0.0, abs=1e-15)
        for v, scale in (("naive", 1.0), ("unbiased", 1.0), ("optimized", rho.beta)):
            assert means[v] == pytest.approx(scale * means["oracle"], abs=1e-12)
        assert "bins.csv" in rep.extra_files

    def test_noise_estimation_from_file(self, tmp_path):
        ds = lpc.generate_gmm(lpc.GmmSpec(pi1=0.4, mu=np.full(30, 1.5 / np.sqrt(30))), 800, 2)
        noisy = lpc.flip_labels(ds, 0.3, 0.1, seed=3)
        lines = [
            ",".join([str(int(noisy.y_noisy[i]))] + [f"{v:.6f}" for v in ds.X[:, i]])
            for i in range(ds.n)
        ]
        path = tmp_path / "noisy.csv"
        path.write_text("\n".join(lines) + "\n")
        cfg = ex.parse_config_text(
            "schema_version = 1\nexperiment = estimate-noise\n"
            f"data_path = {path}\nlabel_column = 0\ngamma = 0.1\nseeds = 0\n"
        )
        with pytest.warns(UserWarning, match="noisy labels"):
            rep = ex.run_experiment(cfg)
        metrics = {r.metric: r.empirical for r in rep.rows}
        assert set(metrics) >= {"eps_plus_hat", "eps_minus_hat", "residual", "roots",
                                "snr_estimate", "pi1_estimate"}
        assert 0.0 <= metrics["eps_plus_hat"] < 1.0

    def test_grid_points_share_the_seeds_draws(self):
        # estimate-noise takes any number of grid points, since they all draw
        # from the seed's streams
        cfg = ex.parse_config_text(
            "schema_version = 1\nexperiment = estimate-noise\nn = 40\np = 4\ngamma = 0.1\n"
            "eps_minus = 0.1\nseeds = 0\n"
            "grid = " + ",".join(str(g / 100) for g in range(31)) + "\n")
        rep = ex.run_experiment(cfg)
        assert len({r.grid_value for r in rep.rows}) == 31
        # an eps_plus sweep compares each label's one uniform with every
        # point's rate: a label flipped at one rate stays flipped at every
        # larger one.  So the seed's label vectors make at most 2 + len(grid)
        # groups of the training draw: a +1 label's group is the interval
        # between grid rates its uniform falls in (len(grid) of them, as the
        # grid starts at 0), and a -1 label is flipped at every point or none
        cfg = ex.parse_config_text(SWEEP_CFG)
        assert cfg.grid[0] == 0.0
        seen = []
        real = runner.generate_training_stats

        def spy(model, labels, seed):
            seen.append(np.asarray(labels))
            return real(model, labels, seed)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner, "generate_training_stats", spy)
            ex.run_experiment(cfg)
        assert len(seen) == len(cfg.seeds)
        for labels in seen:
            y_clean, noisy = labels[0], labels[1:]
            assert len(noisy) == len(cfg.grid)
            flipped = noisy != y_clean
            assert np.all(flipped[:-1] <= flipped[1:])
            assert flipped[-1].any()
            groups = np.unique(labels, axis=1).shape[1]
            assert groups <= 2 + len(cfg.grid)

    def test_noise_estimation_matches_public_api(self):
        # every row of a synthetic run is lpc.estimate_noise_rates of the
        # seed's one generate_gmm draw, flipped at the grid point by
        # lpc.flip_labels from the seed's flip stream
        from lpc.datasets import derive_seed

        cfg = ex.parse_config_text(
            "schema_version = 1\nexperiment = estimate-noise\ngrid = 0,0.15,0.3\n"
            "n = 200\np = 20\npi1 = 0.3\nsnr = 2\ngamma = 0.1\neps_minus = 0.2\n"
            "seeds = 3,5\n")
        rep = ex.run_experiment(cfg)
        assert len(rep.rows) == 4 * len(cfg.grid) * len(cfg.seeds)
        for row in rep.rows:
            clean = lpc.generate_gmm(cfg.model, cfg.n, derive_seed(row.seed, 0))
            noisy = lpc.flip_labels(clean, row.grid_value, cfg.eps_minus,
                                    derive_seed(row.seed, 1))
            est = lpc.estimate_noise_rates(noisy, *runner._PROBES, cfg.gamma, cfg.snr, cfg.pi1)
            expected = {"eps_plus_hat": est.eps_plus, "eps_minus_hat": est.eps_minus,
                        "residual": est.residual, "roots": len(est.roots)}[row.metric]
            assert row.empirical == expected

    def test_noise_estimation_solves_once_per_seed(self):
        # the grid points of a seed share its feature draw, so the label-free
        # leave-one-out solve (the p x p one) is made once per seed, whatever
        # the grid length
        cfg = ex.parse_config_text(
            "schema_version = 1\nexperiment = estimate-noise\ngrid = 0,0.1,0.2,0.3\n"
            "n = 60\np = 8\ngamma = 0.1\neps_minus = 0.2\nseeds = 0,1,2\n")
        shapes = []
        real = np.linalg.solve

        def spy(a, b):
            shapes.append(a.shape)
            return real(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "solve", spy)
            rep = ex.run_experiment(cfg)
        assert len({r.grid_value for r in rep.rows}) == 4
        assert shapes.count((cfg.p, cfg.p)) == len(cfg.seeds) == 3

    def test_noise_estimation_rows_finite(self):
        cfg = ex.parse_config_text(
            "schema_version = 1\nexperiment = estimate-noise\ngrid = 0,0.3\n"
            "n = 400\np = 40\npi1 = 0.3333333\nsnr = 2\ngamma = 0.1\n"
            "eps_minus = 0.2\nseeds = 0\n"
        )
        rep = ex.run_experiment(cfg)
        residuals = [r.empirical for r in rep.rows if r.metric == "residual"]
        assert residuals and all(np.isfinite(residuals))
        # number of exact solutions: 0 = least-squares point, 2 = ambiguous
        roots = [r for r in rep.rows if r.metric == "roots"]
        assert len(roots) == len(residuals)
        assert all(r.empirical in (0, 1, 2) and r.theory is None for r in roots)

    def test_real_data_missing_file_is_clean_error(self):
        cfg = ex.parse_config_text(
            "schema_version = 1\nexperiment = real-data\ndata_path = no/such.csv\n"
            "variants = naive\nseeds = 0\n"
        )
        with pytest.raises(OSError):
            ex.run_experiment(cfg)

    def test_real_data_from_csv(self, tmp_path):
        path = _toy_csv(tmp_path / "toy.csv", seed=0, rows=120, features=10, shift=0.9,
                        p_pos=0.5)
        cfg = ex.parse_config_text(
            "schema_version = 1\nexperiment = real-data\n"
            f"data_path = {path}\nlabel_column = 0\nn = 80\n"
            "gamma = optimal\neps_plus = 0.2\neps_minus = 0.1\n"
            "variants = naive,unbiased,oracle\nseeds = 0,1\n"
        )
        rep = ex.run_experiment(cfg)
        accs = [rep.mean_over_seeds(v, "accuracy") for v in cfg.variants]
        assert all(0.4 <= a <= 1.0 for a in accs)
        assert "table.txt" in rep.extra_files

    def test_real_data_reads_a_named_label_column(self, tmp_path):
        # has_header = true with the label column given by name: the same run
        # as the headerless file with the label first
        plain = _toy_csv(tmp_path / "toy.csv", seed=0, rows=120, features=10, shift=0.9,
                         p_pos=0.5)
        rows = [[f"x{j}" for j in range(10)] + ["label"]]
        rows += [r[1:] + r[:1] for r in (line.split(",") for line in plain.read_text().splitlines())]
        named = tmp_path / "named.csv"
        named.write_text("".join(",".join(r) + "\n" for r in rows))
        text = ("schema_version = 1\nexperiment = real-data\nn = 80\ngamma = 1\n"
                "eps_plus = 0.2\neps_minus = 0.1\nseeds = 0,1\n")
        ref = ex.run_experiment(ex.parse_config_text(
            text + f"data_path = {plain}\nlabel_column = 0\n"))
        got = ex.run_experiment(ex.parse_config_text(
            text + f"data_path = {named}\nhas_header = true\nlabel_column = label\n"))
        assert got.rows and got.rows == ref.rows
        assert got.extra_files == ref.extra_files

    def test_real_data_needs_held_out_samples(self, tmp_path):
        path = _toy_csv(tmp_path / "toy.csv", seed=0, rows=60, features=5, shift=0.9,
                        p_pos=0.5)
        cfg = ex.parse_config_text("schema_version = 1\nexperiment = real-data\n"
                                   f"data_path = {path}\nn = 60\n")
        with pytest.raises(ValueError, match="n=60 needs held-out samples, dataset has 60"):
            ex.run_experiment(cfg)

    def test_oracle_weakly_dominates(self):
        # clean-label training is never beaten on average (30 seeds, one
        # heavy-noise grid point of the small-sample sweep setup)
        cfg = ex.parse_config_text(
            "schema_version = 1\nexperiment = sweep\nsweep_param = eps_plus\n"
            "grid = 0.4\nn = 100\np = 200\npi1 = 0.3333333\nsnr = 2\ngamma = 10\n"
            "eps_minus = 0.2\nvariants = naive,unbiased,optimized,oracle,custom\n"
            "custom_rho_plus = 0.2\ncustom_rho_minus = 0\n"
            f"seeds = {','.join(str(s) for s in range(30))}\nn_test = 4000\n"
        )
        rep = ex.run_experiment(cfg)
        oracle = rep.mean_over_seeds("oracle", "accuracy", 0.4)
        for v in ("naive", "unbiased", "optimized", "custom"):
            assert oracle >= rep.mean_over_seeds(v, "accuracy", 0.4)

    @pytest.mark.parametrize("sweep", ["rho_plus", "eps_plus", "gamma"])
    def test_sweep_risk_matches_public_api(self, sweep):
        # every risk cell is the squared risk of lpc.train_lpc on the same
        # draw, scored on the same test set
        cfg = ex.parse_config_text(_public_api_cfg("sweep", sweep))
        rep = ex.run_experiment(cfg)
        risks = [r for r in rep.rows if r.metric == "risk"]
        assert len(risks) == 2 * len(cfg.grid) * 5
        replays = {seed: _replay(cfg, seed) for seed in cfg.seeds}
        for row in risks:
            scores, y, _ = replays[row.seed][row.variant, row.grid_value]
            risk = np.mean((scores - y) ** 2)
            assert row.empirical == pytest.approx(risk, rel=1e-10, abs=0)

    @pytest.mark.parametrize("experiment, sweep", [
        ("sweep", "rho_plus"), ("sweep", "eps_plus"), ("sweep", "gamma"),
        ("histogram", None), ("real-data", None),
    ], ids=["sweep-rho_plus", "sweep-eps_plus", "sweep-gamma", "histogram", "real-data"])
    def test_accuracy_matches_public_api(self, experiment, sweep):
        # every accuracy cell is the accuracy of lpc.train_lpc + lpc.decision
        # on the same draws, oriented by the theory's sign(m_rho)
        cfg = ex.parse_config_text(_public_api_cfg(experiment, sweep))
        rep = ex.run_experiment(cfg)
        accs = [r for r in rep.rows if r.metric == "accuracy"]
        assert len(accs) == 2 * max(len(cfg.grid), 1) * 5
        replays = {seed: _replay(cfg, seed) for seed in cfg.seeds}
        for row in accs:
            scores, y, st = replays[row.seed][row.variant, row.grid_value]
            scores = (1.0 if st.m_rho >= 0 else -1.0) * scores
            acc = np.mean(np.where(scores >= 0, 1, -1) == y)
            assert abs(row.empirical - acc) <= 1 / cfg.n_test

    def test_histogram_moments_match_public_api(self):
        # every class mean and standard deviation cell is that of the scores
        # of lpc.train_lpc on the same draws, next to the theory's -+m_rho
        # and sqrt(nu_rho - m_rho^2)
        cfg = ex.parse_config_text(_public_api_cfg("histogram"))
        rep = ex.run_experiment(cfg)
        moments = [r for r in rep.rows if r.metric.startswith(("mean_", "std_"))]
        assert len(moments) == 2 * 5 * 4
        replays = {seed: _replay(cfg, seed) for seed in cfg.seeds}
        for row in moments:
            scores, y, st = replays[row.seed][row.variant, row.grid_value]
            stat, label = row.metric.split("_")
            sign = -1 if label == "class1" else +1
            empirical = getattr(scores[y == sign], stat)()
            theory = sign * st.m_rho if stat == "mean" else np.sqrt(st.variance)
            assert row.empirical == pytest.approx(empirical, rel=1e-10, abs=0)
            assert row.theory == pytest.approx(theory, rel=1e-12, abs=0)

    def test_histogram_bins_are_the_first_seeds(self):
        # bins.csv and the figure histogram the first seed's scores only
        text = _public_api_cfg("histogram")
        one, two = (ex.run_experiment(ex.parse_config_text(text, overrides={"seeds": seeds}))
                    for seeds in ((1,), (1, 0)))
        assert one.extra_files["bins.csv"] == two.extra_files["bins.csv"]
        assert one.figure_svg == two.figure_svg

    def test_predicted_accuracy_non_decreasing_in_gamma(self):
        # the property that lets gamma = optimal be a constant: no variant's
        # predicted accuracy dips anywhere on [1e-3, 1e3]
        gammas = np.logspace(-3, 3, 61)
        for n, snr, pi1, (ep, em) in itertools.product(  # eta = 300 / n = 0.2, 1, 3
                (1500, 300, 100), (1.0, 2.0), (0.3, 0.5), ((0.2, 0.1), (0.4, 0.3))):
            model = lpc.GmmSpec.isotropic(300, pi1, snr)
            for rho, noise in (
                (lpc.RhoParams(), (ep, em)),
                (lpc.RhoParams(ep, em), (ep, em)),
                (lpc.optimal_rho(model, n, 1.0, ep, em), (ep, em)),
                (lpc.RhoParams(), (0.0, 0.0)),
            ):
                accs = [lpc.theory_stats(model, n, g, *noise, rho=rho).accuracy
                        for g in gammas]
                assert all(b >= a * (1 - 1e-9) for a, b in zip(accs, accs[1:]))

    @pytest.mark.parametrize("eta, snr", [(0.2, 1.0), (1.0, 2.0), (3.0, 0.5), (2.0, 4.0)])
    def test_optimal_gamma_reaches_the_mean_difference_limit(self, eta, snr):
        p, n = 30, round(30 / eta)  # p / n == eta
        oracle = lpc.theory_stats(lpc.GmmSpec.isotropic(p, 0.5, snr), n, ex.OPTIMAL_GAMMA)
        score = oracle.m_rho / np.sqrt(oracle.variance)
        assert score == pytest.approx(snr**2 / np.sqrt(snr**2 + eta), rel=1e-5)

    def test_real_data_theory_value_is_seed_mean(self, tmp_path):
        # random splits give each seed its own training class proportion,
        # hence its own theory cell; the plotted theory is their mean
        path = _toy_csv(tmp_path / "toy.csv", seed=1, rows=90, features=8, shift=0.8,
                        p_pos=0.4)
        cfg = ex.parse_config_text(
            "schema_version = 1\nexperiment = real-data\n"
            f"data_path = {path}\nlabel_column = 0\nn = 60\n"
            "gamma = 1\neps_plus = 0.2\neps_minus = 0.1\n"
            "variants = naive,optimized\nseeds = 0,1,2,3\n"
        )
        rep = ex.run_experiment(cfg)
        for v in cfg.variants:
            cells = [r.theory for r in rep.rows if r.variant == v and r.metric == "accuracy"]
            assert len(cells) == 4 and len(set(cells)) > 1
            assert rep.theory_value(v, "accuracy") == pytest.approx(np.mean(cells), rel=1e-12)


    def test_real_data_csv_dimension_is_the_data_width(self, tmp_path):
        # eta is the ingested width over n: the config's p cannot move theory,
        # and a p line is refused, as is a p set on a built config
        path = _toy_csv(tmp_path / "toy.csv", seed=0, rows=120, features=10, shift=0.9,
                        p_pos=0.5)
        text = (
            "schema_version = 1\nexperiment = real-data\n"
            f"data_path = {path}\nlabel_column = 0\nn = 80\n"
            "gamma = optimal\neps_plus = 0.2\neps_minus = 0.1\n"
            "variants = naive,unbiased,oracle\nseeds = 0,1\n"
        )
        with pytest.raises(ConfigError, match="unknown config key 'p' for experiment "
                                              "'real-data' with data_path"):
            ex.parse_config_text(text + "p = 10\n")
        cfg = ex.parse_config_text(text)
        for p in (10, 5000):
            with pytest.raises(ConfigError, match="unknown config key 'p' for experiment "
                                                  "'real-data' with data_path"):
                dataclasses.replace(cfg, p=p)
        cells = [r for r in ex.run_experiment(cfg).rows if r.metric == "accuracy"]
        assert len(cells) == 6 and all(np.isfinite(r.theory) for r in cells)

    def test_real_data_theory_matches_theory_csv(self):
        # `lpc theory` and a synthetic real-data run read the same n and pi1,
        # also when the drawn class sizes round a fractional pi1 * n
        for model in ({"n": 200, "p": 50},
                      {"n": 100, "p": 50, "pi1": 0.3333333, "gamma": 1.0,
                       "eps_plus": 0.2, "eps_minus": 0.1}):
            cfg = ex.parse_config_file(CONFIG_DIR / "table_synthetic.cfg", overrides={
                **model, "n_test": 500, "seeds": (0, 1)})
            header, *lines = ex.theory_csv(cfg).splitlines()
            theory = {}
            for line in lines:
                vals = dict(zip(header.split(","), line.split(",")))
                theory[vals["variant"]] = float(vals["accuracy"])
            cells = [r for r in ex.run_experiment(cfg).rows if r.metric == "accuracy"]
            assert len(cells) == 2 * len(cfg.variants)
            for r in cells:
                assert r.theory == pytest.approx(theory[r.variant], rel=1e-12, abs=0)

    def test_one_model_part_per_model_point(self, tmp_path, monkeypatch):
        # every variant's rho and theory at a model point are read off one
        # model part, which depends on the model, n and gamma alone: one per
        # distinct gamma of a sweep, one per seed of a CSV run (each split
        # has its class proportion), one in theory_csv
        builds = []
        build = lpc.theory._isotropic_part
        monkeypatch.setattr(lpc.theory, "_isotropic_part",
                            lambda *args: builds.append(args) or build(*args))

        def parts(run, cfg):
            builds.clear()
            run(cfg)
            return len(builds)

        sweep = ex.parse_config_text(_public_api_cfg("sweep", "eps_plus"))
        assert len(sweep.variants) == 5 and len(sweep.grid) == 2
        assert parts(ex.run_experiment, sweep) == 1
        assert parts(ex.theory_csv, sweep) == 1
        for param in ("rho_plus", "gamma"):
            swept = ex.parse_config_text(_public_api_cfg("sweep", param))
            assert parts(ex.run_experiment, swept) == (1 if param == "rho_plus" else 3)
        path = _toy_csv(tmp_path / "toy.csv", seed=0, rows=120, features=10, shift=0.9,
                        p_pos=0.5)
        csv = ex.parse_config_text(
            "schema_version = 1\nexperiment = real-data\n"
            f"data_path = {path}\nlabel_column = 0\nn = 80\n"
            "gamma = optimal\neps_plus = 0.2\neps_minus = 0.1\n"
            "variants = naive,optimized,oracle\nseeds = 0,1,2\n")
        assert parts(ex.run_experiment, csv) == 3

    def test_each_distinct_cell_trained_and_scored_once(self, monkeypatch):
        # a cell's numbers are fixed by its labels (clean for oracle, else its
        # point's flip rates), rho and gamma: a seed flips each rate pair once
        # and trains, scores and measures each distinct cell once
        widths, flips = [], []
        score, flip = runner.generate_scores, runner.flip_label_vector
        monkeypatch.setattr(runner, "generate_scores",
                            lambda model, W, *a: widths.append(W.shape[1]) or score(model, W, *a))
        monkeypatch.setattr(runner, "flip_label_vector",
                            lambda *a: flips.append(a[1:3]) or flip(*a))
        text = _public_api_cfg("sweep", "rho_plus").replace(
            "grid = -0.3,0.6,1.5", "grid = -0.3,0,0.6").replace(
            "custom,naive,unbiased,optimized,oracle", "custom,naive,unbiased,oracle")
        cfg = ex.parse_config_text(text)
        assert cfg.grid == (-0.3, 0.0, 0.6) and len(cfg.seeds) == 2
        rep = ex.run_experiment(cfg)
        # custom at -0.3 and 0.6; naive, which is custom at 0; unbiased; oracle
        assert widths == [5, 5]
        assert flips == [(cfg.eps_plus, cfg.eps_minus)] * 2
        assert len(rep.rows) == 2 * 3 * 4 * 2  # every row is still reported

        def cells(variant, grid_value):
            return [(r.seed, r.metric, r.empirical, r.theory) for r in rep.rows
                    if r.variant == variant and r.grid_value == grid_value]

        for value in cfg.grid:
            assert cells("naive", value) == cells("custom", 0.0)
            assert cells("oracle", value) == cells("oracle", cfg.grid[0])
            assert cells("unbiased", value) == cells("unbiased", cfg.grid[0])
        assert cells("custom", -0.3) != cells("custom", 0.6)

        widths.clear()
        cfg = ex.parse_config_text(_public_api_cfg("sweep", "eps_plus"))
        ex.run_experiment(cfg)
        # 4 noisy variants per grid point and one oracle column for the seed
        assert widths == [4 * len(cfg.grid) + 1] * len(cfg.seeds)

    def test_one_model_part_per_noise_run(self, monkeypatch):
        # every seed and grid point of an estimate-noise run inverts its
        # moments at the run's one model part (it was built per cell)
        builds = []
        build = lpc.theory._isotropic_part
        monkeypatch.setattr(lpc.theory, "_isotropic_part",
                            lambda *args: builds.append(args) or build(*args))
        cfg = ex.parse_config_text(
            "schema_version = 1\nexperiment = estimate-noise\nn = 40\np = 4\ngamma = 0.1\n"
            "eps_minus = 0.1\nseeds = 0,1\ngrid = 0,0.1,0.2\n")
        rep = ex.run_experiment(cfg)
        assert len({(r.seed, r.grid_value) for r in rep.rows}) == 6
        assert len(builds) == 1

    def test_multiclass_defaults_echo_what_the_run_used(self, tmp_path):
        # without pis or eps_rows lines the run uses the config's defaults
        # and config.echo prints them, so spelling them out changes no byte
        head = ("schema_version = 1\nexperiment = multiclass\nn = 120\np = 10\n"
                "grid_size = 20\nseeds = 0,1\nn_test = 150\n")
        spelled = "pis = 0.3,0.3,0.4\neps_rows = 0,0.3,0; 0,0,0.4; 0.5,0,0\n"
        for name, text in (("default", head), ("spelled", head + spelled)):
            ex.emit_report(ex.run_experiment(ex.parse_config_text(text)), tmp_path / name)
        echo = (tmp_path / "default" / "config.echo").read_text().splitlines()
        assert "pis = 0.3,0.3,0.4" in echo
        assert "eps_rows = 0.0,0.3,0.0;0.0,0.0,0.4;0.5,0.0,0.0" in echo
        for fname in ("report.csv", "tau_accuracy.csv", "config.echo"):
            assert ((tmp_path / "default" / fname).read_bytes()
                    == (tmp_path / "spelled" / fname).read_bytes()), fname

    def test_multiclass_rows_per_seed(self):
        # naive, best and worst get one row per seed; best and worst are the
        # path's ends, and their seed means are SearchResult's means
        from lpc.multiclass import search_alpha_beta

        cfg = ex.parse_config_text(
            "schema_version = 1\nexperiment = multiclass\nn = 150\np = 20\n"
            "means = -2,0,2\ngamma = 1.0\ngrid_size = 40\nseeds = 0,1,2\n"
            "n_test = 200\n"
        )
        rep = ex.run_experiment(cfg)
        res = search_alpha_beta(cfg.model, cfg.n, grid_size=cfg.grid_size,
                                eval_seeds=list(cfg.seeds), gamma=1.0, n_test=cfg.n_test,
                                tau_points=cfg.tau_points, search_seed=cfg.search_seed)
        for v, tau, mean in (("naive", 1.0, res.naive_seed_accuracy.mean()),
                             ("best", 1.0, res.tau_accuracy[-1].mean()),
                             ("worst", 0.0, res.tau_accuracy[0].mean())):
            rows = [r for r in rep.rows if r.variant == v]
            assert [(r.seed, r.grid_value) for r in rows] == [(s, tau) for s in cfg.seeds]
            assert rep.mean_over_seeds(v, "accuracy") == mean
            if v != "naive":
                path_end = {r.seed: r.empirical for r in rep.rows
                            if r.variant == "multi-lpc" and r.grid_value == tau}
                assert {r.seed: r.empirical for r in rows} == path_end


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_config_theory_is_finite(path):
    cfg = ex.parse_config_file(path)
    if cfg.experiment in ("multiclass", "estimate-noise"):  # no variant's theory to print
        with pytest.raises(ConfigError, match=cfg.experiment):
            ex.theory_csv(cfg)
        return
    header, *rows = ex.theory_csv(cfg).splitlines()
    cols = header.split(",")
    gamma = 1000.0 if path.name in ("sweep_rho.cfg", "table_synthetic.cfg") else float(cfg.gamma)
    assert rows
    for row in rows:
        vals = dict(zip(cols, row.split(",")))
        assert all(np.isfinite(float(x)) for k, x in vals.items() if k != "variant")
        assert float(vals["gamma"]) == gamma


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_config_runs_through_the_cli(path, tmp_path):
    assert cli_main(["run", "--config", str(path), "--seeds", "0", "--out", str(tmp_path)]) == 0
    experiment = ex.parse_config_file(path).experiment
    rows = ex.read_report_csv(tmp_path / "report.csv")
    assert rows and all(r["experiment"] == experiment for r in rows)


# the experiments that read `variants`; every shipped config of them lists oracle
@pytest.mark.parametrize("path", [p for p in sorted(CONFIG_DIR.glob("*.cfg"))
                                  if ex.parse_config_file(p).experiment
                                  in ("histogram", "sweep", "real-data")],
                         ids=lambda p: p.name)
def test_shipped_config_oracle_columns_are_the_oracle_row(path):
    # the oracle is the model at rho = (0, 0) with zero noise: the columns
    # every row carries equal the oracle variant's own moments, bit for bit
    header, *lines = ex.theory_csv(ex.parse_config_file(path)).splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    oracle = next(r for r in rows if r["variant"] == "oracle")
    for r in rows:
        assert (r["m_oracle"], r["nu_oracle"]) == (oracle["m_rho"], oracle["nu_rho"])


class TestSvg:
    def test_valid_xml_with_polyline(self, tmp_path):
        fig = Figure(title="t", xlabel="x", ylabel="y")
        fig.line([0, 1, 2], [0.5, 0.25, 0.75], label="a", markers=True)
        fig.bars([0.5, 1.5], [0.2, 0.4], width=0.8, label="b")
        svg = fig.render()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "polyline" in svg and "<!-- data" in svg

    def test_empty_figure_rejected(self):
        with pytest.raises(ValueError, match="nothing to plot"):
            Figure().render()


class TestCli:
    def _write_cfg(self, tmp_path, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        return str(path)

    def test_success_path(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, SWEEP_CFG)
        out_dir = str(tmp_path / "out")
        assert cli_main(["run", "--config", cfg, "--out", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "report.csv"))
        listed = capsys.readouterr().out.strip().splitlines()
        assert any(p.endswith("plot.svg") for p in listed)

    def test_theory_prints_csv(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, SWEEP_CFG)
        assert cli_main(["theory", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("variant,eta,gamma,delta,h,")

    def test_theory_rejects_data_path(self, tmp_path, capsys):
        # a CSV run reads p, snr and pi1 from the data, so there is no
        # configured model to print
        cfg = self._write_cfg(tmp_path, "schema_version = 1\nexperiment = real-data\n"
                              "data_path = some.csv\nn = 80\n")
        assert cli_main(["theory", "--config", cfg]) == 1
        assert "data_path" in capsys.readouterr().err

    def test_theory_rejects_multiclass(self, capsys):
        # the binary theory at the config's pi1 and snr describes no k-class run
        assert cli_main(["theory", "--config", str(CONFIG_DIR / "multiclass.cfg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "multiclass" in err

    def test_theory_rejects_estimate_noise(self, capsys):
        # the run reports its estimates against the true flip rates, so no
        # variant row would be a theory cell of it
        assert cli_main(["theory", "--config", str(CONFIG_DIR / "estimate_noise.cfg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "true flip rates" in err

    def test_threads_is_not_an_option(self, tmp_path):
        # seeds run one after another: neither the config key nor the flag
        # is read
        with pytest.raises(ConfigError, match="unknown config key 'threads'"):
            ex.parse_config_text(SWEEP_CFG + "threads = 2\n")
        cfg = self._write_cfg(tmp_path, SWEEP_CFG)
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", cfg, "--threads", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("line", [
        "bins = 60", "tau_points = 11", "probe1_rho_plus = 0", "probe1_rho_minus = 0.1",
        "probe2_rho_plus = 0", "probe2_rho_minus = 0.4",
    ], ids=lambda line: line.split()[0])
    def test_fixed_settings_are_not_options(self, tmp_path, capsys, line):
        # the histogram bins, the multiclass path points and the noise
        # probes are constants of the harness, so their keys are refused
        cfg = self._write_cfg(tmp_path, SWEEP_CFG + line + "\n")
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        key = line.split()[0]
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_error_exit_code(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
        bad = self._write_cfg(tmp_path, "schema_version = 1\nexperiment = sweep\ngrid = 3,1\n")
        assert cli_main(["run", "--config", bad]) == 1

    def test_optimum_on_the_old_singular_line_runs(self, tmp_path):
        # the paper's optimal gap is exactly 1 at these rates, so its
        # rho_minus = 0 pair (1, 0) sat on the singular line and the run
        # exited 2; the least-risk pair is off it, with a positive mean
        cfg = self._write_cfg(
            tmp_path,
            "schema_version = 1\nexperiment = histogram\nn = 200\np = 40\npi1 = 0.2\n"
            "snr = 2\ngamma = 1\neps_plus = 0.1\neps_minus = 0.6\n"
            "variants = naive,optimized\nseeds = 0\nn_test = 500\n",
        )
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = ex.read_report_csv(tmp_path / "o" / "report.csv")
        m_rho = [r["theory"] for r in rows
                 if r["variant"] == "optimized" and r["metric"] == "mean_class2"]
        assert len(m_rho) == 1 and m_rho[0] > 0

    def test_runtime_error_exit_code(self, tmp_path):
        cfg = self._write_cfg(
            tmp_path,
            "schema_version = 1\nexperiment = real-data\ndata_path = missing.csv\n"
            "variants = naive\nseeds = 0\n",
        )
        assert cli_main(["run", "--config", cfg]) == 2

    @pytest.mark.parametrize("line, args, key", [
        ("seeds = -1\n", [], "seeds"), ("seeds = 3,3\n", [], "seeds"),
        ("", ["--seeds=-1"], "seeds"),
        ("", ["--seeds=3,3"], "seeds"), ("", ["--seeds=1,x"], "key 'seeds': invalid literal"),
    ], ids=["negative_seed", "repeated_seed", "negative_seed_flag",
            "repeated_seed_flag", "malformed_seeds_flag"])
    def test_seeds_refused_at_parse(self, tmp_path, capsys, line, args, key):
        # a negative seed failed inside numpy and a repeated one wrote every
        # row twice
        cfg = self._write_cfg(tmp_path, "schema_version = 1\nexperiment = histogram\n"
                              "n = 40\np = 10\nn_test = 50\n" + line)
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "o"), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "o").exists()

    def test_negative_search_seed_refused_at_parse(self, tmp_path, capsys):
        # it ran, masked to the Philox key 2**64 - 3, and config.echo showed -3
        cfg = self._write_cfg(tmp_path, "schema_version = 1\nexperiment = multiclass\n"
                              "n = 60\np = 4\nn_test = 60\ngrid_size = 5\nsearch_seed = -3\n")
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("config error: search_seed must be >= 0")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lines, key", [
        ("experiment = multiclass\neps_plus = 0.3\nsnr = 7\npi1 = 0.9\nvariants = custom\n",
         "eps_plus"),
        ("experiment = sweep\ngrid = 0.1,0.2\nmeans = -5,5\ngrid_size = 7\nsearch_seed = 3\n",
         "means"),
        ("experiment = sweep\nsweep_param = eps_plus\ngrid = 0.1,0.2\neps_plus = 0.4\n",
         "eps_plus"),
    ], ids=["multiclass_binary_keys", "sweep_multiclass_keys", "swept_key"])
    def test_unread_keys_refused_at_parse(self, tmp_path, capsys, lines, key):
        # each ran with exit 0 and config.echo listed the keys it never read
        # (the sweep overwrites eps_plus at every grid point)
        cfg = self._write_cfg(tmp_path, "schema_version = 1\n" + lines)
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        kind = lines.split("\n")[0].split(" = ")[1]
        assert capsys.readouterr().err.startswith(
            f"config error: unknown config key '{key}' for experiment '{kind}'; it reads ")
        assert not (tmp_path / "o").exists()

    def test_csv_noise_estimate_takes_one_seed(self, tmp_path, capsys):
        # the single-shot estimate is made once and its rows carry the first
        # seed, so `--seeds 1,2,3` wrote one row set and exited 0
        cfg = self._write_cfg(tmp_path, "schema_version = 1\nexperiment = estimate-noise\n"
                              "data_path = some.csv\n")
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--seeds", "1,2,3"]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: an estimate-noise run on data_path makes one estimate")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("gamma", "nan"), ("n_test", "0"), ("pi1", "1.5"), ("snr", "nan"),
        ("eps_plus", "1.2"), ("n", "1"), ("gamma", "inf"),
    ])
    def test_model_values_refused_at_parse(self, tmp_path, capsys, key, value):
        # each failed inside the run with exit 2, a NaN gamma as a residual
        # check and a NaN snr as non-finite features
        keys = {"schema_version": "1", "experiment": "histogram", "n": "40", "p": "10",
                "n_test": "50", key: value}
        cfg = self._write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key} ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lines, match", [
        # the config builds the model its run draws from
        ("experiment = multiclass\nmeans = 1\npis = 1\neps_rows = 0\n", "k >= 2"),
        ("experiment = multiclass\npis = 0.5,0.5,0.5\n", "sum to 1"),
        ("experiment = multiclass\nmeans = -2,nan,2\n", "means contains non-finite"),
        ("experiment = histogram\npi1 = 0.01\n", r"class sizes \(0, 40\)"),
        # each grid point is checked as the run uses it
        ("experiment = sweep\nsweep_param = eps_plus\neps_minus = 0.3\ngrid = 0.1,0.8\n",
         "grid point 0.8"),
        ("experiment = estimate-noise\neps_minus = 0.3\ngrid = 0.1,0.8\n", "grid point 0.8"),
        ("experiment = sweep\nsweep_param = gamma\ngrid = -1,1\n", "grid point -1"),
        ("experiment = sweep\nsweep_param = gamma\ngrid = 1,inf\n", "grid point inf.*finite"),
        ("experiment = sweep\nsweep_param = rho_plus\nvariants = custom\ngrid = 0,1\n",
         "grid point 1"),
        # label-weight pairs
        ("experiment = histogram\nvariants = custom\ncustom_rho_plus = 0.5\n"
         "custom_rho_minus = 0.5\n", "custom_rho_plus.*singular"),
        # the moment inversion's model
        ("experiment = estimate-noise\ngrid = 0.1\nsnr = 0\n", "needs snr > 0, got 0.0"),
        ("experiment = estimate-noise\ngrid = 0.1\nsnr = -1\n", "needs snr > 0, got -1.0"),
        # the CSV's label column
        ("experiment = real-data\ndata_path = some.csv\nlabel_column = label\n",
         "label_column 'label'.*has_header = true"),
        # a data_path the run never reads (these exited 0 with a synthetic report)
        ("experiment = histogram\ndata_path = some.csv\n",
         "unknown config key 'data_path' for experiment 'histogram'"),
        ("experiment = sweep\nsweep_param = gamma\ngrid = 1\ndata_path = some.csv\n",
         "unknown config key 'data_path' for experiment 'sweep'"),
        ("experiment = multiclass\ndata_path = some.csv\n",
         "unknown config key 'data_path' for experiment 'multiclass'"),
    ], ids=["one_mean", "pis_sum", "nan_mean", "empty_class", "eps_plus_grid",
            "estimate_noise_grid", "gamma_grid", "inf_gamma_grid", "rho_plus_grid",
            "custom_pair", "noise_snr_zero",
            "noise_snr_negative", "label_name_without_header", "histogram_data_path",
            "sweep_data_path", "multiclass_data_path"])
    def test_run_time_failures_refused_at_parse(self, tmp_path, capsys, lines, match):
        # each failed inside the run with exit 2 ("runtime error"), or ran
        # with exit 0 (an unread data_path); every experiment reads n
        cfg = self._write_cfg(tmp_path, "schema_version = 1\nn = 40\n" + lines)
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and re.search(match, err), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb", ["run", "theory"])
    def test_rho_plus_sweep_custom_pair_refused_by_both_verbs(self, tmp_path, capsys, verb):
        # the sweep replaces custom_rho_plus, so the config names none, and a
        # grid point that makes the custom pair singular is refused at parse,
        # also by `theory`, which prints the pair at custom_rho_plus = 0
        cfg = self._write_cfg(tmp_path, "schema_version = 1\nexperiment = sweep\n"
                              "sweep_param = rho_plus\ngrid = 0,0.5\nn = 40\np = 4\n"
                              "n_test = 50\nvariants = custom\ncustom_rho_minus = 0.5\n")
        assert cli_main([verb, "--config", cfg, *(["--out", str(tmp_path / "o")]
                                                  if verb == "run" else [])]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            "config error: grid point 0.5: custom_rho_plus, custom_rho_minus: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", [["--seeds", "5"], ["--out", "elsewhere"],
                                      ["--threads", "9"]])
    def test_theory_takes_config_only(self, tmp_path, flag):
        # these flags were accepted and ignored
        cfg = self._write_cfg(tmp_path, SWEEP_CFG)
        with pytest.raises(SystemExit) as exc:
            cli_main(["theory", "--config", cfg, *flag])
        assert exc.value.code == 2

    def test_theory_refuses_nan_gamma(self, tmp_path, capsys):
        # printed a table of nan with exit 0
        cfg = self._write_cfg(tmp_path, "schema_version = 1\nexperiment = histogram\n"
                              "gamma = nan\n")
        assert cli_main(["theory", "--config", cfg]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: gamma ")

    def test_experiment_kinds_are_not_verbs(self, tmp_path):
        # the config names the experiment; `run` and `theory` are the verbs
        parser = cli.build_parser()
        verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(verbs.choices) == {"run", "theory"}
        cfg = self._write_cfg(tmp_path, SWEEP_CFG)
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--config", cfg])
        assert exc.value.code == 2

    def test_seed_override(self, tmp_path):
        cfg = self._write_cfg(tmp_path, SWEEP_CFG)
        out_dir = str(tmp_path / "seeded")
        assert cli_main(["run", "--config", cfg, "--out", out_dir, "--seeds", "5"]) == 0
        rows = ex.read_report_csv(os.path.join(out_dir, "report.csv"))
        assert {r["seed"] for r in rows} == {5}


class TestKeysRead:
    """A run reads exactly the keys of its config's row of the key table:
    each experiment kind, with and without ``data_path`` and for each
    ``sweep_param``, is run on a tiny config whose attribute reads are
    recorded."""

    PAIRED = ("n = 40\np = 8\nn_test = 60\nvariants = custom,naive,unbiased,optimized,oracle\n"
              "eps_plus = 0.2\neps_minus = 0.1\n")
    CASES = {
        "histogram": "experiment = histogram\n" + PAIRED,
        "histogram-no_custom": "experiment = histogram\nn = 40\np = 8\nn_test = 60\n",
        "real-data": "experiment = real-data\n" + PAIRED,
        "real-data-csv": "experiment = real-data\nn = 80\nvariants = naive,custom,oracle\n"
                         "data_path = {csv}\n",
        "sweep-eps_plus": "experiment = sweep\nsweep_param = eps_plus\ngrid = 0,0.2\n"
                          + PAIRED.replace("eps_plus = 0.2\n", ""),
        "sweep-rho_plus": "experiment = sweep\nsweep_param = rho_plus\ngrid = 0,0.2\n" + PAIRED,
        "sweep-gamma": "experiment = sweep\nsweep_param = gamma\ngrid = 0.1,1\n" + PAIRED,
        "estimate-noise": "experiment = estimate-noise\nn = 40\np = 4\ngrid = 0,0.1\n",
        "estimate-noise-csv": "experiment = estimate-noise\ndata_path = {csv}\n",
        "multiclass": "experiment = multiclass\nn = 60\np = 4\nn_test = 60\ngrid_size = 5\n",
    }

    @staticmethod
    def _cfg(case, tmp_path):
        csv = _toy_csv(tmp_path / "toy.csv", seed=0, rows=120, features=10, shift=0.9,
                       p_pos=0.5)
        text = "schema_version = 1\n" + TestKeysRead.CASES[case].format(csv=csv)
        return ex.parse_config_text(text, {"out": str(tmp_path / "out")})

    @staticmethod
    def _reads(cfg, call) -> set:
        """The config keys ``call(cfg)`` reads: the attribute reads of
        ``cfg`` and of the configs ``dataclasses.replace`` makes from it, less
        the keys it replaced (a grid point reads its value, not the key's).
        A read of ``model`` counts the keys the model is built from.  Reads
        inside ``echo_lines``, ``config_hash``, ``dataclasses.replace`` and
        ``__post_init__``, which touch every field, are not counted."""
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        tracked = {id(cfg): (cfg, frozenset())}  # id -> (config, the keys replaced)
        modelled, reads, quiet = set(), set(), [0]
        read = ExperimentConfig.__getattribute__

        def getattribute(self, name):
            if not quiet[0] and id(self) in tracked:
                if name in names and name not in tracked[id(self)][1]:
                    reads.add(name)
                elif name == "model" and id(self) not in modelled:
                    modelled.add(id(self))
                    ExperimentConfig.model.func(self)  # records what the model reads
            return read(self, name)

        def hushed(fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                quiet[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    quiet[0] -= 1
            return call

        def replace(obj, **changes):
            new = hushed(dataclasses.replace)(obj, **changes)
            if id(obj) in tracked:
                tracked[id(new)] = (new, tracked[id(obj)][1] | changes.keys())
            return new

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExperimentConfig, "__getattribute__", getattribute)
            for name in ("echo_lines", "config_hash", "__post_init__"):
                mp.setattr(ExperimentConfig, name, hushed(getattr(ExperimentConfig, name)))
            mp.setattr(config, "replace", replace)
            call(cfg)
        return reads

    @pytest.mark.parametrize("case", CASES)
    def test_a_run_reads_its_row(self, case, tmp_path):
        cfg = self._cfg(case, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a CSV noise estimate warns of its bias
            reads = self._reads(cfg, lambda c: ex.emit_report(ex.run_experiment(c),
                                                              c.resolved_out()))
        assert (tmp_path / "out" / "report.csv").is_file()
        # parse alone reads schema_version; an unset data_path is read to
        # find it unset, which picks the synthetic row
        reads.add("schema_version")
        if not cfg.data_path:
            reads.discard("data_path")
        assert reads == set(cfg.keys_read())

    @pytest.mark.parametrize("case", [c for c in CASES if c.split("-")[0] in
                                      ("histogram", "sweep") or c == "real-data"])
    def test_theory_reads_its_row(self, case, tmp_path):
        # a sweep's theory prints the swept key at its default
        cfg = self._cfg(case, tmp_path)
        reads = self._reads(cfg, ex.theory_csv) - {"data_path"}
        swept = set()
        if cfg.experiment == "sweep":
            swept = {config._SWEPT[cfg.sweep_param]}
        assert reads and reads <= set(cfg.keys_read()) | swept

    @pytest.mark.parametrize("kwargs", [
        dict(experiment="histogram", data_path="x.csv"),
        dict(experiment="multiclass", snr=7.0),
        dict(experiment="sweep", grid=(0.0, 0.1), eps_plus=0.2),
    ], ids=["histogram_data_path", "multiclass_snr", "sweep_swept_key"])
    def test_a_built_config_refuses_unread_keys(self, kwargs):
        # a config built without parse names only keys its run reads too
        key = next(k for k in kwargs if k not in ("experiment", "grid"))
        with pytest.raises(ConfigError, match=f"unknown config key '{key}' for experiment "
                                              f"'{kwargs['experiment']}'"):
            ExperimentConfig(**kwargs)

    def test_a_grid_point_sets_only_what_its_cells_read(self):
        # a rho_plus sweep without the custom variant: no cell of a point
        # reads custom_rho_plus, and the point keeps its default
        cfg = ExperimentConfig(experiment="sweep", sweep_param="rho_plus", grid=(0.0, 0.5),
                               variants=("naive",))
        point = cfg.at_grid_point(0.5)
        assert (point.experiment, point.custom_rho_plus, point.sweep_param) == (
            "histogram", 0.0, "eps_plus")
        assert dataclasses.replace(cfg, variants=("custom",)).at_grid_point(0.5).custom_rho_plus == 0.5

    @pytest.mark.parametrize("case", CASES)
    def test_every_other_key_refused(self, case, tmp_path):
        cfg = self._cfg(case, tmp_path)
        text = "schema_version = 1\n" + self.CASES[case].format(csv=cfg.data_path)
        for f in dataclasses.fields(ExperimentConfig):
            if f.name not in cfg.keys_read():
                line = f"{f.name} = {config._echo_value(f.default)}\n"
                with pytest.raises(ConfigError, match=f"^unknown config key '{f.name}' "
                                                      f"for experiment '{cfg.experiment}'"):
                    ex.parse_config_text(text + line)
