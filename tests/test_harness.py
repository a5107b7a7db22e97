"""Experiment drivers, configuration, CLI, and reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ml2bf import bayesfactors, nonparametric
from ml2bf.cli import main
from ml2bf.harness import (
    ConfigError,
    ExperimentConfig,
    build_config,
    derive_stream,
    figure_cell,
    load_config_file,
    run_anova_experiment,
    run_bf,
    run_experiment,
    run_table1,
)
from ml2bf.modelspace import _MAX_ALL_SUBSETS
from ml2bf.pool import chunk_bounds, run_chunked


class TestDeriveStream:
    def test_reproducible(self):
        a = derive_stream(42, 7).standard_normal(100)
        b = derive_stream(42, 7).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_replicates(self):
        a = derive_stream(42, 0).standard_normal(10**4)
        b = derive_stream(42, 1).standard_normal(10**4)
        assert not np.any(a == b)

    def test_tuple_keys(self):
        a = derive_stream(1, (3, 4)).standard_normal(8)
        b = derive_stream(1, (4, 3)).standard_normal(8)
        assert not np.allclose(a, b)


class TestConfig:
    def test_file_parsing(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment\nexperiment = table1\nseed = 11\nreplicates = 5\n"
            "methods = ml,lb\nn_grid = 5,10\n",
            encoding="utf-8",
        )
        values = load_config_file(path)
        cfg = build_config("table1", values)
        assert cfg.seed == 11 and cfg.replicates == 5
        assert cfg.methods == ("ml", "lb")
        assert cfg.overrides["n_grid"] == "5,10"

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("experiment = table1\nseed = 11\nreplicates = 5\n", encoding="utf-8")
        cfg = build_config("table1", load_config_file(path), replicates=9)
        assert cfg.replicates == 9

    def test_conflicting_experiment(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("experiment = anova\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="conflicts"):
            build_config("table1", load_config_file(path))

    def test_bad_lines_and_values(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("just a line\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="key = value"):
            load_config_file(path)
        with pytest.raises(ConfigError):
            build_config("table1", {"seed": "abc"})
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="nope", seed=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="table1", seed=0, replicates=0)


def _pid(_job):
    return os.getpid()


class TestPool:
    def test_chunks_cover_replicates_in_order(self):
        assert chunk_bounds(10, 1) == [(0, 10)]
        for total, threads in ((10, 3), (5, 4), (1000, 4)):
            bounds = chunk_bounds(total, threads)
            assert bounds[0][0] == 0 and bounds[-1][1] == total
            assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))

    def test_workers_capped_at_usable_cores(self, monkeypatch):
        monkeypatch.setattr("ml2bf.pool.usable_cores", lambda: 1)
        pids = run_chunked(_pid, range(4), threads=4)
        assert pids == [os.getpid()] * 4


class TestTable1Driver:
    def test_worker_count_invariance(self):
        base = dict(experiment="table1", seed=5, replicates=8)
        rows1 = run_table1(ExperimentConfig(**base, threads=1, overrides={"n_grid": "5,10"}))
        rows2 = run_table1(ExperimentConfig(**base, threads=3, overrides={"n_grid": "5,10"}))
        assert rows1 == rows2

    def test_uneven_chunks_byte_identical(self, tmp_path):
        # Each chunk is one stack: 11 replicates make one stack of 11 at one
        # thread, stacks of 2, 2, 2, 2, 2 and 1 at two, and 11 of 1 at three.
        assert [hi - lo for lo, hi in chunk_bounds(11, 2)] == [2, 2, 2, 2, 2, 1]
        csv = []
        for threads in (1, 2, 3):
            out = tmp_path / str(threads)
            run_table1(ExperimentConfig(experiment="table1", seed=11, replicates=11,
                                        threads=threads, output_dir=str(out),
                                        overrides={"n_grid": "4,9"}))
            csv.append((out / "table1.csv").read_bytes())
        assert csv[0] == csv[1] == csv[2]

    def test_share_noise_flag(self):
        base = dict(experiment="table1", seed=5, replicates=6)
        default = run_table1(
            ExperimentConfig(**base, overrides={"n_grid": "5,10"})
        )
        shared = run_table1(
            ExperimentConfig(**base, overrides={"n_grid": "5,10", "share_noise_across_n": "true"})
        )
        assert default != shared

    def test_output_files_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = ExperimentConfig(
                experiment="table1", seed=3, replicates=5, output_dir=str(out),
                overrides={"n_grid": "5"},
            )
            run_table1(cfg)
        assert (out1 / "table1.csv").read_bytes() == (out2 / "table1.csv").read_bytes()
        assert (out1 / "table1.json").read_bytes() == (out2 / "table1.json").read_bytes()

    def test_se_reported(self):
        rows = run_table1(
            ExperimentConfig(experiment="table1", seed=3, replicates=5,
                             overrides={"n_grid": "5"})
        )
        assert all("se" in row and row["se"] >= 0 for row in rows)


class TestEvidenceBatch:
    def test_bic_estimator_is_least_squares(self):
        # Identity shrinkage: the BIC row of the loss studies uses beta_hat.
        from ml2bf.bayesfactors import evidence
        from ml2bf.regression import fit_models

        rng = np.random.default_rng(17)
        from util import random_dataset

        ds = random_dataset(rng, n=30, p=3)
        table = fit_models(ds, [(), (0,), (0, 1, 2)])
        for method in ("bic", "aic"):
            _, shrink = evidence(method, table, want_shrinkage=True)
            np.testing.assert_array_equal(shrink, np.ones(3))


class TestFigureDriver:
    def test_cell_shapes_and_determinism(self):
        cell = figure_cell("ar1", 5.0, 3, seed=9, replicates=6, methods=("bic", "ml2"))
        assert cell["losses"].shape == (6, 2, 3)
        assert cell["entropy"].shape == (6, 2)
        again = figure_cell("ar1", 5.0, 3, seed=9, replicates=6, methods=("bic", "ml2"))
        np.testing.assert_array_equal(cell["losses"], again["losses"])

    def test_worker_count_invariance(self):
        # All cells' chunks share one pool; the rows must not see it.
        rows = [
            run_experiment(build_config("figure_ar1", {"g_grid": "5", "k_grid": "0,3"},
                                        seed=2, replicates=5, threads=threads))
            for threads in (1, 3)
        ]
        assert rows[0] == rows[1] and len(rows[0]) == 2 * 4 * 3
        cell = figure_cell("ar1", 5.0, 3, seed=2, replicates=5, threads=3)
        means = [r["avg_loss"] for r in rows[0] if r["k"] == 3]
        assert means == [float(cell["losses"][:, mi, si].mean())
                         for mi in range(4) for si in range(3)]

    def test_null_cell_losses_small_and_comparable(self):
        cell = figure_cell("orthogonal", 5.0, 0, seed=2, replicates=30,
                           methods=("bic", "ml2", "lb"))
        avg = cell["losses"][:, :, 2].mean(axis=0)  # bma losses
        assert np.all(avg < 5.0)
        assert avg.max() / avg.min() < 2.0


class TestAnovaDriver:
    def test_rows_and_csv(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="anova", seed=1, replicates=10, output_dir=str(tmp_path),
            overrides={"p_grid": "50,100", "tau2": "0.3", "r": "5"},
        )
        rows = run_anova_experiment(cfg)
        assert len(rows) == 2 * 3
        text = (tmp_path / "anova.csv").read_text()
        assert text.splitlines()[0] == "p,method,avg_prob_true,se,replicates,tau2,r"


class TestRunBf:
    def _write_csv(self, tmp_path, rng, signal=True, p=2, n=40):
        x = rng.standard_normal((n, p))
        beta = np.array([2.0] + [0.0] * (p - 1)) if signal else np.zeros(p)
        y = 1.0 + x @ beta + rng.standard_normal(n)
        lines = ["y," + ",".join(f"x{j + 1}" for j in range(p))]
        for i in range(n):
            lines.append(",".join(repr(float(v)) for v in [y[i], *x[i]]))
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_null_hpm_when_no_signal(self, tmp_path):
        rng = np.random.default_rng(3)
        path = self._write_csv(tmp_path, rng, signal=False)
        cfg = ExperimentConfig(experiment="bf", seed=0, methods=("ml2", "lb", "zs"))
        result = run_bf(path, cfg)
        for method in ("ml2", "lb", "zs"):
            assert result["methods"][method]["hpm"] == []

    def test_single_predictor_branch_behavior(self, tmp_path):
        # Low signal: constrained rule coincides with the unit-information
        # g-prior; strong signal: the fitted covariance strictly wins.
        rng = np.random.default_rng(4)
        weak = self._write_csv(tmp_path, rng, signal=False, p=1, n=20)
        cfg = ExperimentConfig(experiment="bf", seed=0, methods=("ml2", "lb"))
        res = run_bf(weak, cfg)
        ml2 = {tuple(m["model"]): m["log_evidence"] for m in res["methods"]["ml2"]["models"]}
        lb = {tuple(m["model"]): m["log_evidence"] for m in res["methods"]["lb"]["models"]}
        assert ml2[(0,)] == pytest.approx(lb[(0,)], abs=1e-12)

        x = np.linspace(-1, 1, 20)
        y = 1.0 + 30.0 * x + 0.3 * np.random.default_rng(5).standard_normal(20)
        strong = tmp_path / "strong.csv"
        strong.write_text(
            "y,x1\n" + "\n".join(f"{repr(float(a))},{repr(float(b))}" for a, b in zip(y, x)) + "\n",
            encoding="utf-8",
        )
        res = run_bf(strong, cfg)
        ml2 = {tuple(m["model"]): m["log_evidence"] for m in res["methods"]["ml2"]["models"]}
        lb = {tuple(m["model"]): m["log_evidence"] for m in res["methods"]["lb"]["models"]}
        assert ml2[(0,)] > lb[(0,)] + 0.1

    def test_json_written(self, tmp_path):
        rng = np.random.default_rng(6)
        path = self._write_csv(tmp_path, rng)
        out = tmp_path / "out"
        cfg = ExperimentConfig(
            experiment="bf", seed=0, methods=("bic",), output_dir=str(out)
        )
        run_bf(path, cfg)
        obj = json.loads((out / "bf_results.json").read_text())
        assert obj["labels"] == ["x1", "x2"]
        probs = [m["prob"] for m in obj["methods"]["bic"]["models"]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)


class TestCli:
    def test_table1_smoke(self, tmp_path, capsys):
        code = main([
            "table1", "--seed", "7", "--replicates", "3", "--out", str(tmp_path / "r"),
        ])
        assert code == 0
        assert (tmp_path / "r" / "table1.csv").exists()

    def test_seed_required(self):
        assert main(["table1"]) == 2

    def test_malformed_csv_names_column(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1.0,0.5\n2.0,oops\n", encoding="utf-8")
        code = main(["bf", str(path)])
        assert code == 2
        assert "x1" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_config_file_workflow(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "experiment = anova\nseed = 4\nreplicates = 5\np_grid = 30\n", encoding="utf-8"
        )
        code = main(["anova", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 0
        sidecar = json.loads((tmp_path / "o" / "anova.json").read_text())
        assert sidecar["seed"] == 4 and sidecar["overrides"]["p_grid"] == "30"

    def test_methods_flag_validation(self, tmp_path):
        code = main(["anova", "--seed", "1", "--replicates", "2", "--methods", "zs"])
        assert code == 2

    def test_unknown_rule_is_config_error(self, capsys):
        code = main(["table1", "--seed", "1", "--replicates", "2", "--methods", "bogus"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,key", [
        ("table1", "model_prior"), ("figure_ar1", "model_prior"), ("bf", "model_prior"),
        ("table1", "zs_rule"), ("figure_ar1", "zs_rule"),
    ])
    def test_bad_setting_is_config_error(self, tmp_path, capsys, experiment, key):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"{key} = bogus\nreplicates = 2\n", encoding="utf-8")
        argv = [experiment, "--config", str(cfg_path), "--seed", "1"]
        if experiment == "bf":
            argv.insert(1, str(_write_data_csv(tmp_path, n=20, p=2)))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "bogus" in err

    @pytest.mark.parametrize("experiment,setting,named", [
        ("table1", "n_grid = 5,3", "n_grid: '3'"), ("table1", "n_grid = 5,x", "n_grid: 'x'"),
        ("figure_ar1", "k_grid = 9", "k_grid: '9'"),
        ("figure_ar1", "k_grid = -1", "k_grid: '-1'"),
        ("figure_ar1", "g_grid = abc", "g_grid: 'abc'"),
        ("anova", "p_grid = 30,x", "p_grid: 'x'"), ("anova", "tau2 = abc", "tau2: 'abc'"),
        ("table1", "beta1 = abc", "beta1: 'abc'"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, experiment, setting, named):
        # Each is checked before any work starts, not met as a numerical failure.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"{setting}\nreplicates = 2\n", encoding="utf-8")
        assert main([experiment, "--config", str(cfg_path), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err

    @pytest.mark.parametrize("p", [_MAX_ALL_SUBSETS + 1, 26])
    def test_too_many_predictors_is_config_error(self, tmp_path, capsys, p):
        path = _write_data_csv(tmp_path, n=p + 5, p=p)
        assert main(["bf", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"capped at {_MAX_ALL_SUBSETS}" in err

    def test_cap_is_reachable(self, tmp_path):
        # The largest allowed p runs; that is what the cap's measurements say.
        cfg = ExperimentConfig(experiment="bf", seed=0, methods=("bic",))
        path = _write_data_csv(tmp_path, n=_MAX_ALL_SUBSETS + 4, p=_MAX_ALL_SUBSETS)
        result = run_bf(path, cfg)
        assert len(result["methods"]["bic"]["models"]) == 2**_MAX_ALL_SUBSETS

    def test_insufficient_sample_size_is_config_error(self, tmp_path, capsys):
        # n = p0 + p: the intercept and three candidates leave no residual.
        path = _write_data_csv(tmp_path, n=4, p=3)
        assert main(["bf", str(path)]) == 2
        assert "insufficient sample size" in capsys.readouterr().err


    @pytest.mark.parametrize("case,named", [
        ("copy", "x3"), ("combination", "x3"), ("common", "x0_*"),
    ])
    def test_dependent_columns_are_config_error(self, tmp_path, capsys, case, named):
        rng = np.random.default_rng(5)
        n = 20
        x = rng.standard_normal((n, 3))
        cols = {"y": 1.0 + x[:, 0] + rng.standard_normal(n)}
        if case == "common":
            cols["x0_a"], cols["x0_b"] = np.ones(n), np.full(n, 2.0)
        elif case == "copy":
            x[:, 2] = x[:, 0]
        else:
            x[:, 2] = 2.0 * x[:, 0] - 3.0 * x[:, 1] + 5.0
        cols.update({f"x{j + 1}": x[:, j] for j in range(3)})
        lines = [",".join(cols)]
        lines += [",".join(repr(float(c[i])) for c in cols.values()) for i in range(n)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["bf", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "linearly dependent" in err and named in err


class TestNoGeneralPurposeOptimizer:
    def test_experiments_run_without_scipy_optimizers(self, monkeypatch):
        # The benchmark's tracer still looks these names up (they load on
        # first lookup); no program path may call them, every maximum it
        # needs has a closed form or the batched power-law fit.
        def refuse(*args, **kwargs):
            raise AssertionError("a general-purpose optimizer was called")

        monkeypatch.setattr(bayesfactors, "minimize_scalar", refuse)
        monkeypatch.setattr(nonparametric, "minimize", refuse)
        for zs_rule in ("laplace", "exact"):
            run_experiment(build_config("table1", {"zs_rule": zs_rule, "n_grid": "5,10"},
                                        seed=1, replicates=2))
        run_experiment(build_config("figure_ar1", {"g_grid": "5", "k_grid": "0,3"},
                                    seed=1, replicates=1))
        run_experiment(build_config("shibata", {"n": "30", "k": "9"}, seed=1, replicates=2))


_NO_SCIPY_RUN = """
import json, sys
from ml2bf.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"ml2bf {argv} failed")
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


class TestNumpyOnlyRuntime:
    def test_no_experiment_imports_scipy(self, tmp_path):
        settings = [
            ("table1", "n_grid = 5,10\nzs_rule = exact\n"),
            ("table1", "n_grid = 5,10\nzs_rule = laplace\n"),
            ("figure_ar1", "g_grid = 5\nk_grid = 0,3\n"),
            ("anova", "p_grid = 10,40\n"),
            ("shibata", "n = 30\nk = 9\n"),
        ]
        runs = []
        for i, (experiment, text) in enumerate(settings):
            config = tmp_path / f"run{i}.cfg"
            config.write_text(text, encoding="utf-8")
            runs.append([experiment, "--config", str(config), "--seed", "1",
                         "--replicates", "2", "--out", str(tmp_path / f"run{i}")])
        runs.append(["bf", str(_write_data_csv(tmp_path, 30, 3)), "--out",
                     str(tmp_path / "bf"), "--methods", "ml,lb,bic,bicprior,zs,ghat"])
        src = os.path.dirname(os.path.dirname(bayesfactors.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, json.dumps(runs)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []


def _write_data_csv(tmp_path, n, p, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = 1.0 + x[:, 0] + rng.standard_normal(n)
    lines = ["y," + ",".join(f"x{j + 1}" for j in range(p))]
    lines += [",".join(repr(float(v)) for v in (y[i], *x[i])) for i in range(n)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
