"""Experiment drivers, configuration, CLI, and reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ml2bf import anova, bayesfactors, harness, nonparametric
from ml2bf.cli import main
from ml2bf.harness import (
    EXPERIMENTS,
    SETTINGS,
    ConfigError,
    ExperimentConfig,
    _figure_chunk,
    _figure_grid,
    _json_floats,
    build_config,
    derive_stream,
    figure_cell,
    load_config_file,
    run_anova_experiment,
    run_bf,
    run_experiment,
    run_table1,
)
from ml2bf.modelspace import _MAX_ALL_SUBSETS, hpm, inclusion_probs, mpm
from ml2bf.regression import load_dataset_csv
from ml2bf.pool import chunk_bounds, mean_se, run_replicates


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
        cfg = build_config("table1", values, output_dir="o")
        assert cfg.seed == 11 and cfg.replicates == 5
        assert cfg.methods == ("ml", "lb")
        assert cfg.overrides["n_grid"] == "5,10"

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("experiment = table1\nseed = 11\nreplicates = 5\n", encoding="utf-8")
        cfg = build_config("table1", load_config_file(path), replicates=9, output_dir="o")
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
        path.write_bytes(b"seed = 1\xff\n")
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config_file(path)
        with pytest.raises(ConfigError, match="^seed: 'abc' is not"):
            build_config("table1", {"seed": "abc"}, output_dir="o")
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="nope", seed=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="table1", seed=0, replicates=0)

    def test_flags_accept_known_words_only(self):
        flag = "share_noise_across_n"
        for raw, value in (("1", True), ("TRUE", True), (" yes ", True), ("On", True),
                           ("0", False), ("false", False), ("No", False), ("off", False)):
            cfg = ExperimentConfig(experiment="table1", seed=0, overrides={flag: raw})
            assert cfg[flag] is value
        for raw in ("ture", "", "2", "y"):
            with pytest.raises(ConfigError, match=f"{flag}: {raw!r}"):
                ExperimentConfig(experiment="table1", seed=0, overrides={flag: raw})


def _pid(cell, lo, hi):
    return (np.full(hi - lo, os.getpid()),)


def _cell_replicates(cell, lo, hi):
    reps = np.arange(lo, hi)
    return 1000 * cell + reps, np.outer(reps, [cell, -cell]) / 7.0


class TestPool:
    def test_chunks_cover_replicates_in_order(self):
        assert chunk_bounds(10, 1) == [(0, 10)]
        for total, threads in ((10, 3), (5, 4), (1000, 4)):
            bounds = chunk_bounds(total, threads)
            assert bounds[0][0] == 0 and bounds[-1][1] == total
            assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))

    def test_workers_capped_at_usable_cores(self, monkeypatch):
        monkeypatch.setattr("ml2bf.pool.usable_cores", lambda: 1)
        pids = run_replicates(_pid, [1, 2], 4, threads=4)
        assert [p.tolist() for (p,) in pids] == [[os.getpid()] * 4] * 2

    def test_cells_joined_in_replicate_order_at_any_thread_count(self):
        # 11 replicates split unevenly at two and three threads.
        reps = np.arange(11)
        for threads in (1, 2, 3):
            result = run_replicates(_cell_replicates, [3, 5], 11, threads)
            assert len(result) == 2
            for cell, (ids, pairs) in zip((3, 5), result):
                np.testing.assert_array_equal(ids, 1000 * cell + reps)
                np.testing.assert_array_equal(pairs, np.outer(reps, [cell, -cell]) / 7.0)

    @pytest.mark.parametrize("values", [[1.0, np.inf], [1.0, np.nan], [1e300, -1e300, 1e300]])
    def test_mean_se_refuses_a_non_finite_result(self, values):
        with pytest.raises(FloatingPointError, match="^replicate average .* overflowed"):
            mean_se(np.array(values))
        with pytest.raises(FloatingPointError, match="^k=3, method=bic: replicate average"):
            mean_se(np.array(values), "k=3, method=bic")


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

    def test_design_scale_setting(self):
        # The response is built on the scaled design, so the scale moves the
        # signal and with it every row's average.
        base = dict(experiment="table1", seed=5, replicates=4)
        corrected = run_table1(ExperimentConfig(**base, overrides={"n_grid": "5,10"}))
        uncorrected = run_table1(ExperimentConfig(
            **base, overrides={"n_grid": "5,10", "design_scale": "uncorrected"}))
        assert len(corrected) == len(uncorrected) == 16
        for a, b in zip(corrected, uncorrected):
            assert (a["n"], a["r"], a["method"]) == (b["n"], b["r"], b["method"])
            assert a["avg_prob_true"] != b["avg_prob_true"]

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
            run_experiment(ExperimentConfig(experiment="figure_ar1", seed=2, replicates=5,
                                            threads=threads,
                                            overrides={"g_grid": "5", "k_grid": "0,3"}))
            for threads in (1, 3)
        ]
        assert rows[0] == rows[1] and len(rows[0]) == 2 * 4 * 3
        cell = figure_cell("ar1", 5.0, 3, seed=2, replicates=5, threads=3)
        means = [r["avg_loss"] for r in rows[0] if r["k"] == 3]
        assert means == [float(cell["losses"][:, mi, si].mean())
                         for mi in range(4) for si in range(3)]

    def test_cell_defaults_are_the_figure_rows_of_settings(self, monkeypatch):
        # figure_cell reads model_prior and zs_rule from SETTINGS when it is
        # called, so it follows the figure experiments' row, not a copy of it.
        args = ("ar1", 5.0, 3)
        kw = dict(seed=9, replicates=3, methods=("zs",))
        base = figure_cell(*args, **kw)
        row = SETTINGS["figure_ar1"].settings
        explicit = figure_cell(*args, **kw, model_prior=row["model_prior"][0],
                               zs_rule=row["zs_rule"][0])
        for key in base:
            np.testing.assert_array_equal(base[key], explicit[key])
        monkeypatch.setitem(row, "zs_rule", ("laplace", row["zs_rule"][1]))
        laplace = figure_cell(*args, **kw)
        np.testing.assert_array_equal(laplace["losses"],
                                      figure_cell(*args, **kw, zs_rule="laplace")["losses"])
        assert not np.array_equal(laplace["losses"], base["losses"])

    @pytest.mark.parametrize("design,stack", [("ar1", None), ("orthogonal", 7)])
    def test_grid_stacks_match_one_replicate_at_a_time(self, monkeypatch, design, stack):
        # 9 replicates of 18 cells fill one stack of _FIG_STACK = 144 datasets
        # and part of another; stacks of 7 over 4 cells split replicates.
        if stack:
            monkeypatch.setattr(harness, "_FIG_STACK", stack)
            grid = [(g, k) for g in (0.5, 25.0) for k in (0, 5)]
        else:
            grid = [(g, k) for g in (5.0, 25.0) for k in range(9)]
        reps = 9 if stack is None else 5
        assert reps * len(grid) % harness._FIG_STACK
        methods = ("bic", "ml2", "lb", "zs")
        cell = _figure_grid(design, grid, 4, methods, "uniform_models", "exact")
        [stacked] = run_replicates(_figure_chunk, [cell], reps, 1)
        for ci, pair in enumerate(grid):
            one = _figure_grid(design, [pair], 4, methods, "uniform_models", "exact")
            alone = [np.concatenate(parts) for parts in
                     zip(*(_figure_chunk(one, rep, rep + 1) for rep in range(reps)))]
            for grid_values, values in zip(stacked, alone):
                np.testing.assert_array_equal(grid_values[:, ci], values[:, 0])

    @pytest.mark.parametrize("where", ["raw", "design"])
    def test_stack_failure_names_the_replicate(self, tmp_path, capsys, monkeypatch, where):
        # Replicate 7 of (g=5, k=3) is entry 15 of the one stack of a 2-cell grid;
        # degenerate draws or a degenerate design there name the replicate.
        target = derive_stream(1, (1, 5000, 3, 7)).standard_normal((50, 8))
        design_from_raw = harness.correlated_design_from_raw

        def degenerate(raw, spec):
            i = next(i for i in range(len(raw)) if np.array_equal(raw[i], target))
            if where == "raw":
                raw = raw.copy()
                raw[i, :, 2] = raw[i, :, 0]
                return design_from_raw(raw, spec)
            x = design_from_raw(raw, spec)
            x[i, :, 2] = x[i, :, 0]
            return x

        monkeypatch.setattr(harness, "correlated_design_from_raw", degenerate)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("g_grid = 5\nk_grid = 0,3\nreplicates = 9\n", encoding="utf-8")
        assert main(["figure_ar1", "--config", str(cfg_path), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        detail = ("raw draws are numerically rank deficient" if where == "raw"
                  else "model 10 (columns (0, 2)): selected columns (0, 2) are rank deficient")
        assert f"numerical failure: design=ar1, g=5.0, k=3, replicate 7: {detail}\n" in err
        assert "replicate 15" not in err

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
        assert (tmp_path / "anova.csv").exists()

    def test_csv_does_not_depend_on_threads(self, tmp_path, monkeypatch):
        # 7 replicates per p: one chunk at one thread, seven at two.
        seen = []

        def recording(worker, cells, replicates, threads):
            seen.append(threads)
            return run_replicates(worker, cells, replicates, threads)

        monkeypatch.setattr(anova, "run_replicates", recording)
        config = tmp_path / "anova.cfg"
        config.write_text("p_grid = 50,200\ntau2 = 0.3\n", encoding="utf-8")
        csv = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert main(["anova", "--config", str(config), "--seed", "3", "--replicates", "7",
                         "--threads", threads, "--out", str(out)]) == 0
            csv.append((out / "anova.csv").read_bytes())
        assert seen == [1, 2] and csv[0] == csv[1]


class TestShibataDriver:
    @pytest.mark.parametrize("settings,label", [
        ({"sigma2": "2"}, "n30_k29_s2"),
        ({"k": "9"}, "n30_k9_s1"),
        ({"scenario": "2", "n": "90"}, "n90_k79_s1"),
    ])
    def test_scenario_sets_defaults_each_setting_overrides(self, settings, label):
        rows = run_experiment(ExperimentConfig(experiment="shibata", seed=1, replicates=1,
                                               methods=("bic",), overrides=settings))
        assert {row["scenario"] for row in rows} == {label}


# The CSV header is the first row's keys, so each driver's key order is its
# file's schema.
_CSV_HEADERS = {
    "table1": ("n_grid = 5", "n,r,method,avg_prob_true,se,replicates"),
    "figure_ar1": ("g_grid = 5\nk_grid = 0",
                   "design,g,k,method,selector,avg_loss,se,replicates"),
    "figure_diag": ("g_grid = 5\nk_grid = 0",
                    "design,g,k,method,avg_entropy,se_entropy,mpm_match_rate,se_match,"
                    "avg_mpm_size,se_size,replicates"),
    "shibata": ("n = 30\nk = 9",
                "scenario,method,selector,avg_loss,se_loss,avg_size,se_size,replicates,seed"),
    "anova": ("p_grid = 10", "p,method,avg_prob_true,se,replicates,tau2,r"),
}


@pytest.mark.parametrize("experiment", sorted(_CSV_HEADERS))
def test_csv_header_pinned(tmp_path, experiment):
    settings, header = _CSV_HEADERS[experiment]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{settings}\nreplicates = 2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg_path), "--seed", "1", "--out", str(out)]) == 0
    assert (out / f"{experiment}.csv").read_text().splitlines()[0] == header


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
        posteriors = run_bf(path, cfg)
        for method in ("ml2", "lb", "zs"):
            post = posteriors[method]
            assert post.models[hpm(post)] == ()

    def test_single_predictor_branch_behavior(self, tmp_path):
        # Low signal: constrained rule coincides with the unit-information
        # g-prior; strong signal: the fitted covariance strictly wins.
        rng = np.random.default_rng(4)
        weak = self._write_csv(tmp_path, rng, signal=False, p=1, n=20)
        cfg = ExperimentConfig(experiment="bf", seed=0, methods=("ml2", "lb"))
        res = run_bf(weak, cfg)
        ml2 = dict(zip(res["ml2"].models, res["ml2"].log_evidence))
        lb = dict(zip(res["lb"].models, res["lb"].log_evidence))
        assert ml2[(0,)] == pytest.approx(lb[(0,)], abs=1e-12)

        x = np.linspace(-1, 1, 20)
        y = 1.0 + 30.0 * x + 0.3 * np.random.default_rng(5).standard_normal(20)
        strong = tmp_path / "strong.csv"
        strong.write_text(
            "y,x1\n" + "\n".join(f"{repr(float(a))},{repr(float(b))}" for a, b in zip(y, x)) + "\n",
            encoding="utf-8",
        )
        res = run_bf(strong, cfg)
        ml2 = dict(zip(res["ml2"].models, res["ml2"].log_evidence))
        lb = dict(zip(res["lb"].models, res["lb"].log_evidence))
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

    @pytest.mark.parametrize("case", ["p4", "exact_fit", "p1", "escaped_path"])
    def test_report_bytes_match_json_dumps(self, tmp_path, case):
        # The report's renderer against the generic encoder it stands in for.
        rng = np.random.default_rng(8)
        path = self._write_csv(tmp_path, rng, p=1 if case == "p1" else 4, n=12)
        if case == "exact_fit":  # r^2 = 1 for every model with x1: the +inf marker
            x = rng.standard_normal((12, 2))
            y = 1.0 + 2.0 * x[:, 0]
            path.write_text("y,x1,x2\n" + "".join(f"{a!r},{b!r},{c!r}\n"
                                                  for a, (b, c) in zip(y.tolist(), x.tolist())),
                            encoding="utf-8")
        if case == "escaped_path":  # a quote and a non-ASCII character in "dataset"
            path = path.rename(tmp_path / 'da"t\u00e4.csv')
        out = tmp_path / "out"
        cfg = ExperimentConfig(experiment="bf", seed=0, methods=("ml2", "lb", "bic",
                                                                 "bicprior", "zs", "ghat"),
                               output_dir=str(out))
        posteriors = run_bf(path, cfg)
        _, labels = load_dataset_csv(path)
        report = {
            "dataset": str(path),
            "labels": labels,
            "n": 12,
            "p": len(labels),
            "methods": {
                method: {
                    "hpm": list(post.models[hpm(post)]),
                    "mpm": list(post.models[mpm(post)]),
                    "inclusion_probs": inclusion_probs(post).tolist(),
                    "models": [{"model": list(m), "log_evidence": le, "prob": pr}
                               for m, le, pr in zip(post.models, post.log_evidence.tolist(),
                                                    post.posterior_prob.tolist())],
                }
                for method, post in posteriors.items()
            },
        }
        text = (out / "bf_results.json").read_text(encoding="utf-8")
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        marker = {"exact_fit": '"log_evidence": Infinity', "p1": '"model": []',
                  "escaped_path": 'da\\"t\\u00e4.csv'}.get(case, '"prob": ')
        assert marker in text

    def test_json_floats_match_json_dumps(self):
        values = np.array([0.0, -0.0, 1e-310, 0.1, -2.5e300, np.inf, -np.inf, np.nan])
        assert ", ".join(_json_floats(values)) == json.dumps(values.tolist())[1:-1]

    def test_repeated_runs_write_identical_files(self, tmp_path):
        path = _write_data_csv(tmp_path, 30, 4)
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            assert main(["bf", str(path), "--out", str(out)]) == 0
        for name in ("bf_results.json", "bf.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


class TestCli:
    def test_table1_smoke(self, tmp_path, capsys):
        code = main([
            "table1", "--seed", "7", "--replicates", "3", "--out", str(tmp_path / "r"),
        ])
        assert code == 0
        assert (tmp_path / "r" / "table1.csv").exists()

    def test_seed_required(self):
        assert main(["table1"]) == 2

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_output_directory_required(self, tmp_path, monkeypatch, capsys, experiment):
        # A run that writes nothing would compute everything and exit 0.
        argv = [experiment, "--seed", "1", "--replicates", "1"]
        if experiment == "bf":
            argv.insert(1, str(_write_data_csv(tmp_path, n=20, p=2)))
        before = sorted(tmp_path.rglob("*"))
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "--out" in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_csv_cell_is_malformed(self, tmp_path, capsys, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"y,x1\n1.0,0.5\n2.0,{cell}\n3.0,0.1\n4.0,0.7\n", encoding="utf-8")
        assert main(["bf", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"malformed CSV: column 'x1' row 3 is not finite: {cell!r}" in err

    def test_malformed_csv_names_column(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1.0,0.5\n2.0,oops\n", encoding="utf-8")
        code = main(["bf", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "x1" in capsys.readouterr().err

    @pytest.mark.parametrize("header,message", [
        ("y,x0,x1,x2", "unexpected column 'x0'"),
        ("y,x01,x2", "unexpected column 'x01'"),
        ("y,x1,x3", "missing 'x2'"),
    ])
    def test_malformed_csv_names_the_wrong_candidate(self, tmp_path, capsys, header, message):
        # The column that is not one of x1..xp is named, not a present one.
        fields = header.count(",") + 1
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n" + "\n".join([",".join(["1"] * fields)] * 6) + "\n",
                        encoding="utf-8")
        assert main(["bf", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "malformed CSV: " in err and message in err

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start with a byte-order mark; the
        # first header must still read "y".
        text = "y,x1,x2\n1.2,0.5,-0.3\n2.1,1.5,0.4\n0.7,-0.2,1.1\n3.3,2.0,-0.8\n1.9,0.9,0.2\n"
        methods = {}
        for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            path = tmp_path / f"{name}.csv"
            path.write_text(text, encoding=encoding)
            out = tmp_path / f"out_{name}"
            assert main(["bf", str(path), "--out", str(out)]) == 0
            report = json.loads((out / "bf_results.json").read_text(encoding="utf-8"))
            methods[name] = report["methods"]
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert methods["bom"] == methods["plain"]

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
        code = main(["anova", "--seed", "1", "--replicates", "2", "--methods", "zs",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_rule_is_config_error(self, tmp_path, capsys):
        code = main(["table1", "--seed", "1", "--replicates", "2", "--methods", "bogus",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,key", [
        ("table1", "model_prior"), ("figure_ar1", "model_prior"), ("bf", "model_prior"),
        ("table1", "zs_rule"), ("figure_ar1", "zs_rule"), ("table1", "design_scale"),
    ])
    def test_bad_setting_is_config_error(self, tmp_path, capsys, experiment, key):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"{key} = bogus\nreplicates = 2\n", encoding="utf-8")
        argv = [experiment, "--config", str(cfg_path), "--seed", "1",
                "--out", str(tmp_path / "o")]
        if experiment == "bf":
            argv.insert(1, str(_write_data_csv(tmp_path, n=20, p=2)))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "bogus" in err

    @pytest.mark.parametrize("experiment,key", [
        (experiment, key) for experiment, entry in SETTINGS.items() for key in entry.settings
    ])
    def test_every_setting_is_read_and_checked(self, tmp_path, capsys, experiment, key):
        # A key listed for an experiment its driver ignored would run and exit 0.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"{key} = bogus!\nreplicates = 1\n", encoding="utf-8")
        argv = [experiment, "--config", str(cfg_path), "--seed", "1",
                "--out", str(tmp_path / "o")]
        if experiment == "bf":
            argv.insert(1, str(_write_data_csv(tmp_path, n=20, p=2)))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    def test_misspelt_setting_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("n_gird = 5\nreplicates = 1\n", encoding="utf-8")
        assert main(["table1", "--config", str(cfg_path), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert ("unknown setting 'n_gird' for table1; it reads n_grid, beta1, beta2, "
                "share_noise_across_n, model_prior, design_scale, zs_rule") in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment,setting", [
        ("table1", "beta2 = 1e160"), ("table1", "beta2 = 1e308"),
        ("figure_ar1", "g_grid = 1e300\nk_grid = 8"),
    ])
    def test_overflow_is_numerical_failure(self, tmp_path, capsys, experiment, setting):
        # table1's is caught in the fit, figure_ar1's by pool.mean_se; both name the row,
        # and table1 its replicate.
        named = (("n=5, r=-0.9, replicate 0: the sum of squares of y overflows",)
                 if experiment == "table1" else ("g=1e+300", "method=bic"))
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"{setting}\nreplicates = 2\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main([experiment, "--config", str(cfg_path), "--seed", "1",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and all(part in err for part in named)
        assert not out.exists()

    @pytest.mark.parametrize("experiment,setting,named", [
        ("table1", "n_grid = 5,3", "n_grid: '3'"), ("table1", "n_grid = 5,x", "n_grid: 'x'"),
        ("figure_ar1", "k_grid = 9", "k_grid: '9'"),
        ("figure_ar1", "k_grid = -1", "k_grid: '-1'"),
        ("figure_ar1", "g_grid = abc", "g_grid: 'abc'"),
        ("figure_ar1", "g_grid = 1e308", "g_grid: '1e308'"),
        ("figure_ar1", "g_grid = 0.0001,0.0004", "g_grid: 0.0001 and 0.0004 share"),
        ("figure_ar1", "g_grid = 5,5", "g_grid: '5' repeats '5'"),
        ("figure_ar1", "g_grid = 5,5.0", "g_grid: '5.0' repeats '5'"),
        ("figure_ar1", "k_grid = 0,3,0", "k_grid: '0' repeats '0'"),
        ("table1", "n_grid = 5,10,5", "n_grid: '5' repeats '5'"),
        ("anova", "p_grid = 30,30", "p_grid: '30' repeats '30'"),
        ("anova", "p_grid = 30,x", "p_grid: 'x'"), ("anova", "tau2 = abc", "tau2: 'abc'"),
        ("table1", "beta1 = abc", "beta1: 'abc'"),
        ("table1", "beta2 = nan", "beta2: 'nan'"),
        ("table1", "share_noise_across_n = ture", "share_noise_across_n: 'ture'"),
        ("shibata", "powerlaw_refit_per_model = ture", "powerlaw_refit_per_model: 'ture'"),
        ("shibata", "loss_kind = integratd", "'integratd'"),
        ("shibata", "scenario = 7", "scenario: '7'"),
        ("shibata", "n = 5\nk = 9", "k: '9'"),
        ("shibata", "sigma2 = 0", "sigma2: '0'"),
        ("anova", "tau2 = -1", "tau2: '-1'"),
        ("anova", "r = 0", "r: '0'"),
        ("table1", "seed = abc", "seed: 'abc' is not"),
        ("anova", "replicates = 2.5", "replicates: '2.5' is not"),
        ("shibata", "threads = 0", "threads: '0' is not"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, experiment, setting, named):
        # Each is checked before any work starts, not met as a numerical failure.
        # The setting comes last, so that it wins over the file's own seed and replicates.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"seed = 1\nreplicates = 2\n{setting}\n", encoding="utf-8")
        assert main([experiment, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err
        assert not (tmp_path / "o").exists()

    def test_bad_setting_and_missing_output_are_both_named(self, tmp_path, monkeypatch, capsys):
        # The settings pass runs before the output check, so one message names both.
        (tmp_path / "run.cfg").write_text("n_grid = 5,x\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["table1", "--config", "run.cfg", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "n_grid: 'x'" in err and "--out" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_dataset_argument_outside_bf_is_config_error(self, tmp_path, capsys):
        path = _write_data_csv(tmp_path, n=20, p=2)
        out = tmp_path / "o"
        assert main(["table1", str(path), "--seed", "1", "--replicates", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"dataset: {str(path)!r} is not read by table1" in err
        assert not out.exists()

    @pytest.mark.parametrize("p", [_MAX_ALL_SUBSETS + 1, 26])
    def test_too_many_predictors_is_config_error(self, tmp_path, capsys, p):
        path = _write_data_csv(tmp_path, n=p + 5, p=p)
        assert main(["bf", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"capped at {_MAX_ALL_SUBSETS}" in err

    def test_cap_is_reachable(self, tmp_path):
        # The largest allowed p runs; that is what the cap's measurements say.
        cfg = ExperimentConfig(experiment="bf", seed=0, methods=("bic",))
        path = _write_data_csv(tmp_path, n=_MAX_ALL_SUBSETS + 4, p=_MAX_ALL_SUBSETS)
        posteriors = run_bf(path, cfg)
        assert len(posteriors["bic"].models) == 2**_MAX_ALL_SUBSETS

    def test_insufficient_sample_size_is_config_error(self, tmp_path, capsys):
        # n = p0 + p: the intercept and three candidates leave no residual.
        path = _write_data_csv(tmp_path, n=4, p=3)
        assert main(["bf", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "insufficient sample size" in capsys.readouterr().err


    @pytest.mark.parametrize("case,named", [
        ("copy", "x3"), ("combination", "x3"), ("common", "x0_*"), ("constant", "x3"),
        ("two", "x3, x4"),
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
        elif case == "constant":  # inside the intercept's span
            x[:, 2] = 5.0
        elif case == "two":
            x = np.column_stack([x[:, :2], x[:, 0], 2.0 * x[:, 1] - 1.0])
        else:
            x[:, 2] = 2.0 * x[:, 0] - 3.0 * x[:, 1] + 5.0
        cols.update({f"x{j + 1}": x[:, j] for j in range(x.shape[1])})
        lines = [",".join(cols)]
        lines += [",".join(repr(float(c[i])) for c in cols.values()) for i in range(n)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["bf", str(path), "--out", str(tmp_path / "o")]) == 2
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
            run_experiment(ExperimentConfig(experiment="table1", seed=1, replicates=2,
                                            overrides={"zs_rule": zs_rule, "n_grid": "5,10"}))
        run_experiment(ExperimentConfig(experiment="figure_ar1", seed=1, replicates=1,
                                        overrides={"g_grid": "5", "k_grid": "0,3"}))
        run_experiment(ExperimentConfig(experiment="shibata", seed=1, replicates=2,
                                        overrides={"n": "30", "k": "9"}))


# Runs each argv list of the JSON in argv[1] through the CLI, in a fresh process.
_RUN_ALL = """
import json, sys
from ml2bf.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"ml2bf {argv} failed")
"""
# scipy is not a runtime dependency, and numpy.ma and the process pool
# would each cost 10-25 ms of a fresh one-process run that never uses them.
_HEAVY_MODULES = ("scipy", "numpy.ma", "concurrent.futures.process")
_NO_SCIPY_RUN = _RUN_ALL + f"""
heavy = {_HEAVY_MODULES!r}
print(json.dumps(sorted(m for m in sys.modules
                        if m in heavy or m.startswith(tuple(h + "." for h in heavy)))))
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


class TestBlasThreads:
    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS reads its thread count once, at import, so each count
        # gets its own process.
        settings = [("table1", ""), ("figure_ar1", "g_grid = 5\nk_grid = 0,3\n"),
                    ("shibata", "scenario = 1\n")]
        data = _write_data_csv(tmp_path, 40, 4)
        # A tall dataset: every fit hangs on one QR of its 2000 x 7 [x, y].
        tall = _write_data_csv(tmp_path, 2000, 6, name="tall.csv")
        outs = {}
        for threads in ("1", "2"):
            runs = []
            for experiment, text in settings:
                config = tmp_path / f"{experiment}.cfg"
                config.write_text(text, encoding="utf-8")
                runs.append([experiment, "--config", str(config), "--seed", "3",
                             "--replicates", "2", "--out", str(tmp_path / threads)])
            runs.append(["bf", str(data), "--out", str(tmp_path / threads),
                         "--methods", "ml,lb,bic,bicprior,zs,ghat"])
            runs.append(["bf", str(tall), "--out", str(tmp_path / threads / "tall")])
            src = os.path.dirname(os.path.dirname(bayesfactors.__file__))
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", _RUN_ALL, json.dumps(runs)],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert done.returncode == 0, done.stderr
            outs[threads] = {str(f.relative_to(tmp_path / threads)): f.read_bytes()
                             for f in (tmp_path / threads).rglob("*") if f.is_file()}
        assert len(outs["1"]) == 10
        assert outs["1"] == outs["2"]


def _write_data_csv(tmp_path, n, p, seed=0, name="data.csv"):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = 1.0 + x[:, 0] + rng.standard_normal(n)
    lines = ["y," + ",".join(f"x{j + 1}" for j in range(p))]
    lines += [",".join(repr(float(v)) for v in (y[i], *x[i])) for i in range(n)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
