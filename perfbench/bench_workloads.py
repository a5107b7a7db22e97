"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Each workload is one ``ml2bf`` experiment at a fixed size.  Inputs are made
here from the benchmark seed, so the program only ever sees generated
arguments and files.  ``check`` validates one invocation's output directory
and returns the accuracy figure that feeds ``output_dev_se`` (deviation from
the reference outputs in ``reference/``, in standard errors) or
``log_ev_dev`` (deviation of every log evidence from the scalar oracles).

Sizes: ``full`` is what the benchmark measures; ``tiny`` runs the same code
paths in about a second, for the smoke tests.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Reference outputs exist for program seeds 0..REFERENCE_SEEDS-1; the
# benchmark seed picks one of them.
REFERENCE_SEEDS = 16
# An output average further than this many standard errors from its
# reference value is a different computation, not a faster path.
MAX_OUTPUT_DEV_SE = 1.0
# Largest accepted |log evidence - scalar oracle| on bf_wide.
MAX_LOG_EV_DEV = 1e-6


class CheckError(Exception):
    """An invocation's outputs failed a structural or oracle check."""


def program_seed(seed):
    return seed % REFERENCE_SEEDS


def _finite(value, what):
    if not math.isfinite(value):
        raise CheckError(f"{what} is not finite: {value!r}")
    return value


def _probability(value, what):
    if not 0.0 <= _finite(value, what) <= 1.0:
        raise CheckError(f"{what} is outside [0, 1]: {value!r}")
    return value


def _read_rows(path, key_columns, expected_keys):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise CheckError(f"missing output: {exc}")
    if any(None in row or None in row.values() for row in rows):
        raise CheckError(f"{Path(path).name}: a row has the wrong number of fields")
    keyed = {"|".join(row[c] for c in key_columns): row for row in rows}
    if len(keyed) != len(rows) or set(keyed) != set(expected_keys):
        raise CheckError(f"{Path(path).name}: unexpected row set")
    return keyed


def output_dev_se(values, reference):
    """Largest |average - reference average| over all cells, in reference SEs."""
    if set(values) != set(reference):
        raise CheckError("reference output has a different cell set")
    worst = 0.0
    for key, value in values.items():
        ref_value, ref_se = reference[key]
        diff = abs(value - ref_value)
        if diff > 0:
            worst = max(worst, diff / ref_se if ref_se > 0 else math.inf)
    return worst


class Workload:
    name = ""
    files = ()          # output files compared byte for byte across invocations
    result_file = ""    # the one of them that does not echo --threads

    def __init__(self, size="full"):
        if size not in ("full", "tiny"):
            raise ValueError(f"unknown size {size!r}")
        self.size = size

    def reference(self, seed):
        """Reference (average, se) per output cell for this seed."""
        data = json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())
        return {k: tuple(v) for k, v in data["seeds"][str(program_seed(seed))].items()}

    def check(self, outdir, seed):
        """Validate the outputs; at full size, compare them with the reference."""
        cells = self.cells(outdir)
        if self.size != "full":
            return {}
        dev = output_dev_se({k: v for k, (v, _) in cells.items()}, self.reference(seed))
        if dev > MAX_OUTPUT_DEV_SE:
            raise CheckError(f"output_dev_se {dev:.3g} exceeds {MAX_OUTPUT_DEV_SE}")
        return {"output_dev_se": dev}


class Table1(Workload):
    """Many tiny datasets with four models each: per-call overhead dominates."""

    name = "table1"
    files = ("table1.csv", "table1.json")
    result_file = "table1.csv"
    methods = ("bic", "ml2", "lb", "zs")

    def __init__(self, size="full"):
        super().__init__(size)
        self.replicates = 50 if size == "full" else 2
        self.n_grid = (5, 10, 15, 20) if size == "full" else (5, 10)
        self.datasets = self.replicates * len(self.n_grid) * 2
        self.models_per_dataset = 4

    def prepare(self, seed, workdir):
        args = ["table1", "--seed", str(program_seed(seed)),
                "--replicates", str(self.replicates)]
        if self.size == "tiny":
            (Path(workdir) / "table1.cfg").write_text("n_grid = 5,10\n", encoding="utf-8")
            args += ["--config", "table1.cfg"]
        return args

    def cells(self, outdir):
        expected = [f"{n}|{r!r}|{m}" for n in self.n_grid for r in (-0.9, 0.9)
                    for m in self.methods]
        rows = _read_rows(Path(outdir) / "table1.csv", ("n", "r", "method"), expected)
        values = {}
        for key, row in rows.items():
            avg = _probability(float(row["avg_prob_true"]), f"{key} avg_prob_true")
            se = _finite(float(row["se"]), f"{key} se")
            if se < 0 or int(row["replicates"]) != self.replicates:
                raise CheckError(f"{key}: bad se or replicate count")
            values[key] = (avg, se)
        return values


class FigureAr1(Workload):
    """256 subsets per dataset on an AR(1) design, sparse to dense truth."""

    name = "figure_ar1"
    files = ("figure_ar1.csv", "figure_ar1.json")
    result_file = "figure_ar1.csv"
    methods = ("bic", "ml2", "lb", "zs")

    def __init__(self, size="full"):
        super().__init__(size)
        self.replicates = 2
        self.g_grid = (5.0, 25.0) if size == "full" else (5.0,)
        self.k_grid = tuple(range(9)) if size == "full" else (0, 3)
        self.datasets = self.replicates * len(self.g_grid) * len(self.k_grid)
        self.models_per_dataset = 256

    def prepare(self, seed, workdir):
        args = ["figure_ar1", "--seed", str(program_seed(seed)),
                "--replicates", str(self.replicates)]
        if self.size == "tiny":
            (Path(workdir) / "figure_ar1.cfg").write_text(
                "g_grid = 5\nk_grid = 0,3\n", encoding="utf-8")
            args += ["--config", "figure_ar1.cfg"]
        return args

    def cells(self, outdir):
        expected = [f"ar1|{g!r}|{k}|{m}|{s}" for g in self.g_grid for k in self.k_grid
                    for m in self.methods for s in ("hpm", "mpm", "bma")]
        rows = _read_rows(Path(outdir) / "figure_ar1.csv",
                          ("design", "g", "k", "method", "selector"), expected)
        values = {}
        for key, row in rows.items():
            loss = _finite(float(row["avg_loss"]), f"{key} avg_loss")
            se = _finite(float(row["se"]), f"{key} se")
            if loss < 0 or se < 0:
                raise CheckError(f"{key}: negative loss or se")
            values[key] = (loss, se)
        return values


class Shibata(Workload):
    """79 nested power-law fits per dataset; never fits subsets or runs ZS."""

    name = "shibata"
    files = ("shibata.csv", "shibata.json")
    result_file = "shibata.csv"
    methods = ("powerlaw", "ml2", "aic", "bic")

    def __init__(self, size="full"):
        super().__init__(size)
        if size == "full":
            self.scenario, self.k, self.label = 3, 79, "n2000_k79_s3"
        else:
            self.scenario, self.k, self.label = 1, 29, "n30_k29_s1"
        self.replicates = 4 if size == "full" else 2
        self.datasets = self.replicates
        self.models_per_dataset = self.k

    def prepare(self, seed, workdir):
        (Path(workdir) / "shibata.cfg").write_text(
            f"scenario = {self.scenario}\nseed = {program_seed(seed)}\n"
            f"replicates = {self.replicates}\nmethods = {','.join(self.methods)}\n",
            encoding="utf-8",
        )
        return ["shibata", "--config", "shibata.cfg"]

    def cells(self, outdir):
        expected = [f"{self.label}|{m}|{s}" for m in self.methods
                    for s in ("hpm", "mpm", "bma")]
        rows = _read_rows(Path(outdir) / "shibata.csv",
                          ("scenario", "method", "selector"), expected)
        values = {}
        for key, row in rows.items():
            loss = _finite(float(row["avg_loss"]), f"{key} avg_loss")
            se = _finite(float(row["se_loss"]), f"{key} se_loss")
            if loss < 0 or se < 0:
                raise CheckError(f"{key}: negative loss or se")
            values[f"{key}|loss"] = (loss, se)
            if row["selector"] == "bma":
                if row["avg_size"] or row["se_size"]:
                    raise CheckError(f"{key}: bma row reports a size")
                continue
            size = _finite(float(row["avg_size"]), f"{key} avg_size")
            se = _finite(float(row["se_size"]), f"{key} se_size")
            if not 1 <= size <= self.k or se < 0:
                raise CheckError(f"{key}: average size {size} outside [1, {self.k}]")
            values[f"{key}|size"] = (size, se)
        return values


def ar1_design(rng, n, p, rho):
    """AR(1)-correlated design, built as ``ml2bf.make_correlated_design`` does."""
    raw = rng.standard_normal((n, p))
    z = raw - raw.mean(axis=0)
    u, _, _ = np.linalg.svd(z, full_matrices=False)
    idx = np.arange(p)
    chol = np.linalg.cholesky(rho ** np.abs(idx[:, None] - idx[None, :]))
    return (np.sqrt(n) * u) @ chol.T


class BfWide(Workload):
    """All 2^p subsets of one CSV dataset under all six rules; heavy JSON write."""

    name = "bf_wide"
    files = ("bf_results.json", "bf.json")
    result_file = "bf_results.json"
    methods = ("ml2", "lb", "bic", "bicprior", "zs", "ghat")
    rho = 0.5

    def __init__(self, size="full"):
        super().__init__(size)
        self.n, self.p = (100, 12) if size == "full" else (30, 4)
        self.datasets = 1
        self.models_per_dataset = 2**self.p

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        x = ar1_design(rng, self.n, self.p, self.rho)
        beta = np.zeros(self.p)
        active = rng.choice(self.p, size=3, replace=False)
        beta[active] = rng.choice([-1.0, 1.0], size=3) * np.array([0.6, 0.4, 0.25])
        y = 1.0 + x @ beta + rng.standard_normal(self.n)
        lines = [",".join(["y"] + [f"x{j + 1}" for j in range(self.p)])]
        lines += [",".join(repr(float(v)) for v in (y[i], *x[i])) for i in range(self.n)]
        (Path(workdir) / "bf_wide.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return ["bf", "bf_wide.csv"]

    def check(self, outdir, seed):
        try:
            result = json.loads((Path(outdir) / "bf_results.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CheckError(f"bf_results.json unreadable: {exc}")
        if sorted(result.get("methods", {})) != sorted(self.methods):
            raise CheckError("bf_results.json: unexpected method set")
        if (result["n"], result["p"]) != (self.n, self.p):
            raise CheckError("bf_results.json: wrong n or p")
        all_models = {tuple(j for j in range(self.p) if mask >> j & 1)
                      for mask in range(2**self.p)}
        logged = {}
        for method, block in result["methods"].items():
            models = [tuple(entry["model"]) for entry in block["models"]]
            if len(models) != len(all_models) or set(models) != all_models:
                raise CheckError(f"{method}: model set is not all subsets")
            probs = np.array([_probability(e["prob"], f"{method} prob")
                              for e in block["models"]])
            logged[method] = [(m, _finite(e["log_evidence"], f"{method} log evidence"))
                              for m, e in zip(models, block["models"])]
            if abs(probs.sum() - 1.0) > 1e-9:
                raise CheckError(f"{method}: posterior sums to {probs.sum()!r}")
            incl = np.zeros(self.p)
            for model, prob in zip(models, probs):
                incl[list(model)] += prob
            reported = np.array([_probability(v, f"{method} inclusion")
                                 for v in block["inclusion_probs"]])
            if reported.shape != incl.shape or np.max(np.abs(reported - incl)) > 1e-9:
                raise CheckError(f"{method}: inclusion probabilities disagree")
            best = min(zip(models, probs), key=lambda mp: (-mp[1], len(mp[0]), mp[0]))[0]
            if tuple(block["hpm"]) != best:
                raise CheckError(f"{method}: hpm is not the most probable model")
            if tuple(block["mpm"]) != tuple(int(j) for j in np.nonzero(incl >= 0.5)[0]):
                raise CheckError(f"{method}: mpm is not the median probability model")
        dev = oracle_log_ev_dev(Path(outdir).parent / "bf_wide.csv", logged)
        if not dev <= MAX_LOG_EV_DEV:
            raise CheckError(f"log_ev_dev {dev:.3g} exceeds {MAX_LOG_EV_DEV}")
        return {"log_ev_dev": dev}


def oracle_log_ev_dev(csv_path, logged):
    """Largest |logged log evidence - scalar closed form or quadrature|."""
    from ml2bf import (fit_suffstats, load_dataset_csv, log_bf_bic, log_bf_bic_prior,
                       log_bf_gprior, log_bf_local_eb, log_bf_ml2, log_bf_zs,
                       orthogonalize)

    rules = {
        "ml2": log_bf_ml2,
        "lb": lambda s: log_bf_gprior(s, float(s.n)) if s.p else 0.0,
        "bic": log_bf_bic,
        "bicprior": log_bf_bic_prior,
        "zs": log_bf_zs,
        "ghat": lambda s: log_bf_local_eb(s)[0],
    }
    dataset, _ = load_dataset_csv(csv_path)
    ds = orthogonalize(dataset)
    stats = {}
    worst = 0.0
    for method, entries in logged.items():
        for model, value in entries:
            if model not in stats:
                stats[model] = fit_suffstats(ds, model)
            worst = max(worst, abs(value - rules[method](stats[model])))
    return worst


WORKLOADS = {w.name: w for w in (Table1, FigureAr1, Shibata, BfWide)}
