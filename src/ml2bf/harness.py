"""Seeded Monte Carlo experiment drivers and result persistence.

Each experiment is a deterministic function of its configuration: replicate
streams are derived from the seed with a splittable counter construction,
results are reduced in replicate order, and outputs carry the config echo,
so re-running a config reproduces the output files byte for byte.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .anova import ANOVA_METHODS, AnovaTruth, simulate_consistency
from .bayesfactors import PriorMethod, evidence
from .modelspace import (
    ModelSpace,
    entropy,
    hpm,
    inclusion_probs,
    mpm,
    posterior_from_evidence,
)
from .nonparametric import STUDY_METHODS, NonparametricConfig, run_study
from .pool import chunk_bounds, run_chunked
from .regression import (
    CorrelationSpec,
    Dataset,
    correlated_design_from_raw,
    fit_models,
    load_dataset_csv,
    orthogonalize,
)

# Not called here: perfbench/bench_trace.py wraps these names on this module
# to time the per-model layers, so they stay importable from it.
from .bayesfactors import (  # noqa: F401
    log_bf_aic,
    log_bf_bic,
    log_bf_bic_prior,
    log_bf_gprior,
    log_bf_local_eb,
    log_bf_ml2,
    log_bf_zs_laplace,
    zs_evidence_batch,
)
from .estimation import shrinkage_factor_ml2  # noqa: F401
from .regression import fit_suffstats  # noqa: F401

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "EXPERIMENTS",
    "derive_stream",
    "load_config_file",
    "build_config",
    "run_experiment",
    "run_table1",
    "run_figure_sims",
    "figure_cell",
    "run_anova_experiment",
    "run_shibata_experiment",
    "run_bf",
]

EXPERIMENTS = (
    "table1",
    "figure_ortho",
    "figure_ar1",
    "figure_diag",
    "anova",
    "shibata",
    "bf",
)

_DEFAULT_METHODS = ("bic", "ml2", "lb", "zs")
_BF_METHODS = ("ml2", "lb", "bic", "bicprior", "zs", "ghat")


class ConfigError(Exception):
    """Bad experiment configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative, seeded description of one experiment run."""

    experiment: str
    seed: int
    replicates: int = 1000
    methods: tuple = ()
    output_dir: str | None = None
    threads: int = 1
    dataset: str | None = None
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")

    def get_float(self, key, default):
        return float(self.overrides.get(key, default))

    def get_int(self, key, default):
        return int(self.overrides.get(key, default))

    def get_bool(self, key, default):
        raw = self.overrides.get(key, default)
        if isinstance(raw, bool):
            return raw
        return str(raw).strip().lower() in ("1", "true", "yes", "on")

    def get_int_list(self, key, default):
        raw = self.overrides.get(key, default)
        if isinstance(raw, str):
            return [int(tok) for tok in raw.replace(",", " ").split()]
        return [int(v) for v in raw]


def derive_stream(seed: int, replicate) -> np.random.Generator:
    """Independent, reproducible generator for one replicate of one run.

    The stream is ``PCG64(SeedSequence(seed, spawn_key=key))`` where the key
    is the replicate index (or tuple of indices): a splittable counter-based
    derivation, so any replicate's stream can be rebuilt in isolation.
    """
    key = replicate if isinstance(replicate, tuple) else (int(replicate),)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


# ---------------------------------------------------------------------------
# Config file handling.  Flat key = value lines; '#' starts a comment.
# ---------------------------------------------------------------------------


def load_config_file(path) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        values[key.strip().lower()] = value.strip()
    return values


_KNOWN_KEYS = ("experiment", "seed", "replicates", "methods", "output_dir", "out",
               "threads", "dataset")


def build_config(experiment, file_values=None, **cli_values) -> ExperimentConfig:
    """Merge config-file values with CLI overrides (CLI wins)."""
    merged = dict(file_values or {})
    for key, value in cli_values.items():
        if value is not None:
            merged[key] = value
    merged.setdefault("experiment", experiment)
    if experiment and merged["experiment"] != experiment:
        raise ConfigError(
            f"experiment {experiment!r} on the command line conflicts with "
            f"{merged['experiment']!r} in the config file"
        )
    try:
        seed = int(merged.get("seed", 0))
        replicates = int(merged.get("replicates", 1000))
        threads = int(merged.get("threads", 1))
    except ValueError as exc:
        raise ConfigError(f"bad numeric config value: {exc}")
    methods = merged.get("methods", ())
    if isinstance(methods, str):
        methods = tuple(tok.strip() for tok in methods.split(",") if tok.strip())
    output_dir = merged.get("output_dir", merged.get("out"))
    overrides = {k: v for k, v in merged.items() if k not in _KNOWN_KEYS}
    return ExperimentConfig(
        experiment=merged["experiment"],
        seed=seed,
        replicates=replicates,
        methods=tuple(methods),
        output_dir=output_dir,
        threads=threads,
        dataset=merged.get("dataset"),
        overrides=overrides,
    )


def _parse_methods(cfg, default, allowed=None):
    tokens = cfg.methods or default
    parsed = []
    for tok in tokens:
        if allowed is None:
            try:
                parsed.append(PriorMethod.parse(tok).kind)
            except ValueError as exc:
                raise ConfigError(str(exc))
        else:
            kind = tok.strip().lower()
            if kind == "ml":
                kind = "ml2"
            if kind not in allowed:
                raise ConfigError(f"method {tok!r} not available for this experiment")
            parsed.append(kind)
    return tuple(dict.fromkeys(parsed))


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------


def _format_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, rows, fieldnames):
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(name, "")) for name in fieldnames))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_sidecar(directory, name, cfg: ExperimentConfig, extra=None):
    obj = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "replicates": cfg.replicates,
        "methods": list(cfg.methods),
        "threads": cfg.threads,
        "overrides": {k: str(v) for k, v in sorted(cfg.overrides.items())},
        "version": __version__,
    }
    if extra:
        obj.update(extra)
    path = Path(directory) / f"{name}.json"
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _mean_se(values):
    values = np.asarray(values, dtype=np.float64)
    b = values.shape[0]
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(b)) if b > 1 else 0.0
    return mean, se


# ---------------------------------------------------------------------------
# Two-predictor study (average posterior probability of the full model).
# ---------------------------------------------------------------------------

_TABLE1_NS = (5, 10, 15, 20)
_TABLE1_RS = (-0.9, 0.9)


def _all_subsets_space(p, cfg: ExperimentConfig, default_prior) -> ModelSpace:
    try:
        return ModelSpace.all_subsets(p, model_prior=cfg.overrides.get("model_prior",
                                                                       default_prior))
    except ValueError as exc:
        raise ConfigError(str(exc))


def _zs_rule(cfg: ExperimentConfig, default) -> str:
    zs_rule = cfg.overrides.get("zs_rule", default)
    if zs_rule not in ("exact", "laplace"):
        raise ConfigError(f"unknown zs_rule {zs_rule!r}")
    return zs_rule


def _table1_chunk(args):
    (seed, lo, hi, n_grid, r_values, methods, beta, share_noise, model_prior,
     design_scale, zs_rule) = args
    beta = np.asarray(beta)
    p = beta.shape[0]
    out = np.empty((hi - lo, len(n_grid), len(r_values), len(methods)))
    space = ModelSpace.all_subsets(p, model_prior=model_prior)
    models = space.models()
    full_index = models.index(tuple(range(p)))
    n_max = max(n_grid)
    for rep in range(lo, hi):
        if share_noise:
            rng = derive_stream(seed, (0, rep))
            raw_max = rng.standard_normal((n_max, p))
            eps_max = rng.standard_normal(n_max)
        for ni, n in enumerate(n_grid):
            if share_noise:
                raw, eps = raw_max[:n], eps_max[:n]
            else:
                rng = derive_stream(seed, (n, rep))
                raw = rng.standard_normal((n, p))
                eps = rng.standard_normal(n)
            for ri, r in enumerate(r_values):
                corr = np.array([[1.0, r], [r, 1.0]]) if p == 2 else None
                spec = (
                    CorrelationSpec.explicit(corr)
                    if corr is not None
                    else CorrelationSpec.identity()
                )
                x = correlated_design_from_raw(raw, spec)
                if design_scale == "corrected":
                    x = x * math.sqrt((n - 1.0) / n)
                y = x @ beta + eps
                ds = orthogonalize(Dataset.with_intercept(y, x))
                table = fit_models(ds, models)
                for mi, method in enumerate(methods):
                    log_ev = evidence(method, table, zs_rule=zs_rule)
                    posterior = posterior_from_evidence(models, log_ev, space)
                    out[rep - lo, ni, ri, mi] = posterior.posterior_prob[full_index]
    return lo, out


def run_table1(cfg: ExperimentConfig) -> list[dict]:
    """Average posterior probability of the true (full) two-predictor model.

    Correlated designs are built from the same raw draws for both signs of
    the correlation, with the same noise vector, isolating the effect of the
    correlation's sign.  One row per (n, correlation, method).

    Defaults reproduce the published benchmark: a uniform prior over model
    sizes, predictors standardized to unit corrected (n-1) sample variance,
    and the Laplace evaluation of the Zellner-Siow integral.  Overrides:
    ``model_prior = uniform_models``, ``design_scale = uncorrected``,
    ``zs_rule = exact``.
    """
    methods = _parse_methods(cfg, _DEFAULT_METHODS)
    n_grid = tuple(cfg.get_int_list("n_grid", _TABLE1_NS))
    beta = (cfg.get_float("beta1", 5.0), cfg.get_float("beta2", 5.0))
    share = cfg.get_bool("share_noise_across_n", False)
    model_prior = _all_subsets_space(2, cfg, "uniform_size").model_prior
    design_scale = cfg.overrides.get("design_scale", "corrected")
    if design_scale not in ("corrected", "uncorrected"):
        raise ConfigError(f"unknown design_scale {design_scale!r}")
    zs_rule = _zs_rule(cfg, "laplace")
    probs = np.empty((cfg.replicates, len(n_grid), len(_TABLE1_RS), len(methods)))
    jobs = [
        (cfg.seed, lo, hi, n_grid, _TABLE1_RS, methods, beta, share, model_prior,
         design_scale, zs_rule)
        for lo, hi in chunk_bounds(cfg.replicates, cfg.threads)
    ]
    for lo, chunk in run_chunked(_table1_chunk, jobs, cfg.threads):
        probs[lo : lo + chunk.shape[0]] = chunk
    rows = []
    for ni, n in enumerate(n_grid):
        for ri, r in enumerate(_TABLE1_RS):
            for mi, method in enumerate(methods):
                mean, se = _mean_se(probs[:, ni, ri, mi])
                rows.append(
                    {
                        "n": n,
                        "r": r,
                        "method": method,
                        "avg_prob_true": mean,
                        "se": se,
                        "replicates": cfg.replicates,
                    }
                )
    if cfg.output_dir:
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_csv(
            outdir / "table1.csv",
            rows,
            ["n", "r", "method", "avg_prob_true", "se", "replicates"],
        )
        _write_sidecar(outdir, "table1", cfg)
    return rows


# ---------------------------------------------------------------------------
# Eight-predictor predictive-loss study (orthogonal and AR(1) designs).
# ---------------------------------------------------------------------------

_FIG_N = 50
_FIG_P = 8
_FIG_RHO = 0.9
_FIG_ALPHA = 2.0
_SELECTORS = ("hpm", "mpm", "bma")


def _figure_chunk(args):
    (design, g_signal, k_active, seed, cell, lo, hi, methods, n, p, rho, model_prior,
     zs_rule) = args
    space = ModelSpace.all_subsets(p, model_prior=model_prior)
    models = space.models()
    model_index = {m: i for i, m in enumerate(models)}
    spec = CorrelationSpec.identity() if design == "orthogonal" else CorrelationSpec.ar1(rho)
    scale = 1.0 / math.sqrt(n) if design == "orthogonal" else math.sqrt((n - 1.0) / n)
    losses = np.empty((hi - lo, len(methods), len(_SELECTORS)))
    ent = np.empty((hi - lo, len(methods)))
    match = np.empty((hi - lo, len(methods)))
    mpm_size = np.empty((hi - lo, len(methods)))
    for rep in range(lo, hi):
        rng = derive_stream(seed, (*cell, rep))
        raw = rng.standard_normal((n, p))
        x = scale * correlated_design_from_raw(raw, spec)
        active = tuple(sorted(rng.choice(p, size=k_active, replace=False).tolist()))
        beta = np.zeros(p)
        if k_active:
            beta[list(active)] = rng.normal(0.0, math.sqrt(g_signal), size=k_active)
        y = _FIG_ALPHA + x @ beta + rng.standard_normal(n)
        ds = orthogonalize(Dataset.with_intercept(y, x))
        table = fit_models(ds, models)
        gram_full = x.T @ x
        for mi, method in enumerate(methods):
            log_ev, shrink = evidence(method, table, want_shrinkage=True, zs_rule=zs_rule)
            posterior = posterior_from_evidence(models, log_ev, space)
            estimates = shrink[:, None] * table.beta
            hpm_model = hpm(posterior)
            mpm_model = mpm(posterior, table.mask)
            bma_coef = posterior.posterior_prob @ estimates
            for si, delta in enumerate(
                (estimates[model_index[hpm_model]], estimates[model_index[mpm_model]], bma_coef)
            ):
                diff = beta - delta
                losses[rep - lo, mi, si] = float(diff @ gram_full @ diff)
            ent[rep - lo, mi] = entropy(posterior)
            match[rep - lo, mi] = 1.0 if mpm_model == active else 0.0
            mpm_size[rep - lo, mi] = len(mpm_model)
    return lo, losses, ent, match, mpm_size


def figure_cell(
    design: str,
    g_signal: float,
    k_active: int,
    seed: int,
    replicates: int,
    methods=_DEFAULT_METHODS,
    threads: int = 1,
    model_prior: str = "uniform_models",
    zs_rule: str = "exact",
):
    """Per-replicate metrics for one (design, signal, sparsity) cell.

    Returns dict with arrays ``losses`` (replicates, methods, selectors in
    hpm/mpm/bma order), ``entropy``, ``mpm_match``, ``mpm_size``.
    """
    if design not in ("orthogonal", "ar1"):
        raise ConfigError(f"unknown design {design!r}")
    # Deterministic stream-key component (Python's hash() is salted per run).
    cell = (
        (0 if design == "orthogonal" else 1),
        int(round(1000 * float(g_signal))),
        int(k_active),
    )
    losses = np.empty((replicates, len(methods), len(_SELECTORS)))
    ent = np.empty((replicates, len(methods)))
    match = np.empty((replicates, len(methods)))
    size = np.empty((replicates, len(methods)))
    jobs = [
        (design, g_signal, k_active, seed, cell, lo, hi, tuple(methods), _FIG_N,
         _FIG_P, _FIG_RHO, model_prior, zs_rule)
        for lo, hi in chunk_bounds(replicates, threads)
    ]
    for lo, l_chunk, e_chunk, m_chunk, s_chunk in run_chunked(_figure_chunk, jobs, threads):
        sl = slice(lo, lo + l_chunk.shape[0])
        losses[sl], ent[sl], match[sl], size[sl] = l_chunk, e_chunk, m_chunk, s_chunk
    return {"losses": losses, "entropy": ent, "mpm_match": match, "mpm_size": size}


def run_figure_sims(cfg: ExperimentConfig) -> list[dict]:
    """Predictive-loss (and diagnostic) tables over the sparsity grid.

    ``figure_ortho`` and ``figure_ar1`` emit average losses per method and
    selector; ``figure_diag`` emits posterior entropy, the rate at which the
    median probability model equals the truth, and its average size, on the
    AR(1) design.
    """
    methods = _parse_methods(cfg, _DEFAULT_METHODS)
    design = "orthogonal" if cfg.experiment == "figure_ortho" else "ar1"
    diag = cfg.experiment == "figure_diag"
    g_values = [float(t) for t in str(cfg.overrides.get("g_grid", "5,25")).split(",")]
    k_values = cfg.get_int_list("k_grid", range(0, _FIG_P + 1))
    model_prior = _all_subsets_space(_FIG_P, cfg, "uniform_models").model_prior
    zs_rule = _zs_rule(cfg, "exact")
    rows = []
    for g_signal in g_values:
        for k_active in k_values:
            cell = figure_cell(
                design, g_signal, k_active, cfg.seed, cfg.replicates, methods,
                cfg.threads, model_prior, zs_rule,
            )
            for mi, method in enumerate(methods):
                if diag:
                    e_mean, e_se = _mean_se(cell["entropy"][:, mi])
                    m_mean, m_se = _mean_se(cell["mpm_match"][:, mi])
                    s_mean, s_se = _mean_se(cell["mpm_size"][:, mi])
                    rows.append(
                        {
                            "design": design, "g": g_signal, "k": k_active,
                            "method": method,
                            "avg_entropy": e_mean, "se_entropy": e_se,
                            "mpm_match_rate": m_mean, "se_match": m_se,
                            "avg_mpm_size": s_mean, "se_size": s_se,
                            "replicates": cfg.replicates,
                        }
                    )
                else:
                    for si, selector in enumerate(_SELECTORS):
                        mean, se = _mean_se(cell["losses"][:, mi, si])
                        rows.append(
                            {
                                "design": design, "g": g_signal, "k": k_active,
                                "method": method, "selector": selector,
                                "avg_loss": mean, "se": se,
                                "replicates": cfg.replicates,
                            }
                        )
    if cfg.output_dir:
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        if diag:
            fields = ["design", "g", "k", "method", "avg_entropy", "se_entropy",
                      "mpm_match_rate", "se_match", "avg_mpm_size", "se_size",
                      "replicates"]
        else:
            fields = ["design", "g", "k", "method", "selector", "avg_loss", "se",
                      "replicates"]
        write_csv(outdir / f"{cfg.experiment}.csv", rows, fields)
        _write_sidecar(outdir, cfg.experiment, cfg)
    return rows


# ---------------------------------------------------------------------------
# Grouped-means consistency trajectories.
# ---------------------------------------------------------------------------


def run_anova_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Average posterior probability of the true model along a grid of p."""
    methods = _parse_methods(cfg, ANOVA_METHODS, allowed=set(ANOVA_METHODS))
    tau2 = cfg.get_float("tau2", 0.25)
    r = cfg.get_int("r", 5)
    p_grid = cfg.get_int_list("p_grid", (100, 300, 1000, 3000, 10000))
    rows = simulate_consistency(
        AnovaTruth(tau2), r, p_grid, cfg.replicates, cfg.seed, methods
    )
    if cfg.output_dir:
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_csv(
            outdir / "anova.csv",
            rows,
            ["p", "method", "avg_prob_true", "se", "replicates", "tau2", "r"],
        )
        _write_sidecar(outdir, "anova", cfg)
    return rows


# ---------------------------------------------------------------------------
# Nonparametric regression study.
# ---------------------------------------------------------------------------


def run_shibata_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Average integrated predictive loss for one scenario of the study."""
    methods = _parse_methods(cfg, STUDY_METHODS, allowed=set(STUDY_METHODS))
    if "n" in cfg.overrides or "k" in cfg.overrides:
        study_cfg = NonparametricConfig(
            n=cfg.get_int("n", 30),
            k=cfg.get_int("k", 29),
            sigma2=cfg.get_float("sigma2", 1.0),
            replicates=cfg.replicates,
            seed=cfg.seed,
        )
    else:
        study_cfg = NonparametricConfig.preset(
            cfg.get_int("scenario", 1), replicates=cfg.replicates, seed=cfg.seed
        )
    rows = run_study(
        study_cfg,
        methods=methods,
        threads=cfg.threads,
        refit_per_model=cfg.get_bool("powerlaw_refit_per_model", True),
        loss_kind=cfg.overrides.get("loss_kind", "coefficient"),
    )
    if cfg.output_dir:
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_csv(
            outdir / "shibata.csv",
            rows,
            ["scenario", "method", "selector", "avg_loss", "se_loss", "avg_size",
             "se_size", "replicates", "seed"],
        )
        _write_sidecar(outdir, "shibata", cfg)
    return rows


# ---------------------------------------------------------------------------
# One-shot Bayes factor analysis of a CSV dataset.
# ---------------------------------------------------------------------------


def run_bf(dataset_path, cfg: ExperimentConfig) -> dict:
    """All-subsets posterior summary of a CSV dataset, one block per method."""
    methods = _parse_methods(cfg, _BF_METHODS)
    try:
        dataset, labels = load_dataset_csv(dataset_path)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc))
    ds = orthogonalize(dataset)
    space = _all_subsets_space(ds.p, cfg, "uniform_models")
    if ds.n <= ds.p0 + ds.p:
        raise ConfigError(
            f"insufficient sample size: the full model needs n > {ds.p0 + ds.p} rows "
            f"({ds.p0} common and {ds.p} candidate predictors), the dataset has {ds.n}"
        )
    table = fit_models(ds, space.models())
    result = {
        "dataset": str(dataset_path),
        "n": ds.n,
        "p": ds.p,
        "labels": labels,
        "methods": {},
    }
    for method in methods:
        posterior = posterior_from_evidence(table.models, evidence(method, table), space)
        result["methods"][method] = {
            "models": posterior.to_json_obj(),
            "hpm": list(hpm(posterior)),
            "mpm": list(mpm(posterior, table.mask)),
            "inclusion_probs": [float(v) for v in inclusion_probs(posterior, table.mask)],
        }
    if cfg.output_dir:
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "bf_results.json").write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        _write_sidecar(outdir, "bf", cfg)
    return result


def run_experiment(cfg: ExperimentConfig):
    """Dispatch a configured experiment to its driver."""
    if cfg.experiment == "table1":
        return run_table1(cfg)
    if cfg.experiment in ("figure_ortho", "figure_ar1", "figure_diag"):
        return run_figure_sims(cfg)
    if cfg.experiment == "anova":
        return run_anova_experiment(cfg)
    if cfg.experiment == "shibata":
        return run_shibata_experiment(cfg)
    if cfg.experiment == "bf":
        if not cfg.dataset:
            raise ConfigError("the bf experiment needs a dataset CSV path")
        return run_bf(cfg.dataset, cfg)
    raise ConfigError(f"unknown experiment {cfg.experiment!r}")
