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
from .bayesfactors import _METHOD_ALIASES, METHOD_KINDS, ZS_RULES, evidence
from .modelspace import (
    ModelSpace,
    entropy,
    hpm,
    inclusion_probs,
    mpm,
    posterior_from_evidence,
)
from .nonparametric import LOSS_KINDS, PRESETS, STUDY_METHODS, NonparametricConfig, run_study
from .pool import derive_stream, mean_se, run_replicates
from .regression import (
    CorrelationSpec,
    Dataset,
    DependentColumnsError,
    correlated_design_from_raw,
    fit_models,
    load_dataset_csv,
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
    shrinkage_factor_ml2,
    zs_evidence_batch,
)
from .regression import fit_suffstats, orthogonalize  # noqa: F401

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "EXPERIMENTS",
    "SETTINGS",
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

_FIGURE_SETTINGS = ("g_grid", "k_grid", "model_prior", "zs_rule")
# The settings each experiment's driver reads; any other key is a config error.
SETTINGS = {
    "table1": ("n_grid", "beta1", "beta2", "share_noise_across_n", "model_prior",
               "design_scale", "zs_rule"),
    "figure_ortho": _FIGURE_SETTINGS,
    "figure_ar1": _FIGURE_SETTINGS,
    "figure_diag": _FIGURE_SETTINGS,
    "anova": ("tau2", "r", "p_grid"),
    "shibata": ("scenario", "n", "k", "sigma2", "loss_kind", "powerlaw_refit_per_model"),
    "bf": ("model_prior",),
}
EXPERIMENTS = tuple(SETTINGS)

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
        known = SETTINGS[self.experiment]
        for key in self.overrides:
            if key not in known:
                raise ConfigError(f"unknown setting {key!r} for {self.experiment}; "
                                  f"it reads {', '.join(known)}")

    def get_float(self, key, default, need="a number", valid=None):
        return _parse(key, self.overrides.get(key, default), float, need, valid)

    def get_int(self, key, default, need="an integer", valid=None):
        return _parse(key, self.overrides.get(key, default), int, need, valid)

    def get_bool(self, key, default):
        raw = self.overrides.get(key, default)
        if isinstance(raw, bool):
            return raw
        return _parse(key, raw, lambda v: _FLAGS[str(v).strip().lower()],
                      "a flag: 1/0, true/false, yes/no or on/off")

    def get_list(self, key, default, parse, need, valid=None):
        """The values of the list setting ``key`` (commas or spaces between
        them), each parsed and checked, none repeated, before any work starts."""
        raw = self.overrides.get(key, default)
        tokens = raw.replace(",", " ").split() if isinstance(raw, str) else list(raw)
        if not tokens:
            raise ConfigError(f"{key} lists no values")
        values = [_parse(key, tok, parse, need, valid) for tok in tokens]
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"{key}: {tokens[i]!r} repeats {tokens[values.index(value)]!r}")
        return values


_FLAGS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse(key, raw, parse, need, valid=None):
    """``parse(raw)``, or a ConfigError naming the setting and the value if
    that fails or ``valid`` rejects the result."""
    try:
        value = parse(raw)
        ok = valid is None or valid(value)
    except (TypeError, ValueError, LookupError):
        ok = False
    if not ok:
        raise ConfigError(f"{key}: {raw!r} is not {need}")
    return value


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


def _parse_methods(cfg, default, allowed=METHOD_KINDS):
    parsed = []
    for tok in cfg.methods or default:
        kind = _METHOD_ALIASES.get(tok.strip().lower(), tok.strip().lower())
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


def write_csv(path, rows):
    """One line per row dict under a header of the first row's keys."""
    fieldnames = list(rows[0])
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(_format_cell(row[name]) for name in fieldnames))
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


def _write_outputs(cfg: ExperimentConfig, name, rows):
    """``<name>.csv`` and its ``<name>.json`` sidecar in the output directory, if any."""
    if not cfg.output_dir:
        return
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / f"{name}.csv", rows)
    _write_sidecar(outdir, name, cfg)


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
    if zs_rule not in ZS_RULES:
        raise ConfigError(f"unknown zs_rule {zs_rule!r}")
    return zs_rule


def _stack_error(exc, entries, whole):
    """A stacked design's or fit's ValueError ``exc``, prefixed with the keys
    of the stack entry it names (``entries[exc.replicate]``) in place of
    that entry's index, else with ``whole``."""
    j = getattr(exc, "replicate", None)
    if j is None:
        return ValueError(f"{whole}: {exc}")
    return ValueError(f"{entries[j]}: {str(exc).removeprefix(f'replicate {j}: ')}")


def _table1_chunk(cell, lo, hi):
    """Posterior probability of the full model for replicates lo..hi-1: per
    (n, r), one stacked design, fit, evidence and posterior over them all."""
    seed, n_grid, r_values, methods, beta, share_noise, model_prior, design_scale, zs_rule = cell
    beta = np.asarray(beta)
    p = beta.shape[0]
    out = np.empty((hi - lo, len(n_grid), len(r_values), len(methods)))
    space = ModelSpace.all_subsets(p, model_prior=model_prior)
    specs = [CorrelationSpec.explicit([[1.0, r], [r, 1.0]]) if p == 2
             else CorrelationSpec.identity() for r in r_values]
    # Every replicate's draws, from the same streams in the same order as
    # drawing them one dataset at a time.
    raw = [np.empty((hi - lo, n, p)) for n in n_grid]
    eps = [np.empty((hi - lo, n)) for n in n_grid]
    n_max = max(n_grid)
    for rep in range(lo, hi):
        if share_noise:
            rng = derive_stream(seed, (0, rep))
            raw_max = rng.standard_normal((n_max, p))
            eps_max = rng.standard_normal(n_max)
        for ni, n in enumerate(n_grid):
            if share_noise:
                raw[ni][rep - lo], eps[ni][rep - lo] = raw_max[:n], eps_max[:n]
            else:
                rng = derive_stream(seed, (n, rep))
                raw[ni][rep - lo] = rng.standard_normal((n, p))
                eps[ni][rep - lo] = rng.standard_normal(n)
    for ni, n in enumerate(n_grid):
        for ri, spec in enumerate(specs):
            try:
                x = correlated_design_from_raw(raw[ni], spec)
                if design_scale == "corrected":
                    x = x * math.sqrt((n - 1.0) / n)
                y = x @ beta + eps[ni]
                table = fit_models(Dataset.with_intercept(y, x), space)
            except ValueError as exc:
                keys = f"n={n}, r={r_values[ri]}"
                raise _stack_error(exc, [f"{keys}, replicate {rep}" for rep in range(lo, hi)],
                                   f"{keys}, stack of replicates {lo}..{hi - 1}")
            for mi, method in enumerate(methods):
                posterior = posterior_from_evidence(space, evidence(method, table, zs_rule=zs_rule))
                out[:, ni, ri, mi] = posterior.posterior_prob[:, -1]  # the full model is last
    return (out,)


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
    n_grid = tuple(cfg.get_list("n_grid", _TABLE1_NS, int,
                                "an integer above 3 (the full model has an intercept "
                                "and two predictors)", lambda n: n > 3))
    beta = tuple(cfg.get_float(key, 5.0, "a finite coefficient", math.isfinite)
                 for key in ("beta1", "beta2"))
    share = cfg.get_bool("share_noise_across_n", False)
    model_prior = _all_subsets_space(2, cfg, "uniform_size").model_prior
    design_scale = cfg.overrides.get("design_scale", "corrected")
    if design_scale not in ("corrected", "uncorrected"):
        raise ConfigError(f"unknown design_scale {design_scale!r}")
    zs_rule = _zs_rule(cfg, "laplace")
    cell = (cfg.seed, n_grid, _TABLE1_RS, methods, beta, share, model_prior, design_scale,
            zs_rule)
    [(probs,)] = run_replicates(_table1_chunk, [cell], cfg.replicates, cfg.threads)
    rows = []
    for ni, n in enumerate(n_grid):
        for ri, r in enumerate(_TABLE1_RS):
            for mi, method in enumerate(methods):
                mean, se = mean_se(probs[:, ni, ri, mi], f"n={n}, r={r}, method={method}")
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
    _write_outputs(cfg, "table1", rows)
    return rows


# ---------------------------------------------------------------------------
# Eight-predictor predictive-loss study (orthogonal and AR(1) designs).
# ---------------------------------------------------------------------------

_FIG_N = 50
_FIG_P = 8
_FIG_RHO = 0.9
_FIG_ALPHA = 2.0
_SELECTORS = ("hpm", "mpm", "bma")
# Datasets per stacked design, fit and evidence call.  In a fresh process
# (200 replicates of figure_ar1, one core) stacks of 72 and 108 ran 10-20%
# slower than 144, and 288 no faster.  Each stacked dataset adds about
# 0.2 MB to the peak: 144 add about 30 MB, where a 1000-replicate chunk of
# 18 cells stacked at once would add about 3.6 GB.
_FIG_STACK = 144


def _figure_chunk(cell, lo, hi):
    """Losses, posterior entropy, MPM match and MPM size for replicates
    lo..hi-1 of every (g, k) of one design's grid: arrays of shape
    (hi - lo, grid cells, ...).

    Replicate rep of a (g, k) draws from its own stream in the order of
    drawing it alone: raw draws, active set, coefficients, noise.  The
    (replicate, cell) datasets run in stacks of at most ``_FIG_STACK``, each
    with one design, fit, evidence call per rule and posterior, and array
    summaries that give every dataset's values bit for bit as alone.
    """
    design, grid, seed, methods, model_prior, zs_rule = cell
    n, p = _FIG_N, _FIG_P
    space = ModelSpace.all_subsets(p, model_prior=model_prior)
    spec = CorrelationSpec.ar1(_FIG_RHO) if design == "ar1" else CorrelationSpec.identity()
    scale = 1.0 / math.sqrt(n) if design == "orthogonal" else math.sqrt((n - 1.0) / n)
    datasets = [(rep, c) for rep in range(lo, hi) for c in range(len(grid))]
    losses = np.empty((len(datasets), len(methods), len(_SELECTORS)))
    ent = np.empty((len(datasets), len(methods)))
    match = np.empty((len(datasets), len(methods)))
    mpm_size = np.empty((len(datasets), len(methods)))
    for start in range(0, len(datasets), _FIG_STACK):
        stack = datasets[start : start + _FIG_STACK]
        out = slice(start, start + len(stack))
        raw = np.empty((len(stack), n, p))
        noise = np.empty((len(stack), n))
        active = np.zeros((len(stack), p), dtype=bool)
        beta = np.zeros((len(stack), p))
        for i, (rep, c) in enumerate(stack):
            g_signal, k_active, key = grid[c]
            rng = derive_stream(seed, (*key, rep))
            raw[i] = rng.standard_normal((n, p))
            cols = np.sort(rng.choice(p, size=k_active, replace=False))
            active[i, cols] = True
            if k_active:
                beta[i, cols] = rng.normal(0.0, math.sqrt(g_signal), size=k_active)
            noise[i] = rng.standard_normal(n)
        try:
            x = scale * correlated_design_from_raw(raw, spec)
            y = _FIG_ALPHA + (x @ beta[..., None])[..., 0] + noise
            table = fit_models(Dataset.with_intercept(y, x), space)
        except ValueError as exc:
            raise _stack_error(exc, [f"design={design}, g={grid[c][0]}, k={grid[c][1]}, "
                                     f"replicate {rep}" for rep, c in stack],
                               f"design={design}, replicates {stack[0][0]}..{stack[-1][0]}")
        gram = np.swapaxes(x, -1, -2) @ x
        rows = np.arange(len(stack))
        for mi, method in enumerate(methods):
            log_ev, shrink = evidence(method, table, want_shrinkage=True, zs_rule=zs_rule)
            posterior = posterior_from_evidence(space, log_ev)
            estimates = shrink[..., None] * table.beta
            i_hpm, i_mpm = hpm(posterior), mpm(posterior)
            bma = (posterior.posterior_prob[:, None, :] @ estimates)[:, 0]
            diff = beta[:, None, :] - np.stack([estimates[rows, i_hpm], estimates[rows, i_mpm],
                                                bma], axis=1)
            losses[out, mi] = ((diff[..., None, :] @ gram[:, None]) @ diff[..., :, None])[..., 0, 0]
            ent[out, mi] = entropy(posterior)
            match[out, mi] = (space.mask[i_mpm] == active).all(axis=-1)
            mpm_size[out, mi] = space.sizes[i_mpm]
    return tuple(a.reshape(hi - lo, len(grid), *a.shape[1:])
                 for a in (losses, ent, match, mpm_size))


def _g_key(g_signal) -> int:
    # A cell's stream-key part for g (Python's hash() is salted per run).
    return int(round(1000 * float(g_signal)))


def _figure_grid(design, grid, seed, methods, model_prior, zs_rule):
    """The settings of one ``_figure_chunk`` over the (g, k) pairs of
    ``grid``, each with its stream key."""
    if design not in ("orthogonal", "ar1"):
        raise ConfigError(f"unknown design {design!r}")
    design_key = 0 if design == "orthogonal" else 1
    grid = tuple((g_signal, int(k_active), (design_key, _g_key(g_signal), int(k_active)))
                 for g_signal, k_active in grid)
    return design, grid, seed, tuple(methods), model_prior, zs_rule


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
    """Per-replicate metrics for one (design, signal, sparsity) cell: the
    figure grid of the one pair (g, k), with the streams, and so the values,
    of that pair in any larger grid.

    Returns dict with arrays ``losses`` (replicates, methods, selectors in
    hpm/mpm/bma order), ``entropy``, ``mpm_match``, ``mpm_size``.
    """
    cell = _figure_grid(design, [(g_signal, k_active)], seed, methods, model_prior, zs_rule)
    [(losses, ent, match, size)] = run_replicates(_figure_chunk, [cell], replicates, threads)
    return {"losses": losses[:, 0], "entropy": ent[:, 0], "mpm_match": match[:, 0],
            "mpm_size": size[:, 0]}


def run_figure_sims(cfg: ExperimentConfig) -> list[dict]:
    """Predictive-loss (and diagnostic) tables over the sparsity grid.

    ``figure_ortho`` and ``figure_ar1`` emit average losses per method and
    selector; ``figure_diag`` emits posterior entropy, the rate at which the
    median probability model equals the truth, and its average size, on the
    AR(1) design.  The whole (g, k) grid is one cell of the replicate runner:
    each chunk of replicates carries every (g, k) through ``_figure_chunk``'s
    stacks, and each row reads its (g, k)'s column of the joined arrays.
    """
    methods = _parse_methods(cfg, _DEFAULT_METHODS)
    design = "orthogonal" if cfg.experiment == "figure_ortho" else "ar1"
    diag = cfg.experiment == "figure_diag"
    # The stream key holds round(1000 g), so 1000 g must be finite.
    g_values = cfg.get_list("g_grid", "5,25", float,
                            "a signal variance of at least 0 with 1000 g finite",
                            lambda g: g >= 0 and math.isfinite(1000 * g))
    first = {}
    for g_signal in g_values:
        if first.setdefault(_g_key(g_signal), g_signal) != g_signal:
            raise ConfigError(f"g_grid: {first[_g_key(g_signal)]!r} and {g_signal!r} share a "
                              "replicate stream (1000 g rounds to the same integer)")
    k_values = cfg.get_list("k_grid", range(0, _FIG_P + 1), int,
                            f"an active-predictor count from 0 to {_FIG_P}",
                            lambda k: 0 <= k <= _FIG_P)
    model_prior = _all_subsets_space(_FIG_P, cfg, "uniform_models").model_prior
    zs_rule = _zs_rule(cfg, "exact")
    grid = [(g_signal, k_active) for g_signal in g_values for k_active in k_values]
    cell = _figure_grid(design, grid, cfg.seed, methods, model_prior, zs_rule)
    [(losses, ent, match, size)] = run_replicates(_figure_chunk, [cell], cfg.replicates,
                                                  cfg.threads)
    rows = []
    for ci, (g_signal, k_active) in enumerate(grid):
        for mi, method in enumerate(methods):
            keys = f"design={design}, g={g_signal}, k={k_active}, method={method}"
            if diag:
                e_mean, e_se = mean_se(ent[:, ci, mi], f"{keys}, avg_entropy")
                m_mean, m_se = mean_se(match[:, ci, mi], f"{keys}, mpm_match_rate")
                s_mean, s_se = mean_se(size[:, ci, mi], f"{keys}, avg_mpm_size")
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
                    mean, se = mean_se(losses[:, ci, mi, si], f"{keys}, selector={selector}")
                    rows.append(
                        {
                            "design": design, "g": g_signal, "k": k_active,
                            "method": method, "selector": selector,
                            "avg_loss": mean, "se": se,
                            "replicates": cfg.replicates,
                        }
                    )
    _write_outputs(cfg, cfg.experiment, rows)
    return rows


# ---------------------------------------------------------------------------
# Grouped-means consistency trajectories.
# ---------------------------------------------------------------------------


def run_anova_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Average posterior probability of the true model along a grid of p."""
    methods = _parse_methods(cfg, ANOVA_METHODS, allowed=set(ANOVA_METHODS))
    tau2 = cfg.get_float("tau2", 0.25, "a finite signal strength of at least 0",
                         lambda t: math.isfinite(t) and t >= 0)
    r = cfg.get_int("r", 5, "a replicates-per-group count of at least 1", lambda r: r >= 1)
    p_grid = cfg.get_list("p_grid", (100, 300, 1000, 3000, 10000), int,
                          "a group count of at least 1", lambda p: p >= 1)
    rows = simulate_consistency(
        AnovaTruth(tau2), r, p_grid, cfg.replicates, cfg.seed, methods
    )
    _write_outputs(cfg, "anova", rows)
    return rows


# ---------------------------------------------------------------------------
# Nonparametric regression study.
# ---------------------------------------------------------------------------


def run_shibata_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Average integrated predictive loss for one scenario of the study.

    ``scenario`` (default 1) picks the defaults of ``n``, ``k`` and
    ``sigma2``; each of the three can be set on its own.
    """
    methods = _parse_methods(cfg, STUDY_METHODS, allowed=set(STUDY_METHODS))
    scenario = cfg.get_int("scenario", 1, f"a scenario, one of {sorted(PRESETS)}",
                           lambda s: s in PRESETS)
    n, k, sigma2 = PRESETS[scenario]
    n = cfg.get_int("n", n, "a sample size of at least 2", lambda n: n >= 2)
    k = cfg.get_int("k", k, f"a largest truncation from 1 to n - 1 = {n - 1}",
                    lambda k: 1 <= k < n)
    sigma2 = cfg.get_float("sigma2", sigma2, "a finite noise variance above 0",
                           lambda s: math.isfinite(s) and s > 0)
    loss_kind = cfg.overrides.get("loss_kind", "coefficient")
    if loss_kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss_kind {loss_kind!r}")
    study_cfg = NonparametricConfig(n=n, k=k, sigma2=sigma2, replicates=cfg.replicates,
                                    seed=cfg.seed)
    rows = run_study(
        study_cfg,
        methods=methods,
        threads=cfg.threads,
        refit_per_model=cfg.get_bool("powerlaw_refit_per_model", True),
        loss_kind=loss_kind,
    )
    _write_outputs(cfg, "shibata", rows)
    return rows


# ---------------------------------------------------------------------------
# One-shot Bayes factor analysis of a CSV dataset.
# ---------------------------------------------------------------------------


def run_bf(dataset_path, cfg: ExperimentConfig) -> dict:
    """All-subsets posteriors of a CSV dataset: ``{method: ModelPosterior}``.

    With an output directory it also writes ``bf_results.json``: n, p, the
    labels, and per method the HPM, MPM, inclusion probabilities and every
    model's log evidence and probability.
    """
    methods = _parse_methods(cfg, _BF_METHODS)
    try:
        ds, labels = load_dataset_csv(dataset_path)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc))
    space = _all_subsets_space(ds.p, cfg, "uniform_models")
    if ds.n <= ds.p0 + ds.p:
        raise ConfigError(
            f"insufficient sample size: the full model needs n > {ds.p0 + ds.p} rows "
            f"({ds.p0} common and {ds.p} candidate predictors), the dataset has {ds.n}"
        )
    try:
        table = fit_models(ds, space)
    except DependentColumnsError as exc:
        if not exc.columns:
            raise ConfigError(f"{exc}: the x0_* columns are linearly dependent")
        names = ", ".join(labels[j] for j in exc.columns)
        raise ConfigError(f"linearly dependent columns: {names} (each a combination of the "
                          "common and earlier candidate columns)")
    posteriors = {method: posterior_from_evidence(space, evidence(method, table))
                  for method in methods}
    if cfg.output_dir:
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_bf_results(outdir / "bf_results.json", str(dataset_path), labels, ds.n,
                          space, posteriors)
        _write_sidecar(outdir, "bf", cfg)
    return posteriors


# json writes these for the non-finite floats; float.__repr__ gives the rest.
_JSON_FLOATS = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
# Where each method's "models" list goes in the indented skeleton: a newline
# is only ever whitespace there, since json escapes it inside strings.
_MODELS_KEY = '\n      "models": '
_MODELS_SLOT = _MODELS_KEY + "null"
_MODEL_ENTRY = ('        {{\n          "log_evidence": {},\n          "model": {},'
                '\n          "prob": {}\n        }}')
_ENTRIES_PER_WRITE = 4096


def _json_floats(values: np.ndarray) -> list[str]:
    """Each float of ``values`` as ``json`` writes it."""
    text = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        text = [_JSON_FLOATS.get(t, t) for t in text]
    return text


def _write_bf_results(path, dataset, labels, n, space, posteriors):
    """Write the bf report piece by piece, byte for byte what
    ``json.dumps(report, indent=2, sort_keys=True) + "\\n"`` gives.

    ``report`` holds the dataset path, the labels, n, p and per method the
    HPM, MPM, inclusion probabilities and a ``models`` list with each
    model's log evidence and probability.  Everything but those lists goes
    through ``json.dumps``; each list is rendered from its posterior's
    arrays, with each model's ``"model"`` text built once for all methods.
    """
    skeleton = {
        "dataset": dataset,
        "labels": labels,
        "n": n,
        "p": space.size,
        "methods": {
            method: {
                "hpm": list(space.models[hpm(posterior)]),
                "mpm": list(space.models[mpm(posterior)]),
                "inclusion_probs": inclusion_probs(posterior).tolist(),
                "models": None,
            }
            for method, posterior in posteriors.items()
        },
    }
    head, *tails = json.dumps(skeleton, indent=2, sort_keys=True).split(_MODELS_SLOT)
    model_text = ["[\n" + ",\n".join(f"            {j}" for j in m) + "\n          ]"
                  if m else "[]" for m in space.models]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        for method, tail in zip(sorted(posteriors), tails, strict=True):
            posterior = posteriors[method]
            log_ev = _json_floats(posterior.log_evidence)
            prob = _json_floats(posterior.posterior_prob)
            fh.write(_MODELS_KEY + "[\n")
            for lo in range(0, len(model_text), _ENTRIES_PER_WRITE):
                part = slice(lo, lo + _ENTRIES_PER_WRITE)
                fh.write((",\n" if lo else "") + ",\n".join(
                    map(_MODEL_ENTRY.format, log_ev[part], model_text[part], prob[part])))
            fh.write("\n      ]" + tail)
        fh.write("\n")


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
