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
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .anova import ANOVA_METHODS, AnovaTruth, simulate_consistency
from .bayesfactors import _METHOD_ALIASES, METHOD_KINDS, ZS_RULES, evidence
from .modelspace import (
    _MODEL_PRIORS,
    _SELECTORS,
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

_DEFAULT_METHODS = ("bic", "ml2", "lb", "zs")


class ConfigError(Exception):
    """Bad experiment configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative, seeded description of one experiment run.

    Construction is the settings pass, against the experiment's ``SETTINGS``
    entry.  The fields keep what was given, for the sidecar (a seed left out
    is 0 where the data is read, not simulated); ``cfg[key]`` is a setting's
    parsed value or default, and ``cfg["methods"]`` the rules to run.
    """

    experiment: str
    seed: int | None = None
    replicates: int = 1000
    methods: tuple = ()
    output_dir: str | None = None
    threads: int = 1
    dataset: str | None = None
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        entry = SETTINGS.get(self.experiment)
        if entry is None:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.seed is None and not entry.reads_dataset:
            raise ConfigError("simulations need an explicit --seed")
        if self.dataset is not None and not entry.reads_dataset:
            raise ConfigError(f"dataset: {self.dataset!r} is not read by {self.experiment}, "
                              "which simulates its data")
        for key in self.overrides:
            if key not in entry.settings:
                raise ConfigError(f"unknown setting {key!r} for {self.experiment}; "
                                  f"it reads {', '.join(entry.settings)}")
        for key, row in _RUN_ROWS.items():
            raw = getattr(self, key)
            object.__setattr__(self, key, row(key, 0 if raw is None else raw))
        default_methods, row = entry.methods
        values = {"methods": row("methods", self.methods or default_methods), **entry.fixed}
        for key, (default, row) in entry.settings.items():
            values[key] = row(key, self.overrides[key]) if key in self.overrides else default
        if entry.rule:
            entry.rule(values, self.overrides)
        object.__setattr__(self, "_values", values)

    def __getitem__(self, key):
        return self._values[key]


def _value(convert, need, valid=None):
    """A row parser: it takes a setting's key and raw value to ``convert(raw)``
    checked by ``valid``, or raises a ConfigError "<key>: <raw> is not <need>".
    The parsers below build on it."""

    def parse(key, raw):
        try:
            value = convert(raw)
            ok = valid is None or valid(value)
        except (TypeError, ValueError, LookupError):
            ok = False
        if not ok:
            raise ConfigError(f"{key}: {raw!r} is not {need}")
        return value

    return parse


def _one_of(words):
    """One of ``words`` (case and outer spaces aside), taken to its value:
    ``words`` maps each word to its value, or lists words that are their own."""
    values = words if isinstance(words, dict) else dict(zip(words, words))
    return _value(lambda raw: values[str(raw).strip().lower()], f"one of {', '.join(values)}")


def _list_of(convert, need, valid=None):
    """A list setting's values (commas or spaces between them), none repeated."""
    item = _value(convert, need, valid)

    def parse(key, raw):
        tokens = str(raw).replace(",", " ").split() or [str(raw)]
        values = tuple(item(key, tok) for tok in tokens)
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"{key}: {tokens[i]!r} repeats {tokens[values.index(value)]!r}")
        return values

    return parse


def _methods_row(default, allowed=METHOD_KINDS):
    """The methods row: the ``default`` evidence rules, and a parser taking
    each token to one of ``allowed`` (or its alias), first occurrences kept."""
    rule = _one_of({**dict(zip(allowed, allowed)),
                    **{alias: m for alias, m in _METHOD_ALIASES.items() if m in allowed}})
    return default, lambda key, tokens: tuple(dict.fromkeys(rule(key, tok) for tok in tokens))


# The rows every experiment reads; their defaults are ExperimentConfig's.
_RUN_ROWS = {
    "seed": _value(int, "an unsigned 64-bit integer", lambda s: 0 <= s < 2**64),
    "replicates": _value(int, "a replicate count of at least 1", lambda n: n >= 1),
    "threads": _value(int, "a worker count of at least 1", lambda n: n >= 1),
}
_FLAG = _one_of({"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False})
_MODEL_PRIOR = _one_of(_MODEL_PRIORS)
_ZS_RULE = _one_of(ZS_RULES)


# ---------------------------------------------------------------------------
# Config file handling.  Flat key = value lines; '#' starts a comment.
# ---------------------------------------------------------------------------


def load_config_file(path) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


# The keys that are ExperimentConfig's fields; every other key is a setting.
_FIELDS = ("experiment", "seed", "replicates", "methods", "output_dir", "out", "threads", "dataset")
_NO_OUTPUT = "no output directory: pass --out DIR (or set out or output_dir in the config file)"


def build_config(experiment, file_values=None, **cli_values) -> ExperimentConfig:
    """One CLI run's configuration: config-file values merged with CLI values
    (CLI wins) and checked in ``ExperimentConfig``'s pass.  A run must write
    its results, so a missing output directory is named with any bad value."""
    merged = {**(file_values or {}),
              **{key: value for key, value in cli_values.items() if value is not None}}
    if merged.setdefault("experiment", experiment) != experiment and experiment:
        raise ConfigError(f"experiment {experiment!r} on the command line conflicts with "
                          f"{merged['experiment']!r} in the config file")
    given = {key: merged.pop(key) for key in _FIELDS if key in merged}
    output_dir = given.pop("output_dir", given.pop("out", None))
    given["methods"] = tuple(t for t in map(str.strip, given.get("methods", "").split(",")) if t)
    problems = [] if output_dir else [_NO_OUTPUT]
    try:
        cfg = ExperimentConfig(output_dir=output_dir, overrides=merged, **given)
    except ConfigError as exc:
        problems.insert(0, str(exc))
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


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


def _write_sidecar(cfg: ExperimentConfig) -> Path:
    """``<experiment>.json``, the config as given, in the output directory, returned."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    obj = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "replicates": cfg.replicates,
        "methods": list(cfg.methods),
        "threads": cfg.threads,
        "overrides": {k: str(v) for k, v in sorted(cfg.overrides.items())},
        "version": __version__,
    }
    path = outdir / f"{cfg.experiment}.json"
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return outdir


def _write_outputs(cfg: ExperimentConfig, rows):
    """``<experiment>.csv`` and its sidecar in the output directory, if any."""
    if cfg.output_dir:
        write_csv(_write_sidecar(cfg) / f"{cfg.experiment}.csv", rows)


# ---------------------------------------------------------------------------
# Two-predictor study (average posterior probability of the full model).
# ---------------------------------------------------------------------------

_TABLE1_RS = (-0.9, 0.9)


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

    The defaults in ``SETTINGS`` reproduce the published benchmark: a
    uniform prior over model sizes, predictors standardized to unit
    corrected (n-1) sample variance, and the Laplace evaluation of the
    Zellner-Siow integral.
    """
    methods, n_grid = cfg["methods"], cfg["n_grid"]
    cell = (cfg.seed, n_grid, _TABLE1_RS, methods, (cfg["beta1"], cfg["beta2"]),
            cfg["share_noise_across_n"], cfg["model_prior"], cfg["design_scale"], cfg["zs_rule"])
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
    _write_outputs(cfg, rows)
    return rows


# ---------------------------------------------------------------------------
# Eight-predictor predictive-loss study (orthogonal and AR(1) designs).
# ---------------------------------------------------------------------------

_FIG_N = 50
_FIG_P = 8
_FIG_RHO = 0.9
_FIG_ALPHA = 2.0
# Datasets per stacked design, fit and evidence call.  In a fresh process
# (200 replicates of figure_ar1, one core, medians of three sets of 8 runs
# on a shared host) a stack of 72 took 1.93-2.59 s and peaked at 51 MB,
# 144 took 1.65-2.09 s at 58-59 MB and 288 took 1.55-1.92 s at 71-72 MB:
# doubling to 288 buys 5-11% for 12-13 MB more.  Each stacked dataset adds
# about 0.08-0.11 MB to the peak, 0.05 MB of it in the fit; a
# 1000-replicate chunk of 18 cells stacked at once would add 1.5 GB.
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
    model_prior: str | None = None,
    zs_rule: str | None = None,
):
    """Per-replicate metrics for one (design, signal, sparsity) cell: the
    figure grid of the one pair (g, k), with the streams, and so the values,
    of that pair in any larger grid.  ``model_prior`` and ``zs_rule``
    default to the design's figure row of ``SETTINGS``.

    Returns dict with arrays ``losses`` (replicates, methods, selectors in
    hpm/mpm/bma order), ``entropy``, ``mpm_match``, ``mpm_size``.
    """
    row = SETTINGS["figure_ortho" if design == "orthogonal" else "figure_ar1"].settings
    model_prior = row["model_prior"][0] if model_prior is None else model_prior
    zs_rule = row["zs_rule"][0] if zs_rule is None else zs_rule
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
    methods, design = cfg["methods"], cfg["design"]
    grid = [(g_signal, k_active) for g_signal in cfg["g_grid"] for k_active in cfg["k_grid"]]
    cell = _figure_grid(design, grid, cfg.seed, methods, cfg["model_prior"], cfg["zs_rule"])
    [(losses, ent, match, size)] = run_replicates(_figure_chunk, [cell], cfg.replicates,
                                                  cfg.threads)
    rows = []
    for ci, (g_signal, k_active) in enumerate(grid):
        for mi, method in enumerate(methods):
            keys = f"design={design}, g={g_signal}, k={k_active}, method={method}"
            if cfg["diagnostics"]:
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
    _write_outputs(cfg, rows)
    return rows


# ---------------------------------------------------------------------------
# Grouped-means consistency trajectories.
# ---------------------------------------------------------------------------


def run_anova_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Average posterior probability of the true model along a grid of p."""
    rows = simulate_consistency(AnovaTruth(cfg["tau2"]), cfg["r"], cfg["p_grid"],
                                cfg.replicates, cfg.seed, cfg["methods"], cfg.threads)
    _write_outputs(cfg, rows)
    return rows


# ---------------------------------------------------------------------------
# Nonparametric regression study.
# ---------------------------------------------------------------------------


def run_shibata_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Average integrated predictive loss for one scenario of the study."""
    study_cfg = NonparametricConfig(n=cfg["n"], k=cfg["k"], sigma2=cfg["sigma2"],
                                    replicates=cfg.replicates, seed=cfg.seed)
    rows = run_study(
        study_cfg,
        methods=cfg["methods"],
        threads=cfg.threads,
        refit_per_model=cfg["powerlaw_refit_per_model"],
        loss_kind=cfg["loss_kind"],
    )
    _write_outputs(cfg, rows)
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
    if not dataset_path:
        raise ConfigError("the bf experiment needs a dataset CSV path")
    try:  # a malformed CSV, or more candidates than the all-subsets cap
        ds, labels = load_dataset_csv(dataset_path)
        space = ModelSpace.all_subsets(ds.p, model_prior=cfg["model_prior"])
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc))
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
                  for method in cfg["methods"]}
    if cfg.output_dir:
        _write_bf_results(_write_sidecar(cfg) / "bf_results.json", str(dataset_path), labels,
                          ds.n, space, posteriors)
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
    """Run a configured experiment: its ``SETTINGS`` entry's driver."""
    return SETTINGS[cfg.experiment].run(cfg)


# ---------------------------------------------------------------------------
# The settings table.
# ---------------------------------------------------------------------------


class _Experiment(NamedTuple):
    run: Callable  # the driver, called with the parsed configuration
    methods: tuple  # its methods row
    settings: dict  # each key the experiment reads: (default, parser)
    rule: Callable | None = None  # checks across keys, on the parsed values and raw overrides
    fixed: dict = {}  # values the driver reads that no setting changes
    reads_dataset: bool = False  # reads a CSV, not simulated data: takes the dataset, no seed


def _distinct_g_streams(values, raw):
    first = {}
    for g_signal in values["g_grid"]:
        if first.setdefault(_g_key(g_signal), g_signal) != g_signal:
            raise ConfigError(f"g_grid: {first[_g_key(g_signal)]!r} and {g_signal!r} share a "
                              "replicate stream (1000 g rounds to the same integer)")


def _scenario_defaults(values, raw):
    """``scenario`` sets the defaults of ``n``, ``k`` and ``sigma2``, each settable; k < n."""
    for key, preset in zip(("n", "k", "sigma2"), PRESETS[values["scenario"]]):
        if values[key] is None:
            values[key] = preset
    if values["k"] >= values["n"]:
        raise ConfigError(f"k: {raw.get('k', values['k'])!r} is not a largest truncation "
                          f"from 1 to n - 1 = {values['n'] - 1}")


_FIGURE_SETTINGS = {
    # The stream key holds round(1000 g), so 1000 g must be finite.
    "g_grid": ((5.0, 25.0), _list_of(float, "a signal variance of at least 0 with 1000 g finite",
                                     lambda g: g >= 0 and math.isfinite(1000 * g))),
    "k_grid": (tuple(range(_FIG_P + 1)), _list_of(int, f"an active-predictor count from 0 to "
                                                  f"{_FIG_P}", lambda k: 0 <= k <= _FIG_P)),
    "model_prior": ("uniform_models", _MODEL_PRIOR),
    "zs_rule": ("exact", _ZS_RULE),
}


def _figure(design, diagnostics=False):
    return _Experiment(run_figure_sims, _methods_row(_DEFAULT_METHODS), _FIGURE_SETTINGS,
                       _distinct_g_streams, {"design": design, "diagnostics": diagnostics})


# Every experiment and each setting it reads; any other key is a config error.
SETTINGS = {
    "table1": _Experiment(run_table1, _methods_row(_DEFAULT_METHODS), {
        "n_grid": ((5, 10, 15, 20), _list_of(int, "an integer above 3 (the full model has "
                                             "an intercept and two predictors)", lambda n: n > 3)),
        "beta1": (5.0, _value(float, "a finite coefficient", math.isfinite)),
        "beta2": (5.0, _value(float, "a finite coefficient", math.isfinite)),
        "share_noise_across_n": (False, _FLAG),
        "model_prior": ("uniform_size", _MODEL_PRIOR),
        "design_scale": ("corrected", _one_of(("corrected", "uncorrected"))),
        "zs_rule": ("laplace", _ZS_RULE),
    }),
    "figure_ortho": _figure("orthogonal"),
    "figure_ar1": _figure("ar1"),
    "figure_diag": _figure("ar1", diagnostics=True),
    "anova": _Experiment(run_anova_experiment, _methods_row(ANOVA_METHODS, ANOVA_METHODS), {
        "tau2": (0.25, _value(float, "a finite signal strength of at least 0",
                              lambda t: math.isfinite(t) and t >= 0)),
        "r": (5, _value(int, "a replicates-per-group count of at least 1", lambda r: r >= 1)),
        "p_grid": ((100, 300, 1000, 3000, 10000),
                   _list_of(int, "a group count of at least 1", lambda p: p >= 1)),
    }),
    "shibata": _Experiment(run_shibata_experiment, _methods_row(STUDY_METHODS, STUDY_METHODS), {
        "scenario": (1, _value(int, f"a scenario, one of {sorted(PRESETS)}",
                               lambda s: s in PRESETS)),
        "n": (None, _value(int, "a sample size of at least 2", lambda n: n >= 2)),
        "k": (None, _value(int, "a largest truncation of at least 1", lambda k: k >= 1)),
        "sigma2": (None, _value(float, "a finite noise variance above 0",
                                lambda s: math.isfinite(s) and s > 0)),
        "loss_kind": ("coefficient", _one_of(LOSS_KINDS)),
        "powerlaw_refit_per_model": (True, _FLAG),
    }, _scenario_defaults),
    "bf": _Experiment(lambda cfg: run_bf(cfg.dataset, cfg),
                      _methods_row(("ml2", "lb", "bic", "bicprior", "zs", "ghat")),
                      {"model_prior": ("uniform_models", _MODEL_PRIOR)}, reads_dataset=True),
}
EXPERIMENTS = tuple(SETTINGS)
