"""One-way ANOVA with many groups: closed-form evidence and consistency.

The setting is p groups with r replicates each, unit error variance, and
only two models: all group means zero versus unrestricted means.  Evidence
rules are calibrated to the effective per-group sample size r, and each has
an explicit large-p consistency threshold on the mean signal strength
tau^2 = lim ||mu||^2 / p.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bayesfactors import ml2_known_variance_from_scalars
from .modelspace import ModelSpace, posterior_from_evidence
from .pool import derive_stream, mean_se, run_replicates

__all__ = [
    "AnovaStats",
    "AnovaTruth",
    "anova_log_bf_ml2",
    "anova_log_bf_fixed_normal",
    "anova_log_bf_bic",
    "consistency_threshold",
    "simulate_consistency",
]

ANOVA_METHODS = ("ml2", "fixed_normal", "bic")


@dataclass(frozen=True)
class AnovaStats:
    """Group count, replicates per group, and the squared norm of group means."""

    p: int
    r: int
    mu_hat_norm2: float

    def __post_init__(self):
        if self.p < 1 or self.r < 1:
            raise ValueError("need p >= 1 groups and r >= 1 replicates")
        if self.mu_hat_norm2 < 0:
            raise ValueError("mu_hat_norm2 must be nonnegative")


@dataclass(frozen=True)
class AnovaTruth:
    """Signal strength for simulation; tau2 = 0 is the null-model truth."""

    tau2: float

    def __post_init__(self):
        if self.tau2 < 0:
            raise ValueError("tau2 must be nonnegative")

    def mu(self, p: int) -> np.ndarray:
        # Alternating signs keep ||mu||^2 / p equal to tau2 at every p.
        tau = math.sqrt(self.tau2)
        signs = np.where(np.arange(p) % 2 == 0, 1.0, -1.0)
        return tau * signs


def _log_bf_fixed_normal(p, r, norm2):
    return -0.5 * p * np.log(r + 1.0) + (r * r) * norm2 / (2.0 * (r + 1.0))


def _log_bf_ml2(p, r, norm2):
    # The known-variance rule with ssr = r ||mu_hat||^2 and unit scale r.
    return ml2_known_variance_from_scalars(p, r * norm2, 1.0, r)[0]


def _log_bf_bic(p, r, norm2):
    return 0.5 * r * norm2 - 0.5 * p * np.log(r)


def anova_log_bf_ml2(stats: AnovaStats) -> float:
    """Full-versus-null log Bayes factor of the constrained type II ML prior.

    The prior covariance maximizes the marginal over matrices dominating
    the identity (the unit-information bound at effective sample size r);
    the two branches meet at ||mu_hat||^2 = 1 + 1/r.
    """
    return float(_log_bf_ml2(stats.p, stats.r, stats.mu_hat_norm2))


def anova_log_bf_fixed_normal(stats: AnovaStats) -> float:
    """Full-versus-null log Bayes factor of the fixed N(0, I) prior."""
    return float(_log_bf_fixed_normal(stats.p, stats.r, stats.mu_hat_norm2))


def anova_log_bf_bic(stats: AnovaStats) -> float:
    """Full-versus-null log Bayes factor of BIC with a log r penalty.

    Derived from the unit-variance likelihood: twice the log-likelihood gap
    between the fitted means and zero is r * ||mu_hat||^2, so the criterion
    difference gives log BF = r ||mu_hat||^2 / 2 - (p/2) log r.
    """
    return float(_log_bf_bic(stats.p, stats.r, stats.mu_hat_norm2))


def consistency_threshold(method: str, r: int) -> float:
    """Signal threshold tau^2 below which the rule is inconsistent under signal.

    ``fixed_normal``: (1+r) log(1+r) / r^2 - 1/r;  ``bic``: (log r - 1)/r;
    ``ml2``: (log(r+1) - 1)/r.  The last two are clamped at zero since only
    positive tau^2 is meaningful.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if method == "fixed_normal":
        return (1.0 + r) * math.log(1.0 + r) / r**2 - 1.0 / r
    if method == "bic":
        return max(0.0, (math.log(r) - 1.0) / r)
    if method == "ml2":
        return max(0.0, (math.log(r + 1.0) - 1.0) / r)
    raise ValueError(f"unknown method {method!r}")


_LOG_BF = {"ml2": _log_bf_ml2, "fixed_normal": _log_bf_fixed_normal, "bic": _log_bf_bic}
_TWO_MODELS = ModelSpace.nested(1, include_null=True, model_prior="uniform_models")


def _norm2_chunk(cell, lo, hi):
    """||mu_hat||^2 of replicates lo..hi-1 at one p, each from its own stream."""
    truth, r, p, seed = cell
    mu = truth.mu(p)
    mu_hats = (mu + derive_stream(seed, (p, i)).standard_normal(p) / math.sqrt(r)
               for i in range(lo, hi))
    return (np.array([mu_hat @ mu_hat for mu_hat in mu_hats]),)


def simulate_consistency(
    truth: AnovaTruth,
    r: int,
    p_grid,
    replicates: int,
    seed: int,
    methods=ANOVA_METHODS,
    threads: int = 1,
) -> list[dict]:
    """Average posterior probability of the true model along a grid of p.

    Group means are sampled directly (mu_hat = mu + noise with variance 1/r
    per group, the sufficient statistic of the full data).  Equal prior odds
    on the two models.  One row per (p, method).  Each p is one cell of
    ``pool.run_replicates``, so the rows do not depend on ``threads``.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    rows = []
    true_model = 0 if truth.tau2 == 0.0 else 1  # column 0: the null model, log BF 0
    cells = [(truth, r, int(p), seed) for p in p_grid]
    for (_, _, p, _), (norm2,) in zip(cells, run_replicates(_norm2_chunk, cells, replicates,
                                                             threads)):
        for m in methods:
            log_bf = _LOG_BF[m](p, r, norm2)
            log_ev = np.stack([np.zeros_like(log_bf), log_bf], axis=1)
            post = posterior_from_evidence(_TWO_MODELS, log_ev)
            avg, se = mean_se(post.posterior_prob[:, true_model], f"p={p}, method={m}")
            rows.append(
                {
                    "p": p,
                    "method": m,
                    "avg_prob_true": avg,
                    "se": se,
                    "replicates": replicates,
                    "tau2": truth.tau2,
                    "r": r,
                }
            )
    return rows
