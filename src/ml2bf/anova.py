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

from .modelspace import ModelSpace, posterior_from_evidence
from .pool import derive_stream

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
    sigma2: float = 1.0

    def __post_init__(self):
        if self.p < 1 or self.r < 1:
            raise ValueError("need p >= 1 groups and r >= 1 replicates")
        if self.mu_hat_norm2 < 0:
            raise ValueError("mu_hat_norm2 must be nonnegative")
        if self.sigma2 != 1.0:
            raise ValueError("only unit error variance is supported")


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
    lower = _log_bf_fixed_normal(p, r, norm2)
    # Floor keeps the unselected branch's log finite at norm2 = 0.
    safe = np.maximum(norm2, 1e-300)
    upper = (
        -0.5 * np.log(r * safe / (r + 1.0))
        - 0.5 * p * np.log(r + 1.0)
        + (r * norm2 - 1.0) / 2.0
    )
    return np.where(norm2 <= 1.0 + 1.0 / r, lower, upper)


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
    if method in ("bic", "bic_r"):
        return max(0.0, (math.log(r) - 1.0) / r)
    if method == "ml2":
        return max(0.0, (math.log(r + 1.0) - 1.0) / r)
    raise ValueError(f"unknown method {method!r}")


_LOG_BF = {"ml2": _log_bf_ml2, "fixed_normal": _log_bf_fixed_normal, "bic": _log_bf_bic}
_TWO_MODELS = ModelSpace.nested(1, include_null=True, model_prior="uniform_models")


def simulate_consistency(
    truth: AnovaTruth,
    r: int,
    p_grid,
    replicates: int,
    seed: int,
    methods=ANOVA_METHODS,
) -> list[dict]:
    """Average posterior probability of the true model along a grid of p.

    Group means are sampled directly (mu_hat = mu + noise with variance 1/r
    per group, the sufficient statistic of the full data).  Equal prior odds
    on the two models.  One row per (p, method).
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    rows = []
    true_model = 0 if truth.tau2 == 0.0 else 1  # column 0: the null model, log BF 0
    for p in p_grid:
        p = int(p)
        mu = truth.mu(p)
        probs = {m: np.empty(replicates) for m in methods}
        # Replicates are chunked to bound memory at large p.
        chunk = max(1, min(replicates, int(2e6 // max(p, 1)) or 1))
        start = 0
        while start < replicates:
            stop = min(start + chunk, replicates)
            norm2 = np.empty(stop - start)
            for i in range(start, stop):
                rng = derive_stream(seed, (p, i))
                mu_hat = mu + rng.standard_normal(p) / math.sqrt(r)
                norm2[i - start] = mu_hat @ mu_hat
            for m in methods:
                log_bf = _LOG_BF[m](p, r, norm2)
                log_ev = np.stack([np.zeros_like(log_bf), log_bf], axis=1)
                post = posterior_from_evidence(_TWO_MODELS.models(), log_ev, _TWO_MODELS)
                probs[m][start:stop] = post.posterior_prob[:, true_model]
            start = stop
        for m in methods:
            vals = probs[m]
            rows.append(
                {
                    "p": p,
                    "method": m,
                    "avg_prob_true": float(vals.mean()),
                    "se": float(vals.std(ddof=1) / math.sqrt(replicates))
                    if replicates > 1
                    else 0.0,
                    "replicates": replicates,
                    "tau2": truth.tau2,
                    "r": r,
                }
            )
    return rows
