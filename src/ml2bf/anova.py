"""One-way ANOVA with many groups: closed-form evidence and consistency.

The setting is p groups with r replicates each, unit error variance, and
only two models: all group means zero versus unrestricted means.  Evidence
rules are calibrated to the effective per-group sample size r, and each has
an explicit large-p consistency threshold on the mean signal strength
tau^2 = lim ||mu||^2 / p.  The rules are the known-variance rules of
``bayesfactors.known_variance_evidence`` with ssr = r ||mu_hat||^2, unit
variance and unit scale r; ``fixed_normal`` is its ``lb`` rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bayesfactors import known_variance_evidence
from .modelspace import ModelSpace, posterior_from_evidence
from .pool import derive_stream, mean_se, run_replicates

__all__ = [
    "AnovaTruth",
    "anova_log_bf",
    "consistency_threshold",
    "simulate_consistency",
]

# Each method's rule in ``known_variance_evidence``.
_RULES = {"ml2": "ml2", "fixed_normal": "lb", "bic": "bic"}
ANOVA_METHODS = tuple(_RULES)


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


def anova_log_bf(method: str, p: int, r: int, mu_hat_norm2):
    """Full-versus-null log Bayes factor of p groups of r replicates each.

    The method's rule of ``known_variance_evidence`` at ssr = r ||mu_hat||^2,
    unit variance and unit scale r, broadcast over an array of squared norms
    ``mu_hat_norm2``:

    - ``ml2``: the prior covariance maximizes the marginal over matrices
      dominating the identity (the unit-information bound at effective
      sample size r); the two branches meet at ||mu_hat||^2 = 1 + 1/r.
    - ``fixed_normal``: the fixed N(0, I) prior.
    - ``bic``: BIC with a log r penalty.  Twice the unit-variance
      log-likelihood gap between the fitted means and zero is
      r ||mu_hat||^2, so log BF = r ||mu_hat||^2 / 2 - (p/2) log r.

    Raises ``ValueError`` for p or r below 1, a negative (or NaN) squared
    norm, or an unknown method.
    """
    if method not in _RULES:
        raise ValueError(f"unknown method {method!r}; the methods are {ANOVA_METHODS}")
    if p < 1 or r < 1:
        raise ValueError("need p >= 1 groups and r >= 1 replicates")
    norm2 = np.asarray(mu_hat_norm2, dtype=np.float64)
    if not np.all(norm2 >= 0):
        raise ValueError("mu_hat_norm2 must be nonnegative")
    return known_variance_evidence(_RULES[method], p, r * norm2, 1.0, r)[0]


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
    ``pool.run_replicates``, so the rows do not depend on ``threads``.  A
    replicate count, ``r`` or ``p_grid`` value below 1, a non-integer ``r``
    or an unknown method raises ``ValueError`` before any replicate runs.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise ValueError(f"r must be an integer of at least 1, got {r!r}")
    for p in p_grid:
        if not p >= 1:
            raise ValueError(f"every p_grid value must be at least 1, got {p!r}")
    for m in methods:
        if m not in _RULES:
            raise ValueError(f"unknown method {m!r}; the methods are {ANOVA_METHODS}")
    rows = []
    true_model = 0 if truth.tau2 == 0.0 else 1  # column 0: the null model, log BF 0
    cells = [(truth, r, int(p), seed) for p in p_grid]
    for (_, _, p, _), (norm2,) in zip(cells, run_replicates(_norm2_chunk, cells, replicates,
                                                             threads)):
        for m in methods:
            log_bf = anova_log_bf(m, p, r, norm2)
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
