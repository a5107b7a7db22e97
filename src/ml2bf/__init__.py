"""Empirical-Bayes (type II maximum likelihood) priors for model selection.

Closed-form Bayes factors for normal linear models under a marginal-
likelihood-maximizing prior covariance constrained to dominate the unit-
information scale, together with the standard comparators (fixed g-priors,
Zellner-Siow, BIC and relatives), posterior model summaries, and seeded
simulation harnesses.
"""

__version__ = "0.1.0"

from .regression import (
    CorrelationSpec,
    Dataset,
    ModelTable,
    SuffStats,
    fit_models,
    fit_suffstats,
    load_dataset_csv,
    make_correlated_design,
    orthogonalize,
)
from .bayesfactors import (
    Ml2Covariance,
    PriorMethod,
    QuadratureError,
    evidence,
    known_variance_evidence,
    log_bf_aic,
    log_bf_bic,
    log_bf_bic_prior,
    log_bf_fixed_cov,
    log_bf_gprior,
    log_bf_known_variance,
    log_bf_local_eb,
    log_bf_ml2,
    log_bf_zs,
    log_bf_zs_laplace,
    log_marginal_fixed_cov,
    log_marginal_known_variance,
    log_marginal_null,
    ml2_covariance,
    ml2_known_variance_log_bf,
)
from .modelspace import (
    ModelPosterior,
    ModelSpace,
    entropy,
    enumerate_models,
    hpm,
    inclusion_probs,
    mpm,
    posterior_from_evidence,
)
from .anova import (
    AnovaTruth,
    anova_log_bf,
    consistency_threshold,
    simulate_consistency,
)
from .nonparametric import (
    NonparametricConfig,
    chebyshev_design,
    predictive_loss_integral,
    run_study,
    true_signal,
)
from .harness import (
    ExperimentConfig,
    derive_stream,
    run_bf,
    run_experiment,
    run_figure_sims,
    run_table1,
)

__all__ = [name for name in dir() if not name.startswith("_")]
