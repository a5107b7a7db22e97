"""How correlation sign changes what each evidence rule believes.

Two standardized predictors with a strong positive or negative sample
correlation, true coefficients (5, 5).  A prior centered at zero with the
unit-information scale is oriented *against* the likelihood when the
predictors are positively correlated, so the fixed g-prior (lb) punishes
the true model there; the fitted-covariance rule (ml2) reorients itself and
stays close to BIC.  Run:

    python3 demos/two_predictor_geometry.py
"""

import numpy as np

from ml2bf import (
    CorrelationSpec,
    Dataset,
    ModelSpace,
    PriorMethod,
    enumerate_models,
    make_correlated_design,
    ml2_covariance,
    fit_suffstats,
)

rng = np.random.default_rng(7)
n = 10
beta = np.array([5.0, 5.0])

for r in (-0.9, 0.9):
    corr = CorrelationSpec.explicit(np.array([[1.0, r], [r, 1.0]]))
    x = make_correlated_design(n, 2, corr, np.random.default_rng(3))
    y = x @ beta + rng.standard_normal(n)
    ds = Dataset.with_intercept(y, x)

    print(f"\n=== sample correlation r = {r:+.1f} ===")
    stats = fit_suffstats(ds, (0, 1))
    w = ml2_covariance(stats)
    print(f"full-model R^2 = {stats.r2:.4f}")
    print(f"fitted prior covariance (a = {w.a:.3f}):")
    print(np.array2string(w.matrix, precision=2, suppress_small=True))
    print("unit-information lower bound:")
    print(np.array2string(w.lower_bound_matrix(), precision=2, suppress_small=True))

    space = ModelSpace.all_subsets(2, model_prior="uniform_size")
    print("posterior probability of the true (full) model:")
    for token in ("bic", "ml2", "lb", "zs"):
        post = enumerate_models(ds, space, PriorMethod.parse(token))
        prob = dict(zip(post.models, post.posterior_prob))[(0, 1)]
        print(f"  {token:4s} {prob:.3f}")
