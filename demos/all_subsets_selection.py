"""All-subsets model selection on a synthetic dataset, end to end.

Generates 8 correlated predictors of which 3 matter, enumerates all 256
models under several evidence rules, and prints the highest and median
probability models, inclusion probabilities, and posterior entropy.  Run:

    python3 demos/all_subsets_selection.py
"""

import numpy as np

from ml2bf import (
    CorrelationSpec,
    Dataset,
    ModelSpace,
    PriorMethod,
    entropy,
    enumerate_models,
    hpm,
    inclusion_probs,
    make_correlated_design,
    mpm,
)

rng = np.random.default_rng(11)
n, p = 60, 8
x = make_correlated_design(n, p, CorrelationSpec.ar1(0.6), rng)
true_model = (0, 3, 6)
beta = np.zeros(p)
beta[list(true_model)] = [1.2, -0.9, 0.8]
y = 2.0 + x @ beta + rng.standard_normal(n)

ds = Dataset.with_intercept(y, x)  # enumerate_models projects out the intercept
space = ModelSpace.all_subsets(p)

print(f"true model: {true_model}")
for token in ("ml2", "lb", "bic", "zs", "ghat"):
    post = enumerate_models(ds, space, PriorMethod.parse(token))
    incl = inclusion_probs(post)
    print(f"\n--- {token} ---")
    print(f"highest probability model: {post.models[hpm(post)]}")
    print(f"median probability model:  {post.models[mpm(post)]}")
    print(f"posterior entropy: {entropy(post):.2f} nats (max {np.log(256):.2f})")
    print("inclusion probabilities:", np.array2string(incl, precision=2))
