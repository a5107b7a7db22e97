"""Truncation choice for a log curve in a Chebyshev basis.

Noisy samples of -log(1-x) at the cosine knots are fitted with nested
truncated expansions.  An informative prior whose diagonal decays like a
power law (fitted by marginal likelihood for each truncation) picks larger
truncations and loses less than generic rules.  Run:

    python3 demos/chebyshev_curve_fit.py
"""

from ml2bf import NonparametricConfig, run_study

METHODS = ("powerlaw", "ml2", "aic", "bic")

cfg = NonparametricConfig(n=100, k=79, sigma2=1.0, replicates=100, seed=1)
rows = run_study(cfg, methods=METHODS)
table = {(r["method"], r["selector"]): r for r in rows}

print(f"{cfg.replicates} datasets of {cfg.n} noisy samples, truncations 1..{cfg.k}")
print("(the true coefficients decay like 2/i)\n")

print("average selected truncation:")
print(f"{'rule':>9} {'HPM size':>9} {'MPM size':>9}")
for method in METHODS:
    print(f"{method:>9} {table[method, 'hpm']['avg_size']:>9.1f} "
          f"{table[method, 'mpm']['avg_size']:>9.1f}")

print("\naverage loss (coefficient-space loss):")
print(f"{'rule':>9} {'hpm':>7} {'mpm':>7} {'bma':>7}")
for method in METHODS:
    print(f"{method:>9} {table[method, 'hpm']['avg_loss']:>7.3f} "
          f"{table[method, 'mpm']['avg_loss']:>7.3f} {table[method, 'bma']['avg_loss']:>7.3f}")
