"""Shared helpers for the test suite."""

import math
from types import SimpleNamespace

import numpy as np

from ml2bf.regression import ModelTable, SuffStats


def make_stats(n, p0, p, r2, total=1.0):
    """Synthetic sufficient statistics whose r2 is ``r2`` up to rounding.

    Uses an identity Gram factor and puts all fitted signal on the first
    coordinate, so ssr = beta_hat' (X'X) beta_hat holds by construction.
    """
    ssr = r2 * total
    sse = (1.0 - r2) * total
    beta = np.zeros(p)
    if p:
        beta[0] = math.sqrt(ssr)
    return SuffStats(
        n=n, p0=p0, p=p, beta_hat=beta, sse=sse, ssr=ssr, gram_chol=np.eye(p)
    )


def one_model_table(n, p, omr2, p0):
    """A table of one model with 1 - r2 = omr2 (sse = omr2, ssr = 1 - omr2);
    ``evidence`` reads only n, p0, the size and the sums of squares, so no
    n-row dataset is built."""
    table = ModelTable(dataset=SimpleNamespace(n=n, p0=p0, replicates=None),
                       models=(tuple(range(p)),), sizes=np.array([p]),
                       sse=np.array([omr2]), ssr=np.array([1.0 - omr2]),
                       beta=np.zeros((1, p)), mask=np.ones((1, p), dtype=bool))
    assert table.one_minus_r2[0] == omr2
    return table


def random_dataset(rng, n=None, p=None, rho_max=0.6, beta_scale=1.0, sparse=True):
    """Random orthogonalized dataset for property tests."""
    from ml2bf.regression import CorrelationSpec, Dataset, make_correlated_design, orthogonalize

    n = n if n is not None else int(rng.integers(10, 101))
    p = p if p is not None else int(rng.integers(2, 9))
    rho = float(rng.uniform(-rho_max, rho_max))
    x = make_correlated_design(n, p, CorrelationSpec.ar1(rho), rng)
    beta = rng.normal(0.0, beta_scale, p)
    if sparse:
        drop = rng.random(p) < 0.5
        beta[drop] = 0.0
    y = 1.5 + x @ beta + rng.standard_normal(n)
    return orthogonalize(Dataset.with_intercept(y, x))
