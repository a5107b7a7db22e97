"""Posterior-mean shrinkage: the scalar ml2 oracle and the factors that
``evidence(..., want_shrinkage=True)`` puts on each model's least squares."""

import math

import numpy as np
import pytest

from ml2bf.bayesfactors import PriorMethod, evidence, shrinkage_factor_ml2
from ml2bf.regression import Dataset, ModelTable, SuffStats, fit_models

from util import make_stats, random_dataset


def _table(stats):
    """The one-model table of ``make_stats``'s synthetic statistics."""
    dataset = Dataset(y=np.zeros(stats.n), x0=np.ones((stats.n, stats.p0)),
                      x=np.zeros((stats.n, stats.p)))
    return ModelTable(dataset=dataset, models=(tuple(range(stats.p)),),
                      sizes=np.array([stats.p]), sse=np.array([stats.sse]),
                      ssr=np.array([stats.ssr]), beta=stats.beta_hat[None, :],
                      mask=np.ones((1, stats.p), dtype=bool))


def _posterior_mean(method, table):
    """Each model's posterior-mean coefficients under one rule."""
    _, shrink = evidence(method, table, want_shrinkage=True)
    return shrink[..., None] * table.beta


class TestShrinkageMl2:
    def test_lower_branch_value(self):
        n, p0 = 20, 1
        s = make_stats(n, p0, 2, 0.1)
        assert shrinkage_factor_ml2(s) == pytest.approx(n / (n + 1))

    @pytest.mark.parametrize("n,p0", [(8, 1), (15, 1), (30, 2), (100, 1), (60, 3)])
    def test_continuity_at_threshold(self, n, p0):
        knot = (n + 1) / (2 * n - p0)
        below = shrinkage_factor_ml2(make_stats(n, p0, 2, knot - 1e-12))
        at = shrinkage_factor_ml2(make_stats(n, p0, 2, knot))
        above = shrinkage_factor_ml2(make_stats(n, p0, 2, knot + 1e-12))
        assert at == pytest.approx(n / (n + 1), abs=1e-12)
        assert below == pytest.approx(above, abs=1e-9)

    def test_zero_coefficients_stay_zero(self):
        s = make_stats(20, 1, 3, 0.0)
        np.testing.assert_array_equal(_posterior_mean("ml2", _table(s))[0], np.zeros(3))

    def test_limit_at_perfect_fit(self):
        s = make_stats(20, 1, 2, 1.0)
        assert shrinkage_factor_ml2(s) == pytest.approx(1.0)

    def test_marked_models_get_one(self):
        # The null model and an exact fit (r2 >= R2_SATURATION) carry the
        # marker's shrinkage 1, exactly as ``evidence`` gives it.
        exact_fit = SuffStats(n=30, p0=1, p=2, beta_hat=np.zeros(2), sse=1e-14,
                              ssr=1.0 - 1e-14, gram_chol=np.eye(2))
        for s in [make_stats(30, 1, 0, 0.0), exact_fit]:
            assert shrinkage_factor_ml2(s) == 1.0
            assert evidence("ml2", _table(s), want_shrinkage=True)[1][0] == 1.0

    def test_factor_range_and_monotone(self):
        n, p0 = 25, 1
        grid = np.linspace(0.0, 0.999999, 400)
        factors = [shrinkage_factor_ml2(make_stats(n, p0, 2, r2)) for r2 in grid]
        assert min(factors) >= n / (n + 1) - 1e-15
        assert max(factors) < 1.0
        assert all(b >= a - 1e-12 for a, b in zip(factors, factors[1:]))

    def test_never_expands(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ds = random_dataset(rng, beta_scale=2.0)
            table = fit_models(ds, [tuple(range(ds.p))])
            assert np.linalg.norm(_posterior_mean("ml2", table)) <= np.linalg.norm(table.beta)


class TestGpriorMean:
    def test_large_g_limit(self):
        s = make_stats(10, 1, 2, 0.5)
        np.testing.assert_allclose(_posterior_mean(PriorMethod("lb", g=1e12), _table(s))[0],
                                   s.beta_hat, rtol=1e-10)

    def test_half_at_unit_g(self):
        s = make_stats(10, 1, 2, 0.5)
        np.testing.assert_allclose(_posterior_mean(PriorMethod("lb", g=1.0), _table(s))[0],
                                   s.beta_hat / 2)

    def test_matches_ml2_in_lower_branch(self):
        n = 14
        table = _table(make_stats(n, 1, 2, 0.2))
        np.testing.assert_allclose(
            _posterior_mean(PriorMethod("lb", g=n), table), _posterior_mean("ml2", table), rtol=1e-12
        )


class TestZsMean:
    def test_between_zero_and_ls(self):
        s = make_stats(25, 1, 3, 0.6)
        mean = _posterior_mean("zs", _table(s))[0]
        ratio = mean[0] / s.beta_hat[0]
        assert 0.0 < ratio < 1.0


class TestMseSanityCheck:
    def test_shrinkage_never_beaten_by_ls_under_scaled_loss(self):
        # Scaled predictive squared error of the shrunk estimator stays at or
        # below the least-squares baseline over a signal grid (3 SE slack).
        rng = np.random.default_rng(5)
        n, p = 30, 3
        reps = 1500
        for norm in (0.0, 1.0, 5.0, 20.0):
            diff = np.empty(reps)
            for i in range(reps):
                q, _ = np.linalg.qr(rng.standard_normal((n, p + 1)))
                x = q[:, 1:]  # orthonormal, centered-ish columns
                x = x - x.mean(axis=0)
                beta = np.zeros(p)
                beta[0] = norm
                y = 1.0 + x @ beta + rng.standard_normal(n)
                table = fit_models(Dataset.with_intercept(y, x), [tuple(range(p))])
                gram = x.T @ x
                shrunk, beta_hat = _posterior_mean("ml2", table)[0], table.beta[0]
                loss_shrunk = (shrunk - beta) @ gram @ (shrunk - beta)
                loss_ls = (beta_hat - beta) @ gram @ (beta_hat - beta)
                diff[i] = loss_shrunk - loss_ls
            se = diff.std(ddof=1) / math.sqrt(reps)
            assert diff.mean() <= 3 * se
