"""Chebyshev designs, power-law priors, and the loss quadrature."""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy import integrate
from scipy.special import expit

from ml2bf.bayesfactors import (
    log_marginal_known_variance,
    ml2_known_variance_from_scalars,
    ml2_known_variance_log_bf,
)
from ml2bf.modelspace import ModelSpace, hpm, posterior_from_evidence
from ml2bf.nonparametric import (
    _A_HI,
    _LN10,
    _LOG10C_HI,
    _LOG10C_LO,
    PRESETS,
    NonparametricConfig,
    _evidence_and_shrinkage,
    _fit_nested_power_law,
    _logistic,
    _make_loss_fn,
    _nested_power_law,
    _power_law_log_bf,
    _summaries,
    chebyshev_design,
    predictive_loss_integral,
    run_study,
    series_coefficients,
    true_signal,
)
from ml2bf.regression import Dataset, fit_suffstats, orthogonalize


class TestChebyshevDesign:
    def test_first_column_is_identity_map(self):
        _, x, knots = chebyshev_design(20, 1)
        np.testing.assert_allclose(x[:, 0], knots, atol=1e-14)
        assert abs(x[:, 0].mean()) < 1e-14

    @pytest.mark.parametrize("n,k", [(30, 29), (100, 79), (2000, 79)])
    def test_preset_orthogonality(self, n, k):
        _, x, _ = chebyshev_design(n, k)
        np.testing.assert_allclose(x.T @ x, (n / 2) * np.eye(k), atol=1e-8 * n / 2)
        np.testing.assert_allclose(x.sum(axis=0), 0.0, atol=1e-8 * n)

    def test_columns_match_cosine_form(self):
        n, k = 40, 12
        _, x, knots = chebyshev_design(n, k)
        theta = np.arccos(knots)
        for j in range(1, k + 1):
            np.testing.assert_allclose(x[:, j - 1], np.cos(j * theta), atol=1e-10)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            chebyshev_design(10, 10)


class TestTrueSignal:
    def test_point_values(self):
        assert true_signal(0.0) == pytest.approx(0.0)
        assert true_signal(-1.0) == pytest.approx(-math.log(2))

    def test_series_converges_at_interior_knots(self):
        _, _, knots = chebyshev_design(25, 5)
        alpha, coef = series_coefficients(200)
        partial = alpha + chebyshev.chebval(knots, np.concatenate([[0.0], coef]))
        np.testing.assert_allclose(partial, true_signal(knots), atol=2e-2)
        alpha, coef = series_coefficients(20000)
        partial = alpha + chebyshev.chebval(knots, np.concatenate([[0.0], coef]))
        np.testing.assert_allclose(partial, true_signal(knots), atol=2e-4)


class TestPowerLawPrior:
    def test_no_signal_drives_scale_down(self):
        # With beta identically zero the evidence is decreasing in c up to
        # chi-square fluctuations: the fitted scale is tiny, usually pinned
        # at the lower search edge, and the evidence gain over the null
        # model stays small.
        n, k = 60, 10
        _, x, _ = chebyshev_design(n, k)
        fits = []  # (c, log BF, boundary hit) of the full model, the nested fit's last row
        for seed in range(8):
            y = np.random.default_rng(seed).standard_normal(n)
            _, _, u = _summaries(y, x)
            params, value, _, boundary = _fit_nested_power_law(u, 1.0, n)
            fits.append((10.0 ** params[-1, 0], value[-1], boundary[-1]))
        assert np.median([c for c, _, _ in fits]) <= 1e-2
        assert sum(hit for _, _, hit in fits) >= len(fits) // 2
        assert max(val for _, val, _ in fits) < 2.0
        c, _, hit = fits[1]
        assert c == pytest.approx(1e-4, rel=0.01) and hit

    def test_dense_grid_oracle(self):
        # Every nested model's fit against a 400 x 400 grid of its evidence.
        rng = np.random.default_rng(1)
        n, k = 100, 15
        _, x, knots = chebyshev_design(n, k)
        y = true_signal(knots) + rng.standard_normal(n)
        _, _, u = _summaries(y, x)
        params, fitted, _, _ = _fit_nested_power_law(u, 1.0, n)

        log10c = np.linspace(-4, 4, 400)
        a_grid = np.linspace(0, 6, 400)
        kappa = n / 2
        idx = np.arange(1.0, k + 1.0)
        best = np.full(k, -np.inf)
        arg = np.zeros((k, 2))
        u_sq = u**2
        for aa in a_grid:
            d = 10.0 ** log10c[:, None] * idx[None, :] ** (-aa)
            m = 1.0 + kappa * d
            # Column j-1: the evidence of the model with coordinates 1..j.
            vals = np.cumsum(-0.5 * np.log(m) + (u_sq[None, :] - u_sq[None, :] / m) / 2.0, axis=1)
            rows = np.argmax(vals, axis=0)
            top = vals[rows, np.arange(k)]
            better = top > best
            best[better] = top[better]
            arg[better] = np.stack([log10c[rows], np.full(k, aa)], axis=1)[better]
        assert np.all(fitted >= best - 1e-9)
        cell_c = log10c[1] - log10c[0]
        cell_a = a_grid[1] - a_grid[0]
        # The size-1 evidence does not depend on a; deeper models pin both.
        assert np.all(np.abs(params[:, 0] - arg[:, 0]) <= 2 * cell_c)
        assert np.all(np.abs(params[1:, 1] - arg[1:, 1]) <= 2 * cell_a)

    def test_probe_maximality(self):
        rng = np.random.default_rng(2)
        n, k = 50, 8
        _, x, knots = chebyshev_design(n, k)
        y = true_signal(knots) + rng.standard_normal(n)
        _, _, u = _summaries(y, x)
        _, fitted, _, _ = _fit_nested_power_law(u, 1.0, n)
        kappa = n / 2
        idx = np.arange(1.0, k + 1.0)
        u_sq = u**2
        for _ in range(1000):
            c = 10.0 ** rng.uniform(-4, 4)
            a = rng.uniform(0, 6)
            m = 1.0 + kappa * c * idx**-a
            vals = np.cumsum(-0.5 * np.log(m) + (u_sq - u_sq / m) / 2.0)
            assert np.all(vals <= fitted + 1e-9)

    def test_analytic_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(9)
        n, k, sigma2 = 80, 12, 1.5
        _, x, knots = chebyshev_design(n, k)
        y = true_signal(knots) + math.sqrt(sigma2) * rng.standard_normal(n)
        _, _, u = _summaries(y, x)
        u_sq = u**2
        sizes = np.arange(1, k + 1)
        params = np.stack([rng.uniform(-3, 3, k), rng.uniform(0.2, 5, k)], axis=1)
        value, shrink, grad, hess = _nested_power_law(
            u_sq / (2 * sigma2), n / 2, sizes, params, derivatives=True
        )

        def oracle(j, point):
            return float(_power_law_log_bf(u_sq[:j], n / 2, sigma2, point[:1], point[1:])[0])

        step = 1e-4
        for j in sizes:
            point = params[j - 1]
            assert value[j - 1] == pytest.approx(oracle(j, point), rel=1e-12, abs=1e-12)
            d = 10.0 ** point[0] * np.arange(1.0, j + 1.0) ** -point[1]
            np.testing.assert_allclose(shrink[j - 1, :j], 1 - 1 / (1 + n / 2 * d), rtol=1e-9, atol=1e-15)
            assert np.all(shrink[j - 1, j:] == 0.0)
            for r in range(2):
                e_r = step * np.eye(2)[r]
                fd = (oracle(j, point + e_r) - oracle(j, point - e_r)) / (2 * step)
                assert grad[j - 1, r] == pytest.approx(fd, rel=1e-6, abs=1e-7)
                for c in range(2):
                    e_c = step * np.eye(2)[c]
                    fd2 = (
                        oracle(j, point + e_r + e_c) - oracle(j, point + e_r - e_c)
                        - oracle(j, point - e_r + e_c) + oracle(j, point - e_r - e_c)
                    ) / (4 * step**2)
                    assert hess[j - 1, r, c] == pytest.approx(fd2, rel=1e-4, abs=1e-5)

    def test_isotropic_special_case_matches_general_marginal(self):
        # a = 0 collapses to W = c I; cross-check against the generic
        # known-variance marginal through the regression machinery.
        rng = np.random.default_rng(3)
        n, k = 40, 6
        _, x, knots = chebyshev_design(n, k)
        y = true_signal(knots) + rng.standard_normal(n)
        ds = orthogonalize(Dataset.with_intercept(y, x))
        stats = fit_suffstats(ds, range(k))
        from ml2bf.bayesfactors import log_bf_known_variance

        _, _, u = _summaries(y, x)
        for c in (0.01, 1.0, 7.5):
            fast = float(_power_law_log_bf(u**2, n / 2, 1.0, np.array([math.log10(c)]), np.array([0.0]))[0])
            general = log_bf_known_variance(stats, c * np.eye(k), 1.0)
            assert fast == pytest.approx(general, rel=1e-8)


def _nested_posterior(y, x, method, refit_per_model=True):
    """Posterior over the nested truncations, as the study computes it."""
    n, k = x.shape
    log_ev, _ = _evidence_and_shrinkage(_summaries(y, x)[2], n, method, 1.0, refit_per_model)
    return posterior_from_evidence(ModelSpace.nested(k), log_ev)


class TestNestedEvidence:
    def test_aic_bic_penalty_gap(self):
        rng = np.random.default_rng(5)
        n, k = 50, 10
        _, x, knots = chebyshev_design(n, k)
        y = true_signal(knots) + rng.standard_normal(n)
        post_aic = _nested_posterior(y, x, "aic")
        post_bic = _nested_posterior(y, x, "bic")
        for j, (la, lb) in enumerate(zip(post_aic.log_evidence, post_bic.log_evidence), start=1):
            assert la - lb == pytest.approx(0.5 * j * (math.log(n) - 2.0), abs=1e-10)

    def test_bic_hpm_minimizes_criterion(self):
        rng = np.random.default_rng(6)
        n, k = 60, 12
        _, x, knots = chebyshev_design(n, k)
        y = true_signal(knots) + rng.standard_normal(n)
        post = _nested_posterior(y, x, "bic")
        # Each size's residual sum of squares from its own least-squares fit.
        sse = [np.linalg.lstsq(np.column_stack([np.ones(n), x[:, :j]]), y, rcond=None)[1][0]
               for j in range(k + 1)]
        crit = [sse[j] + j * math.log(n) for j in range(1, k + 1)]
        assert len(post.models[hpm(post)]) == int(np.argmin(crit)) + 1

    def test_ml2_cross_module_equivalence(self):
        # Fast orthogonal path vs the general machinery, model by model.
        rng = np.random.default_rng(7)
        n, k = 30, 8
        _, x, knots = chebyshev_design(n, k)
        y = true_signal(knots) + rng.standard_normal(n)
        post = _nested_posterior(y, x, "ml2")
        ds = orthogonalize(Dataset.with_intercept(y, x))
        for j in range(1, k + 1):
            stats = fit_suffstats(ds, range(j))
            general, _ = ml2_known_variance_log_bf(stats, 1.0, unit_scale=n)
            assert post.log_evidence[j - 1] == pytest.approx(general, abs=1e-7)

    def test_ml2_nested_branch_matches_scalar_loop(self):
        # The known-variance ML2 rule, model by model, with math.log.
        def scalar(p, ssr, sigma2, m):
            if p == 0:
                return 0.0, 0.0
            a = max(0.0, 1.0 / sigma2 - (m + 1.0) / ssr) if ssr > 0 else 0.0
            denom = m + 1.0 + a * ssr
            return -0.5 * ((p - 1) * math.log(m + 1.0) + math.log(denom)) + (
                ssr - ssr / denom) / (2 * sigma2), a

        def close(got, want):
            assert abs(got - want) <= 1e-15 * abs(want)

        n, k = 30, 12
        _, x, knots = chebyshev_design(n, k)
        rng = np.random.default_rng(9)
        cases = [
            (true_signal(knots) + rng.standard_normal(n), 1.0),  # a* > 0 at the top
            (0.05 * rng.standard_normal(n), 1.0),  # every a* clamped at 0
            (np.zeros(n), 1.0),  # ssr = 0 for every size
            (true_signal(knots) + rng.standard_normal(n), 3.0),
        ]
        seen_clamped = seen_interior = seen_zero = False
        for y, sigma2 in cases:
            u = _summaries(y, x)[2]
            log_ev, shrink = _evidence_and_shrinkage(u, n, "ml2", sigma2)
            ssr = np.cumsum(u**2)
            for j in range(1, k + 1):
                want, a = scalar(j, float(ssr[j - 1]), sigma2, float(n))
                close(log_ev[j - 1], want)
                row = np.zeros(k)
                row[:j] = 1.0 - 1.0 / (n + 1.0 + a * ssr[j - 1])
                assert np.all(np.abs(shrink[j - 1] - row) <= 1e-15 * row)
                seen_clamped |= a == 0.0 and ssr[j - 1] > 0
                seen_interior |= a > 0.0
                seen_zero |= ssr[j - 1] == 0.0
        assert seen_clamped and seen_interior and seen_zero

        # The array form itself, p = 0 and ssr = 0 included.
        p = np.array([0, 1, 2, 3, 5, 8, 8])
        ssr = np.array([4.0, 0.0, 3.0, 150.0, 1e-310, 80.0, 1e6])
        log_bf, a_best = ml2_known_variance_from_scalars(p, ssr, 2.0, 30.0)
        for i in range(p.size):
            want, a = scalar(int(p[i]), float(ssr[i]), 2.0, 30.0)
            close(log_bf[i], want)
            close(a_best[i], a)

    def test_powerlaw_refit_flag(self):
        rng = np.random.default_rng(8)
        n, k = 40, 6
        _, x, knots = chebyshev_design(n, k)
        y = true_signal(knots) + rng.standard_normal(n)
        per_model = _nested_posterior(y, x, "powerlaw", refit_per_model=True)
        truncated = _nested_posterior(y, x, "powerlaw", refit_per_model=False)
        # Per-model refitting can only raise each model's evidence.
        assert np.all(per_model.log_evidence >= truncated.log_evidence - 1e-7)


class TestLogistic:
    def test_within_two_ulp_of_scipy_over_the_fit_box(self):
        # z = log(kappa d_i) spans log(n/2) + [-4, 4] ln 10 - [0, 6] ln i,
        # i = 1..k; the fit also evaluates the logistic at -z.
        reach = max(
            max(math.log(n / 2.0) + _LOG10C_HI * _LN10,
                -(math.log(n / 2.0) + _LOG10C_LO * _LN10 - _A_HI * math.log(k)))
            for n, k, _ in PRESETS.values()
        )
        z = np.linspace(-reach, reach, 400_001)
        want = expit(z)
        assert np.all(np.abs(_logistic(z) - want) <= 2 * np.spacing(want))


class TestLossIntegral:
    def test_zero_fit_matches_adaptive_quadrature(self):
        ours = predictive_loss_integral(0.0, np.zeros(1))
        oracle, err = integrate.quad(lambda x: math.log1p(-x) ** 2, -1, 1, limit=200, points=[1 - 1e-10])
        assert ours == pytest.approx(oracle, rel=1e-6)

    def test_long_series_fit_is_tiny(self):
        alpha, coef = series_coefficients(10**4)
        assert predictive_loss_integral(alpha, coef) < 1e-4

    def test_constant_offset(self):
        alpha, coef = series_coefficients(10**4)
        delta = 0.37
        base = predictive_loss_integral(alpha, coef)
        shifted = predictive_loss_integral(alpha + delta, coef)
        assert shifted - base == pytest.approx(2 * delta**2, abs=1e-4)

    def test_rule_integrates_high_degree_products(self):
        # The graded composite rule must resolve T_79^2 under dx exactly:
        # closed form 1 - 1/(4 m^2 - 1).
        from ml2bf.nonparametric import _loss_rule

        nodes, weights = _loss_rule()
        for m in (10, 40, 79):
            coef = np.zeros(m + 1)
            coef[m] = 1.0
            vals = chebyshev.chebval(nodes, coef)
            assert weights @ vals**2 == pytest.approx(1 - 1 / (4 * m**2 - 1), rel=1e-9)

    @pytest.mark.parametrize("k", [29, 79])
    def test_study_loss_matches_predictive_loss_integral(self, k):
        # The study's integrated loss evaluates the basis through a stored
        # Chebyshev matrix; predictive_loss_integral, the tested oracle,
        # sums the series with chebval.
        loss_fn = _make_loss_fn("integrated", k)
        rng = np.random.default_rng(k)
        alpha, coef = series_coefficients(k)
        for _ in range(20):
            a = alpha + 0.3 * rng.standard_normal()
            c = coef * rng.uniform(0.0, 1.5, k) + 0.05 * rng.standard_normal(k)
            want = predictive_loss_integral(a, c)
            assert abs(loss_fn(a, c) - want) <= 1e-14 * want


class TestRunStudy:
    def test_small_run_schema_and_orderings(self):
        cfg = NonparametricConfig(n=30, k=29, sigma2=1.0, replicates=40, seed=3)
        rows = run_study(cfg)
        assert len(rows) == 12
        by = {(r["method"], r["selector"]): r for r in rows}
        for method in ("powerlaw", "ml2", "aic", "bic"):
            assert by[(method, "bma")]["avg_loss"] <= by[(method, "mpm")]["avg_loss"] + 0.05
            assert by[(method, "mpm")]["avg_loss"] <= by[(method, "hpm")]["avg_loss"] + 0.05
            assert by[(method, "bma")]["avg_size"] == ""
        assert rows == run_study(cfg)  # deterministic

    def test_worker_count_invariance(self):
        cfg = NonparametricConfig(n=30, k=29, sigma2=1.0, replicates=10, seed=5)
        assert run_study(cfg, threads=1) == run_study(cfg, threads=3)

    def test_integrated_loss_variant_runs(self):
        cfg = NonparametricConfig(n=30, k=29, sigma2=1.0, replicates=5, seed=4)
        rows = run_study(cfg, methods=("bic",), loss_kind="integrated")
        assert all(row["avg_loss"] > 0 for row in rows)

    def test_presets(self):
        assert NonparametricConfig.preset(3).n == 2000
        with pytest.raises(ValueError):
            NonparametricConfig.preset(4)
        with pytest.raises(ValueError):
            NonparametricConfig(n=10, k=10, sigma2=1.0)
