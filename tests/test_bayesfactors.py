"""Closed-form evidence: worked values, oracles, and structural properties."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import minimize_scalar

from ml2bf import bayesfactors
from ml2bf.bayesfactors import (
    PriorMethod,
    QuadratureError,
    _zs_log_integrand,
    _zs_mode,
    _zs_trapezoid,
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
    log_marginal_null_known_variance,
    ml2_covariance,
    ml2_known_variance_from_scalars,
    ml2_known_variance_log_bf,
    zs_evidence_batch,
    zs_laplace_batch,
)
from ml2bf.regression import Dataset, fit_models, fit_suffstats, orthogonalize

from util import make_stats, random_dataset


class TestMl2Covariance:
    def test_worked_example(self):
        s = make_stats(10, 1, 2, r2=0.8, total=10.0)  # sse=2, ssr=8
        w = ml2_covariance(s)
        assert w.a == pytest.approx(8 / 2 - 11 / 8)

    def test_below_threshold_gives_lower_bound(self):
        n, p0 = 10, 1
        r2 = (n + 1) / (2 * n - p0) - 0.05
        s = make_stats(n, p0, 2, r2)
        w = ml2_covariance(s)
        assert w.a == 0.0
        np.testing.assert_allclose(w.matrix, n * np.eye(2), atol=1e-12)

    def test_zero_signal(self):
        s = make_stats(12, 1, 2, 0.0)
        assert ml2_covariance(s).a == 0.0

    def test_saturated_fit_errors(self):
        s = make_stats(10, 1, 2, 1.0)
        with pytest.raises(ValueError, match="saturated fit"):
            ml2_covariance(s)

    def test_dominates_lower_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            ds = random_dataset(rng, beta_scale=2.0)
            s = fit_suffstats(ds, range(min(3, ds.p)))
            w = ml2_covariance(s)
            gap = w.matrix - w.lower_bound_matrix()
            assert np.linalg.eigvalsh(gap).min() >= -1e-10


def _log_bf_ml2_lower(n, p0, p, r2):
    q = n - p0
    return 0.5 * (q - p) * math.log(n + 1) - 0.5 * q * math.log(n * (1 - r2) + 1)


def _log_bf_ml2_upper(n, p0, p, r2):
    q = n - p0
    log_phi = (p - 1) * math.log(n + 1) + q * math.log(q) - (q - 1) * math.log(q - 1)
    return -0.5 * log_phi - 0.5 * math.log(r2) - 0.5 * (q - 1) * math.log(1 - r2)


class TestLogBfMl2:
    def test_null_model(self):
        assert log_bf_ml2(make_stats(10, 1, 0, 0.0)) == 0.0

    def test_worked_example(self):
        s = make_stats(10, 1, 2, 0.3)
        assert log_bf_ml2(s) == pytest.approx(3.5 * math.log(11) - 4.5 * math.log(8), rel=1e-12)

    @pytest.mark.parametrize("n,p0,p", [(6, 1, 2), (10, 1, 3), (25, 2, 4), (80, 1, 8), (40, 3, 2)])
    def test_branch_continuity_at_threshold(self, n, p0, p):
        knot = (n + 1) / (2 * n - p0)
        assert _log_bf_ml2_lower(n, p0, p, knot) == pytest.approx(
            _log_bf_ml2_upper(n, p0, p, knot), abs=1e-10
        )
        below = log_bf_ml2(make_stats(n, p0, p, knot * (1 - 1e-9)))
        above = log_bf_ml2(make_stats(n, p0, p, min(knot * (1 + 1e-9), 1 - 1e-12)))
        assert below == pytest.approx(above, abs=1e-6)

    def test_saturation_marker(self):
        assert log_bf_ml2(make_stats(10, 1, 2, 1.0 - 1e-16)) == math.inf

    def test_information_consistency_monotone(self):
        vals = [log_bf_ml2(make_stats(10, 1, 8, 1 - 10.0**-k)) for k in range(1, 13)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_matches_marginal_at_fitted_covariance(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            ds = random_dataset(rng, beta_scale=2.0)
            s = fit_suffstats(ds, range(ds.p))
            w = ml2_covariance(s)
            assert log_bf_fixed_cov(s, w.matrix) == pytest.approx(log_bf_ml2(s), abs=1e-9)


class TestLogBfGprior:
    def test_no_signal_penalizes_dimension(self):
        s = make_stats(15, 1, 3, 0.0)
        assert log_bf_gprior(s, 7.0) == pytest.approx(-1.5 * math.log(8))

    def test_equals_ml2_below_threshold(self):
        n, p0 = 12, 1
        knot = (n + 1) / (2 * n - p0)
        for r2 in (0.0, 0.2, knot):
            s = make_stats(n, p0, 2, r2)
            assert log_bf_gprior(s, float(n)) == log_bf_ml2(s)

    def test_worked_example(self):
        s = make_stats(10, 1, 2, 0.5)
        assert log_bf_gprior(s, 10.0) == pytest.approx(
            3.5 * math.log(11) - 4.5 * math.log(6), rel=1e-12
        )


class TestBicFamilies:
    def test_null_models(self):
        s = make_stats(50, 1, 0, 0.0)
        assert log_bf_bic(s) == 0.0 and log_bf_bic_prior(s) == 0.0 and log_bf_aic(s) == 0.0

    def test_pure_dimension_penalties(self):
        s = make_stats(50, 1, 3, 0.0)
        assert log_bf_bic(s) == pytest.approx(-1.5 * math.log(50))
        assert log_bf_bic_prior(s) == pytest.approx(-1.5 * math.log(51))

    def test_bic_worked_example(self):
        s = make_stats(50, 1, 3, 0.4)
        assert log_bf_bic(s) == pytest.approx(-1.5 * math.log(50) + 25 * math.log(5 / 3), rel=1e-12)

    def test_bic_prior_close_to_bic(self):
        s = make_stats(50, 1, 3, 0.4)
        bound = 1.5 * abs(math.log(51 / 50)) + 0.5 * math.log(5 / 3)
        assert abs(log_bf_bic_prior(s) - log_bf_bic(s)) <= bound + 1e-12

    def test_saturation_marker(self):
        assert log_bf_bic(make_stats(20, 1, 2, 1.0)) == math.inf


class TestLocalEb:
    def test_no_signal_boundary(self):
        assert log_bf_local_eb(make_stats(20, 1, 3, 0.0)) == (0.0, 0.0)

    def test_nonnegative_on_randoms(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            n = int(rng.integers(6, 80))
            p0 = 1
            p = int(rng.integers(1, min(5, n - p0 - 1) + 1))
            r2 = float(rng.uniform(0, 0.999))
            value, g_hat = log_bf_local_eb(make_stats(n, p0, p, r2))
            assert value >= 0.0
            assert g_hat >= 0.0

    def test_matches_grid_search(self):
        s = make_stats(20, 1, 3, 0.6)
        _, g_hat = log_bf_local_eb(s)
        grid = np.linspace(0.0, 1e4, 10**6)
        q, p, omr2 = 19, 3, 0.4
        vals = 0.5 * (q - p) * np.log1p(grid) - 0.5 * q * np.log1p(grid * omr2)
        g_grid = grid[int(np.argmax(vals))]
        assert abs(g_hat - g_grid) <= (grid[1] - grid[0])

    def test_ml2_negative_when_eb_zero(self):
        # The fitted-g pathology: its evidence is never below 1, while the
        # constrained rule still penalizes dimension at zero signal.
        s = make_stats(20, 1, 3, 0.0)
        assert log_bf_local_eb(s)[0] == 0.0
        assert log_bf_ml2(s) < 0.0


class TestMarginalFixedCov:
    def test_gprior_ratio(self):
        rng = np.random.default_rng(24)
        ds = random_dataset(rng, n=25, p=3)
        s = fit_suffstats(ds, (0, 1, 2))
        w = s.n * s.gram_inverse()
        assert log_marginal_fixed_cov(s, w) - log_marginal_null(s) == pytest.approx(
            log_bf_gprior(s, float(s.n)), abs=1e-10
        )

    def test_semi_analytic_integration_oracle(self):
        # Independent route: marginal of Y given sigma^2 via dense n x n
        # covariance algebra, then numerical integration over sigma^2.
        rng = np.random.default_rng(25)
        n, p = 18, 3
        x = rng.standard_normal((n, p))
        y = 1.0 + x @ rng.normal(0, 1.5, p) + rng.standard_normal(n)
        ds = orthogonalize(Dataset.with_intercept(y, x))
        s = fit_suffstats(ds, range(p))
        a = rng.standard_normal((p, p))
        w = a @ a.T + 0.5 * np.eye(p)

        x0 = ds.x0
        sigma_mat = np.eye(n) + ds.x @ w @ ds.x.T

        def log_density_at(t):
            s2 = math.exp(t)
            si = np.linalg.inv(sigma_mat) / s2
            q0 = float((x0.T @ si @ x0)[0, 0])
            resid_quad = float(ds.y @ si @ ds.y) - float((ds.y @ si @ x0)[0]) ** 2 / q0
            sign, logdet = np.linalg.slogdet(s2 * sigma_mat)
            return (
                -0.5 * (n - 1) * math.log(2 * math.pi)
                - 0.5 * logdet
                - 0.5 * math.log(q0)
                - 0.5 * resid_quad
                - t  # right-Haar 1/sigma^2 factor
                + t  # Jacobian of the log-axis substitution
            )

        t_grid = np.linspace(-10, 10, 201)
        shift = max(log_density_at(t) for t in t_grid)
        val, err = integrate.quad(
            lambda t: math.exp(log_density_at(t) - shift), -12, 12,
            limit=400, epsabs=1e-13, epsrel=1e-10,
        )
        # the library omits the shared -0.5 log|X0'X0| factor
        oracle = shift + math.log(val) + 0.5 * np.linalg.slogdet(x0.T @ x0)[1]
        assert log_marginal_fixed_cov(s, w) == pytest.approx(oracle, rel=1e-6)

    def test_maximality_small(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            ds = random_dataset(rng, n=30, p=4, beta_scale=2.0)
            s = fit_suffstats(ds, range(4))
            w_hat = ml2_covariance(s).matrix
            best = log_marginal_fixed_cov(s, w_hat)
            for _ in range(200):
                perturb = rng.standard_normal((4, 4))
                w = w_hat + perturb @ perturb.T
                assert log_marginal_fixed_cov(s, w) <= best + 1e-10

    def test_non_psd_rejected(self):
        s = make_stats(10, 1, 2, 0.5)
        with pytest.raises(ValueError, match="singular"):
            log_marginal_fixed_cov(s, np.diag([-2.0, -2.0]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                log_marginal_fixed_cov(s, np.diag([1.0, bad]))


class TestKnownVariance:
    def test_zero_cov_recovers_null(self):
        s = make_stats(12, 1, 2, 0.4, total=3.0)
        full = log_marginal_known_variance(s, np.zeros((2, 2)), 1.3)
        assert full == pytest.approx(log_marginal_null_known_variance(s, 1.3), abs=1e-12)

    def test_known_variance_bic_lb_gap(self):
        # Gap between the BIC evidence and the unit-information evidence at
        # known variance depends on the data only through ssr.
        rng = np.random.default_rng(27)
        for sigma2 in (0.7, 1.0, 2.5):
            ds = random_dataset(rng, n=30, p=3)
            s = fit_suffstats(ds, (0, 1, 2))
            lb = log_bf_known_variance(s, s.n * s.gram_inverse(), sigma2)
            bic = s.ssr / (2 * sigma2) - 0.5 * s.p * math.log(s.n)
            expected = 0.5 * s.p * math.log((s.n + 1) / s.n) + s.ssr / (
                2 * sigma2 * (s.n + 1)
            )
            assert bic - lb == pytest.approx(expected, rel=1e-10)
            assert bic - lb >= 0.0

    def test_monte_carlo_marginal_oracle(self):
        rng = np.random.default_rng(28)
        ds = random_dataset(rng, n=15, p=2)
        s = fit_suffstats(ds, (0, 1))
        sigma2 = 1.4
        a = rng.standard_normal((2, 2))
        w = a @ a.T + 0.3 * np.eye(2)
        exact = log_bf_known_variance(s, w, sigma2)
        draws = rng.multivariate_normal(np.zeros(2), sigma2 * w, size=10**6)
        gram = s.gram_chol.T @ s.gram_chol
        centered = draws - s.beta_hat
        quad = np.einsum("ij,jk,ik->i", centered, gram, centered)
        log_weights = (s.ssr - quad) / (2 * sigma2)
        shift = log_weights.max()
        weights = np.exp(log_weights - shift)
        mc = shift + math.log(weights.mean())
        se = weights.std() / (weights.mean() * math.sqrt(len(weights)))
        assert abs(exact - mc) <= 3 * se

    def test_ml2_known_variance_matches_closed_form(self):
        rng = np.random.default_rng(29)
        for sigma2 in (0.5, 1.0, 3.0):
            ds = random_dataset(rng, n=40, p=4, beta_scale=1.5)
            s = fit_suffstats(ds, range(4))
            log_bf, a = ml2_known_variance_log_bf(s, sigma2)
            a_closed = max(0.0, 1.0 / sigma2 - (s.n + 1) / s.ssr)
            assert a == pytest.approx(a_closed, abs=1e-6)
            w = a_closed * np.outer(s.beta_hat, s.beta_hat) + s.n * s.gram_inverse()
            assert log_bf == pytest.approx(log_bf_known_variance(s, w, sigma2), abs=1e-9)

    def test_ml2_known_variance_scalar_maximum(self):
        def objective(p, ssr, sigma2, m, a):
            denom = m + 1.0 + a * ssr
            return -0.5 * ((p - 1) * math.log(m + 1.0) + math.log(denom)) + (
                ssr - ssr / denom
            ) / (2 * sigma2)

        rng = np.random.default_rng(31)
        clamped = interior = 0
        for _ in range(200):
            p = int(rng.integers(1, 10))
            ssr = float(rng.uniform(0.0, 200.0))
            sigma2 = float(rng.uniform(0.2, 5.0))
            m = float(rng.uniform(1.0, 100.0))
            best, a_best = ml2_known_variance_from_scalars(p, ssr, sigma2, m)
            assert a_best >= 0.0
            assert best == pytest.approx(objective(p, ssr, sigma2, m, a_best), abs=1e-12)
            clamped += a_best == 0.0
            interior += a_best > 0.0
            for a in np.concatenate([[0.0], rng.exponential(1.0 / sigma2, 50)]):
                assert objective(p, ssr, sigma2, m, a) <= best + 1e-12 * (1.0 + abs(best))
        assert clamped and interior
        # No signal: the unit-information member, a* = 0.
        assert ml2_known_variance_from_scalars(3, 0.0, 1.0, 20.0) == (
            pytest.approx(-1.5 * math.log(21.0)), 0.0)
        # ssr below (m+1) sigma2 clamps a* to 0.
        best, a_best = ml2_known_variance_from_scalars(2, 10.0, 1.0, 20.0)
        assert a_best == 0.0
        assert best == pytest.approx(objective(2, 10.0, 1.0, 20.0, 0.0), abs=1e-14)


class TestKnownVarianceEvidence:
    # Within 1e-12 of the larger |log BF| (and of 1); the worst cell of the
    # identity grid reads about 1e-14.
    @staticmethod
    def close(got, want, scale):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, scale))

    def test_ml2_minus_bic_identity(self):
        # With chi2 = ssr / sigma2 and x = chi2 / m, ML2 - BIC is
        # -k/2 log(1 + 1/m) - x/2 + x/(2(m + 1)) while a* = 0 (chi2 <= m + 1)
        # and -(k - 1)/2 log(1 + 1/m) - (1 + log x)/2 above: a function of
        # the fit that grows with neither m nor k.
        for m, sigma2 in itertools.product((5.0, 100.0, 1e4, 1e6), (1.0, 3.0)):
            knot = (m + 1.0) / m
            x = np.concatenate([np.linspace(0.01, 3.0, 300), knot * (1 + np.array([-1e-9, 1e-9]))])
            ssr = x * m * sigma2
            chi2 = ssr / sigma2
            log1p_m = math.log1p(1.0 / m)
            gaps, scales = {}, {}
            for k in (1, 4, 20, 79):
                ml2, _ = bayesfactors.known_variance_evidence("ml2", k, ssr, sigma2, m)
                bic, _ = bayesfactors.known_variance_evidence("bic", k, ssr, sigma2, m)
                want = np.where(
                    chi2 <= m + 1.0,
                    -0.5 * k * log1p_m - x / 2 + x / (2 * (m + 1.0)),
                    -0.5 * (k - 1) * log1p_m - 0.5 * (1.0 + np.log(x)),
                )
                gaps[k], scales[k] = ml2 - bic, np.maximum(np.abs(ml2), np.abs(bic))
                self.close(gaps[k], want, scales[k])
            # The k-dependence alone: the same -log(1 + 1/m)/2 per parameter
            # on both branches.
            for k in (4, 20, 79):
                self.close(gaps[k] - gaps[1], np.full(x.shape, -0.5 * (k - 1) * log1p_m),
                           np.maximum(scales[k], scales[1]))

    @pytest.mark.parametrize("sigma2", [0.5, 1.7])
    @pytest.mark.parametrize("unit_scale", [1.0, 5.0, None])  # None: the sample size
    def test_rules_match_the_general_marginal(self, sigma2, unit_scale):
        # lb is the known-variance marginal at W = m (X'X)^{-1}, and ml2 the
        # scalar ML2 rule, on a random design with an intercept.
        rng = np.random.default_rng(37)
        for _ in range(10):
            ds = random_dataset(rng, beta_scale=1.5)
            m = float(ds.n if unit_scale is None else unit_scale)
            for size in range(1, ds.p + 1):
                s = fit_suffstats(ds, range(size))
                lb, lb_shrink = bayesfactors.known_variance_evidence("lb", size, s.ssr, sigma2, m)
                want = log_bf_known_variance(s, m * s.gram_inverse(), sigma2)
                self.close(lb, want, abs(want))
                assert lb_shrink == m / (m + 1.0)
                ml2, ml2_shrink = bayesfactors.known_variance_evidence(
                    "ml2", size, s.ssr, sigma2, m)
                want, a_best = ml2_known_variance_log_bf(s, sigma2, m)
                assert ml2 == want
                assert ml2_shrink == 1.0 - 1.0 / (m + 1.0 + a_best * s.ssr)

    def test_penalties_and_validation(self):
        sizes, ssr = np.arange(1, 6), np.linspace(0.0, 40.0, 5)
        bic, bic_shrink = bayesfactors.known_variance_evidence("bic", sizes, ssr, 2.0, 30.0)
        aic, aic_shrink = bayesfactors.known_variance_evidence("aic", sizes, ssr, 2.0, 30.0)
        np.testing.assert_allclose(bic, ssr / 4.0 - 0.5 * sizes * math.log(30.0), rtol=1e-15)
        np.testing.assert_allclose(aic - bic, 0.5 * sizes * (math.log(30.0) - 2.0), rtol=1e-14)
        assert np.all(bic_shrink == 1.0) and np.all(aic_shrink == 1.0)
        for args, match in (
            (("zs", 1, 1.0, 1.0, 5.0), "unknown known-variance rule 'zs'"),
            (("ml2", 1, 1.0, 0.0, 5.0), "sigma2"),
            (("lb", 1, 1.0, 1.0, -1.0), "unit_scale"),
        ):
            with pytest.raises(ValueError, match=match):
                bayesfactors.known_variance_evidence(*args)


class TestZellnerSiow:
    def test_null_model(self):
        assert log_bf_zs(make_stats(10, 1, 0, 0.0)) == 0.0

    def test_monotone_in_r2(self):
        vals = [log_bf_zs(make_stats(20, 1, 3, r2)) for r2 in np.linspace(0.0, 0.95, 12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monte_carlo_mixture_oracle(self):
        s = make_stats(10, 1, 2, 0.5)
        exact = log_bf_zs(s)
        rng = np.random.default_rng(30)
        g = (s.n / 2) / rng.gamma(0.5, 1.0, size=10**7)
        q, p, omr2 = 9, 2, 0.5
        lw = 0.5 * (q - p) * np.log1p(g) - 0.5 * q * np.log1p(g * omr2)
        shift = lw.max()
        w = np.exp(lw - shift)
        mc = shift + math.log(w.mean())
        se = w.std() / (w.mean() * math.sqrt(len(w)))
        assert abs(exact - mc) <= 3 * se

    def test_scipy_quad_oracle_across_instances(self):
        for n, p0, p, r2 in [(10, 1, 2, 0.5), (5, 1, 2, 0.99), (50, 1, 8, 0.8), (200, 1, 1, 0.02)]:
            s = make_stats(n, p0, p, r2)
            q = n - p0
            f = lambda g: math.exp(
                0.5 * (q - p) * math.log1p(g)
                - 0.5 * q * math.log1p(g * (1 - r2))
                + 0.5 * math.log(n / 2)
                - math.lgamma(0.5)
                - 1.5 * math.log(g)
                - n / (2 * g)
            )
            val, err = integrate.quad(f, 0, np.inf, limit=500)
            assert log_bf_zs(s) == pytest.approx(math.log(val), rel=1e-7)

    def test_saturation_marker(self):
        assert log_bf_zs(make_stats(10, 1, 2, 1.0)) == math.inf

    def test_missed_tolerance_raises_with_residual(self, monkeypatch):
        # A model whose estimate exceeds the tolerance raises, carrying the
        # estimate; there is no refinement to fall back on.
        s = make_stats(10, 1, 2, 0.5)
        estimate = _zs_trapezoid(10, 1, np.array([2.0]), -np.log([0.5]))[1][0]
        assert 0.0 < estimate <= 1e-8
        monkeypatch.setattr(bayesfactors, "_ZS_TOLERANCE", estimate / 2)
        with pytest.raises(QuadratureError) as info:
            log_bf_zs(s)
        assert math.isfinite(info.value.residual) and info.value.residual == estimate

    def test_laplace_variant_accuracy_profile(self):
        # The Gaussian expansion misses the polynomial right tail of the
        # mixture: the log-scale gap is O(1), so the relative error fades as
        # the evidence grows but tiny samples stay visibly off.
        gap_small = abs(log_bf_zs_laplace(make_stats(5, 1, 2, 0.97)) - log_bf_zs(make_stats(5, 1, 2, 0.97)))
        gap_big = abs(log_bf_zs_laplace(make_stats(100, 1, 3, 0.5)) - log_bf_zs(make_stats(100, 1, 3, 0.5)))
        assert gap_small > gap_big
        assert gap_big < 0.5
        s_huge = make_stats(2000, 1, 3, 0.5)
        assert log_bf_zs_laplace(s_huge) == pytest.approx(log_bf_zs(s_huge), rel=1e-3)

    def test_shrinkage_in_unit_interval(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            r2 = float(rng.uniform(0, 0.99))
            _, shr = zs_evidence_batch(20, 1, [3], [1.0 - r2], want_shrinkage=True)
            assert 0.0 < shr[0] < 1.0


class TestZellnerSiowKernel:
    def test_value_does_not_depend_on_batch_mates(self):
        # Each model has its own panels, so scoring it inside a table (in any
        # row order, across model blocks) gives its one-model value bit for
        # bit.  The kernel integrates models with p > 0 only: ``evidence``
        # marks the rest.
        rng = np.random.default_rng(51)
        for n, p in [(15, 4), (60, 6), (200, 9)]:
            ds = random_dataset(rng, n=n, p=p, beta_scale=2.0)
            models = [c for size in range(p + 1) for c in itertools.combinations(range(p), size)]
            table = fit_models(ds, models)
            order = rng.permutation(len(table))
            order = order[table.sizes[order] > 0]
            sizes, omr2 = table.sizes[order], table.one_minus_r2[order]
            log_bf, shrink = zs_evidence_batch(n, 1, sizes, omr2, want_shrinkage=True)
            one = np.array([zs_evidence_batch(n, 1, [k], [w], want_shrinkage=True)
                            for k, w in zip(sizes, omr2)])[:, :, 0]
            np.testing.assert_array_equal(log_bf, one[:, 0])
            np.testing.assert_array_equal(shrink, one[:, 1])

    def test_block_size_affects_speed_only(self, monkeypatch):
        # Blocks of 7 models split a figure-size table unevenly (255 = 36 * 7 + 3)
        # and give the same bits as the default block, with and without shrinkage.
        rng = np.random.default_rng(52)
        ds = random_dataset(rng, n=50, p=8, beta_scale=1.0)
        models = [c for size in range(1, 9) for c in itertools.combinations(range(8), size)]
        table = fit_models(ds, models)
        sizes, omr2 = table.sizes, table.one_minus_r2
        default = [zs_evidence_batch(50, 1, sizes, omr2),
                   *zs_evidence_batch(50, 1, sizes, omr2, want_shrinkage=True)]
        monkeypatch.setattr(bayesfactors, "_ZS_BLOCK", 7)
        small = [zs_evidence_batch(50, 1, sizes, omr2),
                 *zs_evidence_batch(50, 1, sizes, omr2, want_shrinkage=True)]
        for a, b in zip(default, small):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kernel", [zs_evidence_batch, zs_laplace_batch])
    def test_kernels_integrate_only(self, kernel):
        # The null model and exact fits are marked by ``evidence``; the
        # kernels take 1-d models with p > 0 and 1 - r2 > 0, and nothing else.
        assert np.all(np.isfinite(kernel(30, 1, [1, 3], [0.5, 1e-15])))
        assert kernel(30, 1, [], []).shape == (0,)
        for sizes, omr2 in [([0], [0.5]), ([2], [0.0]), ([2], [-0.1]), ([2], [np.nan]),
                            ([[2]], [[0.5]]), ([1, 2], [0.5])]:
            with pytest.raises(ValueError):
                kernel(30, 1, sizes, omr2)

    def test_node_layout_and_estimates(self):
        # On figure-size tables each model's nodes are t0 + j h for j from
        # -16 L to 16 R - 1; both outer nodes are exp(-45) below the mode
        # value and the panel before each was not, and every estimate meets
        # the tolerance.  The sum is T = log BF + q/2 log(1 - r2), of the
        # integrand written with r2 / (1 - r2), and the batch adds the rest.
        rng = np.random.default_rng(53)
        for n, beta_scale in [(10, 3.0), (20, 0.3), (50, 1.0), (200, 3.0), (1000, 0.3)]:
            ds = random_dataset(rng, n=n, p=8, beta_scale=beta_scale)
            models = [c for size in range(1, 9) for c in itertools.combinations(range(8), size)]
            table = fit_models(ds, models)
            sizes, omr2 = table.sizes.astype(np.float64), table.one_minus_r2
            q, ell = n - 1, -np.log(omr2)
            sums, estimate, _, t0, h, panels = _zs_trapezoid(n, 1, sizes, ell)
            np.testing.assert_array_equal(sums + 0.5 * q * ell,
                                          zs_evidence_batch(n, 1, sizes, omr2))
            assert np.all(estimate <= 1e-8)
            assert np.all((h > 0) & (h <= 0.2)) and np.all(panels >= 1)
            for i in range(sizes.size):
                ratio = table.r2[i] / omr2[i]
                f = lambda j: _zs_log_integrand(t0[i] + j * h[i], n, q, sizes[i], ratio)
                j = np.arange(-16 * panels[0, i], 16 * panels[1, i], dtype=np.float64)
                top = f(0.0)
                assert top >= f(-1.0) and top >= f(1.0)
                assert f(j[0]) <= top - 45 and f(j[-1]) <= top - 45
                assert panels[0, i] == 1 or f(j[16]) > top - 45
                assert panels[1, i] == 1 or f(j[-17]) > top - 45
                total = h[i] * np.exp(f(j) - top).sum()
                assert sums[i] == pytest.approx(top + math.log(total), rel=1e-14, abs=1e-14)


def _zs_log_f(g, n, q, p, w):
    """Log of BF(g) pi(g) for the Zellner-Siow mixture, written out in g."""
    return (0.5 * (q - p) * np.log1p(g) - 0.5 * q * np.log1p(w * g) + 0.5 * np.log(n / 2.0)
            - 0.5 * np.log(np.pi) - 1.5 * np.log(g) - n / (2.0 * g))


class TestZellnerSiowLaplace:
    def test_invariance_under_column_transformations(self):
        # The acceptance invariance protocol, for the Laplace rule.
        rng = np.random.default_rng(41)
        for _ in range(4):
            ds = random_dataset(rng, n=40, p=4, beta_scale=2.0)
            base = log_bf_zs_laplace(fit_suffstats(ds, range(4)))
            for _ in range(50):
                a = rng.standard_normal((4, 4))
                while np.linalg.cond(a) > 1e3:
                    a = rng.standard_normal((4, 4))
                tds = orthogonalize(Dataset(y=ds.y, x0=ds.x0, x=ds.x @ a))
                got = log_bf_zs_laplace(fit_suffstats(tds, range(4)))
                assert got == pytest.approx(base, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("omr2", [1e-11, 1e-12, 1e-13])
    def test_near_saturation_tracks_quadrature(self, omr2):
        # The mode moves out to g ~ 1/(1 - r2); no bound on g may stop it.
        for n, p in [(2000, 3), (200, 10)]:
            s = make_stats(n, 1, p, 1.0 - omr2)
            assert log_bf_zs_laplace(s) == pytest.approx(log_bf_zs(s), rel=1e-3)

    def test_mode_is_the_maximum_and_a_stationary_point(self):
        # One routine for both kernels: a = 3 is the mode in g of BF(g) pi(g),
        # a = 1 the mode in t = log g of the integrand times its Jacobian g.
        # n goes down to 2 (p0 = 0, p = 1), where n(1+w) - 3 can be negative.
        rng = np.random.default_rng(42)
        t_grid = np.linspace(-25.0, 45.0, 7001)
        for _ in range(3000):
            n = int(np.exp(rng.uniform(math.log(2), math.log(3000))))
            p0 = int(rng.integers(0, min(3, n - 2) + 1))
            q = n - p0
            p = int(rng.integers(1, q))
            w = 10.0 ** rng.uniform(-13.5, 0.0)
            for a in (1, 3):
                def log_f(g):
                    return _zs_log_f(g, n, q, p, w) + 0.5 * (3 - a) * np.log(g)

                g0 = float(_zs_mode(n, p0, np.array([float(p)]), np.array([w]), a)[0])
                top = log_f(g0)
                grid = log_f(np.exp(np.concatenate([t_grid, math.log(g0) + t_grid * 1e-4]))).max()
                res = minimize_scalar(lambda t: -log_f(math.exp(t)),
                                      bounds=(t_grid[0], t_grid[-1]), method="bounded",
                                      options={"xatol": 1e-12})
                # Rounding in f itself is about 1e-16 of its largest term.
                tol = 1e-12 * max(1.0, 0.5 * q * math.log1p(g0))
                assert top >= max(grid, -res.fun) - tol, (n, p0, p, w, a)
                terms = np.array([0.5 * (q - p) / (1 + g0), -0.5 * q * w / (1 + w * g0),
                                  -0.5 * a / g0, n / (2 * g0**2)])
                assert abs(terms.sum()) <= 1e-10 * np.abs(terms).sum(), (n, p0, p, w, a)


class TestPriorMethod:
    def test_parse_aliases(self):
        assert PriorMethod.parse("ml").kind == "ml2"
        assert PriorMethod.parse("BICPRIOR").kind == "bicprior"
        assert PriorMethod.parse("ghat").kind == "ghat"

    def test_validation(self):
        with pytest.raises(ValueError):
            PriorMethod(kind="nope")
        with pytest.raises(ValueError):
            PriorMethod(kind="lb", g=-1.0)


class TestPropositionOrdering:
    def test_nested_chain_quick(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            ds = random_dataset(rng)
            small_size = int(rng.integers(0, ds.p))
            small = tuple(sorted(rng.choice(ds.p, small_size, replace=False).tolist()))
            extra = [j for j in range(ds.p) if j not in small]
            big = tuple(sorted(set(small) | {extra[0]}))
            s_small, s_big = fit_suffstats(ds, small), fit_suffstats(ds, big)
            bic = log_bf_bic(s_big) - log_bf_bic(s_small)
            ml2 = log_bf_ml2(s_big) - log_bf_ml2(s_small)
            lb = log_bf_gprior(s_big, float(ds.n)) - (
                log_bf_gprior(s_small, float(ds.n)) if s_small.p else 0.0
            )
            assert bic >= ml2 - 1e-10
            assert ml2 >= lb - 1e-10
