"""Closed-form evidence: worked values, oracles, and structural properties."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import minimize_scalar

from ml2bf.bayesfactors import (
    PriorMethod,
    QuadratureConfig,
    QuadratureError,
    _GAUSS_W,
    _KRONROD_W,
    _KRONROD_X,
    _zs_kronrod,
    _zs_log_integrand,
    _zs_mode,
    _zs_window,
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

    def test_budget_exhaustion_raises_with_residual(self):
        s = make_stats(10, 1, 2, 0.5)
        cfg = QuadratureConfig(node_count=32, relative_tolerance=1e-15)
        with pytest.raises(QuadratureError) as info:
            log_bf_zs(s, cfg)
        assert info.value.residual > 0

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


class TestZellnerSiowKronrod:
    def test_qk21_constants(self):
        # The Kronrod rule integrates polynomials of degree 31 exactly and
        # its odd nodes carry the 10-point Gauss-Legendre rule.
        z, wz = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose(_KRONROD_X[1::2], z, rtol=0, atol=1e-15)
        np.testing.assert_allclose(_GAUSS_W, wz, rtol=0, atol=1e-15)
        for k in range(32):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert _KRONROD_W @ _KRONROD_X**k == pytest.approx(exact, abs=1e-15)

    def test_value_does_not_depend_on_batch_mates(self):
        # Each model has its own panels, so scoring it inside a table (in any
        # row order, across model blocks) gives its one-model value.  The
        # kernel integrates models with p > 0 only: ``evidence`` marks the rest.
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
            np.testing.assert_array_max_ulp(log_bf, one[:, 0], maxulp=4)
            np.testing.assert_array_max_ulp(shrink, one[:, 1], maxulp=4)

    def test_forced_refinement_matches_quad(self):
        # A tolerance just below the median first-pass estimate makes about
        # half the models halve their panels; those must still match an
        # adaptive scipy quadrature and the others must not move.
        rng = np.random.default_rng(52)
        n, p0 = 3000, 1
        q = n - p0
        sizes = rng.integers(1, 21, size=40).astype(np.float64)
        omr2 = np.exp(rng.uniform(math.log(1e-3), 0.0, size=40))
        shift, t_lo, split, t_end = _zs_window(n, q, sizes, omr2)
        level = np.zeros(sizes.size, dtype=np.intp)
        _, first, _ = _zs_kronrod(n, q, sizes, omr2, shift, t_lo, split, t_end, level, False)
        tol = float(np.median(first)) * (1.0 - 1e-9)
        refined = first > tol
        assert 10 <= refined.sum() <= 30

        base = zs_evidence_batch(n, p0, sizes, omr2, want_shrinkage=True)
        got = zs_evidence_batch(n, p0, sizes, omr2, QuadratureConfig(relative_tolerance=tol),
                                want_shrinkage=True)
        for b, r in zip(base, got):
            np.testing.assert_array_equal(r[~refined], b[~refined])
        for i in np.flatnonzero(refined):
            def f(t):
                return math.exp(_zs_log_integrand(t, n, q, sizes[i], omr2[i]) - shift[i])

            grid = np.linspace(t_lo[i], t_end[i], 2001)
            mode = float(grid[np.argmax([f(t) for t in grid])])
            kw = dict(points=[mode], epsabs=0.0, epsrel=1e-13, limit=1000)
            val, _ = integrate.quad(f, mode - 60.0, mode + 100.0, **kw)
            wval, _ = integrate.quad(lambda t: f(t) / (1.0 + math.exp(-t)),
                                     mode - 60.0, mode + 100.0, **kw)
            ref = shift[i] + math.log(val)
            assert abs(got[0][i] - ref) <= 1e-12 * max(1.0, abs(ref)), i
            assert got[1][i] == pytest.approx(wval / val, rel=1e-12), i

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

    def test_lattice_layout_and_first_pass(self):
        # Edges sit on the integer lattice of log g, the split is the first
        # multiple of 4 after the lattice peak, and on figure-size tables the
        # first pass already meets the default tolerance, so that refining
        # stays rare.
        rng = np.random.default_rng(53)
        estimates = []
        for n, beta_scale in [(10, 3.0), (20, 0.3), (50, 1.0), (200, 3.0), (1000, 0.3)]:
            ds = random_dataset(rng, n=n, p=8, beta_scale=beta_scale)
            models = [c for size in range(1, 9) for c in itertools.combinations(range(8), size)]
            table = fit_models(ds, models)
            sizes, omr2 = table.sizes.astype(np.float64), table.one_minus_r2
            q = n - 1
            shift, t_lo, split, t_end = _zs_window(n, q, sizes, omr2)
            lattice = np.arange(-32.0, 81.0)
            psi = _zs_log_integrand(lattice, n, q, sizes[:, None], omr2[:, None])
            peak = lattice[psi.argmax(axis=1)]
            np.testing.assert_array_equal(shift, psi.max(axis=1))
            np.testing.assert_array_equal(t_lo, np.round(t_lo))
            np.testing.assert_array_equal(split, 4 * np.floor(peak / 4) + 4)
            assert np.all(t_lo < peak) and np.all(split <= t_end) and np.all(t_end % 4 == 0)
            level = np.zeros(sizes.size, dtype=np.intp)
            _, first, _ = _zs_kronrod(n, q, sizes, omr2, shift, t_lo, split, t_end, level, False)
            estimates.append(first)
        assert np.mean(np.concatenate(estimates) > QuadratureConfig().relative_tolerance) < 0.01

    def test_budget_exhaustion_reports_last_estimate(self):
        s = make_stats(10, 1, 2, 0.5)
        for cfg in [QuadratureConfig(node_count=32, relative_tolerance=1e-15),
                    QuadratureConfig(relative_tolerance=1e-15)]:
            with pytest.raises(QuadratureError) as info:
                log_bf_zs(s, cfg)
            # Estimates are floored at 50 machine epsilons, as in QUADPACK.
            assert 50 * np.finfo(float).eps <= info.value.residual < 1e-13


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
        rng = np.random.default_rng(42)
        t_grid = np.linspace(-25.0, 45.0, 7001)
        for _ in range(3000):
            n = int(np.exp(rng.uniform(math.log(3), math.log(3000))))
            p0 = int(rng.integers(0, min(3, n - 2) + 1))
            q = n - p0
            p = int(rng.integers(1, q))
            w = 10.0 ** rng.uniform(-13.5, 0.0)
            g0 = float(_zs_mode(n, p0, np.array([float(p)]), np.array([w]))[0])
            top = _zs_log_f(g0, n, q, p, w)
            grid = _zs_log_f(np.exp(np.concatenate([t_grid, math.log(g0) + t_grid * 1e-4])),
                             n, q, p, w).max()
            res = minimize_scalar(lambda t: -_zs_log_f(math.exp(t), n, q, p, w),
                                  bounds=(t_grid[0], t_grid[-1]), method="bounded",
                                  options={"xatol": 1e-12})
            # Rounding in f itself is about 1e-16 of its largest term.
            tol = 1e-12 * max(1.0, 0.5 * q * math.log1p(g0))
            assert top >= max(grid, -res.fun) - tol, (n, p0, p, w)
            terms = np.array([0.5 * (q - p) / (1 + g0), -0.5 * q * w / (1 + w * g0),
                              -1.5 / g0, n / (2 * g0**2)])
            assert abs(terms.sum()) <= 1e-10 * np.abs(terms).sum(), (n, p0, p, w)


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
        with pytest.raises(ValueError):
            QuadratureConfig(node_count=8)
        with pytest.raises(ValueError):
            QuadratureConfig(relative_tolerance=0.0)


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
