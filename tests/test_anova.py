"""Grouped-means evidence, consistency thresholds, and simulation."""

import math
import warnings

import numpy as np
import pytest

from ml2bf import anova
from ml2bf.anova import (
    AnovaStats,
    AnovaTruth,
    anova_log_bf_bic,
    anova_log_bf_fixed_normal,
    anova_log_bf_ml2,
    consistency_threshold,
    simulate_consistency,
)
from ml2bf.bayesfactors import ml2_known_variance_log_bf
from ml2bf.regression import Dataset, fit_suffstats


class TestClosedForms:
    def test_zero_means(self):
        s = AnovaStats(p=7, r=4, mu_hat_norm2=0.0)
        expected = -3.5 * math.log(5)
        assert anova_log_bf_ml2(s) == pytest.approx(expected)
        assert anova_log_bf_fixed_normal(s) == pytest.approx(expected)
        assert anova_log_bf_bic(s) == pytest.approx(-3.5 * math.log(4))

    @pytest.mark.parametrize("p,r,norm2", [(1, 1, 2.5), (5, 2, 3.0), (200, 10, 1e6)])
    def test_upper_branch_closed_form(self, p, r, norm2):
        # Above the knot the fitted prior gives
        # -log(r ||mu_hat||^2 / (r + 1))/2 - (p/2) log(r + 1) + (r ||mu_hat||^2 - 1)/2.
        expected = (-0.5 * math.log(r * norm2 / (r + 1.0)) - 0.5 * p * math.log(r + 1.0)
                    + (r * norm2 - 1.0) / 2.0)
        got = anova_log_bf_ml2(AnovaStats(p=p, r=r, mu_hat_norm2=norm2))
        assert got == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("p,r", [(1, 1), (5, 2), (10, 3), (50, 5), (200, 10)])
    def test_branch_continuity_at_knot(self, p, r):
        knot = 1.0 + 1.0 / r
        expected = -0.5 * p * math.log(r + 1) + r / 2.0
        below = anova_log_bf_ml2(AnovaStats(p=p, r=r, mu_hat_norm2=knot * (1 - 1e-12)))
        at = anova_log_bf_ml2(AnovaStats(p=p, r=r, mu_hat_norm2=knot))
        above = anova_log_bf_ml2(AnovaStats(p=p, r=r, mu_hat_norm2=knot * (1 + 1e-12)))
        assert at == pytest.approx(expected, abs=1e-9)
        assert below == pytest.approx(above, abs=1e-9)

    def test_ml2_dominates_fixed_normal(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = int(rng.integers(1, 40))
            r = int(rng.integers(1, 10))
            norm2 = float(rng.exponential(2.0) * p)
            s = AnovaStats(p=p, r=r, mu_hat_norm2=norm2)
            assert anova_log_bf_ml2(s) >= anova_log_bf_fixed_normal(s) - 1e-12

    def test_fixed_normal_equals_ml2_in_lower_branch(self):
        s = AnovaStats(p=6, r=3, mu_hat_norm2=0.9)
        assert anova_log_bf_ml2(s) == pytest.approx(anova_log_bf_fixed_normal(s))

    def test_bic_likelihood_difference_oracle(self):
        # Direct evaluation of the unit-variance log likelihood on data.
        rng = np.random.default_rng(1)
        p, r = 12, 4
        mu = rng.normal(0, 0.7, p)
        y = mu[:, None] + rng.standard_normal((p, r))
        mu_hat = y.mean(axis=1)

        def loglik(m):
            resid = y - m[:, None]
            return -0.5 * y.size * math.log(2 * math.pi) - 0.5 * float((resid**2).sum())

        direct = (loglik(mu_hat) - 0.5 * p * math.log(r)) - loglik(np.zeros(p))
        s = AnovaStats(p=p, r=r, mu_hat_norm2=float(mu_hat @ mu_hat))
        assert anova_log_bf_bic(s) == pytest.approx(direct, abs=1e-10)

    def test_bic_r1_has_no_penalty(self):
        s = AnovaStats(p=9, r=1, mu_hat_norm2=2.0)
        assert anova_log_bf_bic(s) == pytest.approx(1.0)  # r*norm2/2 - 0

    def test_fixed_normal_monte_carlo_oracle(self):
        # Marginal of mu_hat under prior N(0, I) vs the closed form, by MC.
        rng = np.random.default_rng(2)
        p, r = 3, 5
        mu_hat = rng.normal(0, 0.8, p)
        s = AnovaStats(p=p, r=r, mu_hat_norm2=float(mu_hat @ mu_hat))
        exact = anova_log_bf_fixed_normal(s)
        draws = rng.standard_normal((10**7, p))
        quad = ((mu_hat[None, :] - draws) ** 2).sum(axis=1) * (r / 2.0)
        base = (mu_hat @ mu_hat) * (r / 2.0)
        w = np.exp(base - quad)
        mc = math.log(w.mean())
        se = w.std() / (w.mean() * math.sqrt(len(w)))
        assert abs(exact - mc) <= 3 * se

    def test_cross_module_equivalence_with_block_design(self):
        # The general known-variance machinery on the block design, with the
        # per-group unit-information bound, must give the closed form.
        rng = np.random.default_rng(7)
        p, r = 50, 5
        mu = rng.normal(0, 0.6, p)
        y = (mu[:, None] + rng.standard_normal((p, r))).ravel()
        x = np.kron(np.eye(p), np.ones((r, 1)))
        ds = Dataset(y=y, x0=None, x=x)
        stats = fit_suffstats(ds, range(p))
        general, _ = ml2_known_variance_log_bf(stats, 1.0, unit_scale=r)
        mu_hat = y.reshape(p, r).mean(axis=1)
        direct = anova_log_bf_ml2(AnovaStats(p=p, r=r, mu_hat_norm2=float(mu_hat @ mu_hat)))
        assert general == pytest.approx(direct, abs=1e-9)


class TestThresholds:
    def test_quoted_facts(self):
        # Quarter-strength signal: the fixed normal prior needs r >= 5.
        for r in range(1, 5):
            assert consistency_threshold("fixed_normal", r) >= 0.25
        for r in range(5, 200):
            assert consistency_threshold("fixed_normal", r) < 0.25
        # All-r sufficiency bounds.
        worst_normal = max(consistency_threshold("fixed_normal", r) for r in range(1, 10**4))
        assert worst_normal == pytest.approx(2 * math.log(2) - 1, abs=1e-12)
        grid = np.arange(1, 10**5)
        bic_vals = (np.log(grid) - 1) / grid
        assert bic_vals.max() < 1 / math.e**2
        # The continuous worst case sits at r = e^2.
        assert (math.log(math.e**2) - 1) / math.e**2 == pytest.approx(1 / math.e**2)

    def test_clamping(self):
        assert consistency_threshold("bic", 2) == 0.0
        assert consistency_threshold("ml2", 1) == 0.0
        assert consistency_threshold("fixed_normal", 1) == pytest.approx(2 * math.log(2) - 1)

    def test_region_ordering(self):
        # Inconsistency regions nest: bic within ml2 within fixed normal.
        for r in range(1, 101):
            t_bic = consistency_threshold("bic", r)
            t_ml2 = consistency_threshold("ml2", r)
            t_norm = consistency_threshold("fixed_normal", r)
            assert t_bic <= t_ml2 + 1e-15
            assert t_ml2 <= t_norm + 1e-15

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            consistency_threshold("nope", 3)


class TestSimulation:
    def test_null_truth_ml2_consistent(self):
        rows = simulate_consistency(
            AnovaTruth(0.0), r=3, p_grid=[2000], replicates=50, seed=11, methods=("ml2",)
        )
        assert rows[0]["avg_prob_true"] > 0.99

    def test_signal_inside_consistency_region(self):
        tau2 = 1.3 * consistency_threshold("ml2", 3)
        rows = simulate_consistency(
            AnovaTruth(tau2), r=3, p_grid=[4000], replicates=40, seed=12, methods=("ml2",)
        )
        assert rows[0]["avg_prob_true"] > 0.95

    def test_rows_schema_and_determinism(self):
        rows1 = simulate_consistency(AnovaTruth(0.2), 4, [50, 100], 20, seed=5)
        rows2 = simulate_consistency(AnovaTruth(0.2), 4, [50, 100], 20, seed=5)
        assert rows1 == rows2
        assert {r["method"] for r in rows1} == {"ml2", "fixed_normal", "bic"}
        for row in rows1:
            assert 0.0 <= row["avg_prob_true"] <= 1.0
            assert row["se"] >= 0.0

    def test_overwhelming_evidence_gives_exact_probabilities(self):
        # p = 2000 groups of r = 10: ||mu_hat||^2 is about 200 under the null
        # and 2200 at tau2 = 1, a few tens either way, so every rule's log
        # Bayes factor lies beyond -750 or +750 and its weight underflows.
        p, r = 2000, 10
        for log_bf in (anova_log_bf_ml2, anova_log_bf_fixed_normal, anova_log_bf_bic):
            assert log_bf(AnovaStats(p=p, r=r, mu_hat_norm2=300.0)) < -750
            assert log_bf(AnovaStats(p=p, r=r, mu_hat_norm2=1900.0)) > 750
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            for tau2, want in ((0.0, 1.0), (1.0, 1.0), (1e-12, 0.0)):
                rows = simulate_consistency(AnovaTruth(tau2), r, [p], 5, seed=3)
                for row in rows:
                    assert row["avg_prob_true"] == want and row["se"] == 0.0

    def test_unknown_method_fails_before_any_replicate(self, monkeypatch):
        def no_replicates(*args):
            raise AssertionError("replicates ran")

        monkeypatch.setattr(anova, "run_replicates", no_replicates)
        with pytest.raises(ValueError, match="unknown method 'lb'"):
            simulate_consistency(AnovaTruth(0.2), 4, [50], 20, seed=5, methods=("ml2", "lb"))

    def test_truth_generator_exact_norm(self):
        truth = AnovaTruth(0.37)
        for p in (1, 2, 7, 100):
            mu = truth.mu(p)
            assert mu @ mu == pytest.approx(0.37 * p, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnovaStats(p=0, r=1, mu_hat_norm2=0.0)
        with pytest.raises(ValueError):
            AnovaStats(p=1, r=1, mu_hat_norm2=-1.0)
        with pytest.raises(ValueError):
            AnovaTruth(-0.1)
