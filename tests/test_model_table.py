"""Batched fit (``fit_models``) and evidence kernel (``evidence``) against the
scalar oracles ``fit_suffstats`` and ``log_bf_*``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ml2bf.bayesfactors import (
    R2_SATURATION,
    PriorMethod,
    evidence,
    log_bf_aic,
    log_bf_bic,
    log_bf_bic_prior,
    log_bf_gprior,
    log_bf_local_eb,
    log_bf_ml2,
    log_bf_zs,
    log_bf_zs_laplace,
    zs_posterior_shrinkage,
)
from ml2bf.estimation import shrinkage_factor_ml2
from ml2bf.modelspace import (
    ModelSpace,
    inclusion_probs,
    mpm,
    posterior_from_evidence,
)
from ml2bf.regression import (
    CorrelationSpec,
    Dataset,
    ModelTable,
    SuffStats,
    fit_models,
    fit_suffstats,
    make_correlated_design,
    orthogonalize,
)

# Deterministic example sequences: the suite gives the same verdict every run.
_SETTINGS = dict(derandomize=True, deadline=None)


@st.composite
def datasets(draw, max_p=6):
    """Orthogonalized AR(1) datasets, from the minimal n = p0 + p + 1 up.

    ``signal`` picks a noisy response, a noiseless one (r2 -> 1 for every
    model containing the true support) or a constant one (no signal at all,
    the ssr-zero threshold).
    """
    p = draw(st.integers(1, max_p))
    n = draw(st.one_of(st.just(p + 2), st.integers(p + 2, 60)))
    rho = draw(st.one_of(st.sampled_from([0.0, 0.9, 0.99, -0.99]),
                         st.floats(-0.99, 0.99)))
    signal = draw(st.sampled_from(["noisy", "noisy", "noiseless", "constant"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = make_correlated_design(n, p, CorrelationSpec.ar1(rho), rng)
    beta = rng.normal(0.0, draw(st.sampled_from([0.1, 1.0, 5.0])), p)
    beta[rng.random(p) < 0.4] = 0.0
    if signal == "constant":
        y = np.full(n, 2.5)
    else:
        y = 2.5 + x @ beta + (rng.standard_normal(n) if signal == "noisy" else 0.0)
    return orthogonalize(Dataset.with_intercept(y, x))


def _all_subsets(p):
    return ModelSpace.all_subsets(p).models()


class TestFitModels:
    @settings(max_examples=120, **_SETTINGS)
    @given(datasets())
    def test_matches_fit_suffstats_model_by_model(self, ds):
        models = _all_subsets(ds.p)
        table = fit_models(ds, models)
        tss = fit_suffstats(ds, ()).sse
        assert table.models == tuple(models)
        np.testing.assert_array_equal(table.sizes, [len(m) for m in models])
        for i, model in enumerate(models):
            s = fit_suffstats(ds, model)
            cols = list(model)
            assert abs(table.sse[i] - s.sse) <= 1e-12 * tss
            assert abs(table.ssr[i] - s.ssr) <= 1e-12 * tss
            # Coefficients compared through the fitted values they imply.
            gap = ds.x[:, cols] @ (table.beta[i, cols] - s.beta_hat)
            assert gap @ gap <= 1e-24 * max(tss, 1e-300) + 1e-300
            assert not np.any(table.beta[i, ~table.mask[i]])
            np.testing.assert_array_equal(np.flatnonzero(table.mask[i]), cols)
            assert table.r2[i] == (table.ssr[i] / (table.sse[i] + table.ssr[i])
                                   if table.ssr[i] > 0 else 0.0)
            assert (table.ssr[i] == 0.0) == (s.ssr == 0.0)
            on_request = table.suffstats(i)
            np.testing.assert_allclose(on_request.gram_chol, s.gram_chol,
                                       rtol=0, atol=1e-12 * max(1.0, np.abs(s.gram_chol).max(initial=0)))
            assert on_request.p == s.p and on_request.n == s.n and on_request.p0 == s.p0

    def test_empty_and_unordered_model_lists(self):
        rng = np.random.default_rng(0)
        ds = orthogonalize(Dataset.with_intercept(rng.standard_normal(12),
                                                  rng.standard_normal((12, 3))))
        empty = fit_models(ds, [])
        assert len(empty) == 0 and empty.beta.shape == (0, 3)
        table = fit_models(ds, [[2, 0], (), range(3)])
        assert table.models == ((0, 2), (), (0, 1, 2))
        assert table.sse[1] == pytest.approx(fit_suffstats(ds, ()).sse, rel=1e-15)
        assert table.ssr[1] == 0.0 and table.r2[1] == 0.0 and table.one_minus_r2[1] == 1.0

    @pytest.mark.parametrize("case", ["rank_deficient", "too_small", "not_orthogonalized",
                                      "repeated", "out_of_range"])
    def test_errors_match_fit_suffstats(self, case):
        rng = np.random.default_rng(1)
        n, p = 10, 4
        x = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        models = _all_subsets(p)
        if case == "rank_deficient":
            x[:, 3] = x[:, 1]
            ds = orthogonalize(Dataset.with_intercept(y, x))
        elif case == "too_small":
            ds = orthogonalize(Dataset.with_intercept(y[:5], x[:5]))
        elif case == "not_orthogonalized":
            ds = Dataset.with_intercept(y, x + 5.0)
            models = [(), (1,), (0, 2)]
        else:
            ds = orthogonalize(Dataset.with_intercept(y, x))
            models = [(0,), (1, 1)] if case == "repeated" else [(0,), (4,)]
        first = None
        for i, model in enumerate(models):
            try:
                fit_suffstats(ds, model)
            except ValueError as exc:
                first = (i, model, str(exc))
                break
        assert first is not None
        i, model, message = first
        with pytest.raises(ValueError) as info:
            fit_models(ds, models)
        if case in ("repeated", "out_of_range"):
            assert str(info.value) == message
        else:
            assert str(info.value) == f"model {i} (columns {tuple(model)}): {message}"


def _table(n, p0, sizes, sse, ssr):
    """A table with given scalars; the evidence kernel reads nothing else."""
    sizes = np.asarray(sizes, dtype=np.intp)
    p = int(sizes.max(initial=0))
    models = tuple(tuple(range(k)) for k in sizes)
    ds = Dataset(y=np.zeros(n), x0=np.ones((n, p0)) if p0 else None, x=np.zeros((n, p)))
    mask = np.zeros((len(models), p), dtype=bool)
    for i, k in enumerate(sizes):
        mask[i, :k] = True
    return ModelTable(dataset=ds, models=models, sizes=sizes, sse=np.asarray(sse, float),
                      ssr=np.asarray(ssr, float), beta=np.zeros((len(models), p)), mask=mask)


def _stats(table, i):
    k = int(table.sizes[i])
    sse, ssr = float(table.sse[i]), float(table.ssr[i])
    return SuffStats(n=table.n, p0=table.p0, p=k, beta_hat=np.zeros(k), sse=sse, ssr=ssr,
                     r2=ssr / (sse + ssr) if ssr > 0 else 0.0, gram_chol=np.eye(k))


_RULES = {
    "ml2": log_bf_ml2,
    "lb": lambda s: log_bf_gprior(s, float(s.n)) if s.p else 0.0,
    "bic": log_bf_bic,
    "bicprior": log_bf_bic_prior,
    "aic": log_bf_aic,
    "ghat": lambda s: log_bf_local_eb(s)[0],
}


def _scalar_shrinkage(method, s):
    if s.p == 0 or method in ("bic", "bicprior", "aic"):
        return 1.0
    if method == "ml2":
        return shrinkage_factor_ml2(s)
    if method == "lb":
        return s.n / (s.n + 1.0)
    if method == "zs":
        value = zs_posterior_shrinkage(s)
        return 1.0 if math.isnan(value) else value
    g_hat = log_bf_local_eb(s)[1]
    return g_hat / (1.0 + g_hat) if math.isfinite(g_hat) else 1.0


def _agree(got, want, tol):
    if math.isinf(want):
        return got == want
    return abs(got - want) <= tol * max(1.0, abs(want))


@st.composite
def r2_values(draw, n, p0, k):
    """r2 in every regime: zero, the ML2 knot, the ghat clamp, saturation."""
    knot = (n + 1) / (2 * n - p0)
    clamp = k / (n - p0)  # ghat is clamped at 0 for r2 <= p/(n - p0)
    special = st.sampled_from([
        0.0, knot, math.nextafter(knot, 0.0), math.nextafter(knot, 1.0),
        min(clamp, 1.0), min(clamp * (1 + 1e-12), 1.0), 1.0 - 1e-13, R2_SATURATION,
        1.0 - 1e-15, 1.0,
    ])
    return draw(st.one_of(special, st.floats(0.0, 1.0)))


@st.composite
def scalar_tables(draw):
    p0 = draw(st.integers(0, 2))
    n = draw(st.integers(p0 + 2, 80))
    m = draw(st.integers(1, 12))
    sizes = [draw(st.integers(0, n - p0 - 1)) for _ in range(m)]
    total = draw(st.sampled_from([1.0, 1e-6, 37.5, 1e8]))
    r2 = [draw(r2_values(n, p0, max(k, 1))) if k else 0.0 for k in sizes]
    ssr = [r * total for r in r2]
    sse = [(1.0 - r) * total for r in r2]
    return _table(n, p0, sizes, sse, ssr)


class TestEvidence:
    @settings(max_examples=300, **_SETTINGS)
    @given(scalar_tables(), st.sampled_from(sorted(_RULES)))
    def test_closed_forms_match_scalar_rules(self, table, method):
        log_ev, shrink = evidence(method, table, want_shrinkage=True)
        assert np.array_equal(log_ev, evidence(method, table))
        for i in range(len(table)):
            s = _stats(table, i)
            assert _agree(log_ev[i], _RULES[method](s), 1e-12), (i, s)
            assert _agree(shrink[i], _scalar_shrinkage(method, s), 1e-12), (i, s)

    @settings(max_examples=40, **_SETTINGS)
    @given(scalar_tables())
    def test_zellner_siow_matches_scalar_rules(self, table):
        exact, shrink = evidence("zs", table, want_shrinkage=True)
        laplace, shrink_l = evidence("zs", table, want_shrinkage=True, zs_rule="laplace")
        np.testing.assert_array_equal(shrink, shrink_l)
        np.testing.assert_array_equal(laplace, evidence("zs", table, zs_rule="laplace"))
        for i in range(len(table)):
            s = _stats(table, i)
            assert _agree(exact[i], log_bf_zs(s), 1e-7), (i, s)
            assert laplace[i] == log_bf_zs_laplace(s), (i, s)
            assert _agree(shrink[i], _scalar_shrinkage("zs", s), 1e-7), (i, s)

    def test_regimes_fire(self):
        # One table that crosses the ML2 knot, clamps ghat and saturates.
        n, p0 = 20, 1
        knot = (n + 1) / (2 * n - p0)
        r2 = np.array([0.0, 0.05, knot, 0.9, 1.0 - 1e-15, 1.0])
        table = _table(n, p0, [0, 2, 2, 2, 2, 2], 1.0 - r2, r2)
        ml2, ml2_shrink = evidence("ml2", table, want_shrinkage=True)
        lb = evidence(PriorMethod.lb(), table)
        assert ml2[2] == lb[2] and ml2[3] > lb[3]
        assert ml2_shrink[3] > n / (n + 1.0)
        ghat, ghat_shrink = evidence("ghat", table, want_shrinkage=True)
        assert ghat[1] == 0.0 and ghat_shrink[1] == 0.0
        for method in (*_RULES, "zs"):
            values = evidence(method, table)
            assert values[0] == 0.0
            assert np.all(np.isposinf(values[4:])), method
            assert np.all(np.isfinite(values[:4])), method

    def test_fixed_g(self):
        table = _table(30, 1, [1, 3], [0.6, 0.2], [0.4, 0.8])
        log_ev, shrink = evidence(PriorMethod.lb(g=7.0), table, want_shrinkage=True)
        for i in range(2):
            assert log_ev[i] == pytest.approx(log_bf_gprior(_stats(table, i), 7.0), rel=1e-13)
        np.testing.assert_array_equal(shrink, 7.0 / 8.0)

    def test_scope_check(self):
        table = _table(5, 1, [0, 4], [1.0, 0.5], [0.0, 0.5])
        for method in (*_RULES, "zs"):
            with pytest.raises(ValueError, match=r"model 1: insufficient sample size"):
                evidence(method, table)
        with pytest.raises(ValueError, match="zs_rule"):
            evidence("zs", _table(5, 1, [0], [1.0], [0.0]), zs_rule="bogus")

    @pytest.mark.parametrize("rule", [log_bf_bic, log_bf_bic_prior, log_bf_aic])
    def test_bic_family_scope(self, rule):
        stats = _stats(_table(5, 1, [4], [0.5], [0.5]), 0)
        with pytest.raises(ValueError, match="insufficient sample size"):
            rule(stats)


class TestSummariesOverMask:
    @settings(max_examples=60, **_SETTINGS)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_inclusion_and_mpm_match_enumeration(self, p, seed):
        rng = np.random.default_rng(seed)
        space = ModelSpace.all_subsets(p)
        models = space.models()
        log_ev = rng.normal(0.0, 3.0, len(models))
        post = posterior_from_evidence(models, log_ev, space)
        by_hand = np.zeros(p)
        for model, prob in zip(models, post.posterior_prob):
            for j in model:
                by_hand[j] += prob
        mask = fit_models(_any_dataset(p), models).mask
        np.testing.assert_allclose(inclusion_probs(post), by_hand, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(inclusion_probs(post, mask), inclusion_probs(post))
        assert mpm(post, mask) == tuple(int(j) for j in np.flatnonzero(by_hand >= 0.5))


def _any_dataset(p):
    rng = np.random.default_rng(p)
    return orthogonalize(Dataset.with_intercept(rng.standard_normal(p + 3),
                                                rng.standard_normal((p + 3, p))))
