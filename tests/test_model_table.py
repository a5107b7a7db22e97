"""Batched fit (``fit_models``) and evidence kernel (``evidence``) against the
scalar oracles ``fit_suffstats`` and ``log_bf_*``, and stacked replicates
against one dataset at a time."""

import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ml2bf import bayesfactors
from ml2bf.bayesfactors import (
    R2_SATURATION,
    ZS_RULES,
    PriorMethod,
    _one_minus_r2,
    evidence,
    log_bf_aic,
    log_bf_bic,
    log_bf_bic_prior,
    log_bf_gprior,
    log_bf_local_eb,
    log_bf_ml2,
    log_bf_zs,
    log_bf_zs_laplace,
    shrinkage_factor_ml2,
    zs_evidence_batch,
)
from ml2bf.modelspace import (
    ModelPosterior,
    ModelSpace,
    entropy,
    hpm,
    inclusion_probs,
    mpm,
    posterior_from_evidence,
)
from ml2bf.regression import (
    CorrelationSpec,
    Dataset,
    ModelTable,
    SuffStats,
    correlated_design_from_raw,
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
    return ModelSpace.all_subsets(p).models


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

    @pytest.mark.parametrize("case", ["rank_deficient", "too_small", "repeated",
                                      "out_of_range"])
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
        else:
            ds = orthogonalize(Dataset.with_intercept(y, x))
            models = [(0,), (1, 1)] if case == "repeated" else [(0,), (4,)]
        first = None
        for i, model in enumerate(models):
            try:
                fit_suffstats(ds, model)
            except ValueError as exc:
                first = (i, model, str(exc), type(exc))
                break
        assert first is not None
        i, model, message, error = first
        with pytest.raises(ValueError) as info:
            fit_models(ds, models)
        assert type(info.value) is error
        if case in ("repeated", "out_of_range"):
            assert str(info.value) == message
        else:
            assert str(info.value) == f"model {i} (columns {tuple(model)}): {message}"

    def test_raw_dataset_fits_like_orthogonalized(self):
        # Both fit routines project the common predictors out themselves,
        # and the table keeps the raw dataset.
        rng = np.random.default_rng(1)
        n, p = 10, 4
        x0 = np.column_stack([np.ones(n), rng.standard_normal(n)])
        x = rng.standard_normal((n, p)) + 5.0 + 3.0 * x0[:, 1:]
        raw = Dataset(y=rng.standard_normal(n) + 2.0, x0=x0, x=x)
        ds = orthogonalize(raw)
        models = _all_subsets(p)
        table = fit_models(raw, models)
        assert table.dataset is raw
        tss = fit_suffstats(ds, ()).sse
        for i, model in enumerate(models):
            s = fit_suffstats(ds, model)
            cols = list(model)
            assert abs(table.sse[i] - s.sse) <= 1e-12 * tss
            assert abs(table.ssr[i] - s.ssr) <= 1e-12 * tss
            gap = ds.x[:, cols] @ (table.beta[i, cols] - s.beta_hat)
            assert gap @ gap <= 1e-24 * tss
            s_raw = fit_suffstats(table.dataset, model)
            assert abs(s_raw.sse - s.sse) <= 1e-12 * tss
            assert abs(s_raw.ssr - s.ssr) <= 1e-12 * tss
            gap = ds.x[:, cols] @ (s_raw.beta_hat - s.beta_hat)
            assert gap @ gap <= 1e-24 * tss
            np.testing.assert_allclose(s_raw.gram_chol, s.gram_chol, rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(s.gram_chol).max(initial=0)))


def _paired_dataset(n, p, cond, load, seed=0):
    """Intercept plus p centered columns, the first two unit columns a and
    cos(t) a + sin(t) b at condition number ``cond`` = cot(t/2), the others
    orthogonal to b, all scaled by sqrt(n).  b is the near-singular
    direction of every model holding the pair, and the response loads on it
    ``load`` times as much as a random vector would."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    x -= x.mean(axis=0)
    a, b = np.linalg.qr(x[:, :2])[0].T
    theta = 2.0 * math.atan(1.0 / cond)
    x[:, 0], x[:, 1] = a, math.cos(theta) * a + math.sin(theta) * b
    x[:, 2:] -= np.outer(b, b @ x[:, 2:])
    x[:, 2:] /= np.linalg.norm(x[:, 2:], axis=0)
    x *= math.sqrt(n)
    signal = x[:, 0] + 0.5 * x[:, -1] + rng.standard_normal(n)
    signal += (load - 1.0) * (b @ signal) * b
    return orthogonalize(Dataset.with_intercept(2.0 + signal, x))


def _mp_least_squares(ds, cols):
    """sse and ssr of the selected columns, taken as exactly orthogonal to
    the common ones (what ``orthogonalize`` promises), from the normal
    equations in 40-digit arithmetic."""
    with mpmath.workdps(40):
        y = mpmath.matrix(ds.y.tolist())

        def residual(a, v):
            a = mpmath.matrix(a.tolist())
            return v - a * mpmath.lu_solve(a.T * a, a.T * v)

        ytilde = residual(ds.x0, y)
        tss = mpmath.fsum(r**2 for r in ytilde)
        if not cols:
            return float(tss), 0.0
        sse = mpmath.fsum(r**2 for r in residual(ds.x[:, list(cols)], ytilde))
        return float(sse), float(tss - sse)


class TestFitModelsEdgeCases:
    """Ill-conditioned designs and the smallest sample sizes, against
    ``fit_suffstats`` and a 40-digit least-squares reference."""

    @pytest.mark.parametrize("n, p, cond", [
        (30, 4, 1e4), (30, 4, 1e6), (30, 4, 1e8), (30, 4, 1e9),
        (6, 4, 1e4),      # n = p0 + p + 1
        (6, 8, 1e6),      # n < p + 1: only the models that fit
    ], ids=["cond1e4", "cond1e6", "cond1e8", "cond1e9", "minimal_n", "n_below_p"])
    @pytest.mark.parametrize("load", [0.0, 1.0], ids=["unloaded", "loaded"])
    def test_matches_fit_suffstats_and_reference(self, n, p, cond, load):
        # A backward-stable fit's sums of squares err by about eps * cond
        # times the response's load on the near-singular direction (a fit
        # through the Gram matrix would err by eps * cond**2); without that
        # load every model is within 1e-12 of tss.  Its fitted values err by
        # about eps * cond either way.
        eps = np.finfo(float).eps
        tol = max(1e-12, load * eps * cond)
        ds = _paired_dataset(n, p, cond, load)
        space = ModelSpace.all_subsets(p)
        models = [m for m in space.models if len(m) < n - ds.p0]
        table = fit_models(ds, models)
        tss = fit_suffstats(ds, ()).sse
        for i, model in enumerate(models):
            s = fit_suffstats(ds, model)
            sse_ref, ssr_ref = _mp_least_squares(ds, model)
            for sse, ssr in ((table.sse[i], table.ssr[i]), (s.sse, s.ssr)):
                assert abs(sse - sse_ref) <= tol * tss, (model, sse, sse_ref)
                assert abs(ssr - ssr_ref) <= tol * tss, (model, ssr, ssr_ref)
            cols = list(model)
            gap = ds.x[:, cols] @ (table.beta[i, cols] - s.beta_hat)
            assert gap @ gap <= (eps * cond) ** 2 * tss

    def test_near_singular_pair_is_rank_deficient(self):
        ds = _paired_dataset(30, 4, 1e11, 1.0)
        models = ModelSpace.all_subsets(4).models
        i = models.index((0, 1))
        with pytest.raises(ValueError) as alone:
            fit_suffstats(ds, (0, 1))
        assert "rank deficient" in str(alone.value)
        with pytest.raises(ValueError) as info:
            fit_models(ds, models)
        assert str(info.value) == f"model {i} (columns (0, 1)): {alone.value}"

    @pytest.mark.parametrize("power", [600, -600])
    def test_columns_scaled_by_a_power_of_two_fit_alike(self, power):
        # A column of size 2**600 has a square that overflows, one of size
        # 2**-600 a square that underflows.  The rank tests' column norms
        # and the fit's own power-of-two column scaling must not see either.
        rng = np.random.default_rng(5)
        n, p = 20, 4
        x0 = np.column_stack([np.ones(n), rng.standard_normal(n)])
        x = rng.standard_normal((n, p))
        y = 1.0 + x[:, 0] - x[:, 3] + rng.standard_normal(n)
        models = _all_subsets(p)
        base = fit_models(Dataset(y=y, x0=x0, x=x), models)
        scale = np.ldexp(1.0, power)
        cols = np.array([1.0, scale, 1.0, scale])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = Dataset(y=y, x0=x0 * [1.0, scale], x=x * cols)
            np.testing.assert_allclose(orthogonalize(scaled).x / cols, orthogonalize(
                Dataset(y=y, x0=x0, x=x)).x, rtol=0, atol=1e-12)
            table = fit_models(scaled, models)
        np.testing.assert_allclose(table.sse, base.sse, rtol=1e-12)
        np.testing.assert_allclose(table.ssr, base.ssr, rtol=1e-12)
        np.testing.assert_allclose(table.beta * cols, base.beta, rtol=0,
                                   atol=1e-12 * np.abs(base.beta).max())

    @pytest.mark.parametrize("space", [ModelSpace.all_subsets(5), ModelSpace.nested(5),
                                       ModelSpace.nested(3, include_null=True)],
                             ids=lambda s: f"{s.kind}-{s.size}")
    def test_space_and_its_model_list_fit_alike(self, space):
        ds = _paired_dataset(20, 5, 10.0, 1.0)
        table = fit_models(ds, space)
        listed = fit_models(ds, list(space.models))
        assert table.models == listed.models == space.models
        for name in ("sizes", "mask", "sse", "ssr", "beta"):
            np.testing.assert_array_equal(getattr(table, name), getattr(listed, name))


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
                     gram_chol=np.eye(k))


_RULES = {
    "ml2": log_bf_ml2,
    "lb": lambda s: log_bf_gprior(s, float(s.n)) if s.p else 0.0,
    "bic": log_bf_bic,
    "bicprior": log_bf_bic_prior,
    "aic": log_bf_aic,
    "ghat": lambda s: log_bf_local_eb(s)[0],
}


def _scalar_shrinkage(method, s):
    # The null model and an exact fit carry a marker and shrinkage 1.
    if s.p == 0 or s.r2 >= R2_SATURATION or method in ("bic", "bicprior", "aic"):
        return 1.0
    if method == "ml2":
        return shrinkage_factor_ml2(s)
    if method == "lb":
        return s.n / (s.n + 1.0)
    if method == "zs":
        _, shrink = zs_evidence_batch(s.n, s.p0, [s.p], [_one_minus_r2(s)], want_shrinkage=True)
        return float(shrink[0])
    g_hat = log_bf_local_eb(s)[1]
    return g_hat / (1.0 + g_hat)


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
        lb = evidence("lb", table)
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
        log_ev, shrink = evidence(PriorMethod("lb", g=7.0), table, want_shrinkage=True)
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

    # Fits near r2 = 1 as a fit leaves them: sse, and ssr = 1 - sse.  One
    # saturation rule, r2 >= R2_SATURATION, marks the same fits +inf for
    # every rule; it falls between 1 - r2 = 1.006e-14 and 1.003e-14.
    @pytest.mark.parametrize("size,sse,expect", [
        (0, 1.0, "zero"), (1, 1e-12, "finite"), (1, 1.006e-14, "finite"),
        (1, 1.003e-14, "inf"), (1, 1e-14, "inf"), (1, 1e-16, "inf"), (1, 0.0, "inf"),
    ])
    @pytest.mark.parametrize("rule", [*sorted(_RULES), "zs", "zs_laplace"])
    def test_marker_cells(self, rule, size, sse, expect):
        table = _table(30, 1, [size], [sse], [1.0 - sse])
        method, zs_rule = ("zs", "laplace") if rule == "zs_laplace" else (rule, "exact")
        scalar = {**_RULES, "zs": log_bf_zs, "zs_laplace": log_bf_zs_laplace}[rule]
        values = [scalar(_stats(table, 0)), float(evidence(method, table, zs_rule=zs_rule)[0])]
        log_ev, shrink = evidence(method, table, want_shrinkage=True, zs_rule=zs_rule)
        values.append(float(log_ev[0]))
        assert not any(math.isnan(v) for v in values) and not np.isnan(shrink[0])
        if expect == "finite":
            assert all(math.isfinite(v) for v in values), values
            assert all(_agree(v, values[0], 1e-12) for v in values), values
            assert 0.0 <= shrink[0] <= 1.0
        else:
            assert values == [0.0 if expect == "zero" else math.inf] * 3, values
            assert shrink[0] == 1.0

    @pytest.mark.parametrize("rule", [log_bf_bic, log_bf_bic_prior, log_bf_aic])
    def test_bic_family_scope(self, rule):
        stats = _stats(_table(5, 1, [4], [0.5], [0.5]), 0)
        with pytest.raises(ValueError, match="insufficient sample size"):
            rule(stats)


def _size_table(n, p0, sizes, omr2):
    """Models of the given sizes and 1 - r2 on a dataset of n rows; the
    dataset is a stand-in, since ``evidence`` reads only n and p0 from it."""
    sizes = np.asarray(sizes, dtype=np.intp)
    omr2 = np.asarray(omr2, dtype=np.float64)
    p = int(sizes.max())
    mask = np.arange(p) < sizes[:, None]
    return ModelTable(dataset=SimpleNamespace(n=n, p0=p0, replicates=None),
                      models=tuple(tuple(range(k)) for k in sizes), sizes=sizes,
                      sse=omr2, ssr=1.0 - omr2, beta=np.zeros((sizes.size, p)), mask=mask)


class TestZellnerSiowSeries:
    """``evidence``'s exact Zellner-Siow scores come from one Chebyshev
    series per size; ``zs_evidence_batch`` integrates each model and is its
    oracle."""

    @pytest.mark.parametrize("p0", [0, 1, 2])
    @pytest.mark.parametrize("n", ["p0+p+1", 10, 50, 10**3, 10**6, 10**10])
    def test_series_matches_kernel_across_the_domain(self, p0, n):
        # A dense grid of 1 - r2 in v = log(1 - q log(1 - r2)), from the null
        # fit (1 - r2 = 1) to just above the saturation cut (1.006e-14,
        # the last finite cell of ``TestEvidence.test_marker_cells``).
        for p in range(1, 17):
            size_n = p0 + p + 1 if n == "p0+p+1" else n
            if size_n <= p0 + p:
                continue
            q = size_n - p0
            top = math.log1p(-q * math.log(1.006e-14))
            omr2 = np.exp(-np.expm1(np.linspace(0.0, top, 257)) / q)
            omr2[[0, -1]] = 1.0, 1.006e-14
            table = _size_table(size_n, p0, np.full(omr2.size, p), omr2)
            log_ev, shrink = evidence("zs", table, want_shrinkage=True)
            assert np.array_equal(log_ev, evidence("zs", table))
            log_bf, kernel_shrink = zs_evidence_batch(size_n, p0, table.sizes,
                                                      table.one_minus_r2, want_shrinkage=True)
            err = np.abs(log_ev - log_bf) / np.maximum(1.0, np.abs(log_bf))
            assert err.max() <= 1e-12, (size_n, p, err.max(), omr2[err.argmax()])
            assert np.abs(shrink - kernel_shrink).max() <= 1e-12, (size_n, p)
            # Both ends of the domain, 1 - r2 = 1 and the cut, hold 10 times tighter.
            for i in (0, -1):
                assert log_ev[i] == pytest.approx(log_bf[i], rel=1e-13, abs=1e-13), (size_n, p)

    @pytest.mark.parametrize("i,n", enumerate([
        4, 5, 7, 10, 15, 25, 40, 60, 100, 200, 500, 1000,
        5000, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9, 10**10,
    ]))
    def test_series_matches_kernel_between_its_nodes(self, i, n):
        # Midway between the interpolation points, where a series is
        # furthest from its samples, every size 1..min(16, n - p0 - 1) is
        # held to the trapezoidal kernel given the same ell = -log(1 - r2).
        p0 = i % 3
        q = n - p0
        x = np.cos(np.pi * (np.arange(bayesfactors._ZS_DEGREE) + 0.5) / bayesfactors._ZS_DEGREE)
        sizes, ell = np.meshgrid(np.arange(1.0, min(16, q - 1) + 1.0),
                                 np.expm1(0.5 * bayesfactors._zs_cut(q) * (1.0 + x)) / q,
                                 indexing="ij")
        sizes, ell = sizes.ravel(), ell.ravel()
        log_bf, shrink = bayesfactors._zs_series(n, p0, sizes, ell)
        total, kernel_shrink = bayesfactors._zs_sums(n, p0, sizes, ell)
        kernel_log_bf = total + 0.5 * q * ell
        err = np.abs(log_bf - kernel_log_bf) / np.maximum(1.0, np.abs(kernel_log_bf))
        assert err.max() <= 1e-12, (n, p0, err.max(), sizes[err.argmax()], ell[err.argmax()])
        err = np.abs(shrink - kernel_shrink) / kernel_shrink
        assert err.max() <= 1e-12, (n, p0, err.max(), sizes[err.argmax()], ell[err.argmax()])

    def test_series_are_built_once_per_n_p0_and_largest_size(self, monkeypatch):
        # The series depend on n, p0 and the size alone: a second call at the
        # same n, p0 and largest size samples the kernel no more, whichever
        # sizes it holds, and the coefficients it reuses cannot be written.
        calls = []
        sums = bayesfactors._zs_sums
        monkeypatch.setattr(bayesfactors, "_zs_sums", lambda *args: calls.append(args) or sums(*args))
        bayesfactors._zs_coefficients.cache_clear()
        first = _size_table(97, 2, [1, 3, 3], [0.5, 0.2, 0.9])
        log_ev, shrink = evidence("zs", first, want_shrinkage=True)
        again = evidence("zs", _size_table(97, 2, [3, 1], [0.9, 0.5]), want_shrinkage=True)
        assert len(calls) == 1
        assert [v.tolist() for v in again] == [[v[2], v[0]] for v in (log_ev, shrink)]
        coef = bayesfactors._zs_coefficients(97, 2, 3)
        assert coef.shape == (3, 97, 2) and not coef.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            coef[0, 0, 0] = 0.0

    @pytest.mark.parametrize("zs_rule", ZS_RULES)
    def test_a_table_with_nothing_to_integrate_scores(self, zs_rule):
        # The null model and exact fits are marked, and no series is asked for.
        for sizes, omr2 in [([0], [1.0]), ([0, 2], [1.0, 1e-15])]:
            log_ev, shrink = evidence("zs", _size_table(30, 1, sizes, omr2),
                                      want_shrinkage=True, zs_rule=zs_rule)
            assert log_ev.tolist() == [0.0, math.inf][:len(sizes)]
            assert shrink.tolist() == [1.0] * len(sizes)

    def test_score_does_not_depend_on_the_sizes_present(self):
        # A model scores bit for bit the same in a table of only its own
        # size, of only itself, and of every size, in any order.
        rng = np.random.default_rng(61)
        for n, p0 in [(30, 1), (200, 0), (10**8, 2)]:
            sizes = np.repeat(np.arange(1, 17), 5)
            omr2 = np.exp(-rng.uniform(0.0, 30.0, sizes.size) * rng.uniform(0, 1, sizes.size))
            order = rng.permutation(sizes.size)
            sizes, omr2 = sizes[order], omr2[order]
            whole = evidence("zs", _size_table(n, p0, sizes, omr2), want_shrinkage=True)
            for k in range(1, 17):
                own = sizes == k
                alone = evidence("zs", _size_table(n, p0, sizes[own], omr2[own]),
                                 want_shrinkage=True)
                for got, want in zip(whole, alone):
                    np.testing.assert_array_equal(got[own], want)
            i = int(np.argmax(sizes == 9))
            one = evidence("zs", _size_table(n, p0, sizes[i:i + 1], omr2[i:i + 1]),
                           want_shrinkage=True)
            assert [float(v[0]) for v in one] == [float(v[i]) for v in whole]


def _assert_rows_match(post):
    """Every summary of a stacked posterior equals, row by row and bit for
    bit, the summary of that row's posterior alone."""
    summaries = (hpm, mpm, inclusion_probs, entropy)
    stacked = [f(post) for f in summaries]
    for j, log_ev in enumerate(post.log_evidence):
        alone = posterior_from_evidence(post.space, log_ev)
        np.testing.assert_array_equal(post.posterior_prob[j], alone.posterior_prob)
        row = ModelPosterior(post.space, log_ev, post.posterior_prob[j])
        for f, got in zip(summaries, stacked):
            np.testing.assert_array_equal(got[j], f(alone))
            np.testing.assert_array_equal(got[j], f(row))


class TestSummariesOverMask:
    @settings(max_examples=60, **_SETTINGS)
    @given(st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_inclusion_and_mpm_match_enumeration(self, p, seed):
        rng = np.random.default_rng(seed)
        space = ModelSpace.all_subsets(p)
        models = space.models
        log_ev = rng.normal(0.0, 3.0, len(models))
        post = posterior_from_evidence(space, log_ev)
        by_hand = np.zeros(p)
        for model, prob in zip(models, post.posterior_prob):
            for j in model:
                by_hand[j] += prob
        mask = fit_models(_any_dataset(p), models).mask
        np.testing.assert_allclose(inclusion_probs(post), by_hand, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(space.mask, mask)
        assert models[mpm(post)] == tuple(int(j) for j in np.flatnonzero(by_hand >= 0.5))
        # Stacked with rows of ties (evidence rounded to a few levels) and of
        # +inf markers, the summaries go row by row.
        rows = np.vstack([log_ev, rng.normal(0.0, 3.0, (3, len(models))).round(),
                          np.where(rng.random(len(models)) < 0.3, np.inf, 0.0)])
        _assert_rows_match(posterior_from_evidence(space, rows))


def _any_dataset(p):
    rng = np.random.default_rng(p)
    return orthogonalize(Dataset.with_intercept(rng.standard_normal(p + 3),
                                                rng.standard_normal((p + 3, p))))


@st.composite
def stacked_datasets(draw, max_p=5):
    """R datasets of one shape, alone and stacked on a leading replicate axis.

    Each replicate draws its own response, so one stack can mix noisy rows,
    saturated rows (noiseless: r2 -> 1, the +inf marker) and constant rows
    (ssr = 0 for every model, an exact tie under ghat), at scales far
    apart, so a replicate's exact-zero rule for ssr must use its own
    response's scale.  The common
    predictors (none, an intercept, or an intercept and one more column) are
    shared by the replicates or drawn for each one.
    """
    p = draw(st.integers(1, max_p))
    p0 = draw(st.integers(0, 2))
    shared_x0 = draw(st.booleans())
    n = draw(st.one_of(st.just(p0 + p + 1), st.integers(p0 + p + 1, 40)))
    signals = draw(st.lists(st.tuples(st.sampled_from(["noisy", "noiseless", "constant"]),
                                      st.sampled_from([1.0, 1.0, 1e-8, 1e8])),
                            min_size=1, max_size=5))
    rho = draw(st.sampled_from([0.0, 0.9, -0.99]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def common():
        x0 = rng.standard_normal((n, p0))
        x0[:, :1] = 1.0
        return x0

    x0_shared = common()
    singles = []
    for signal, scale in signals:
        x = make_correlated_design(n, p, CorrelationSpec.ar1(rho), rng)
        beta = rng.normal(0.0, 2.0, p)
        beta[rng.random(p) < 0.4] = 0.0
        x0 = x0_shared if shared_x0 else common()
        y = x @ beta + (2.5 if p0 else 0.0)
        if signal == "noisy":
            y = y + rng.standard_normal(n)
        elif signal == "constant":
            y = np.full(n, 2.5)
        singles.append(Dataset(y=scale * y, x0=x0 if p0 else None, x=x))
    x0 = x0_shared if shared_x0 else np.stack([d.x0 for d in singles])
    stacked = Dataset(y=np.stack([d.y for d in singles]), x0=x0 if p0 else None,
                      x=np.stack([d.x for d in singles]))
    return singles, stacked


def _scorings():
    """Every rule, both Zellner-Siow rules, with and without shrinkage."""
    for method in (*sorted(_RULES), "zs"):
        for zs_rule in ("exact", "laplace") if method == "zs" else ("exact",):
            for want in (False, True):
                yield method, zs_rule, want


def _assert_stack_matches(singles, stacked):
    """Stacked orthogonalize, fit, evidence and posterior equal the
    one-dataset calls bit for bit, row by row; returns the stacked table."""
    ortho = orthogonalize(stacked)
    alone = [orthogonalize(d) for d in singles]
    np.testing.assert_array_equal(ortho.x, np.stack([d.x for d in alone]))
    space = ModelSpace.all_subsets(stacked.p)
    models = space.models
    # fit_models' own projection of the raw stack, against each raw dataset.
    raw = fit_models(stacked, models)
    raw_alone = [fit_models(d, models) for d in singles]
    for name in ("sse", "ssr", "beta"):
        np.testing.assert_array_equal(getattr(raw, name),
                                      np.stack([getattr(t, name) for t in raw_alone]))
    table = fit_models(ortho, models)
    tables = [fit_models(d, models) for d in alone]
    assert table.replicates == len(singles) and table.models == tables[0].models
    for name in ("sse", "ssr", "beta", "r2", "one_minus_r2"):
        np.testing.assert_array_equal(getattr(table, name),
                                      np.stack([getattr(t, name) for t in tables]))
    for method, zs_rule, want in _scorings():
        got = evidence(method, table, want_shrinkage=want, zs_rule=zs_rule)
        each = [evidence(method, t, want_shrinkage=want, zs_rule=zs_rule) for t in tables]
        if want:
            np.testing.assert_array_equal(got[1], np.stack([e[1] for e in each]))
            got, each = got[0], [e[0] for e in each]
        np.testing.assert_array_equal(got, np.stack(each))
        post = posterior_from_evidence(space, got)
        assert post.posterior_prob.shape == got.shape
        for j, log_ev in enumerate(each):
            single = posterior_from_evidence(space, log_ev)
            np.testing.assert_array_equal(post.posterior_prob[j], single.posterior_prob)
    return table


class TestReplicateAxis:
    @settings(max_examples=60, **_SETTINGS)
    @given(stacked_datasets())
    def test_stack_matches_one_dataset_at_a_time(self, case):
        _assert_stack_matches(*case)

    def test_saturated_tied_and_minimal_rows(self):
        # n = p0 + p + 1; a noisy row, a saturated row and a constant row.
        rng = np.random.default_rng(4)
        n, p = 5, 3
        singles = []
        for signal in ("noisy", "noiseless", "constant"):
            x = make_correlated_design(n, p, CorrelationSpec.ar1(0.5), rng)
            y = 1.0 + x @ np.array([2.0, 0.0, -1.0])
            y = {"noisy": y + rng.standard_normal(n), "noiseless": y,
                 "constant": np.full(n, 1.0)}[signal]
            singles.append(Dataset.with_intercept(y, x))
        stacked = Dataset.with_intercept(np.stack([d.y for d in singles]),
                                         np.stack([d.x for d in singles]))
        table = _assert_stack_matches(singles, stacked)
        bic = evidence("bic", table)
        assert np.all(np.isfinite(bic[0])) and np.isposinf(bic[1]).any()
        ghat = evidence("ghat", table)
        assert np.all(ghat[2] == 0.0)  # every model ties with the empty one
        post = posterior_from_evidence(ModelSpace.all_subsets(p), ghat)
        row = ModelPosterior(post.space, ghat[2], post.posterior_prob[2])
        assert row.models[hpm(row)] == () and hpm(post)[2] == 0

    def test_posterior_rows_keep_ties_and_markers(self):
        space = ModelSpace.all_subsets(2, model_prior="uniform_size")
        models = space.models  # (), (0,), (1,), (0, 1)
        rows = np.array([
            [0.0, 1.5, 1.5, -2.0],              # exact tie of the two one-predictor models
            [0.0, np.inf, np.inf, np.inf],      # several markers: the tie-break picks (0,)
            [0.0, 0.0, 0.0, np.inf],            # one marker
            [3.0, 3.0, 3.0, 3.0],
        ])
        post = posterior_from_evidence(space, rows)
        _assert_rows_match(post)
        winners = []
        for j, log_ev in enumerate(rows):
            single = posterior_from_evidence(space, log_ev)
            np.testing.assert_array_equal(post.posterior_prob[j], single.posterior_prob)
            row = ModelPosterior(space, log_ev, post.posterior_prob[j])
            assert hpm(row) == hpm(single)
            winners.append(models[hpm(row)])
        assert winners == [(0,), (0,), (0, 1), ()]
        # The last row's inclusion probabilities are exactly 1/6 + 1/3 = 1/2.
        assert [models[i] for i in mpm(post)] == [(), (0,), (0, 1), (0, 1)]
        with pytest.raises(ValueError, match="length must match"):
            posterior_from_evidence(space, rows[:, :3])
        # Nested with the empty model: it wins a tie, a marker and a clear lead.
        nested = ModelSpace.nested(3, include_null=True)
        post = posterior_from_evidence(nested, [[2.0, 2.0, 2.0, 2.0],
                                                [np.inf, 0.0, np.inf, 0.0],
                                                [9.0, 0.0, 0.0, 0.0],
                                                [0.0, 0.0, 0.0, 9.0]])
        _assert_rows_match(post)
        np.testing.assert_array_equal(hpm(post), [0, 0, 0, 3])
        np.testing.assert_array_equal(mpm(post), [2, 0, 0, 3])
        # p = 0: the empty model is the whole space.
        space = ModelSpace.all_subsets(0)
        _assert_rows_match(posterior_from_evidence(space, [[0.0], [np.inf]]))
        post = posterior_from_evidence(space, [0.0])
        assert hpm(post) == mpm(post) == 0
        assert inclusion_probs(post).shape == (0,) and entropy(post) == 0.0

    def test_rank_deficient_replicate_is_named(self):
        rng = np.random.default_rng(1)
        n, p = 10, 4
        x = rng.standard_normal((3, n, p))
        y = rng.standard_normal((3, n))
        x[2, :, 3] = x[2, :, 1]
        models = _all_subsets(p)
        with pytest.raises(ValueError) as alone:
            fit_models(orthogonalize(Dataset.with_intercept(y[2], x[2])), models)
        with pytest.raises(ValueError) as stacked:
            fit_models(orthogonalize(Dataset.with_intercept(y, x)), models)
        assert str(stacked.value) == f"replicate 2: {alone.value}"
        assert stacked.value.replicate == 2 and not hasattr(alone.value, "replicate")

        raw = rng.standard_normal((3, n, 2))
        raw[1, :, 1] = 2.0 * raw[1, :, 0]
        spec = CorrelationSpec.explicit([[1.0, 0.9], [0.9, 1.0]])
        with pytest.raises(ValueError) as alone:
            correlated_design_from_raw(raw[1], spec)
        with pytest.raises(ValueError) as stacked:
            correlated_design_from_raw(raw, spec)
        assert str(stacked.value) == f"replicate 1: {alone.value}"
        assert stacked.value.replicate == 1
        designs = correlated_design_from_raw(raw[[0, 2]], spec)
        np.testing.assert_array_equal(designs[1], correlated_design_from_raw(raw[2], spec))

    def test_non_finite_input_is_rejected(self):
        x = np.ones((6, 2))
        for bad in ("y", "x", "x0"):
            parts = {"y": np.zeros(6), "x0": np.ones((6, 1)), "x": x.copy()}
            parts[bad] = parts[bad].copy()
            parts[bad][3, ...] = np.nan if bad != "x" else np.inf
            with pytest.raises(ValueError, match="non-finite"):
                Dataset(**parts)
        y = np.zeros((3, 6))
        y[1, 2] = -np.inf
        with pytest.raises(ValueError, match="replicate 1: .*non-finite"):
            Dataset.with_intercept(y, np.ones((3, 6, 2)))

    def test_overflowing_replicate_is_named(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 8, 2))
        y = rng.standard_normal((3, 8))
        y[2] *= 1e160
        with pytest.raises(ValueError, match="replicate 2: the sum of squares of y overflows"):
            fit_models(orthogonalize(Dataset.with_intercept(y, x)), _all_subsets(2))
        with pytest.raises(ValueError, match="^the sum of squares of y overflows"):
            fit_models(orthogonalize(Dataset.with_intercept(y[2], x[2])), _all_subsets(2))

    def test_stacked_shapes_are_checked(self):
        x = np.zeros((2, 6, 3))
        with pytest.raises(ValueError, match="stacked dataset needs y"):
            Dataset(y=np.zeros(6), x0=None, x=x)
        with pytest.raises(ValueError, match="x0 must be shared"):
            Dataset(y=np.zeros((2, 6)), x0=np.ones((3, 6, 1)), x=x)
        stacked = Dataset.with_intercept(np.zeros((2, 6)), x)
        assert stacked.replicates == 2 and (stacked.n, stacked.p0, stacked.p) == (6, 1, 3)
        with pytest.raises(ValueError, match="single dataset"):
            fit_suffstats(stacked, (0,))
