"""Design handling and sufficient statistics."""

import numpy as np
import pytest

from ml2bf.regression import (
    CorrelationSpec,
    Dataset,
    DependentColumnsError,
    correlated_design_from_raw,
    fit_models,
    fit_suffstats,
    load_dataset_csv,
    make_correlated_design,
    orthogonalize,
)


class TestOrthogonalize:
    def test_intercept_centering(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 2)) + np.array([3.0, -1.0])
        ds = orthogonalize(Dataset.with_intercept(rng.standard_normal(12), x))
        np.testing.assert_allclose(ds.x.mean(axis=0), 0.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((15, 3))
        ds1 = orthogonalize(Dataset.with_intercept(rng.standard_normal(15), x))
        ds2 = orthogonalize(ds1)
        np.testing.assert_allclose(ds2.x, ds1.x, atol=1e-12)

    def test_two_common_predictors(self):
        rng = np.random.default_rng(2)
        n = 20
        t = np.arange(n, dtype=float)
        x0 = np.column_stack([np.ones(n), t])
        x = rng.standard_normal((n, 3))
        ds = orthogonalize(Dataset(y=rng.standard_normal(n), x0=x0, x=x))
        cross = np.abs(ds.x0.T @ ds.x)
        scale = np.outer(np.linalg.norm(x0, axis=0), np.linalg.norm(ds.x, axis=0))
        assert np.all(cross <= 1e-10 * scale)

    def test_y_untouched(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(10)
        ds = orthogonalize(Dataset.with_intercept(y, rng.standard_normal((10, 2))))
        np.testing.assert_array_equal(ds.y, y)

    def test_degenerate_common_predictors(self):
        # Every routine that projects the common predictors out rejects them.
        n = 10
        x0 = np.column_stack([np.ones(n), 2 * np.ones(n)])
        x = np.eye(n)[:, :2]
        ds = Dataset(y=np.zeros(n), x0=x0, x=x)
        fits = [orthogonalize, lambda d: fit_models(d, [(), (0,), (0, 1)])]
        for fit in fits + [lambda d: fit_suffstats(d, (0,))]:
            with pytest.raises(DependentColumnsError,
                               match="^degenerate common predictors") as info:
                fit(ds)
            assert info.value.columns == () and not hasattr(info.value, "replicate")
        good = np.column_stack([np.ones(n), np.arange(n)])
        stacked = Dataset(y=np.zeros((3, n)), x0=np.stack([good, x0, good]),
                          x=np.stack([x, x, x]))
        for fit in fits:
            with pytest.raises(DependentColumnsError,
                               match="^replicate 1: degenerate common predictors") as info:
                fit(stacked)
            assert info.value.replicate == 1 and info.value.columns == ()

    def test_candidate_inside_common_span_is_rejected(self):
        # x2 = 2z + 3 lies in span(1, z); projected, it keeps about 1e-15 of
        # its norm, and a fit would give it a coefficient near 1e15.
        rng = np.random.default_rng(8)
        n = 30
        z = rng.standard_normal(n)
        x0 = np.column_stack([np.ones(n), z])
        x = np.column_stack([rng.standard_normal(n), 2.0 * z + 3.0, rng.standard_normal(n)])
        y = rng.standard_normal(n)
        with pytest.raises(DependentColumnsError,
                           match="^candidate column 1 lies in the span") as info:
            orthogonalize(Dataset(y=y, x0=x0, x=x))
        assert info.value.columns == (1,)
        xs = np.stack([rng.standard_normal((n, 3)), x, x])
        with pytest.raises(DependentColumnsError,
                           match="^replicate 1: candidate column 1 ") as info:
            orthogonalize(Dataset(y=np.stack([y, y, y]), x0=x0, x=xs))
        assert info.value.replicate == 1 and info.value.columns == (1,)

    def test_no_common_predictors_is_noop(self):
        rng = np.random.default_rng(4)
        ds = Dataset(y=rng.standard_normal(8), x0=None, x=rng.standard_normal((8, 2)))
        assert orthogonalize(ds) is ds


class TestFitSuffstats:
    def test_null_signal(self):
        # y lies in span(x0): nothing left for the candidates to explain.
        n = 16
        rng = np.random.default_rng(5)
        x = rng.standard_normal((n, 3))
        ds = orthogonalize(Dataset.with_intercept(np.full(n, 4.2), x))
        s = fit_suffstats(ds, (0, 1))
        assert s.ssr == pytest.approx(0.0, abs=1e-18)
        assert s.r2 == pytest.approx(0.0, abs=1e-14)

    def test_perfect_fit(self):
        n = 14
        rng = np.random.default_rng(6)
        x = rng.standard_normal((n, 2))
        ds = orthogonalize(Dataset.with_intercept(np.zeros(n), x))
        ds = Dataset(y=ds.x[:, 0], x0=ds.x0, x=ds.x)
        s = fit_suffstats(ds, (0,))
        assert s.r2 == pytest.approx(1.0, abs=1e-12)
        assert s.sse == pytest.approx(0.0, abs=1e-20)

    def test_empty_subset_is_null_model(self):
        rng = np.random.default_rng(7)
        ds = orthogonalize(
            Dataset.with_intercept(rng.standard_normal(12), rng.standard_normal((12, 2)))
        )
        s = fit_suffstats(ds, ())
        assert s.p == 0 and s.ssr == 0.0 and s.r2 == 0.0
        assert s.sse == pytest.approx(float(ds.y @ ds.y - len(ds.y) * ds.y.mean() ** 2))

    def test_against_extended_precision_normal_equations(self):
        # Independent oracle: 50-digit normal-equations solve with mpmath.
        import mpmath

        mpmath.mp.dps = 50
        rng = np.random.default_rng(8)
        n, p = 50, 8
        x = make_correlated_design(n, p, CorrelationSpec.ar1(0.9), rng)
        beta = rng.normal(0, 1, p)
        y = 2.0 + x @ beta + rng.standard_normal(n)
        ds = orthogonalize(Dataset.with_intercept(y, x))
        s = fit_suffstats(ds, range(p))

        xm = mpmath.matrix(ds.x.tolist())
        ytil = ds.y - ds.y.mean()
        ym = mpmath.matrix(ytil.tolist())
        gram = xm.T * xm
        rhs = xm.T * ym
        beta_mp = mpmath.lu_solve(gram, rhs)
        ssr_mp = float((beta_mp.T * gram * beta_mp)[0, 0])
        total_mp = float((ym.T * ym)[0, 0])
        assert s.ssr == pytest.approx(ssr_mp, rel=1e-8)
        assert s.sse == pytest.approx(total_mp - ssr_mp, rel=1e-8)

    def test_decomposition_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(8, 40))
            p = int(rng.integers(1, 5))
            x = rng.standard_normal((n, p + 2))
            y = rng.standard_normal(n)
            ds = orthogonalize(Dataset.with_intercept(y, x))
            s = fit_suffstats(ds, range(p))
            total = float(ds.y @ ds.y - n * ds.y.mean() ** 2)
            assert s.sse + s.ssr == pytest.approx(total, rel=1e-10)
            quad = s.beta_hat @ (s.gram_chol.T @ s.gram_chol) @ s.beta_hat
            assert s.ssr == pytest.approx(quad, rel=1e-10)

    def test_invariance_under_invertible_transform(self):
        rng = np.random.default_rng(10)
        n, p = 30, 4
        x = rng.standard_normal((n, p))
        y = x @ rng.normal(0, 2, p) + rng.standard_normal(n)
        ds = orthogonalize(Dataset.with_intercept(y, x))
        base = fit_suffstats(ds, range(p))
        for _ in range(10):
            a = rng.standard_normal((p, p))
            while np.linalg.cond(a) > 1e3:
                a = rng.standard_normal((p, p))
            tds = orthogonalize(Dataset.with_intercept(y, x @ a))
            s = fit_suffstats(tds, range(p))
            assert s.sse == pytest.approx(base.sse, rel=1e-9)
            assert s.ssr == pytest.approx(base.ssr, rel=1e-9)
            assert s.r2 == pytest.approx(base.r2, rel=1e-9)

    def test_nested_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n, p = 25, 5
            x = rng.standard_normal((n, p))
            y = x @ rng.normal(0, 1, p) + rng.standard_normal(n)
            ds = orthogonalize(Dataset.with_intercept(y, x))
            small = tuple(sorted(rng.choice(p, 2, replace=False).tolist()))
            big = tuple(sorted(set(small) | {int(rng.integers(p))}))
            s_small = fit_suffstats(ds, small)
            s_big = fit_suffstats(ds, big)
            assert s_big.ssr >= s_small.ssr - 1e-12
            assert s_big.r2 >= s_small.r2 - 1e-12

    def test_errors(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((6, 3))
        x[:, 2] = x[:, 0]
        ds = orthogonalize(Dataset.with_intercept(rng.standard_normal(6), x))
        with pytest.raises(DependentColumnsError, match="rank deficient") as info:
            fit_suffstats(ds, (0, 2))
        assert info.value.columns == (2,)
        small = orthogonalize(
            Dataset.with_intercept(rng.standard_normal(4), rng.standard_normal((4, 3)))
        )
        with pytest.raises(ValueError, match="insufficient sample size"):
            fit_suffstats(small, (0, 1, 2))


class TestCorrelatedDesign:
    def test_identity_target(self):
        rng = np.random.default_rng(13)
        x = make_correlated_design(10, 2, CorrelationSpec.identity(), rng)
        np.testing.assert_allclose(x.T @ x / 10, np.eye(2), atol=1e-8)

    def test_explicit_high_correlation(self):
        rng = np.random.default_rng(14)
        c = np.array([[1.0, 0.9], [0.9, 1.0]])
        x = make_correlated_design(10, 2, CorrelationSpec.explicit(c), rng)
        real = x.T @ x / 10
        assert real[0, 1] == pytest.approx(0.9, abs=1e-8)
        np.testing.assert_allclose(np.diag(real), 1.0, atol=1e-8)
        np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=1e-10)

    def test_ar1_entrywise(self):
        rng = np.random.default_rng(15)
        x = make_correlated_design(50, 8, CorrelationSpec.ar1(0.9), rng)
        target = CorrelationSpec.ar1(0.9).matrix_for(8)
        np.testing.assert_allclose(x.T @ x / 50, target, atol=1e-8)

    def test_bit_reproducible(self):
        spec = CorrelationSpec.ar1(0.5)
        x1 = make_correlated_design(20, 3, spec, np.random.default_rng(99))
        x2 = make_correlated_design(20, 3, spec, np.random.default_rng(99))
        np.testing.assert_array_equal(x1, x2)

    def test_n_not_larger_than_p(self):
        with pytest.raises(ValueError, match="n > p"):
            correlated_design_from_raw(np.ones((3, 3)), CorrelationSpec.identity())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CorrelationSpec.ar1(1.0)
        with pytest.raises(ValueError, match="unit diagonal"):
            CorrelationSpec.explicit(np.array([[2.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="positive definite"):
            CorrelationSpec.explicit(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestCsvLoader:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_round_trip_with_intercept(self, tmp_path):
        path = self._write(tmp_path, "y,x1,x2\n1.0,0.5,2.0\n2.0,1.5,3.0\n0.0,-1.0,0.5\n")
        ds, labels = load_dataset_csv(path)
        assert labels == ["x1", "x2"]
        assert ds.p0 == 1 and ds.p == 2 and ds.n == 3
        np.testing.assert_array_equal(ds.x0, np.ones((3, 1)))
        np.testing.assert_array_equal(ds.x[:, 0], [0.5, 1.5, -1.0])

    def test_explicit_common_columns(self, tmp_path):
        path = self._write(tmp_path, "y,x0_a,x1\n1,1,2\n2,1,3\n3,1,4\n")
        ds, labels = load_dataset_csv(path)
        assert ds.p0 == 1 and labels == ["x1"]

    def test_missing_y(self, tmp_path):
        path = self._write(tmp_path, "x1,x2\n1,2\n")
        with pytest.raises(ValueError, match="'y'"):
            load_dataset_csv(path)

    def test_bad_cell_names_column(self, tmp_path):
        path = self._write(tmp_path, "y,x1\n1.0,0.5\n2.0,oops\n")
        with pytest.raises(ValueError, match="column 'x1'"):
            load_dataset_csv(path)

    def test_bad_cell_names_its_line_past_blank_lines(self, tmp_path):
        path = self._write(tmp_path, "y,x1\n1,2\n\n\n3,abc\n")
        with pytest.raises(ValueError, match="column 'x1' row 5 is not numeric: 'abc'"):
            load_dataset_csv(path)

    def test_short_row_names_its_line_past_blank_lines(self, tmp_path):
        path = self._write(tmp_path, "y,x1\n1,2\n\n3,4,5\n")
        with pytest.raises(ValueError, match="row 4 has 3 fields, expected 2"):
            load_dataset_csv(path)

    def test_non_contiguous_candidates(self, tmp_path):
        path = self._write(tmp_path, "y,x1,x3\n1,2,3\n")
        with pytest.raises(ValueError, match="x2"):
            load_dataset_csv(path)

    def test_unexpected_column(self, tmp_path):
        path = self._write(tmp_path, "y,foo\n1,2\n")
        with pytest.raises(ValueError, match="'foo'"):
            load_dataset_csv(path)

    @pytest.mark.parametrize("header,name", [("y,x1,y", "y"), ("y,x1,x1", "x1"),
                                             ("y,x1,x0_a,x0_a", "x0_a")])
    def test_duplicate_column(self, tmp_path, header, name):
        # Each name would otherwise map to its first column only.
        fields = header.count(",") + 1
        path = self._write(tmp_path, header + "\n" + ",".join(["1"] * fields) + "\n")
        with pytest.raises(ValueError, match=f"malformed CSV: duplicate column '{name}'"):
            load_dataset_csv(path)
