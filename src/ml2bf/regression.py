"""Design matrices, orthogonalization, and per-model sufficient statistics.

Every evidence formula downstream is a function of a handful of scalars per
model (sample size, model dimension, sums of squares) plus the triangular
factor of the selected Gram matrix.  This module computes those pieces from
raw data, one model at a time (``fit_suffstats``) or for a whole model list
at once (``fit_models``, also over a leading axis of stacked replicates),
builds the exactly-correlated simulation designs, and reads datasets from
CSV.
"""

import csv
import itertools
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Dataset",
    "SuffStats",
    "ModelTable",
    "CorrelationSpec",
    "DependentColumnsError",
    "orthogonalize",
    "fit_suffstats",
    "fit_models",
    "model_mask",
    "make_correlated_design",
    "correlated_design_from_raw",
    "load_dataset_csv",
]

# A selected column is declared linearly dependent when its residual norm
# after projection on the previous columns falls below this fraction of its
# original norm.
RANK_RTOL = 1e-10


def _rank_lost(residual, norm):
    """The rank rule above: residual norm <= RANK_RTOL * original norm."""
    return residual <= RANK_RTOL * np.maximum(norm, 1e-300)


# Numbers gathered per block of one size's models in fit_models' sweep
# (1 MB).  On a core with 2 MB of L2 cache, all of a size at once made a
# p = 16 fit take 1.5 times as long, and blocks of 2**15 numbers made the
# fit of a 144-dataset figure stack take a quarter longer.
_SWEEP_BLOCK = 2**17


def _as_matrix(a, name):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a vector or a 2-d array")
    return a


@dataclass(frozen=True)
class Dataset:
    """Response vector plus common and candidate predictor matrices.

    Parameters
    ----------
    y : (n,) response.
    x0 : (n, p0) common predictors shared by every model; p0 may be 0.
    x : (n, p) candidate predictors that models select subsets of.

    A 3-d ``x`` stacks R datasets of the same shape on a leading replicate
    axis: ``x`` is (R, n, p), ``y`` is (R, n) and ``x0`` is (R, n, p0) or
    one (n, p0) matrix shared by every replicate.  ``orthogonalize`` and
    ``fit_models`` treat each replicate exactly as they treat it alone.  An
    error about one replicate of a stack starts "replicate j: " and carries
    j as its ``replicate`` attribute.
    """

    y: np.ndarray
    x0: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim == 3:
            if y.shape != x.shape[:2]:
                raise ValueError("a stacked dataset needs y of shape (R, n) for x of shape "
                                 "(R, n, p)")
        else:
            y = y.reshape(-1)
            x = _as_matrix(x, "x")
        n = y.shape[-1]
        if n < 1:
            raise ValueError("empty response")
        if self.x0 is None or np.size(self.x0) == 0:
            x0 = np.zeros((n, 0))
        else:
            x0 = np.asarray(self.x0, dtype=np.float64)
            x0 = x0 if x0.ndim == 3 else _as_matrix(x0, "x0")
        if x0.shape[-2] != n or x.shape[-2] != n:
            raise ValueError("predictor row counts must match len(y)")
        if x0.shape[:-2] not in ((), y.shape[:-1]):
            raise ValueError("x0 must be shared by the replicates or stacked like x")
        finite = (np.isfinite(y).all(axis=-1) & np.isfinite(x).all(axis=(-2, -1))
                  & np.isfinite(x0).all(axis=(-2, -1)))
        _raise_first(~finite, "y, x0 or x has a non-finite value")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.shape[-1]

    @property
    def p0(self) -> int:
        return self.x0.shape[-1]

    @property
    def p(self) -> int:
        return self.x.shape[-1]

    @property
    def replicates(self) -> int | None:
        """R for a stacked dataset, None for a single one."""
        return self.y.shape[0] if self.y.ndim == 2 else None

    @classmethod
    def with_intercept(cls, y, x) -> "Dataset":
        """Dataset whose only common predictor is an intercept column."""
        y = np.asarray(y, dtype=np.float64)
        if np.ndim(x) != 3:
            y = y.reshape(-1)
        return cls(y=y, x0=np.ones((y.shape[-1], 1)), x=x)


@dataclass(frozen=True)
class SuffStats:
    """Per-model sufficient statistics for a subset of candidate predictors.

    ``sse`` and ``ssr`` decompose the total sum of squares about the
    common-predictor fit, ``r2 = ssr / (sse + ssr)``, and ``gram_chol`` is
    the upper-triangular factor R with R'R equal to the selected Gram
    matrix (so ``ssr == ||R beta_hat||^2``).
    """

    n: int
    p0: int
    p: int
    beta_hat: np.ndarray
    sse: float
    ssr: float
    gram_chol: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "beta_hat", np.asarray(self.beta_hat, dtype=np.float64).reshape(-1)
        )
        object.__setattr__(
            self, "gram_chol", np.asarray(self.gram_chol, dtype=np.float64)
        )
        if self.beta_hat.shape[0] != self.p or self.gram_chol.shape != (self.p, self.p):
            raise ValueError("beta_hat / gram_chol shapes inconsistent with p")

    @property
    def total_ss(self) -> float:
        return self.sse + self.ssr

    @property
    def r2(self) -> float:
        """ssr / (sse + ssr), and 0 where ssr is 0."""
        return self.ssr / (self.sse + self.ssr) if self.ssr > 0 else 0.0

    def gram_inverse(self) -> np.ndarray:
        """(X'X)^{-1} of the selected columns, from the stored factor."""
        return inverse_from_factor(self.gram_chol)


def inverse_from_factor(r) -> np.ndarray:
    """(R'R)^{-1} from the triangular factor R; (0, 0) for an empty R."""
    rinv = np.linalg.solve(r, np.eye(r.shape[0]))
    return rinv @ rinv.T


class DependentColumnsError(ValueError):
    """Linearly dependent predictors: ``columns`` holds the candidate columns
    at fault, none when the common predictors are dependent."""

    def __init__(self, message, columns=()):
        super().__init__(message)
        self.columns = tuple(columns)


def _replicate_error(error, j, message, *args):
    """``error(message, *args)``; for stacked replicate j (None when not
    stacked) the message starts "replicate j: " and the exception carries j
    as ``replicate``, so a caller can name that replicate its own way."""
    if j is None:
        return error(message, *args)
    exc = error(f"replicate {j}: {message}", *args)
    exc.replicate = j
    return exc


def _raise_first(failed, message, error=ValueError):
    """Raise ``error(message)`` where ``failed`` (one flag, or one per
    stacked replicate) is set, naming the first failing replicate."""
    failed = np.asarray(failed)
    if failed.any():
        raise _replicate_error(error, int(np.argmax(failed)) if failed.ndim else None, message)


def _column_scale(a):
    """Per column of ``a`` (axis -2), the exponent e for which its largest
    magnitude is m 2^e with m in [1/2, 1) (0 for a zero column)."""
    return np.frexp(np.max(np.abs(a), axis=-2))[1]


def _column_norms(a):
    """Euclidean norms of the columns of ``a`` (axis -2), each column
    scaled by a power of two first, so that no square overflows or
    underflows to zero."""
    e = _column_scale(a)
    scaled = np.ldexp(a, -e[..., None, :])
    return np.ldexp(np.sqrt(np.sum(scaled * scaled, axis=-2)), e)


def _common_basis(x0):
    """Orthonormal basis of span(x0), per replicate if x0 is stacked; raises
    on rank deficiency."""
    if x0.shape[-1] == 0:
        return np.zeros(x0.shape)
    q0, r0 = np.linalg.qr(x0)
    diag = np.abs(np.diagonal(r0, axis1=-2, axis2=-1))
    _raise_first(np.any(_rank_lost(diag, _column_norms(x0)), axis=-1),
                 "degenerate common predictors", DependentColumnsError)
    return q0


def _project_out(q0, x):
    """x minus its projection on the orthonormal columns q0, in two passes."""
    q0t = np.swapaxes(q0, -1, -2)
    x = x - q0 @ (q0t @ x)
    # One more pass kills the O(eps * kappa) residue of the first projection.
    x -= q0 @ (q0t @ x)
    return x


def orthogonalize(dataset: Dataset) -> Dataset:
    """Project the common predictors out of every candidate column.

    Returns a dataset whose candidate matrix satisfies x0'x = 0 (each entry
    below 1e-10 times the product of the column norms); the response and
    common predictors are untouched.  With a single intercept column this is
    ordinary centering.  A stacked dataset is projected replicate by
    replicate, in one batched product.  A candidate column inside span(x0),
    whose projection keeps at most ``RANK_RTOL`` of its norm, raises
    ``DependentColumnsError`` naming it.
    """
    if dataset.p0 == 0:
        return dataset
    x_new = _project_out(_common_basis(dataset.x0), dataset.x)
    inside = _rank_lost(_column_norms(x_new), _column_norms(dataset.x))
    if inside.any():
        rep, j = divmod(int(np.argmax(inside)), dataset.p)
        raise _replicate_error(DependentColumnsError, rep if inside.ndim == 2 else None,
                               f"candidate column {j} lies in the span of the common "
                               "predictors", (j,))
    return Dataset(y=dataset.y, x0=dataset.x0, x=x_new)


def _canonical_subset(subset, p):
    cols = tuple(sorted(int(j) for j in subset))
    if len(set(cols)) != len(cols):
        raise ValueError("subset contains repeated indices")
    if cols and (cols[0] < 0 or cols[-1] >= p):
        raise ValueError(f"subset indices must lie in [0, {p})")
    return cols


def fit_suffstats(dataset: Dataset, subset) -> SuffStats:
    """Least-squares sufficient statistics for one subset of predictors.

    The common predictors are projected out of the selected columns and
    of y first, so any dataset will do; the rank test divides by the column
    norms before the projection, and its failure is a
    ``DependentColumnsError`` naming the columns it flags, as in
    ``fit_models``.  The empty subset
    yields the null model: p = 0, ssr = 0, r2 = 0 and sse equal to the total
    sum of squares about the common-predictor fit.
    """
    if dataset.replicates is not None:
        raise ValueError("fit_suffstats needs a single dataset; fit_models takes stacked ones")
    cols = _canonical_subset(subset, dataset.p)
    p_i = len(cols)
    n, p0 = dataset.n, dataset.p0
    if n <= p0 + p_i:
        raise ValueError(
            f"insufficient sample size: n={n} with p0={p0} and {p_i} selected predictors"
        )
    q0 = _common_basis(dataset.x0)
    ytilde = dataset.y - q0 @ (q0.T @ dataset.y)
    total = float(ytilde @ ytilde)
    if p_i == 0:
        return SuffStats(
            n=n,
            p0=p0,
            p=0,
            beta_hat=np.zeros(0),
            sse=total,
            ssr=0.0,
            gram_chol=np.zeros((0, 0)),
        )
    xs = dataset.x[:, cols]
    q, r = np.linalg.qr(_project_out(q0, xs))
    lost = _rank_lost(np.abs(np.diag(r)), _column_norms(xs))
    if lost.any():
        raise DependentColumnsError(f"selected columns {cols} are rank deficient",
                                    np.asarray(cols)[lost].tolist())
    # Fix the QR sign convention so repeated fits agree bit for bit.
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    q = q * signs
    r = r * signs[:, None]
    u = q.T @ ytilde
    beta = np.linalg.solve(r, u)
    resid = ytilde - q @ u
    sse = float(resid @ resid)
    ssr = float(u @ u)
    # Signal at the level of squared rounding noise in y is an exact zero.
    if ssr <= 1e-24 * max(float(dataset.y @ dataset.y), 1.0):
        ssr = 0.0
    return SuffStats(n=n, p0=p0, p=p_i, beta_hat=beta, sse=sse, ssr=ssr, gram_chol=r)


def model_mask(models, p: int) -> np.ndarray:
    """Boolean (len(models), p) matrix; row i marks the columns of models[i]."""
    sizes = [len(m) for m in models]
    rows = np.repeat(np.arange(len(sizes)), sizes)
    cols = np.fromiter(itertools.chain.from_iterable(models), dtype=np.intp,
                       count=rows.size)
    mask = np.zeros((len(sizes), p), dtype=bool)
    mask[rows, cols] = True
    return mask


def _canonical_models(models, p):
    """Models as sorted index tuples, plus their mask; cheap if already sorted."""
    models = tuple(map(tuple, models))
    flat = np.fromiter(itertools.chain.from_iterable(models), dtype=np.intp)
    if flat.size == 0 or (flat.min() >= 0 and flat.max() < p):
        mask = model_mask(models, p)
        if np.array_equal(np.nonzero(mask)[1], flat):
            return models, mask
    models = tuple(_canonical_subset(m, p) for m in models)
    return models, model_mask(models, p)


@dataclass(frozen=True)
class ModelTable:
    """Least-squares fits of many subsets of one dataset, as parallel arrays.

    Row i belongs to ``models[i]``: its size, ``sse`` and ``ssr`` as in
    ``SuffStats``, its coefficients zero-padded to all p candidate columns
    (``beta``), and its columns as a boolean row of ``mask``.  ``dataset``
    is the one the caller fitted, as given; a model's full ``SuffStats``,
    with its Gram factor, is ``fit_suffstats(table.dataset, table.models[i])``.

    The table of a stacked dataset (``replicates`` = R) has ``sse`` and
    ``ssr`` of shape (R, m) and ``beta`` of shape (R, m, p), row j holding
    replicate j's fits; ``models``, ``sizes`` and ``mask`` are shared.
    """

    dataset: Dataset
    models: tuple
    sizes: np.ndarray
    sse: np.ndarray
    ssr: np.ndarray
    beta: np.ndarray
    mask: np.ndarray

    def __len__(self) -> int:
        return len(self.models)

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def p0(self) -> int:
        return self.dataset.p0

    @property
    def replicates(self) -> int | None:
        return self.dataset.replicates

    @cached_property
    def r2(self) -> np.ndarray:
        """ssr / (sse + ssr), and 0 where ssr is 0, as ``SuffStats.r2``."""
        total = self.sse + self.ssr
        return np.divide(self.ssr, total, out=np.zeros_like(total), where=self.ssr > 0)

    @cached_property
    def one_minus_r2(self) -> np.ndarray:
        """sse / (sse + ssr), and 1 where that total is 0."""
        total = self.sse + self.ssr
        return np.divide(self.sse, total, out=np.ones_like(total), where=total > 0)


def _householder_sweep(a, k, p):
    """Triangularize the first k columns of every gathered [R[:, S], r_y] in
    ``a`` (rows x (k + 1) x batch) by Householder reflections, in place.

    Column j of R[:, S] has no entry below row p - k + j, and reflector j
    keeps that staircase in the columns after it, so it spans rows j ..
    min(p - k + j, rows - 1) only; a reflector of one row would change
    signs alone and is skipped, which leaves the full model untouched.
    Every op is element-wise over the batch.
    """
    rows = a.shape[0]
    for j in range(k):
        last = min(p - k + j, rows - 1)
        if last == j:
            continue
        x = a[j : last + 1, j]
        # x'x and x'a for each column a after it, one row added at a time
        # (row by row, the temporaries stay small enough for the cache).
        dots = x[0] * a[j, j:]
        for i in range(1, last + 1 - j):
            dots += x[i] * a[j + i, j:]
        t = np.copysign(np.sqrt(dots[0]), x[0])  # minus the new diagonal entry
        # x becomes v = x + t e_1 in place: v'v / 2 = t v_0 >= 0 and
        # v'a = x'a + t a_0, so H a = a - v (v'a) / (t v_0); H = I where x is 0.
        x[0] += t
        half = t * x[0]
        f = (dots[1:] + t * a[j, j + 1 :]) / np.where(half > 0, half, np.inf)
        for i in range(last + 1 - j):
            a[j + i, j + 1 :] -= x[i] * f
        a[j, j] = -t


def _size_blocks(sizes, fits, reps, rows):
    """(k, model indices) for each size k > 0 among the models that ``fits``
    allows, split into blocks whose gathered columns hold about
    ``_SWEEP_BLOCK`` numbers."""
    # The sizes present, without np.unique: it imports numpy.ma on first use.
    for k in np.flatnonzero(np.bincount(sizes[(sizes > 0) & fits])):
        every = np.flatnonzero(sizes == k)
        blocks = -(-every.size * reps * rows * (k + 1) // _SWEEP_BLOCK)
        step = -(-every.size // blocks)
        yield from ((k, every[i : i + step]) for i in range(0, every.size, step))


def fit_models(dataset: Dataset, models) -> ModelTable:
    """``fit_suffstats`` for every subset in ``models``, batched by model size.

    ``models`` is a list of column subsets, or a ``ModelSpace`` whose cached
    models and mask are used as they are.  The common predictors are
    projected out of x as ``orthogonalize`` does and out of y once (the
    table keeps the dataset as given), and [x, y~] = Q R is factored once per
    replicate, R having min(n, p + 1) rows.  As x[:, S] = Q R[:, S], all
    models of one size k, in every replicate, are fitted together by one
    Householder sweep over their gathered [R[:, S], r_y], R's columns S and
    its last column, with no LAPACK call per model (``_householder_sweep``):
    reflector j spans rows j .. p - k + j only, as R[:, S] is a staircase.
    After it the leading k x k block r and the first k entries u of the
    last column give r beta = u by back substitution and ssr = |u|^2, and
    the sum of squares of that column's rows k.. is sse (Golub & Van Loan,
    Matrix Computations, section 5.3).  Each column of R is first scaled by
    a power of two, exactly (R(A D) = R(A) D), so that no square overflows.
    The sweep and the sums are element-wise over the models and replicates,
    so each replicate's fits are bit for bit those of fitting it alone.
    A model that ``fit_suffstats`` rejects raises the same ValueError here,
    prefixed with the index and columns of the first such model (and, when
    stacked, of the first replicate that has one).  The rank test divides
    by the column norms before the projection, and its failure is a
    ``DependentColumnsError`` with every column it flags in that replicate.
    """
    n, p0, p = dataset.n, dataset.p0, dataset.p
    # A ModelSpace (duck-typed: modelspace imports this module) over these
    # columns carries its models in canonical order with their mask.
    space_mask = getattr(models, "mask", None)
    if space_mask is not None and space_mask.shape[1] == p:
        models, mask, sizes = models.models, space_mask, models.sizes
    else:
        models, mask = _canonical_models(getattr(models, "models", models), p)
        sizes = np.count_nonzero(mask, axis=1)
    m = len(models)
    # The single dataset is the one-replicate stack.
    stacked = dataset.replicates is not None
    y = dataset.y if stacked else dataset.y[None]
    reps = y.shape[0]
    with np.errstate(over="ignore"):  # reported just below
        yy = (y[:, None, :] @ y[:, :, None])[:, 0]
    overflow = ~np.isfinite(yy[:, 0])
    _raise_first(overflow if stacked else overflow[0], "the sum of squares of y overflows")
    q0 = _common_basis(dataset.x0)
    ytilde = y - (q0 @ (q0.swapaxes(-1, -2) @ y[..., None]))[..., 0]
    col_norms = _column_norms(dataset.x).reshape(reps, p)
    x = _project_out(q0, dataset.x).reshape(reps, n, p)

    too_small = n <= p0 + sizes
    dependent = np.zeros((reps, m, p), dtype=bool)  # the columns each rank test flags
    tss = (ytilde[:, None, :] @ ytilde[:, :, None])[:, 0]
    sse = np.repeat(tss, m, axis=1)
    ssr = np.zeros((reps, m))
    beta = np.zeros((reps, m, p))
    # [x, y~] = Q R, so each model is fitted from R's min(n, p + 1) rows:
    # its columns of R in place of x[:, S], R's last column in place of y~.
    r_full = np.linalg.qr(np.concatenate([x, ytilde[..., None]], axis=-1), mode="r")
    rows = r_full.shape[-2]
    # Column c of R times 2^-e[c] has its largest magnitude in [1/2, 1).
    e = _column_scale(r_full)
    rt = np.ascontiguousarray(np.ldexp(r_full, -e[:, None, :]).transpose(1, 2, 0))
    e, norms = e.T, col_norms.T  # columns first, as in rt
    for k, sel in _size_blocks(sizes, ~too_small, reps, rows):
        idx = np.nonzero(mask[sel])[1].reshape(sel.size, k).T
        aug = np.concatenate([idx, np.full((1, sel.size), p)])
        # rows x (k + 1) x (models x replicates), the replicate varying fastest.
        a = rt[:, aug].reshape(rows, k + 1, -1)
        _householder_sweep(a, k, p)
        diag = np.abs(a[np.arange(k), np.arange(k)]).reshape(k, sel.size, reps)
        flag = _rank_lost(np.ldexp(diag, e[idx]), norms[idx])
        dependent[:, sel[:, None], idx.T] = flag.transpose(2, 1, 0)
        if flag.any():
            continue
        # [R[:, S], r_y] is now [r, u; 0, z] with r beta = u, ssr = |u|^2 and
        # sse = |z|^2, in units of the scaled columns, each sum taken row by
        # row so that its rounding cannot depend on the batch.
        u = a[:k, k]
        ssr_s = sum(row * row for row in u)
        sse_s = sum(row * row for row in a[k:, k])
        for j in range(k - 1, -1, -1):
            u[j] /= a[j, j]
            u[:j] -= a[:j, j] * u[j]
        ey = e[p]
        beta[:, sel[:, None], idx.T] = np.ldexp(u.reshape(k, sel.size, reps),
                                                ey - e[idx]).transpose(2, 1, 0)
        sse[:, sel] = np.ldexp(sse_s.reshape(sel.size, reps), 2 * ey).T
        ssr[:, sel] = np.ldexp(ssr_s.reshape(sel.size, reps), 2 * ey).T

    failed = too_small | dependent.any(axis=-1)
    if failed.any():
        j = int(np.argmax(failed.any(axis=1)))
        i = int(np.argmax(failed[j]))
        cols = models[i]
        rep = j if stacked else None
        where = f"model {i} (columns {cols}): "
        if too_small[i]:
            raise _replicate_error(ValueError, rep, f"{where}insufficient sample size: n={n} "
                                   f"with p0={p0} and {len(cols)} selected predictors")
        raise _replicate_error(DependentColumnsError, rep,
                               f"{where}selected columns {cols} are rank deficient",
                               np.flatnonzero(dependent[j].any(axis=0)).tolist())
    # Signal at the level of squared rounding noise in y is an exact zero.
    ssr[ssr <= 1e-24 * np.maximum(yy, 1.0)] = 0.0
    if not stacked:
        sse, ssr, beta = sse[0], ssr[0], beta[0]
    return ModelTable(dataset=dataset, models=models, sizes=sizes, sse=sse, ssr=ssr,
                      beta=beta, mask=mask)


@dataclass(frozen=True)
class CorrelationSpec:
    """Target sample correlation for simulated designs.

    ``kind`` is one of ``identity``, ``ar1`` (entries rho^|i-j|) or
    ``explicit`` (a full matrix, which must be symmetric positive definite
    with unit diagonal).
    """

    kind: str
    rho: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "ar1", "explicit"):
            raise ValueError(f"unknown correlation kind {self.kind!r}")
        if self.kind == "ar1":
            if self.rho is None or not -1.0 < self.rho < 1.0:
                raise ValueError("ar1 correlation needs rho in (-1, 1)")
        if self.kind == "explicit":
            m = np.asarray(self.matrix, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("explicit correlation matrix must be square")
            if not np.allclose(m, m.T, atol=1e-12):
                raise ValueError("correlation matrix must be symmetric")
            if not np.allclose(np.diag(m), 1.0, atol=1e-12):
                raise ValueError("correlation matrix must have unit diagonal")
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                raise ValueError("correlation matrix must be positive definite")
            object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls) -> "CorrelationSpec":
        return cls(kind="identity")

    @classmethod
    def ar1(cls, rho: float) -> "CorrelationSpec":
        return cls(kind="ar1", rho=float(rho))

    @classmethod
    def explicit(cls, matrix) -> "CorrelationSpec":
        return cls(kind="explicit", matrix=matrix)

    def matrix_for(self, p: int) -> np.ndarray:
        if self.kind == "identity":
            return np.eye(p)
        if self.kind == "ar1":
            idx = np.arange(p)
            return self.rho ** np.abs(idx[:, None] - idx[None, :])
        if self.matrix.shape[0] != p:
            raise ValueError(
                f"explicit correlation is {self.matrix.shape[0]}x{self.matrix.shape[0]}, need {p}"
            )
        return self.matrix


def correlated_design_from_raw(raw: np.ndarray, spec: CorrelationSpec) -> np.ndarray:
    """Deterministically transform raw draws into an exactly-correlated design.

    The raw matrix is centered, its principal-component scores are rescaled
    to exact unit 1/n sample variance, and the result is multiplied by the
    transposed Cholesky factor of the target correlation.  The returned X is
    centered and satisfies (X'X)/n = target to floating-point accuracy.
    Raw draws of shape (R, n, p) give R designs from one batched SVD, each
    as it would be alone; a rank-deficient one is named by its index.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim not in (2, 3):
        raise ValueError("raw draws must be a 2-d array, or 3-d with a leading replicate axis")
    n, p = raw.shape[-2:]
    if n <= p:
        raise ValueError(f"need n > p for the orthogonalization step, got n={n}, p={p}")
    z = raw - raw.mean(axis=-2, keepdims=True)
    u, s, _ = np.linalg.svd(z, full_matrices=False)
    _raise_first(s[..., -1] <= 1e-12 * s[..., 0], "raw draws are numerically rank deficient")
    scores = np.sqrt(n) * u
    chol = np.linalg.cholesky(spec.matrix_for(p))
    return scores @ chol.T


def make_correlated_design(
    n: int, p: int, spec: CorrelationSpec, rng: np.random.Generator
) -> np.ndarray:
    """Centered, standardized n x p design whose (X'X)/n equals the target.

    Draws are standard normal from ``rng``; the same seed reproduces the
    same matrix bit for bit.
    """
    return correlated_design_from_raw(rng.standard_normal((n, p)), spec)


def load_dataset_csv(path) -> tuple[Dataset, list[str]]:
    """Read a dataset from CSV and return it with the candidate column labels.

    Expected layout: a header row with a ``y`` column, optional common
    predictors named ``x0_*`` (an intercept is added when none are present),
    and candidate predictors named ``x1`` .. ``xp``; no name may repeat.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("malformed CSV: empty file")
        header = [h.strip() for h in header]
        rows, lines = [], []  # the non-blank rows and their line numbers
        for row in reader:
            if row and any(cell.strip() for cell in row):
                rows.append(row)
                lines.append(reader.line_num)

    repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
    if repeated is not None:
        raise ValueError(f"malformed CSV: duplicate column {repeated!r}")
    if "y" not in header:
        raise ValueError("malformed CSV: missing required column 'y'")
    x0_names = [h for h in header if h.startswith("x0_")]
    x_names = [h for h in header if h != "y" and h not in x0_names]
    for name in x_names:
        if not re.fullmatch(r"x[1-9][0-9]*", name):
            raise ValueError(f"malformed CSV: unexpected column {name!r}; candidate "
                             "columns are x1..xp")
    order = sorted(x_names, key=lambda s: int(s[1:]))
    expected = [f"x{i}" for i in range(1, len(order) + 1)]
    if order != expected:
        missing = next(e for e, g in zip(expected, order + [None]) if e != g)
        raise ValueError(f"malformed CSV: candidate columns must be x1..xp, missing {missing!r}")

    idx = {name: header.index(name) for name in header}

    def column(name):
        out = np.empty(len(rows))
        for i, row in enumerate(rows):
            if len(row) != len(header):
                raise ValueError(f"malformed CSV: row {lines[i]} has {len(row)} fields, "
                                 f"expected {len(header)}")
            cell = row[idx[name]].strip()
            try:
                out[i] = float(cell)
            except ValueError:
                raise ValueError(
                    f"malformed CSV: column {name!r} row {lines[i]} is not numeric: {cell!r}"
                )
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"malformed CSV: column {name!r} row {lines[i]} is not finite: "
                             f"{rows[i][idx[name]].strip()!r}")
        return out

    if not rows:
        raise ValueError("malformed CSV: no data rows")
    y = column("y")
    x = np.column_stack([column(name) for name in order]) if order else np.zeros((len(rows), 0))
    if x0_names:
        x0 = np.column_stack([column(name) for name in x0_names])
        dataset = Dataset(y=y, x0=x0, x=x)
    else:
        dataset = Dataset.with_intercept(y, x)
    return dataset, order
