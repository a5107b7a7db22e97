"""Zellner-Siow evidence against mpmath: the exact mixture against a
40-digit integral, and its Laplace approximation against the same formula
at 50 digits.

The exact reference integrates the mixture, BF(g) pi(g) with g ~
inverse-gamma(1/2, n/2), on the t = log g axis, cut at the mode and at
growing steps on either side so that each piece is smooth for the
Gauss-Legendre rule.  It checks the log Bayes factor and the posterior
mean of g/(1+g), from the kernel ``zs_evidence_batch``, from the scalar
``log_bf_zs`` and from the per-size series that ``evidence`` sums, across
sample sizes, model sizes, fits and common-predictor counts p0, including
n = p0 + p + 1, the smallest sample the rule accepts, and fits near the
null at large n.
"""

import mpmath
import numpy as np
import pytest

from ml2bf.bayesfactors import (
    _one_minus_r2,
    _zs_mode,
    evidence,
    log_bf_zs,
    log_bf_zs_laplace,
    zs_evidence_batch,
)
from ml2bf.regression import SuffStats

from util import one_model_table

P0 = 1  # the common predictors of every cell but the p0 sweep
_SIZES = (1, 2, 8, 16)
_FITS = (0.5, 1e-3, 1e-8)  # 1 - r2
# Piece edges around the mode, in units of log g.
_EDGES = (-32, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16, 32, 64, 128, 256)


def _cells(ns, p0=P0, sizes=_SIZES):
    for p in sizes:
        for n in sorted({int(n) for n in ns(p0, p)}):
            if n > p0 + p:
                for omr2 in _FITS:
                    yield n, p, omr2


def _reference(n, p, omr2, p0=P0):
    """log BF and E[g/(1+g)] of the mixture, by mpmath at 40 digits."""
    with mpmath.workdps(40):
        q, w = n - p0, mpmath.mpf(omr2)
        const = 0.5 * mpmath.log(mpmath.mpf(n) / 2) - 0.5 * mpmath.log(mpmath.pi)

        def psi(t, g):
            return (0.5 * (q - p) * mpmath.log1p(g) - 0.5 * q * mpmath.log1p(w * g)
                    - 0.5 * t - 0.5 * n / g + const)

        # Any centre near the peak will do: the mode in g, with the bend of
        # the likelihood at g = 1/w as one more edge.
        mode = mpmath.log(float(_zs_mode(n, p0, np.array([float(p)]), np.array([omr2]), 3)[0]))
        edges = sorted({mode + e for e in _EDGES} | {-mpmath.log(w)})
        edges = [t for t in edges if mode + _EDGES[0] <= t <= mode + _EDGES[-1]]
        top = psi(mode, mpmath.exp(mode))
        nodes = {}  # both integrals visit the same nodes

        def node(t):
            if t not in nodes:
                g = mpmath.exp(t)
                f = mpmath.exp(psi(t, g) - top)
                nodes[t] = f, f * g / (1 + g)
            return nodes[t]

        # Degree 6 is 96 Gauss-Legendre nodes a piece; the error estimates
        # confirm that it is far more than the comparison needs.
        rule = dict(method="gauss-legendre", maxdegree=6, error=True)
        total, err = mpmath.quad(lambda t: node(t)[0], edges, **rule)
        weighted, werr = mpmath.quad(lambda t: node(t)[1], edges, **rule)
        assert err <= 1e-20 * total and werr <= 1e-20 * weighted
        return float(top + mpmath.log(total)), float(weighted / total)


def _one_model_stats(n, p, omr2, p0):
    """The scalar rules' input for ``one_model_table``'s model."""
    stats = SuffStats(n=n, p0=p0, p=p, beta_hat=np.zeros(p), sse=omr2, ssr=1.0 - omr2,
                      gram_chol=np.eye(p))
    assert _one_minus_r2(stats) == omr2
    return stats


def _agrees(got, ref):
    assert np.isfinite(got) and abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (got, ref)


def _check(n, p, omr2, p0=P0):
    ref_bf, ref_shrink = _reference(n, p, omr2, p0)
    _agrees(log_bf_zs(_one_model_stats(n, p, omr2, p0)), ref_bf)
    for log_bf, shrink in (zs_evidence_batch(n, p0, [p], [omr2], want_shrinkage=True),
                           evidence("zs", one_model_table(n, p, omr2, p0),
                                    want_shrinkage=True)):
        _agrees(log_bf[0], ref_bf)
        assert shrink[0] == pytest.approx(ref_shrink, rel=1e-10, abs=0.0)


# p0 = 1 over every size up to n = 1e6, and p = 64 at n in {p0 + p + 1,
# 1e3, 1e6}, whose narrow peak pins the curvature-scaled step; p0 = 0 and 2
# over p in {1, 8} up to n = 1e3.  The p0 = 1 cells are named n-p-omr2, the
# others carry p0 first.
_MPMATH_CELLS = [
    pytest.param(n, p, omr2, P0, id=f"{n}-{p}-{omr2}")
    for n, p, omr2 in [*_cells(lambda p0, p: (p0 + p + 1, 10, 1e3, 1e6)),
                       *_cells(lambda p0, p: (p0 + p + 1, 1e3, 1e6), sizes=(64,))]
] + [
    pytest.param(n, p, omr2, p0, id=f"p0={p0}-{n}-{p}-{omr2}")
    for p0 in (0, 2)
    for n, p, omr2 in _cells(lambda p0, p: (p0 + p + 1, 10, 1e3), p0, (1, 8))
]


@pytest.mark.parametrize("n,p,omr2,p0", _MPMATH_CELLS)
def test_matches_mpmath(n, p, omr2, p0):
    _check(n, p, omr2, p0)


@pytest.mark.parametrize("n,p,omr2", list(_cells(lambda p0, p: (1e8, 1e10))))
def test_large_n_is_accurate_or_raises(n, p, omr2):
    # The kernel's log integrand keeps only terms of order p log n, so its
    # rounding stays far below the tolerance at this size: every cell must
    # meet the oracle's accuracy, with no QuadratureError.
    _check(n, p, omr2)


@pytest.mark.parametrize("n,p,c", [(n, p, c) for n in (10**6, 10**8, 10**10)
                                   for p in _SIZES for c in (0.5, 2, 8)])
def test_near_null_large_n(n, p, c):
    # r2 = c p / n straddles the bend of the evidence near the null, where
    # log BF(g) alone is a difference of two terms of order n log n.
    _check(n, p, 1.0 - c * p / n)


def _laplace_reference(n, p, omr2, p0=P0):
    """The Laplace approximation f(g*) + log(2 pi / -f''(g*)) / 2 of the log
    integrand f = log BF(g) pi(g), at 50 digits, with the root g* of f'
    found by ``findroot`` from the closed-form mode."""
    with mpmath.workdps(50):
        q, w = n - p0, mpmath.mpf(omr2)
        g = mpmath.findroot(
            lambda g: 0.5 * (q - p) / (1 + g) - 0.5 * q * w / (1 + w * g) - 1.5 / g
            + 0.5 * n / g**2,
            mpmath.mpf(float(_zs_mode(n, p0, np.array([float(p)]), np.array([omr2]), 3)[0])))
        log_f = (0.5 * (q - p) * mpmath.log1p(g) - 0.5 * q * mpmath.log1p(w * g)
                 + 0.5 * mpmath.log(mpmath.mpf(n) / 2) - 0.5 * mpmath.log(mpmath.pi)
                 - 1.5 * mpmath.log(g) - 0.5 * n / g)
        curvature = (0.5 * (q - p) / (1 + g)**2 - 0.5 * q * w**2 / (1 + w * g)**2
                     - 1.5 / g**2 + n / g**3)
        return float(log_f + 0.5 * mpmath.log(2 * mpmath.pi / curvature))


# Sizes 1, 2 and 8 at the three fits for n from 10 to 1e10, and r2 = c p / n
# near the null for n from 1e6, where the two leading terms of -f'' are each
# about q / (2 g^2).
_LAPLACE_CELLS = [
    *((n, p, omr2) for n in (10, 10**3, 10**6, 10**8, 10**10) for p in (1, 2, 8)
      for omr2 in _FITS),
    *((n, p, 1.0 - c * p / n) for n in (10**6, 10**8, 10**10) for p in (1, 2, 8)
      for c in (0.5, 2, 8)),
]


@pytest.mark.parametrize("n,p,omr2", _LAPLACE_CELLS)
def test_laplace_matches_mpmath(n, p, omr2):
    ref = _laplace_reference(n, p, omr2)
    _agrees(log_bf_zs_laplace(_one_model_stats(n, p, omr2, P0)), ref)
    _agrees(evidence("zs", one_model_table(n, p, omr2, P0), zs_rule="laplace")[0], ref)
