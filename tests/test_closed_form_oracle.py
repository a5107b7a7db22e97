"""The closed-form evidence rules against 40-digit mpmath references.

Each cell is one model of size p with p0 = 1 common predictor, scored by
``evidence`` on a one-model table and by the scalar ``log_bf_*`` rule on
its ``SuffStats``.  The fit has sse = 1 - r2 and ssr = r2 summing to
exactly 1, so both paths and the reference read the same 1 - r2 with no
rounding.  Fits run from the null's neighbourhood (r2 = c p / n) to
strong ones (1 - r2 down to 1e-8), and n from the smallest sample the
rules accept to 1e10, where the fixed-g evidence is a difference of two
terms of order n log n.
"""

import mpmath
import pytest

from ml2bf.bayesfactors import (
    evidence,
    log_bf_aic,
    log_bf_bic,
    log_bf_bic_prior,
    log_bf_gprior,
    log_bf_local_eb,
    log_bf_ml2,
)

from util import make_stats, one_model_table

P0 = 1


def _reference(rule, n, p, omr2):
    """The rule's log Bayes factor at 40 digits."""
    with mpmath.workdps(40):
        n, q, k = mpmath.mpf(n), mpmath.mpf(n - P0), mpmath.mpf(p)
        w = mpmath.mpf(omr2)
        r2 = 1 - w

        def fixed_g(g):
            return 0.5 * (q - k) * mpmath.log1p(g) - 0.5 * q * mpmath.log1p(g * w)

        if rule == "lb":
            value = fixed_g(n)
        elif rule == "ml2":
            if r2 <= (n + 1) / (2 * n - P0):
                value = fixed_g(n)
            else:
                log_phi = (k - 1) * mpmath.log(n + 1) + q * mpmath.log(q) \
                    - (q - 1) * mpmath.log(q - 1)
                value = -0.5 * log_phi - 0.5 * mpmath.log(r2) - 0.5 * (q - 1) * mpmath.log(w)
        elif rule == "bic":
            value = -0.5 * k * mpmath.log(n) - 0.5 * n * mpmath.log(w)
        elif rule == "bicprior":
            value = -0.5 * k * mpmath.log(n + 1) - 0.5 * q * mpmath.log(w)
        elif rule == "aic":
            value = -0.5 * n * mpmath.log(w) - k
        else:  # ghat
            g_hat = (q * r2 - k) / (k * w)
            value = max(fixed_g(g_hat), 0) if g_hat > 0 else mpmath.mpf(0)
        return float(value)


_SCALAR = {
    "ml2": log_bf_ml2,
    "lb": lambda s: log_bf_gprior(s, float(s.n)),
    "bic": log_bf_bic,
    "bicprior": log_bf_bic_prior,
    "aic": log_bf_aic,
    "ghat": lambda s: log_bf_local_eb(s)[0],
}


def _exact(omr2):
    """omr2 rounded so that 1 - omr2 is exact and omr2 + (1 - omr2) == 1."""
    return 1.0 - (1.0 - omr2)


def _cells():
    """(n, p, 1 - r2) cells, named by n, p and the nominal fit."""
    cells = {}
    for p in (1, 2, 8):
        for n in (P0 + p + 1, 10, 50, 10**3, 10**6, 10**8, 10**10):
            fits = {f"r2={c}p/n": 1.0 - c * p / n for c in (0.5, 2, 8) if c * p / n < 1}
            fits.update({f"omr2={w:g}": w for w in (0.5, 1e-3, 1e-8)})
            for name, omr2 in fits.items():
                cells[f"{n}-{p}-{name}"] = pytest.param(n, p, _exact(omr2), id=f"{n}-{p}-{name}")
    return list(cells.values())


@pytest.mark.parametrize("rule", list(_SCALAR))
@pytest.mark.parametrize("n,p,omr2", _cells())
def test_matches_mpmath(rule, n, p, omr2):
    ref = _reference(rule, n, p, omr2)
    tol = 1e-12 * max(1.0, abs(ref))
    stats = make_stats(n, P0, p, 1.0 - omr2)
    assert (stats.sse, stats.ssr) == (omr2, 1.0 - omr2)
    for value in (evidence(rule, one_model_table(n, p, omr2, P0))[0], _SCALAR[rule](stats)):
        assert abs(value - ref) <= tol, (value, ref)
