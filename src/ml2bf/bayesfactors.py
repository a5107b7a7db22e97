"""Closed-form log marginal likelihoods and null-based Bayes factors.

Everything is computed and returned in the natural-log domain; conversion to
probabilities happens only at the model-space layer.  Every rule scores the
null model 0 and an exact fit (r2 >= ``R2_SATURATION``) +inf, an explicit
overwhelming-evidence marker, never a silent overflow.

The scalar ``log_bf_*`` functions score one ``SuffStats``; ``evidence``
scores every model of a ``ModelTable`` at once with the same branches and
alone decides its markers: the Zellner-Siow kernels only integrate.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .regression import ModelTable, SuffStats, inverse_from_factor

__all__ = [
    "Ml2Covariance",
    "PriorMethod",
    "QuadratureError",
    "ml2_covariance",
    "log_bf_ml2",
    "shrinkage_factor_ml2",
    "log_bf_gprior",
    "log_bf_bic",
    "log_bf_bic_prior",
    "log_bf_zs",
    "log_bf_zs_laplace",
    "log_bf_local_eb",
    "log_bf_aic",
    "log_marginal_fixed_cov",
    "log_marginal_null",
    "log_bf_fixed_cov",
    "log_marginal_known_variance",
    "log_marginal_null_known_variance",
    "log_bf_known_variance",
    "ml2_known_variance_log_bf",
    "known_variance_evidence",
    "zs_evidence_batch",
    "zs_laplace_batch",
    "evidence",
    "METHOD_KINDS",
    "ZS_RULES",
]

# r2 at or beyond this is an exact fit, scored +inf by every rule.
R2_SATURATION = 1.0 - 1e-14


def __getattr__(name):
    # Uncalled; the benchmark's tracer looks it up here, so it loads on first use.
    if name != "minimize_scalar":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import minimize_scalar
    return minimize_scalar


class QuadratureError(RuntimeError):
    """Quadrature missed its tolerance; ``residual`` is the error estimate."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class Ml2Covariance:
    """Constrained marginal-likelihood-maximizing prior covariance, factored.

    The implied matrix is ``a * outer(beta_hat, beta_hat) + n * (X'X)^{-1}``
    where the Gram matrix is carried as its triangular factor.
    """

    a: float
    beta_hat: np.ndarray
    gram_chol: np.ndarray
    n: int

    @property
    def matrix(self) -> np.ndarray:
        return self.a * np.outer(self.beta_hat, self.beta_hat) + self.lower_bound_matrix()

    def lower_bound_matrix(self) -> np.ndarray:
        return self.n * inverse_from_factor(self.gram_chol)


METHOD_KINDS = ("ml2", "lb", "bic", "bicprior", "zs", "ghat", "aic")
ZS_RULES = ("exact", "laplace")  # how ``evidence`` scores the zs rule

_METHOD_ALIASES = {"ml": "ml2", "bic_prior": "bicprior", "local_eb": "ghat"}


@dataclass(frozen=True)
class PriorMethod:
    """An evidence rule's name (one of ``METHOD_KINDS``), plus the fixed g
    that only ``lb`` takes (the sample size when None).  ``evidence`` also
    takes the bare name."""

    kind: str
    g: float | None = None

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"unknown evidence rule {self.kind!r}")
        if self.g is not None:
            if self.kind != "lb":
                raise ValueError("fixed g only applies to the lb rule")
            if not self.g > 0:
                raise ValueError("g must be positive")

    @classmethod
    def parse(cls, token: str) -> "PriorMethod":
        kind = _METHOD_ALIASES.get(token.strip().lower(), token.strip().lower())
        return cls(kind=kind)


def _require_scope(stats: SuffStats):
    if stats.n <= stats.p0 + stats.p:
        raise ValueError(
            f"insufficient sample size: n={stats.n}, p0={stats.p0}, p={stats.p}"
        )


def _marker(stats: SuffStats) -> float | None:
    """The null model's 0 and an exact fit's +inf, or None for a model that
    its rule scores."""
    if stats.p == 0:
        return 0.0
    if stats.r2 >= R2_SATURATION:
        return math.inf
    return None


def _one_minus_r2(stats: SuffStats) -> float:
    total = stats.total_ss
    return stats.sse / total if total > 0 else 1.0


def ml2_covariance(stats: SuffStats) -> Ml2Covariance:
    """Marginal-likelihood maximizer over covariances at least unit-information.

    ``a = max(0, (n - p0 - 1)/sse - (n + 1)/ssr)``; a zero least-squares fit
    (ssr = 0) drops the rank-one term entirely.
    """
    _require_scope(stats)
    if stats.sse <= 0:
        raise ValueError("saturated fit: marginal unbounded")
    if stats.ssr <= 0:
        a = 0.0
    else:
        a = max(0.0, (stats.n - stats.p0 - 1) / stats.sse - (stats.n + 1) / stats.ssr)
    return Ml2Covariance(a=a, beta_hat=stats.beta_hat, gram_chol=stats.gram_chol, n=stats.n)


def log_bf_gprior(stats: SuffStats, g: float) -> float:
    """Null-based log Bayes factor under a fixed-g prior on the coefficients."""
    _require_scope(stats)
    if not g > 0:
        raise ValueError("g must be positive")
    if (marker := _marker(stats)) is not None:
        return marker
    q = stats.n - stats.p0
    x = g * stats.r2 / (1.0 + g)
    if x <= 0.5:  # as in _log_bf_fixed_g
        return -0.5 * stats.p * math.log1p(g) - 0.5 * q * math.log1p(-x)
    return 0.5 * (q - stats.p) * math.log1p(g) - 0.5 * q * math.log1p(g * _one_minus_r2(stats))


def log_bf_ml2(stats: SuffStats) -> float:
    """Null-based log Bayes factor under the constrained type II ML prior.

    Below the evidence threshold r2 = (n+1)/(2n-p0) this coincides with the
    unit-information g-prior (g = n); above it the rank-one term of the
    fitted covariance is active.
    """
    _require_scope(stats)
    if (marker := _marker(stats)) is not None:
        return marker
    n, p0, p = stats.n, stats.p0, stats.p
    r2 = stats.r2
    if r2 <= (n + 1) / (2 * n - p0):
        return log_bf_gprior(stats, float(n))
    q = n - p0
    omr2 = _one_minus_r2(stats)
    log_phi = (p - 1) * math.log(n + 1) + q * math.log(q) - (q - 1) * math.log(q - 1)
    return -0.5 * log_phi - 0.5 * math.log(r2) - 0.5 * (q - 1) * math.log(omr2)


def shrinkage_factor_ml2(stats: SuffStats) -> float:
    """Posterior-mean shrinkage under the constrained type II ML prior.

    Equals n/(n+1) up to the evidence threshold r2 = (n+1)/(2n-p0) and
    ``1 - (1-r2)/((n-p0-1) r2)`` above it; continuous at the threshold, and
    tends to 1 as r2 tends to 1.  The null model and an exact fit
    (r2 >= ``R2_SATURATION``) get the marker's 1, as in ``evidence``.
    """
    _require_scope(stats)
    if _marker(stats) is not None:
        return 1.0
    n, p0 = stats.n, stats.p0
    r2 = stats.r2
    if r2 <= (n + 1) / (2 * n - p0):
        return n / (n + 1.0)
    return 1.0 - (1.0 - r2) / ((n - p0 - 1) * r2)


def log_bf_bic(stats: SuffStats) -> float:
    """Log Bayes factor implied by treating exp(-BIC/2) as the marginal."""
    _require_scope(stats)
    if (marker := _marker(stats)) is not None:
        return marker
    omr2 = _one_minus_r2(stats)
    return -0.5 * stats.p * math.log(stats.n) - 0.5 * stats.n * math.log(omr2)


def log_bf_bic_prior(stats: SuffStats) -> float:
    """Log Bayes factor of the MLE-centered unit-information normal prior."""
    _require_scope(stats)
    if (marker := _marker(stats)) is not None:
        return marker
    omr2 = _one_minus_r2(stats)
    q = stats.n - stats.p0
    return -0.5 * stats.p * math.log(stats.n + 1) - 0.5 * q * math.log(omr2)


def log_bf_aic(stats: SuffStats) -> float:
    """Log Bayes factor from exp(-AIC/2) with the criterion -2*loglik + 2p."""
    _require_scope(stats)
    if (marker := _marker(stats)) is not None:
        return marker
    omr2 = _one_minus_r2(stats)
    return -0.5 * stats.n * math.log(omr2) - stats.p


def log_bf_local_eb(stats: SuffStats) -> tuple[float, float]:
    """Log Bayes factor of the g-prior with g fitted per model, plus the fit.

    The stationary point of the fixed-g evidence is
    ``g = ((n - p0) r2 - p) / (p (1 - r2))``, clamped at zero; the returned
    log Bayes factor is therefore never negative.
    """
    _require_scope(stats)
    if (marker := _marker(stats)) is not None:
        return marker, marker
    q = stats.n - stats.p0
    g_hat = max(0.0, (q * stats.r2 - stats.p) / (stats.p * _one_minus_r2(stats)))
    if g_hat == 0.0:
        return 0.0, 0.0
    return max(0.0, log_bf_gprior(stats, g_hat)), g_hat


# ---------------------------------------------------------------------------
# Marginal likelihoods for explicit prior covariances.
#
# All marginals drop the -0.5*log|X0'X0| term, a constant shared by every
# model on the same dataset (it cancels in every Bayes factor).
# ---------------------------------------------------------------------------


def _logdet_and_quad(stats: SuffStats, w):
    """log|M| and u'M^{-1}u for M = I + R W R' and u = R beta_hat, R the
    stored triangular factor, from the Cholesky factor of M."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (stats.p, stats.p):
        raise ValueError(f"prior covariance must be {stats.p}x{stats.p}")
    if not np.isfinite(w).all():
        raise ValueError("prior covariance must be finite")
    r = stats.gram_chol
    try:
        chol = np.linalg.cholesky(np.eye(stats.p) + r @ w @ r.T)
    except np.linalg.LinAlgError:
        raise ValueError("singular prior-plus-gram covariance")
    v = np.linalg.solve(chol, r @ stats.beta_hat)
    return 2.0 * np.sum(np.log(np.diag(chol))), float(v @ v)


def log_marginal_null(stats: SuffStats) -> float:
    """Log marginal of the null model (no candidate predictors)."""
    q = stats.n - stats.p0
    return math.lgamma(q / 2) - 0.5 * q * math.log(math.pi) - 0.5 * q * math.log(stats.total_ss)


def log_marginal_fixed_cov(stats: SuffStats, w) -> float:
    """Log marginal with a fixed prior covariance scale W on the coefficients.

    Integrates the common coefficients and the error variance against the
    right-Haar prior; the coefficient prior is N(0, sigma^2 W).
    """
    _require_scope(stats)
    if stats.p == 0:
        return log_marginal_null(stats)
    q = stats.n - stats.p0
    logdet, quad = _logdet_and_quad(stats, w)
    return float(
        math.lgamma(q / 2)
        - 0.5 * q * math.log(math.pi)
        - 0.5 * logdet
        - 0.5 * q * math.log(stats.sse + quad)
    )


def log_bf_fixed_cov(stats: SuffStats, w) -> float:
    return log_marginal_fixed_cov(stats, w) - log_marginal_null(stats)


def log_marginal_null_known_variance(stats: SuffStats, sigma2: float) -> float:
    q = stats.n - stats.p0
    return float(-0.5 * q * math.log(2 * math.pi * sigma2) - stats.total_ss / (2 * sigma2))


def log_marginal_known_variance(stats: SuffStats, w, sigma2: float) -> float:
    """Log marginal with known error variance and prior N(0, sigma^2 W).

    The common coefficients keep a flat prior; passing an empty W (p = 0)
    recovers the null-model marginal, the point-mass-at-zero limit.
    """
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    if stats.p == 0:
        return log_marginal_null_known_variance(stats, sigma2)
    q = stats.n - stats.p0
    logdet, quad = _logdet_and_quad(stats, w)
    return float(
        -0.5 * q * math.log(2 * math.pi * sigma2)
        - 0.5 * logdet
        - (stats.sse + quad) / (2 * sigma2)
    )


def log_bf_known_variance(stats: SuffStats, w, sigma2: float) -> float:
    return log_marginal_known_variance(stats, w, sigma2) - log_marginal_null_known_variance(
        stats, sigma2
    )


def ml2_known_variance_from_scalars(p, ssr, sigma2: float, unit_scale: float):
    """Scalar core of the known-variance constrained type II ML evidence.

    Along the family ``W = a * outer(beta_hat, beta_hat) + m (X'X)^{-1}``
    the whitened covariance is ``(m+1) I + a u u'`` with ||u||^2 = ssr, so
    the known-variance log Bayes factor collapses to a scalar function of a,
    -log(D)/2 - ssr/(2 sigma2 D) + const in D = m + 1 + a ssr.  It rises up
    to D = ssr/sigma2 and falls after, so the maximizer over a >= 0 is
    a* = max(0, 1/sigma2 - (m+1)/ssr), and a* = 0 when ssr = 0.  ``p`` and
    ``ssr`` broadcast (scalars give 0-d values); p = 0 gives (0, 0).
    """
    m = float(unit_scale)
    if not m > 0:
        raise ValueError("unit_scale must be positive")
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    p, s = np.broadcast_arrays(p, np.asarray(ssr, dtype=np.float64))
    with np.errstate(divide="ignore", over="ignore"):  # a* -> 0 as ssr -> 0
        a_best = np.maximum(0.0, 1.0 / sigma2 - (m + 1.0) / s)
    denom = m + 1.0 + a_best * s
    log_bf = -0.5 * ((p - 1) * math.log(m + 1.0) + np.log(denom)) + (s - s / denom) / (
        2 * sigma2
    )
    return np.where(p == 0, 0.0, log_bf)[()], np.where(p == 0, 0.0, a_best)[()]


def ml2_known_variance_log_bf(
    stats: SuffStats, sigma2: float, unit_scale: float | None = None
) -> tuple[float, float]:
    """Known-variance analog of the constrained type II ML evidence.

    Maximizes the known-variance log marginal over the one-parameter family
    ``W = a * outer(beta_hat, beta_hat) + unit_scale * (X'X)^{-1}``, a >= 0.
    ``unit_scale`` defaults to the sample size (the unit-information lower
    bound).  Returns the log Bayes factor against the null model and the
    fitted coefficient a.
    """
    scale = float(stats.n if unit_scale is None else unit_scale)
    return ml2_known_variance_from_scalars(stats.p, stats.ssr, sigma2, scale)


def known_variance_evidence(rule, sizes, ssr, sigma2: float, unit_scale: float):
    """Null-based log Bayes factor and shrinkage of the known-variance rules.

    A model is its size k and its ssr = ||u||^2 in whitened coordinates;
    m = ``unit_scale`` is the sample size of the unit-information prior.

    - ``ml2``: ``ml2_known_variance_from_scalars``, shrinkage
      1 - 1/(m + 1 + a* ssr);
    - ``lb``: the fixed prior N(0, sigma2 m (X'X)^{-1}),
      -k/2 log(m + 1) + m ssr / (2 sigma2 (m + 1)), shrinkage m/(m + 1);
    - ``bic`` and ``aic``: ssr/(2 sigma2) - k/2 penalty, with penalty log m
      and 2, shrinkage 1.

    ``sizes`` and ``ssr`` broadcast.  Returns (log_bf, shrinkage).  These
    rules read ssr/sigma2, where ``evidence`` reads r2 of a ``ModelTable``.
    """
    if rule not in ("ml2", "lb", "bic", "aic"):
        raise ValueError(f"unknown known-variance rule {rule!r}")
    m = float(unit_scale)
    if not m > 0:
        raise ValueError("unit_scale must be positive")
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    k, s = np.broadcast_arrays(sizes, np.asarray(ssr, dtype=np.float64))
    if rule == "ml2":
        log_bf, a_best = ml2_known_variance_from_scalars(k, s, sigma2, m)
        return log_bf, 1.0 - 1.0 / (m + 1.0 + a_best * s)
    if rule == "lb":
        log_bf = -0.5 * k * math.log(m + 1.0) + m * s / (2.0 * sigma2 * (m + 1.0))
        return log_bf, np.full(log_bf.shape, m / (m + 1.0))
    penalty = math.log(m) if rule == "bic" else 2.0
    log_bf = s / (2.0 * sigma2) - 0.5 * penalty * k
    return log_bf, np.ones(log_bf.shape)


# ---------------------------------------------------------------------------
# Zellner-Siow evidence via the scale-mixture representation.
#
# The multivariate Cauchy prior with scale n (X'X)^{-1} is a mixture of
# fixed-g priors with g ~ inverse-gamma(1/2, n/2); the Bayes factor is the
# corresponding one-dimensional integral of the fixed-g Bayes factor.  With
# q = n - p0 and w = 1 - r2 the kernels integrate BF(g) w^(q/2) instead:
# its log, -p/2 log(1+g) - q/2 log(1 + r2/(w(1+g))), has only terms of
# order p log n near the mode, where log BF(g) is the difference of two
# terms of order q log g.  The integral is T = log BF + q/2 log w, and the
# kernels return T - q/2 log w.  It is computed on a log axis, t = log g,
# where the integrand is analytic and decays on both sides, so the plain
# trapezoidal rule converges geometrically in 1/h (Trefethen & Weideman,
# SIAM Review 56, 2014).  Each model's nodes are t0 + j h around its
# closed-form mode t0 in t, with h set by its closed-form curvature there.
# The log integrand is strictly concave in t, so the nodes walk out, 16 at
# a time on each side, until the outer node is exp(-45) below the mode
# value: nothing further out rises again.  The even nodes form the rule
# with step 2h, which gives the error estimate from the same nodes.
#
# ``evidence`` integrates no model itself.  For one (n, p0, p), T and the
# shrinkage are smooth functions of v = log(1 - q log w), in which the
# near-null bend at r2 ~ p/n sits near v = log(1 + p) whatever n is.  Both
# are sampled through the kernel at the Chebyshev points of v from w = 1 to
# w = 1 - R2_SATURATION, once per (n, p0, largest size) in a process, and
# each model that ``evidence`` does not mark sums its size's two Chebyshev
# series by Clenshaw's recurrence (Trefethen, Approximation Theory and
# Approximation Practice, SIAM 2013).  The kernel stays as the oracle of
# the series.
# ---------------------------------------------------------------------------

_ZS_STEP = 0.2  # the largest step in t
_ZS_PANEL = 16  # nodes added per side and round of the walk-out
_ZS_LOG_WINDOW = 45.0  # integrand below exp(-45) of the mode value is negligible
# Models per quadrature block; each node array of a block is at most
# 16 x 4096 floats (0.5 MB).  It bounds the kernel's working set on large
# ``zs_evidence_batch`` batches; ``_zs_coefficients`` samples 97 models per
# size up to the largest, 1552 at the 16-predictor cap, in one block.
_ZS_BLOCK = 2048
_ZS_TOLERANCE = 1e-8  # largest error estimate accepted
# Degree N of the series in v; its points are cos(j pi / N), j = 0..N, on
# [-1, 1], from the saturation cut (j = 0) to w = 1 (j = N).
_ZS_DEGREE = 96
_ZS_POINTS = np.cos(np.pi * np.arange(_ZS_DEGREE + 1) / _ZS_DEGREE)
_ZS_CACHE = 64  # series kept, keyed by (n, p0, largest size); 1.5 KB per size


def _chebyshev_transform(degree):
    """The (N+1, N+1) matrix from values at cos(j pi / N) to the
    coefficients of the interpolating Chebyshev series (a DCT-I)."""
    j = np.arange(degree + 1)
    m = np.cos(np.pi * (np.outer(j, j) % (2 * degree)) / degree) * (2.0 / degree)
    m[:, [0, -1]] *= 0.5
    m[[0, -1]] *= 0.5
    return m


_ZS_TRANSFORM = _chebyshev_transform(_ZS_DEGREE)


def _zs_models(p_sizes, one_minus_r2):
    """Sizes and 1 - r2 as matching 1-d float arrays; every model must have
    p > 0 and 1 - r2 > 0 (``evidence`` marks the others)."""
    p_arr = np.asarray(p_sizes, dtype=np.float64)
    omr2 = np.asarray(one_minus_r2, dtype=np.float64)
    if p_arr.ndim != 1 or p_arr.shape != omr2.shape:
        raise ValueError("p_sizes and one_minus_r2 must be 1-d arrays of one length")
    if not (np.all(p_arr > 0) and np.all(omr2 > 0)):
        raise ValueError("the Zellner-Siow kernels integrate models with p > 0 and 1 - r2 > 0")
    return p_arr, omr2


def _zs_log_integrand(t, n, q, p, ratio, g=None):
    """Log of BF(g) (1 - r2)^(q/2) pi(g) g at g = exp(t) (pass g if already
    known), with ratio = r2 / (1 - r2); p and ratio broadcast over t."""
    if g is None:
        g = np.exp(t)
    lam = -0.5 * p * np.log1p(g) - 0.5 * q * np.log1p(ratio / (1.0 + g))
    dens = 0.5 * math.log(n / 2.0) - 0.5 * math.log(math.pi) - 0.5 * t - 0.5 * n * np.exp(-t)
    return lam + dens


def _zs_trapezoid(n, p0, p, ell):
    """The trapezoidal rule in t for one block of models, each given by its
    size and ell = -log(1 - r2).

    Per model: the mode t0 in t (``_zs_mode`` with a = 1), the step
    h = min(0.2, sigma/2) with sigma = (-f''(t0))^(-1/2) for the log
    integrand f, and nodes t0 + j h for j from -16 L to 16 R - 1, where the
    walk-out stopped after L panels on the left and R on the right.  Nodes
    run down the rows and panels along them, so every broadcast is over long
    rows.  Each model's sums follow from its own inputs alone.  Returns T,
    the error estimates ((S(h) - S(2h)) / S(h))^2 for the sum S(h) at step
    h, the posterior means of g/(1+g), t0, h and the panel counts, shape
    (2, m), left then right.
    """
    q = n - p0
    omr2, ratio = np.exp(-ell), np.expm1(ell)
    g0 = _zs_mode(n, p0, p, omr2, 1)
    curvature = 0.5 * (n / g0 - (q - p) * g0 / (1.0 + g0) ** 2
                       + q * omr2 * g0 / (1.0 + omr2 * g0) ** 2)
    t0 = np.log(g0)
    h = np.minimum(_ZS_STEP, 0.5 / np.sqrt(curvature))
    shift = _zs_log_integrand(t0, n, q, p, ratio)
    m = p.size
    fine, coarse, weighted = np.zeros(m), np.zeros(m), np.zeros(m)
    panels = np.zeros((2, m), dtype=np.intp)
    walking = np.ones((2, m), dtype=bool)
    rows = np.arange(_ZS_PANEL, dtype=np.float64)[:, None]
    floor = math.exp(-_ZS_LOG_WINDOW)
    while walking.any():
        side, model = np.nonzero(walking)  # left panels first, then right
        first = np.where(side == 1, panels[1, model], -1 - panels[0, model]) * _ZS_PANEL
        tt = t0[model] + (first + rows) * h[model]
        g = np.exp(tt)
        vals = np.exp(_zs_log_integrand(tt, n, q, p[model], ratio[model], g) - shift[model])
        fine += np.bincount(model, vals.sum(axis=0), m)
        coarse += np.bincount(model, vals[::2].sum(axis=0), m)  # the even j
        weighted += np.bincount(model, (vals * (g / (1.0 + g))).sum(axis=0), m)
        panels[side, model] += 1
        walking[side, model] = np.where(side == 1, vals[-1], vals[0]) >= floor
    estimate = ((fine - 2.0 * coarse) / fine) ** 2
    return shift + np.log(h * fine), estimate, weighted / fine, t0, h, panels


def _zs_sums(n, p0, p, ell):
    """T and the posterior mean of g/(1+g) of every model (sizes ``p``,
    ell = -log(1 - r2)), by ``_zs_trapezoid`` in blocks;
    ``QuadratureError`` if any estimate misses the tolerance."""
    m = p.shape[0]
    total, estimate, shrink = np.empty(m), np.empty(m), np.empty(m)
    for lo in range(0, m, _ZS_BLOCK):  # blocks bound the working set
        b = slice(lo, lo + _ZS_BLOCK)
        total[b], estimate[b], shrink[b], *_ = _zs_trapezoid(n, p0, p[b], ell[b])
    missed = ~(estimate <= _ZS_TOLERANCE)
    if missed.any():
        raise QuadratureError("Zellner-Siow quadrature missed its tolerance",
                              float(estimate[missed].max()))
    return total, shrink


def zs_evidence_batch(n: int, p0: int, p_sizes, one_minus_r2, want_shrinkage: bool = False):
    """Zellner-Siow log Bayes factors for a batch of models sharing n and p0.

    ``p_sizes`` and ``one_minus_r2`` are 1-d, one entry per model, each
    with p > 0 and 1 - r2 > 0 (anything else raises ``ValueError``: the
    null model and exact fits are marked by ``evidence``, not integrated).
    Returns the 1-d array of log Bayes factors and, when requested, the
    posterior expectation of g/(1+g) per model (the posterior-mean
    shrinkage factor), all finite.

    Each model gets one trapezoidal sum in t = log g (``_zs_trapezoid``) of
    BF(g) w^(q/2) pi(g) g, w = 1 - r2 and q = n - p0, whose log keeps every
    term small; the sum is T = log BF + q/2 log w, and the result is
    T - q/2 log w.  The sum is centred on the closed-form mode in t with a
    step set by the curvature there, and evaluated once.  If any model's
    estimate ((S(h) - S(2h)) / S(h))^2, S(h) the sum at step h, exceeds
    1e-8 (or is not a number), it raises ``QuadratureError`` with the worst
    estimate.  Every node
    follows from the model's own (n, p0, p, 1 - r2), so no model's value
    depends on the other models of the batch.  This is the oracle of the
    series that ``evidence`` sums.
    """
    p_arr, omr2 = _zs_models(p_sizes, one_minus_r2)
    ell = -np.log(omr2)
    total, shrink = _zs_sums(n, p0, p_arr, ell)
    log_bf = total + 0.5 * (n - p0) * ell
    return (log_bf, shrink) if want_shrinkage else log_bf


def _zs_cut(q):
    """v = log(1 - q log(1 - r2)) at the saturation cut r2 = ``R2_SATURATION``."""
    return math.log1p(-q * math.log1p(-R2_SATURATION))


@functools.lru_cache(maxsize=_ZS_CACHE)
def _zs_coefficients(n, p0, largest):
    """The Chebyshev series in v = log(1 + q ell), ell = -log(1 - r2), of
    every size p = 1..``largest``: a read-only (largest, N+1, 2) array of
    the coefficients of U = T + (p+1)/2 ell = log BF - (q-p-1)/2 ell, which
    tends to a constant as ell grows where T falls like -(p+1)/2 ell, and of
    the shrinkage, in that order.

    One ``_zs_sums`` call samples every size at v = V (1 + x_j) / 2, for the
    points x_j of ``_ZS_POINTS`` and V the v of the saturation cut.  A
    size's coefficients come from its own samples alone, by one fixed-shape
    element-wise product and row sum (no BLAS call, whose blocking could
    depend on ``largest``), so they do not depend on the other sizes built.
    """
    q = n - p0
    p, ell = np.meshgrid(np.arange(1.0, largest + 1.0),
                         np.expm1(0.5 * _zs_cut(q) * (1.0 + _ZS_POINTS)) / q, indexing="ij")
    total, shrink = _zs_sums(n, p0, p.ravel(), ell.ravel())
    values = np.stack([total.reshape(p.shape) + 0.5 * (p + 1.0) * ell,
                       shrink.reshape(p.shape)], axis=1)
    coef = (_ZS_TRANSFORM * values[:, :, None, :]).sum(axis=-1).transpose(0, 2, 1)
    coef.flags.writeable = False
    return coef


def _zs_series(n, p0, sizes, ell):
    """Log Bayes factors and shrinkage factors of the models given by 1-d
    ``sizes`` and ell = -log(1 - r2), from the series of their sizes
    (``_zs_coefficients``, built once per n, p0 and largest size).  Each
    model takes its size's two series at its own v by one Clenshaw pass, so
    no model's value depends on the other models or sizes of the batch.
    """
    if not sizes.size:  # nothing to integrate
        return np.empty(0), np.empty(0)
    q = n - p0
    coef = _zs_coefficients(int(n), int(p0), int(sizes.max()))
    x = np.log1p(q * ell) * (2.0 / _zs_cut(q)) - 1.0
    log_bf, shrink = np.empty(sizes.size), np.empty(sizes.size)
    # The sizes present, without np.unique: it imports numpy.ma on first use.
    for kind in np.flatnonzero(np.bincount(sizes.astype(np.intp))):
        sel = sizes == kind
        u, shrink[sel] = _clenshaw(coef[kind - 1], x[sel])
        log_bf[sel] = u + 0.5 * (q - kind - 1.0) * ell[sel]
    return log_bf, shrink


def _clenshaw(coef, x):
    """sum_k coef[k, i] T_k(x) at every x, for each column i of the (N+1, s)
    ``coef``, by one pass of Clenshaw's recurrence: an (s, x.size) array."""
    x2 = 2.0 * x
    b1, b2, b0 = (np.zeros((coef.shape[1], x.size)) for _ in range(3))
    for c in coef[:0:-1, :, None]:  # k = N down to 1
        np.multiply(x2, b1, out=b0)
        b0 -= b2
        b0 += c
        b1, b2, b0 = b0, b1, b2
    return coef[0, :, None] + x * b1 - b2


def _zs_mode(n: int, p0: int, k, w, a):
    """Mode of the Zellner-Siow integrand BF(g) g^(-a/2) exp(-n/2g), per
    model: a = 3 gives the mode in g of BF(g) pi(g), a = 1 the mode in
    t = log g (the Jacobian g turns g^(-3/2) into g^(-1/2)).

    With q = n - p0, the derivative of its log times 2g^2(1+g)(1+wg) is the
    cubic -(k+a)w g^3 + [(q-k-a) + w(n-q-a)] g^2 + [n(1+w) - a] g + n (Liang,
    Paulo, Molina, Clyde & Berger, JASA 2008, for a = 3), with exactly one
    positive root.  Newton's method on the reversed cubic in h = 1/g, whose
    leading coefficient n keeps it accurate as w -> 0, starts from the
    Cauchy bound on its roots and descends to that root; each model stops
    once its h no longer decreases.  Needs k, w > 0.
    """
    q = n - p0
    c2 = n * (1.0 + w) - a
    c1 = (q - k - a) + w * (n - q - a)
    c0 = (k + a) * w
    h = 1.0 + np.maximum(np.maximum(np.abs(c2), np.abs(c1)), c0) / n
    while True:
        step = (((n * h + c2) * h + c1) * h - c0) / ((3.0 * n * h + 2.0 * c2) * h + c1)
        lower = h - step
        down = lower < h
        if not down.any():
            return 1.0 / h
        h = np.where(down, lower, h)


def zs_laplace_batch(n: int, p0: int, p_sizes, one_minus_r2):
    """Zellner-Siow log Bayes factors for a batch of models sharing n and p0
    (1-d, each with p > 0 and 1 - r2 > 0, as ``zs_evidence_batch``), by
    Laplace approximation at the closed-form mode g0 (``_zs_mode``, a = 3):
    f(g0) + log(2 pi / -f''(g0)) / 2 for the log integrand f, with the
    analytic -f''(g) = (q-p)/(2(1+g)^2) - q w^2/(2(1+wg)^2) - 3/(2g^2) + n/g^3
    where q = n - p0 and w = 1 - r2.  Its first two terms are each about
    q/(2g^2) near the null, so their difference is summed as
    [q r2 (1+w+2wg) - p (1+wg)^2] / (2 (1+g)^2 (1+wg)^2), r2 = -expm1(log w),
    which has no cancellation of order q."""
    k, w = _zs_models(p_sizes, one_minus_r2)
    q = n - p0
    ell = -np.log(w)
    g = _zs_mode(n, p0, k, w, 3)
    t = np.log(g)
    wg = 1.0 + w * g
    curvature = ((q * -np.expm1(-ell) * (1.0 + w + 2.0 * w * g) - k * wg**2)
                 / (2.0 * ((1.0 + g) * wg) ** 2) - 1.5 / g**2 + n / g**3)
    return (_zs_log_integrand(t, n, q, k, np.expm1(ell)) - t
            + 0.5 * np.log(2.0 * math.pi / curvature) + 0.5 * q * ell)


def log_bf_zs(stats: SuffStats) -> float:
    """Null-based log Bayes factor under the Zellner-Siow Cauchy prior: 0 for
    the null model, +inf for an exact fit, otherwise the trapezoidal sum of
    ``zs_evidence_batch`` (``QuadratureError`` if it misses its tolerance)."""
    _require_scope(stats)
    if (marker := _marker(stats)) is not None:
        return marker
    return float(zs_evidence_batch(stats.n, stats.p0, [stats.p], [_one_minus_r2(stats)])[0])


def log_bf_zs_laplace(stats: SuffStats) -> float:
    """Zellner-Siow log Bayes factor by Laplace approximation on the g axis.

    The classical fast evaluation of the mixture integral: expand the log
    integrand around its closed-form mode in g (``zs_laplace_batch``).  Cheap
    and accurate for moderate n, but visibly off the exact integral at very
    small sample sizes; published small-n reference values for this prior
    typically come from this approximation rather than from exact quadrature.
    """
    _require_scope(stats)
    if (marker := _marker(stats)) is not None:
        return marker
    return float(zs_laplace_batch(stats.n, stats.p0, [stats.p], [_one_minus_r2(stats)])[0])


def _log_bf_fixed_g(q, k, g, r2, omr2):
    """The fixed-g log Bayes factor 0.5(q - k) log1p(g) - 0.5q log1p(g omr2),
    elementwise.  Its two terms are each of order q log g, so where the
    result is small, near the null, it is summed as -0.5k log1p(g) -
    0.5q log1p(-x) with x = g r2 / (1 + g); that is where x <= 1/2.
    Elsewhere the result is of order q and the direct form loses only a
    relative eps log g.  ``log_bf_gprior`` branches at the same point."""
    x = g * r2 / (1.0 + g)
    near = -0.5 * k * np.log1p(g) - 0.5 * q * np.log1p(-x)
    far = 0.5 * (q - k) * np.log1p(g) - 0.5 * q * np.log1p(g * omr2)
    return np.where(x <= 0.5, near, far)


def evidence(method, table: ModelTable, want_shrinkage: bool = False,
             zs_rule: str = "exact"):
    """Null-based log evidence of every model in ``table`` under one rule.

    ``method`` is a ``PriorMethod`` or its name.  This is the one place that
    marks models, for every rule: the null model scores 0 and a model with
    r2 >= ``R2_SATURATION`` scores +inf, both with shrinkage 1.  The other
    models go to the closed forms (ml2, lb, bic, bicprior, aic, ghat), array
    expressions over each model's size, r2 and 1 - r2 with the branches of
    the scalar ``log_bf_*`` functions, or to the Zellner-Siow rule.  Its
    exact mixture (``zs_rule="exact"``) comes from one Chebyshev series per
    size p present, in v = log(1 - q log(1 - r2)) with q = n - p0, from
    r2 = 0 to the saturation cut (``_zs_series``): the trapezoidal kernel
    of ``zs_evidence_batch`` samples T = log BF + q/2 log(1 - r2) and the
    shrinkage at the series' points once per (n, p0, largest size) in a
    process (``_zs_coefficients``), and each model takes its size's series
    at its own v, within 1e-12 of the kernel, which stays as the oracle.
    ``"laplace"`` takes the Laplace approximation at the closed-form mode
    of every model at once (``zs_laplace_batch``).

    With ``want_shrinkage`` it returns ``(log_evidence, shrinkage)``: the
    posterior-mean factor on each model's least-squares coefficients.  That
    is the scalar oracle ``shrinkage_factor_ml2`` (in this module) for ml2,
    g/(1+g) for lb, ghat/(1+ghat) for ghat (0 where ghat is clamped at 0),
    and the exact mixture's E[g/(1+g)] for zs whichever ``zs_rule`` is used;
    it is 1 for BIC, BIC-prior, AIC and for every marked model.

    The table of a stacked dataset gives (R, m) arrays, row j scoring
    replicate j; every value depends only on its own model's n, p0, size
    and r2 (a series only on its size), so each row is bit for bit the
    single-dataset result.
    """
    if isinstance(method, str):
        method = PriorMethod.parse(method)
    kind = method.kind
    if zs_rule not in ZS_RULES:
        raise ValueError(f"unknown zs_rule {zs_rule!r}")
    n, p0, sizes = table.n, table.p0, table.sizes
    q = n - p0
    over = np.flatnonzero(n <= p0 + sizes)
    if over.size:
        i = int(over[0])
        raise ValueError(f"model {i}: insufficient sample size: n={n}, p0={p0}, "
                         f"p={sizes[i]}")
    r2, omr2 = table.r2, table.one_minus_r2
    sizes = np.broadcast_to(sizes, r2.shape)
    log_ev = np.zeros(r2.shape)
    shrink = np.ones(r2.shape)
    saturated = (sizes > 0) & (r2 >= R2_SATURATION)
    work = (sizes > 0) & ~saturated
    log_ev[saturated] = np.inf
    k, r2w, ow = sizes[work].astype(np.float64), r2[work], omr2[work]

    if kind == "zs":
        if zs_rule == "exact" or want_shrinkage:
            log_ev[work], shrink[work] = _zs_series(n, p0, k, -np.log(ow))
        if zs_rule == "laplace":
            log_ev[work] = zs_laplace_batch(n, p0, k, ow)
    elif kind in ("ml2", "lb"):
        g = float(n) if method.g is None else method.g
        values = _log_bf_fixed_g(q, k, g, r2w, ow)
        if kind == "lb":
            shrink[work] = g / (1.0 + g)
        else:
            knot = (n + 1) / (2 * n - p0)
            upper = r2w > knot
            if upper.any():
                log_phi = ((k[upper] - 1) * math.log(n + 1) + q * math.log(q)
                           - (q - 1) * math.log(q - 1))
                values[upper] = (-0.5 * log_phi - 0.5 * np.log(r2w[upper])
                                 - 0.5 * (q - 1) * np.log(ow[upper]))
            if want_shrinkage:
                shrink_w = np.full(r2w.shape, n / (n + 1.0))
                shrink_w[upper] = 1.0 - (1.0 - r2w[upper]) / ((n - p0 - 1) * r2w[upper])
                shrink[work] = shrink_w
        log_ev[work] = values
    elif kind == "bic":
        log_ev[work] = -0.5 * k * math.log(n) - 0.5 * n * np.log(ow)
    elif kind == "bicprior":
        log_ev[work] = -0.5 * k * math.log(n + 1) - 0.5 * q * np.log(ow)
    elif kind == "aic":
        log_ev[work] = -0.5 * n * np.log(ow) - k
    elif kind == "ghat":
        g_hat = np.maximum(0.0, (q * r2w - k) / (k * ow))
        values = _log_bf_fixed_g(q, k, g_hat, r2w, ow)
        log_ev[work] = np.where((values > 0.0) & (g_hat > 0.0), values, 0.0)
        shrink[work] = g_hat / (1.0 + g_hat)
    else:
        raise ValueError(f"unknown evidence rule {kind!r}")
    return (log_ev, shrink) if want_shrinkage else log_ev
