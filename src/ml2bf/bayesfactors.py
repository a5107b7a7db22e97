"""Closed-form log marginal likelihoods and null-based Bayes factors.

Everything is computed and returned in the natural-log domain; conversion to
probabilities happens only at the model-space layer.  A perfect fit
(r2 indistinguishable from 1) is reported as +inf, an explicit
overwhelming-evidence marker, never as a silent overflow.

The scalar ``log_bf_*`` functions score one ``SuffStats``; ``evidence``
scores every model of a ``ModelTable`` at once with the same branches.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .regression import ModelTable, SuffStats, inverse_from_factor

__all__ = [
    "Ml2Covariance",
    "PriorMethod",
    "QuadratureConfig",
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
    "zs_evidence_batch",
    "zs_laplace_batch",
    "zs_posterior_shrinkage",
    "evidence",
    "METHOD_KINDS",
]

# r2 beyond this is treated as an exact fit and mapped to the +inf marker.
R2_SATURATION = 1.0 - 1e-14


def __getattr__(name):
    # Uncalled; the benchmark's tracer looks it up here, so it loads on first use.
    if name != "minimize_scalar":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import minimize_scalar
    return minimize_scalar


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance within budget."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class QuadratureConfig:
    """Node budget and relative tolerance for the Zellner-Siow integral.

    ``node_count`` is a per-model budget of panels x 21 Gauss-Kronrod
    nodes: a model whose error estimate misses ``relative_tolerance``
    halves all its panels (on the log-g lattice: unit panels up to the
    peak, 4-unit panels in the tail) only while twice its panels stay
    within the budget (its first pass always runs).  Estimates never fall
    below 50 machine epsilons, so a smaller tolerance is never met.
    """

    node_count: int = 4096
    relative_tolerance: float = 1e-8

    def __post_init__(self):
        if self.node_count < 32:
            raise ValueError("node_count must be at least 32")
        if not self.relative_tolerance > 0:
            raise ValueError("relative_tolerance must be positive")


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

_METHOD_ALIASES = {"ml": "ml2", "bic_prior": "bicprior", "local_eb": "ghat"}


@dataclass(frozen=True)
class PriorMethod:
    """Tagged choice of evidence rule.

    ``lb`` carries an optional fixed g (defaults to the sample size at
    evaluation time); ``zs`` carries its quadrature configuration.
    """

    kind: str
    g: float | None = None
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"unknown evidence rule {self.kind!r}")
        if self.g is not None:
            if self.kind != "lb":
                raise ValueError("fixed g only applies to the lb rule")
            if not self.g > 0:
                raise ValueError("g must be positive")

    @classmethod
    def ml2(cls):
        return cls(kind="ml2")

    @classmethod
    def lb(cls, g=None):
        return cls(kind="lb", g=None if g is None else float(g))

    @classmethod
    def bic(cls):
        return cls(kind="bic")

    @classmethod
    def bic_prior(cls):
        return cls(kind="bicprior")

    @classmethod
    def zs(cls, quadrature=None):
        return cls(kind="zs", quadrature=quadrature or QuadratureConfig())

    @classmethod
    def ghat(cls):
        return cls(kind="ghat")

    @classmethod
    def aic(cls):
        return cls(kind="aic")

    @classmethod
    def parse(cls, token: str) -> "PriorMethod":
        kind = _METHOD_ALIASES.get(token.strip().lower(), token.strip().lower())
        return cls(kind=kind)


def _require_scope(stats: SuffStats):
    if stats.n <= stats.p0 + stats.p:
        raise ValueError(
            f"insufficient sample size: n={stats.n}, p0={stats.p0}, p={stats.p}"
        )


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
    if stats.p == 0:
        return 0.0
    r2 = stats.r2
    if r2 >= R2_SATURATION:
        return math.inf
    q = stats.n - stats.p0
    omr2 = _one_minus_r2(stats)
    return 0.5 * (q - stats.p) * math.log1p(g) - 0.5 * q * math.log1p(g * omr2)


def log_bf_ml2(stats: SuffStats) -> float:
    """Null-based log Bayes factor under the constrained type II ML prior.

    Below the evidence threshold r2 = (n+1)/(2n-p0) this coincides with the
    unit-information g-prior (g = n); above it the rank-one term of the
    fitted covariance is active.
    """
    _require_scope(stats)
    if stats.p == 0:
        return 0.0
    n, p0, p = stats.n, stats.p0, stats.p
    r2 = stats.r2
    if r2 >= R2_SATURATION:
        return math.inf
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
    tends to 1 as r2 tends to 1.
    """
    _require_scope(stats)
    n, p0 = stats.n, stats.p0
    r2 = stats.r2
    if r2 <= (n + 1) / (2 * n - p0):
        return n / (n + 1.0)
    return 1.0 - (1.0 - r2) / ((n - p0 - 1) * r2)


def log_bf_bic(stats: SuffStats) -> float:
    """Log Bayes factor implied by treating exp(-BIC/2) as the marginal."""
    _require_scope(stats)
    if stats.p == 0:
        return 0.0
    if stats.r2 >= R2_SATURATION:
        return math.inf
    omr2 = _one_minus_r2(stats)
    return -0.5 * stats.p * math.log(stats.n) - 0.5 * stats.n * math.log(omr2)


def log_bf_bic_prior(stats: SuffStats) -> float:
    """Log Bayes factor of the MLE-centered unit-information normal prior."""
    _require_scope(stats)
    if stats.p == 0:
        return 0.0
    if stats.r2 >= R2_SATURATION:
        return math.inf
    omr2 = _one_minus_r2(stats)
    q = stats.n - stats.p0
    return -0.5 * stats.p * math.log(stats.n + 1) - 0.5 * q * math.log(omr2)


def log_bf_aic(stats: SuffStats) -> float:
    """Log Bayes factor from exp(-AIC/2) with the criterion -2*loglik + 2p."""
    _require_scope(stats)
    if stats.p == 0:
        return 0.0
    if stats.r2 >= R2_SATURATION:
        return math.inf
    omr2 = _one_minus_r2(stats)
    return -0.5 * stats.n * math.log(omr2) - stats.p


def log_bf_local_eb(stats: SuffStats) -> tuple[float, float]:
    """Log Bayes factor of the g-prior with g fitted per model, plus the fit.

    The stationary point of the fixed-g evidence is
    ``g = ((n - p0) r2 - p) / (p (1 - r2))``, clamped at zero; the returned
    log Bayes factor is therefore never negative.
    """
    _require_scope(stats)
    if stats.p == 0:
        return 0.0, 0.0
    r2 = stats.r2
    if r2 >= R2_SATURATION:
        return math.inf, math.inf
    q = stats.n - stats.p0
    omr2 = _one_minus_r2(stats)
    g_hat = max(0.0, (q * r2 - stats.p) / (stats.p * omr2))
    if g_hat == 0.0:
        return 0.0, 0.0
    value = 0.5 * (q - stats.p) * math.log1p(g_hat) - 0.5 * q * math.log1p(g_hat * omr2)
    return max(0.0, value), g_hat


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


# ---------------------------------------------------------------------------
# Zellner-Siow evidence via the scale-mixture representation.
#
# The multivariate Cauchy prior with scale n (X'X)^{-1} is a mixture of
# fixed-g priors with g ~ inverse-gamma(1/2, n/2); the Bayes factor is the
# corresponding one-dimensional integral of the fixed-g Bayes factor.  It is
# computed on a log axis, t = log g, and every panel edge lies on a fixed
# lattice in t.  A scan of the integers t = -32 ... 80 finds each model's
# window (where the integrand is within exp(-45) of its lattice peak).  Left
# of the peak the exp(-n/2g) cliff gets unit panels; from the first multiple
# of 4 after the peak the log integrand is almost linear with slope
# -(p+1)/2 (Liang, Paulo, Molina, Clyde & Berger, JASA 2008), so the tail
# gets 4-unit panels.  Each panel gets the 21-point Gauss-Kronrod rule,
# whose embedded 10-point Gauss rule gives the error estimate from the same
# nodes (QUADPACK qk21; Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner,
# 1983), and a model that misses the tolerance halves all its panels.
# ---------------------------------------------------------------------------

_ZS_LATTICE = np.arange(-32.0, 81.0)  # the window scan, one unit of log g apart
_ZS_TAIL = 4  # tail panels span 4 lattice steps, between multiples of 4
_ZS_LOG_WINDOW = 45.0  # integrand below exp(-45) of the peak is negligible
_ZS_BLOCK = 256  # models per quadrature block

# qk21 abscissae (descending to the centre; odd entries are the 10-point
# Gauss nodes) and weights, laid out over [-1, 1].
_QK21_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_QK21_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525063319, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_QK21_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_KRONROD_X = np.concatenate([-_QK21_X, [0.0], _QK21_X[::-1]])
_KRONROD_W = np.concatenate([_QK21_WK, _QK21_WK[-2::-1]])
_GAUSS_W = np.concatenate([_QK21_WG, _QK21_WG[::-1]])  # on _KRONROD_X[1::2]
# The smallest error estimate reported, 50 machine epsilons, as in QUADPACK:
# a relative tolerance below it is never met, it is out of double precision.
_ROUNDOFF = 50 * np.finfo(np.float64).eps


def _zs_batch(p_sizes, one_minus_r2):
    """Sizes and 1 - r2 as arrays, log Bayes factors holding the null (0)
    and saturation (+inf) markers, and the mask of models left to score."""
    p_arr = np.atleast_1d(np.asarray(p_sizes, dtype=np.float64))
    omr2 = np.atleast_1d(np.asarray(one_minus_r2, dtype=np.float64))
    if p_arr.shape != omr2.shape:
        raise ValueError("p_sizes and one_minus_r2 must have matching shapes")
    log_bf = np.where((p_arr > 0) & (omr2 <= 1e-14), np.inf, 0.0)
    return p_arr, omr2, log_bf, (p_arr > 0) & (omr2 > 1e-14)


def _zs_log_integrand(t, n, q, p, omr2, g=None):
    """Log of BF(g) * pi(g) * g at g = exp(t) (pass g if already known);
    p and omr2 broadcast over t."""
    if g is None:
        g = np.exp(t)
    lam = 0.5 * (q - p) * np.log1p(g) - 0.5 * q * np.log1p(omr2 * g)
    dens = 0.5 * math.log(n / 2.0) - 0.5 * math.log(math.pi) - 0.5 * t - 0.5 * n * np.exp(-t)
    return lam + dens


def _zs_window(n, q, p, omr2):
    """Per model, on the lattice: the log peak (the shift), the window start
    one step before the first point within exp(-45) of it, the split at the
    first multiple of 4 after the peak, and the window end one step beyond
    the last point within exp(-45), rounded up to a multiple of 4."""
    psi = _zs_log_integrand(_ZS_LATTICE[None, :], n, q, p[:, None], omr2[:, None])
    peak = psi.argmax(axis=1)
    shift = psi.max(axis=1)
    inside = psi >= shift[:, None] - _ZS_LOG_WINDOW
    last = _ZS_LATTICE.size - 1
    t_lo = _ZS_LATTICE[np.maximum(inside.argmax(axis=1) - 1, 0)]
    t_hi = _ZS_LATTICE[np.minimum(last + 1 - inside[:, ::-1].argmax(axis=1), last)]
    t_end = _ZS_TAIL * np.ceil(t_hi / _ZS_TAIL)
    split = np.minimum(_ZS_TAIL * (np.floor(_ZS_LATTICE[peak] / _ZS_TAIL) + 1), t_end)
    return shift, t_lo, split, t_end


def _zs_kronrod(n, q, p, omr2, shift, t_lo, split, t_end, level, want_shrinkage):
    """21-point Gauss-Kronrod sums of exp(log integrand - shift) over each
    model's panels: 2^-level wide from t_lo to split and 4 x 2^-level wide
    from split to t_end, every edge on the lattice halved ``level`` times.

    All panels of all models form one flat array (``np.repeat`` of the model
    index), summed back per model with ``np.add.reduceat``, so a model's
    value depends only on its own inputs.  Returns the Kronrod sums, the
    relative gap to the embedded 10-point Gauss sums (the error estimate,
    at least ``_ROUNDOFF``) and, when asked, the Kronrod sums of the
    integrand times g/(1+g).
    """
    step = np.ldexp(1.0, -level)
    head = ((split - t_lo) / step).astype(np.intp)
    panels = head + ((t_end - split) / (_ZS_TAIL * step)).astype(np.intp)
    model = np.repeat(np.arange(panels.size), panels)
    starts = np.cumsum(panels) - panels
    j = np.arange(model.size) - starts[model]  # each panel's place in its model
    in_tail = j >= head[model]
    half = 0.5 * step[model] * np.where(in_tail, _ZS_TAIL, 1)
    centre = np.where(in_tail, split[model] + (2.0 * (j - head[model]) + 1.0) * half,
                      t_lo[model] + (2.0 * j + 1.0) * half)
    # Nodes run down the rows and panels along them, so every broadcast and
    # every weighted sum (row by row, in a fixed order) is over long rows.
    tt = centre + half * _KRONROD_X[:, None]
    g = np.exp(tt)
    vals = np.exp(_zs_log_integrand(tt, n, q, p[model], omr2[model], g) - shift[model])
    kronrod = np.add.reduceat(half * (_KRONROD_W[:, None] * vals).sum(axis=0), starts)
    gauss = np.add.reduceat(half * (_GAUSS_W[:, None] * vals[1::2]).sum(axis=0), starts)
    estimate = np.maximum(np.abs(kronrod - gauss) / np.maximum(kronrod, 1e-300), _ROUNDOFF)
    weighted = None
    if want_shrinkage:
        vals *= g / (1.0 + g)
        weighted = np.add.reduceat(half * (_KRONROD_W[:, None] * vals).sum(axis=0), starts)
    return kronrod, estimate, weighted


def zs_evidence_batch(
    n: int,
    p0: int,
    p_sizes,
    one_minus_r2,
    cfg: QuadratureConfig | None = None,
    want_shrinkage: bool = False,
):
    """Zellner-Siow log Bayes factors for a batch of models sharing n and p0.

    Returns the array of log Bayes factors and, when requested, the
    posterior expectation of g/(1+g) per model (the posterior-mean shrinkage
    factor; NaN for null models), in the shape of ``p_sizes`` and
    ``one_minus_r2`` (one model list, or the (R, m) models of R stacked
    replicates).

    Each model's window on the integer lattice of t = log g gets unit
    panels up to the first multiple of 4 after its peak and 4-unit panels
    from there to its end, each with the 21-point Gauss-Kronrod rule,
    evaluated once.  A model whose Kronrod-Gauss gap exceeds
    ``cfg.relative_tolerance`` halves all its own panels and is evaluated
    again, alone, while panels x 21 stays within ``cfg.node_count`` (a
    per-model budget; the first pass always runs).  A model still missing
    the tolerance then raises ``QuadratureError`` with the worst such
    model's last estimate.  Every panel edge follows from the model's own
    (n, p0, p, 1 - r2), so no model's value depends on the other models of
    the batch.
    """
    cfg = cfg or QuadratureConfig()
    p_arr, omr2, log_bf, work = _zs_batch(p_sizes, one_minus_r2)
    shrink = np.full_like(omr2, np.nan)
    if not np.any(work):
        return (log_bf, shrink) if want_shrinkage else log_bf

    q = n - p0
    pw, ow = p_arr[work], omr2[work]
    m = pw.shape[0]
    shift, t_lo, split, t_end = np.empty(m), np.empty(m), np.empty(m), np.empty(m)
    total, estimate = np.empty(m), np.empty(m)
    weighted = np.empty(m) if want_shrinkage else None

    def integrate(idx):
        # Blocks of models bound the working set.
        for lo in range(0, idx.size, _ZS_BLOCK):
            b = idx[lo:lo + _ZS_BLOCK]
            total[b], estimate[b], s = _zs_kronrod(
                n, q, pw[b], ow[b], shift[b], t_lo[b], split[b], t_end[b], level[b],
                want_shrinkage)
            if want_shrinkage:
                weighted[b] = s

    for lo in range(0, m, _ZS_BLOCK):
        b = slice(lo, lo + _ZS_BLOCK)
        shift[b], t_lo[b], split[b], t_end[b] = _zs_window(n, q, pw[b], ow[b])
    panels = (split - t_lo + (t_end - split) / _ZS_TAIL).astype(np.intp)  # at level 0
    level = np.zeros(m, dtype=np.intp)
    integrate(np.arange(m))
    miss = np.flatnonzero(estimate > cfg.relative_tolerance)
    while miss.size:
        over = 2 * (panels[miss] << level[miss]) * _KRONROD_X.size > cfg.node_count
        if over.any():
            raise QuadratureError("Zellner-Siow quadrature did not converge",
                                  float(estimate[miss[over]].max()))
        level[miss] += 1
        integrate(miss)
        miss = miss[estimate[miss] > cfg.relative_tolerance]

    log_bf[work] = shift + np.log(total)
    if want_shrinkage:
        shrink[work] = weighted / total
        return log_bf, shrink
    return log_bf


def _zs_mode(n: int, p0: int, k, w):
    """Mode in g of the Zellner-Siow integrand BF(g) pi(g), per model.

    With q = n - p0, the derivative of its log times 2g^2(1+g)(1+wg) is the
    cubic -(k+3)w g^3 + [(q-k-3) + w(n-q-3)] g^2 + [n(1+w) - 3] g + n (Liang,
    Paulo, Molina, Clyde & Berger, JASA 2008).  Its coefficients change sign
    once, so by Descartes' rule it has exactly one positive root.  The roots
    come from the companion matrices of the reversed cubic in h = 1/g, whose
    leading coefficient n keeps them accurate as w -> 0.  Needs k, w > 0.
    """
    q = n - p0
    companion = np.zeros((k.shape[0], 3, 3))
    companion[:, 0, 0] = 3.0 / n - (1.0 + w)
    companion[:, 0, 1] = -((q - k - 3.0) + w * (n - q - 3.0)) / n
    companion[:, 0, 2] = (k + 3.0) * w / n
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    # The other real roots are negative, so the positive one is the largest.
    return 1.0 / np.where(roots.imag == 0.0, roots.real, -np.inf).max(axis=1)


def zs_laplace_batch(n: int, p0: int, p_sizes, one_minus_r2):
    """Zellner-Siow log Bayes factors for a batch of models sharing n and p0
    (any one shape, as ``zs_evidence_batch``), by Laplace approximation at
    the closed-form mode g0 (``_zs_mode``): f(g0) + log(2 pi / -f''(g0)) / 2
    for the log integrand f, with the analytic
    -f''(g) = (q-p)/(2(1+g)^2) - q w^2/(2(1+wg)^2) - 3/(2g^2) + n/g^3
    where q = n - p0 and w = 1 - r2."""
    p_arr, omr2, log_bf, work = _zs_batch(p_sizes, one_minus_r2)
    q = n - p0
    k, w = p_arr[work], omr2[work]
    g = _zs_mode(n, p0, k, w)
    t = np.log(g)
    curvature = (0.5 * (q - k) / (1.0 + g) ** 2 - 0.5 * q * (w / (1.0 + w * g)) ** 2
                 - 1.5 / g**2 + n / g**3)
    log_bf[work] = (_zs_log_integrand(t, n, q, k, w) - t
                    + 0.5 * np.log(2.0 * math.pi / curvature))
    return log_bf


def log_bf_zs(stats: SuffStats, cfg: QuadratureConfig | None = None) -> float:
    """Null-based log Bayes factor under the Zellner-Siow Cauchy prior."""
    _require_scope(stats)
    return float(zs_evidence_batch(stats.n, stats.p0, [stats.p], [_one_minus_r2(stats)], cfg)[0])


def log_bf_zs_laplace(stats: SuffStats) -> float:
    """Zellner-Siow log Bayes factor by Laplace approximation on the g axis.

    The classical fast evaluation of the mixture integral: expand the log
    integrand around its closed-form mode in g (``zs_laplace_batch``).  Cheap
    and accurate for moderate n, but visibly off the exact integral at very
    small sample sizes; published small-n reference values for this prior
    typically come from this approximation rather than from exact quadrature.
    """
    _require_scope(stats)
    return float(zs_laplace_batch(stats.n, stats.p0, [stats.p], [_one_minus_r2(stats)])[0])


def zs_posterior_shrinkage(stats: SuffStats, cfg: QuadratureConfig | None = None) -> float:
    """Posterior expectation of g/(1+g) under the Zellner-Siow prior."""
    _require_scope(stats)
    if stats.p == 0:
        raise ValueError("null model has no coefficients to shrink")
    _, shrink = zs_evidence_batch(
        stats.n, stats.p0, [stats.p], [_one_minus_r2(stats)], cfg, want_shrinkage=True
    )
    return float(shrink[0])


def evidence(method, table: ModelTable, want_shrinkage: bool = False,
             zs_rule: str = "exact"):
    """Null-based log evidence of every model in ``table`` under one rule.

    ``method`` is a ``PriorMethod`` or its name.  The closed forms (ml2, lb,
    bic, bicprior, aic, ghat) are array expressions over each model's size,
    r2 and 1 - r2, with the branches and the +inf saturation marker of the
    scalar ``log_bf_*`` functions.  Zellner-Siow runs as one batched
    quadrature (``zs_rule="exact"``) or as the Laplace approximation at the
    closed-form mode of every model at once (``"laplace"``,
    ``zs_laplace_batch``).

    With ``want_shrinkage`` it returns ``(log_evidence, shrinkage)``: the
    posterior-mean factor on each model's least-squares coefficients.  That
    is the scalar oracle ``shrinkage_factor_ml2`` (in this module) for ml2,
    g/(1+g) for lb, ghat/(1+ghat) for ghat (0 where ghat is clamped at 0,
    1 where the fit saturates), and the exact mixture's E[g/(1+g)] for zs
    whichever ``zs_rule`` is used (1 where the quadrature reports
    saturation); it is 1 for BIC, BIC-prior, AIC and for null models.

    The table of a stacked dataset gives (R, m) arrays, row j scoring
    replicate j; every value depends only on its own model's n, p0, size
    and r2, so each row is bit for bit the single-dataset result.
    """
    if isinstance(method, str):
        method = PriorMethod.parse(method)
    kind = method.kind
    if zs_rule not in ("exact", "laplace"):
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
    active = sizes > 0
    saturated = active & (r2 >= R2_SATURATION)
    work = active & ~saturated
    log_ev[saturated] = np.inf
    k, r2w, ow = sizes[work].astype(np.float64), r2[work], omr2[work]

    if kind == "zs":
        if want_shrinkage:
            log_ev, zshr = zs_evidence_batch(n, p0, sizes, omr2, method.quadrature, True)
            shrink = np.where(np.isnan(zshr), 1.0, zshr)
        elif zs_rule == "exact":
            log_ev = zs_evidence_batch(n, p0, sizes, omr2, method.quadrature)
        if zs_rule == "laplace":
            log_ev = zs_laplace_batch(n, p0, sizes, omr2)
    elif kind in ("ml2", "lb"):
        g = float(n) if method.g is None else method.g
        values = 0.5 * (q - k) * math.log1p(g) - 0.5 * q * np.log1p(g * ow)
        if kind == "lb":
            shrink[active] = g / (1.0 + g)
        else:
            knot = (n + 1) / (2 * n - p0)
            upper = r2w > knot
            if upper.any():
                log_phi = ((k[upper] - 1) * math.log(n + 1) + q * math.log(q)
                           - (q - 1) * math.log(q - 1))
                values[upper] = (-0.5 * log_phi - 0.5 * np.log(r2w[upper])
                                 - 0.5 * (q - 1) * np.log(ow[upper]))
            if want_shrinkage:
                ra = r2[active]
                shrink_a = np.full(ra.shape, n / (n + 1.0))
                above = ra > knot
                shrink_a[above] = 1.0 - (1.0 - ra[above]) / ((n - p0 - 1) * ra[above])
                shrink[active] = shrink_a
        log_ev[work] = values
    elif kind == "bic":
        log_ev[work] = -0.5 * k * math.log(n) - 0.5 * n * np.log(ow)
    elif kind == "bicprior":
        log_ev[work] = -0.5 * k * math.log(n + 1) - 0.5 * q * np.log(ow)
    elif kind == "aic":
        log_ev[work] = -0.5 * n * np.log(ow) - k
    elif kind == "ghat":
        g_hat = np.maximum(0.0, (q * r2w - k) / (k * ow))
        values = 0.5 * (q - k) * np.log1p(g_hat) - 0.5 * q * np.log1p(g_hat * ow)
        log_ev[work] = np.where((values > 0.0) & (g_hat > 0.0), values, 0.0)
        shrink[work] = g_hat / (1.0 + g_hat)
    else:
        raise ValueError(f"unknown evidence rule {kind!r}")
    return (log_ev, shrink) if want_shrinkage else log_ev
