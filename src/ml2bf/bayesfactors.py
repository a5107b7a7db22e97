"""Closed-form log marginal likelihoods and null-based Bayes factors.

Everything is computed and returned in the natural-log domain; conversion to
probabilities happens only at the model-space layer.  A perfect fit
(r2 indistinguishable from 1) is reported as +inf, an explicit
overwhelming-evidence marker, never as a silent overflow.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import minimize_scalar
from scipy.special import expit, gammaln

from .regression import SuffStats

__all__ = [
    "Ml2Covariance",
    "PriorMethod",
    "QuadratureConfig",
    "QuadratureError",
    "ml2_covariance",
    "log_bf_ml2",
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
    "zs_posterior_shrinkage",
    "log_evidence",
    "METHOD_KINDS",
]

# r2 beyond this is treated as an exact fit and mapped to the +inf marker.
R2_SATURATION = 1.0 - 1e-14


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance within budget."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class QuadratureConfig:
    """Node budget and relative tolerance for the Zellner-Siow integral."""

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
        p = self.beta_hat.shape[0]
        if p == 0:
            return np.zeros((0, 0))
        rinv = solve_triangular(self.gram_chol, np.eye(p))
        return self.a * np.outer(self.beta_hat, self.beta_hat) + self.n * (rinv @ rinv.T)

    def lower_bound_matrix(self) -> np.ndarray:
        p = self.beta_hat.shape[0]
        rinv = solve_triangular(self.gram_chol, np.eye(p))
        return self.n * (rinv @ rinv.T)


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


def log_bf_bic(stats: SuffStats) -> float:
    """Log Bayes factor implied by treating exp(-BIC/2) as the marginal."""
    if stats.p == 0:
        return 0.0
    if stats.r2 >= R2_SATURATION:
        return math.inf
    omr2 = _one_minus_r2(stats)
    return -0.5 * stats.p * math.log(stats.n) - 0.5 * stats.n * math.log(omr2)


def log_bf_bic_prior(stats: SuffStats) -> float:
    """Log Bayes factor of the MLE-centered unit-information normal prior."""
    if stats.p == 0:
        return 0.0
    if stats.r2 >= R2_SATURATION:
        return math.inf
    omr2 = _one_minus_r2(stats)
    q = stats.n - stats.p0
    return -0.5 * stats.p * math.log(stats.n + 1) - 0.5 * q * math.log(omr2)


def log_bf_aic(stats: SuffStats) -> float:
    """Log Bayes factor from exp(-AIC/2) with the criterion -2*loglik + 2p."""
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


def _whitened_pieces(stats: SuffStats, w):
    """M = I + R W R' and u = R beta_hat for the stored triangular factor R."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (stats.p, stats.p):
        raise ValueError(f"prior covariance must be {stats.p}x{stats.p}")
    r = stats.gram_chol
    m = np.eye(stats.p) + r @ w @ r.T
    u = r @ stats.beta_hat
    return m, u


def _logdet_and_quad(m, u):
    try:
        cho = cho_factor(m, lower=True)
    except np.linalg.LinAlgError:
        raise ValueError("singular prior-plus-gram covariance")
    logdet = 2.0 * np.sum(np.log(np.diag(cho[0])))
    quad = float(u @ cho_solve(cho, u))
    return logdet, quad


def log_marginal_null(stats: SuffStats) -> float:
    """Log marginal of the null model (no candidate predictors)."""
    q = stats.n - stats.p0
    return float(gammaln(q / 2) - 0.5 * q * math.log(math.pi) - 0.5 * q * math.log(stats.total_ss))


def log_marginal_fixed_cov(stats: SuffStats, w) -> float:
    """Log marginal with a fixed prior covariance scale W on the coefficients.

    Integrates the common coefficients and the error variance against the
    right-Haar prior; the coefficient prior is N(0, sigma^2 W).
    """
    _require_scope(stats)
    if stats.p == 0:
        return log_marginal_null(stats)
    q = stats.n - stats.p0
    m, u = _whitened_pieces(stats, w)
    logdet, quad = _logdet_and_quad(m, u)
    return float(
        gammaln(q / 2)
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
    m, u = _whitened_pieces(stats, w)
    logdet, quad = _logdet_and_quad(m, u)
    return float(
        -0.5 * q * math.log(2 * math.pi * sigma2)
        - 0.5 * logdet
        - (stats.sse + quad) / (2 * sigma2)
    )


def log_bf_known_variance(stats: SuffStats, w, sigma2: float) -> float:
    return log_marginal_known_variance(stats, w, sigma2) - log_marginal_null_known_variance(
        stats, sigma2
    )


def ml2_known_variance_from_scalars(
    p: int, ssr: float, sigma2: float, unit_scale: float
) -> tuple[float, float]:
    """Scalar core of the known-variance constrained type II ML evidence.

    Along the family ``W = a * outer(beta_hat, beta_hat) + m (X'X)^{-1}``
    the whitened covariance is ``(m+1) I + a u u'`` with ||u||^2 = ssr, so
    the known-variance log Bayes factor collapses to a scalar function of a,
    -log(D)/2 - ssr/(2 sigma2 D) + const in D = m + 1 + a ssr.  It rises up
    to D = ssr/sigma2 and falls after, so the maximizer over a >= 0 is
    a* = max(0, 1/sigma2 - (m+1)/ssr), and a* = 0 when ssr = 0.
    """
    m = float(unit_scale)
    if not m > 0:
        raise ValueError("unit_scale must be positive")
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    if p == 0:
        return 0.0, 0.0
    s = float(ssr)
    a_best = max(0.0, 1.0 / sigma2 - (m + 1.0) / s) if s > 0 else 0.0
    denom = m + 1.0 + a_best * s
    log_bf = -0.5 * ((p - 1) * math.log(m + 1.0) + math.log(denom)) + (s - s / denom) / (
        2 * sigma2
    )
    return log_bf, a_best


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


def ml2_known_variance_shrinkage(
    stats: SuffStats, sigma2: float, unit_scale: float | None = None
) -> float:
    """Posterior-mean shrinkage factor of the known-variance type II ML prior."""
    _, a = ml2_known_variance_log_bf(stats, sigma2, unit_scale)
    m = float(stats.n if unit_scale is None else unit_scale)
    return 1.0 - 1.0 / (m + 1.0 + a * stats.ssr)


# ---------------------------------------------------------------------------
# Zellner-Siow evidence via the scale-mixture representation.
#
# The multivariate Cauchy prior with scale n (X'X)^{-1} is a mixture of
# fixed-g priors with g ~ inverse-gamma(1/2, n/2); the Bayes factor is the
# corresponding one-dimensional integral of the fixed-g Bayes factor.  It is
# computed on a log axis with a mode-shifted composite Gauss-Legendre rule.
# ---------------------------------------------------------------------------

_ZS_GRID = np.linspace(-30.0, 80.0, 551)
_ZS_LOG_WINDOW = 45.0  # integrand below exp(-45) of the peak is negligible


def _zs_log_integrand(t, n, q, p, omr2):
    """Log of BF(g) * pi(g) * g at g = exp(t); p and omr2 broadcast over t."""
    g = np.exp(t)
    lam = 0.5 * (q - p) * np.log1p(g) - 0.5 * q * np.log1p(omr2 * g)
    dens = 0.5 * math.log(n / 2.0) - 0.5 * math.log(math.pi) - 0.5 * t - 0.5 * n * np.exp(-t)
    return lam + dens


def zs_evidence_batch(
    n: int,
    p0: int,
    p_sizes,
    one_minus_r2,
    cfg: QuadratureConfig | None = None,
    want_shrinkage: bool = False,
):
    """Zellner-Siow log Bayes factors for a batch of models on one dataset.

    Returns the array of log Bayes factors and, when requested, the
    posterior expectation of g/(1+g) per model (the posterior-mean shrinkage
    factor; NaN for null models).
    """
    cfg = cfg or QuadratureConfig()
    p_arr = np.atleast_1d(np.asarray(p_sizes, dtype=np.float64))
    omr2 = np.atleast_1d(np.asarray(one_minus_r2, dtype=np.float64))
    if p_arr.shape != omr2.shape:
        raise ValueError("p_sizes and one_minus_r2 must have matching shapes")
    log_bf = np.zeros_like(omr2)
    shrink = np.full_like(omr2, np.nan)
    active = p_arr > 0
    saturated = active & (omr2 <= 1e-14)
    log_bf[saturated] = np.inf
    work = active & ~saturated
    if not np.any(work):
        return (log_bf, shrink) if want_shrinkage else log_bf

    q = n - p0
    pw = p_arr[work][:, None]
    ow = omr2[work][:, None]
    psi_grid = _zs_log_integrand(_ZS_GRID[None, :], n, q, pw, ow)
    shift = psi_grid.max(axis=1)
    inside = psi_grid >= shift[:, None] - _ZS_LOG_WINDOW
    n_grid = _ZS_GRID.shape[0]
    ilo = np.maximum(inside.argmax(axis=1) - 1, 0)
    ihi = np.minimum(n_grid - 1 - inside[:, ::-1].argmax(axis=1) + 1, n_grid - 1)
    t_lo = _ZS_GRID[ilo]
    t_hi = _ZS_GRID[ihi]
    width = t_hi - t_lo
    panels = max(1, int(np.ceil(width.max())))

    pw3 = pw[:, :, None]
    ow3 = ow[:, :, None]

    def integrate(nodes_per_panel):
        z, wz = np.polynomial.legendre.leggauss(nodes_per_panel)
        h = (width / panels)[:, None, None]
        offsets = np.arange(panels)[None, :, None] + (z[None, None, :] + 1.0) / 2.0
        tt = t_lo[:, None, None] + h * offsets
        ww = 0.5 * h * wz[None, None, :]
        vals = np.exp(_zs_log_integrand(tt, n, q, pw3, ow3) - shift[:, None, None])
        total = (ww * vals).sum(axis=(1, 2))
        weighted = (ww * vals * expit(tt)).sum(axis=(1, 2)) if want_shrinkage else None
        return total, weighted

    nodes = 12
    i_prev, s_prev = integrate(nodes)
    while True:
        nodes *= 2
        if nodes * panels > cfg.node_count:
            rel = np.inf
            break
        i_cur, s_cur = integrate(nodes)
        rel = float(np.max(np.abs(i_cur - i_prev) / np.maximum(i_cur, 1e-300)))
        i_prev, s_prev = i_cur, s_cur
        if rel <= cfg.relative_tolerance:
            break
    if rel > cfg.relative_tolerance:
        raise QuadratureError("Zellner-Siow quadrature did not converge", rel)

    log_bf[work] = shift + np.log(i_prev)
    if want_shrinkage:
        shrink[work] = s_prev / i_prev
        return log_bf, shrink
    return log_bf


def log_bf_zs(stats: SuffStats, cfg: QuadratureConfig | None = None) -> float:
    """Null-based log Bayes factor under the Zellner-Siow Cauchy prior."""
    _require_scope(stats)
    if stats.p == 0:
        return 0.0
    out = zs_evidence_batch(stats.n, stats.p0, [stats.p], [_one_minus_r2(stats)], cfg)
    return float(out[0])


def log_bf_zs_laplace(stats: SuffStats) -> float:
    """Zellner-Siow log Bayes factor by Laplace approximation on the g axis.

    The classical fast evaluation of the mixture integral: expand the log
    integrand around its mode in g.  Cheap and accurate for moderate n, but
    visibly off the exact integral at very small sample sizes; published
    small-n reference values for this prior typically come from this
    approximation rather than from exact quadrature.
    """
    _require_scope(stats)
    if stats.p == 0:
        return 0.0
    r2 = stats.r2
    if r2 >= R2_SATURATION:
        return math.inf
    q = stats.n - stats.p0
    p = stats.p
    n = stats.n
    omr2 = _one_minus_r2(stats)

    def neg_log_f(g):
        return -(
            0.5 * (q - p) * math.log1p(g)
            - 0.5 * q * math.log1p(omr2 * g)
            + 0.5 * math.log(n / 2.0)
            - 0.5 * math.log(math.pi)
            - 1.5 * math.log(g)
            - n / (2.0 * g)
        )

    res = minimize_scalar(neg_log_f, bounds=(1e-8, 1e12), method="bounded")
    g0 = float(res.x)
    h = max(1e-5 * g0, 1e-9)
    curvature = (neg_log_f(g0 + h) - 2.0 * neg_log_f(g0) + neg_log_f(g0 - h)) / h**2
    if curvature <= 0:
        return -res.fun
    return float(-res.fun + 0.5 * math.log(2.0 * math.pi / curvature))


def zs_posterior_shrinkage(stats: SuffStats, cfg: QuadratureConfig | None = None) -> float:
    """Posterior expectation of g/(1+g) under the Zellner-Siow prior."""
    _require_scope(stats)
    if stats.p == 0:
        raise ValueError("null model has no coefficients to shrink")
    _, shrink = zs_evidence_batch(
        stats.n, stats.p0, [stats.p], [_one_minus_r2(stats)], cfg, want_shrinkage=True
    )
    return float(shrink[0])


def log_evidence(stats: SuffStats, method: PriorMethod) -> float:
    """Null-based log evidence of one model under the chosen rule."""
    kind = method.kind
    if kind == "ml2":
        return log_bf_ml2(stats)
    if kind == "lb":
        return log_bf_gprior(stats, float(stats.n) if method.g is None else method.g)
    if kind == "bic":
        return log_bf_bic(stats)
    if kind == "bicprior":
        return log_bf_bic_prior(stats)
    if kind == "zs":
        return log_bf_zs(stats, method.quadrature)
    if kind == "ghat":
        return log_bf_local_eb(stats)[0]
    if kind == "aic":
        return log_bf_aic(stats)
    raise ValueError(f"unknown evidence rule {kind!r}")
