"""Nonparametric regression of -log(1-x) in a Chebyshev basis.

A nested family of truncated Chebyshev expansions is fitted to noisy
observations of f(x) = -log(1-x) at the classical cosine knots, where the
design is exactly orthogonal.  Evidence rules: the unit-information
constrained type II ML prior, an informative diagonal prior with power-law
decay fitted by marginal likelihood, and AIC/BIC used as approximate
marginal likelihoods.  The power-law prior of every nested model is fitted
in one batch: a shared (log10 c, a) grid gives each model its start, and a
projected Newton ascent with analytic derivatives refines all of them
together.  Performance is measured by the squared predictive loss
integrated over [-1, 1].
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .bayesfactors import ml2_known_variance_from_scalars
from .modelspace import ModelSpace, hpm, mpm, posterior_from_evidence
from .pool import derive_stream, mean_se, run_replicates

__all__ = [
    "NonparametricConfig",
    "chebyshev_design",
    "true_signal",
    "series_coefficients",
    "predictive_loss_integral",
    "run_study",
    "STUDY_METHODS",
]

STUDY_METHODS = ("powerlaw", "ml2", "aic", "bic")

PRESETS = {1: (30, 29, 1.0), 2: (100, 79, 1.0), 3: (2000, 79, 3.0)}

_ORTHO_TOL = 1e-8


def __getattr__(name):
    # Uncalled; the benchmark's tracer looks it up here, so it loads on first use.
    if name != "minimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import minimize
    return minimize


@dataclass(frozen=True)
class NonparametricConfig:
    """Scenario description: sample size, largest truncation, noise level."""

    n: int
    k: int
    sigma2: float
    replicates: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not self.n > self.k >= 1:
            raise ValueError("need n > k >= 1")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")

    @classmethod
    def preset(cls, index: int, replicates: int = 1000, seed: int = 0):
        if index not in PRESETS:
            raise ValueError(f"preset index must be one of {sorted(PRESETS)}")
        n, k, sigma2 = PRESETS[index]
        return cls(n=n, k=k, sigma2=sigma2, replicates=replicates, seed=seed)

    @property
    def label(self) -> str:
        return f"n{self.n}_k{self.k}_s{self.sigma2:g}"


def chebyshev_design(n: int, k: int):
    """Intercept column, first-kind Chebyshev design, and the cosine knots.

    Column j holds T_j at the knots cos(pi (n - i + 1/2) / n).  The discrete
    orthogonality X'X = (n/2) I and 1'X = 0 is verified to 1e-8 and a
    failure raises (it would indicate a construction bug, the identities are
    exact in real arithmetic for k < n).
    """
    if not n > k >= 1:
        raise ValueError("need n > k >= 1")
    i = np.arange(1, n + 1)
    knots = np.cos(np.pi * (n - i + 0.5) / n)
    x = chebyshev.chebvander(knots, k)[:, 1:]
    gram = x.T @ x
    target = (n / 2.0) * np.eye(k)
    if np.max(np.abs(gram - target)) > _ORTHO_TOL * (n / 2.0):
        raise RuntimeError("chebyshev design failed the orthogonality check")
    if np.max(np.abs(x.sum(axis=0))) > _ORTHO_TOL * n:
        raise RuntimeError("chebyshev design columns are not centered")
    return np.ones((n, 1)), x, knots


def true_signal(x) -> np.ndarray:
    """The target function -log(1-x), evaluated directly."""
    return -np.log1p(-np.asarray(x, dtype=np.float64))


def series_coefficients(j_max: int) -> tuple[float, np.ndarray]:
    """Leading coefficients of the orthogonal expansion of the target:
    intercept log 2 and 2/j on the degree-j term."""
    return math.log(2.0), 2.0 / np.arange(1.0, j_max + 1.0)


def _summaries(y, x):
    """Per-coordinate whitened fit of the nested family.

    Returns (alpha_hat, beta_hat, u) where u are the whitened coordinates,
    so the size-j model has ssr = sum(u[:j]**2).
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = x.shape[0]
    coeff = x.T @ y
    return float(y.mean()), coeff / (n / 2.0), coeff / math.sqrt(n / 2.0)


def _power_law_log_bf(u_sq, kappa, sigma2, log10c, a):
    """Null-based log Bayes factor of the diagonal power-law prior.

    ``u_sq`` are the squared whitened coordinates of the model in question;
    vectorized over a trailing grid of (log10c, a) pairs.  The direct
    formula, kept as the reference for ``_nested_power_law``.
    """
    j = u_sq.shape[0]
    idx = np.arange(1.0, j + 1.0)
    d = 10.0**np.asarray(log10c, dtype=np.float64)[..., None] * idx ** (
        -np.asarray(a, dtype=np.float64)[..., None]
    )
    m = 1.0 + kappa * d
    return -0.5 * np.log(m).sum(axis=-1) + (u_sq.sum() - (u_sq / m).sum(axis=-1)) / (
        2.0 * sigma2
    )


_LOG10C_LO, _LOG10C_HI = -4.0, 4.0
_A_LO, _A_HI = 0.0, 6.0
_BOX_LO = np.array([_LOG10C_LO, _A_LO])
_BOX_HI = np.array([_LOG10C_HI, _A_HI])
_LN10 = math.log(10.0)
_EDGE = 1e-4
_NEWTON_ITERATIONS = 50
_BACKTRACKS = 40
_ARMIJO = 1e-4
_GAIN_TOL = 1e-15
_STEP_TOL = 1e-10

_GRID_C = np.linspace(_LOG10C_LO, _LOG10C_HI, 33)
_GRID_A = np.linspace(_A_LO, _A_HI, 25)
_GRID_CELL = _GRID_C[1] - _GRID_C[0]
# Grid points in the order (log10c major, a minor): argmax ties go to the
# first point in this order.
_GRID = np.stack([g.ravel() for g in np.meshgrid(_GRID_C, _GRID_A, indexing="ij")], axis=1)


def _logistic(z):
    """1 / (1 + exp(-z)); the fit box bounds z = log(kappa d) far inside exp's range."""
    return 1.0 / (1.0 + np.exp(-z))


def _log_kappa_d(kappa, params, k):
    """log(kappa d_i) = log kappa + log10c ln 10 - a ln i, one row per
    (log10c, a) in ``params``, one column per coordinate i = 1..k."""
    return math.log(kappa) + _LN10 * params[:, :1] - params[:, 1:] * np.log(
        np.arange(1.0, k + 1.0)
    )


def _nested_power_law(w, kappa, sizes, params, derivatives=False):
    """Log Bayes factors of nested power-law models at per-model parameters.

    Row r is the model with coordinates 1..sizes[r] under the prior scale
    10^log10c * i^(-a), (log10c, a) = params[r].  ``w`` holds the
    per-coordinate signal u_i^2 / (2 sigma2).  With d = kappa * scale and
    s = d / (1 + d), coordinate i adds -log(1 + d)/2 + w_i s to the log
    Bayes factor, h = s(-1/2 + w_i (1 - s)) to its derivative in log d and
    s(1 - s)(-1/2 + w_i (1 - 2s)) to the second derivative; the chain rule
    through log d = log10c ln 10 - a ln i gives the gradient and Hessian in
    (log10c, a).

    Returns (value (r,), shrink (r, k)), where shrink holds s with zeros
    beyond each model's size, and with ``derivatives`` also the gradient
    (r, 2) and Hessian (r, 2, 2).
    """
    k = w.shape[0]
    z = _log_kappa_d(kappa, params, k)
    inside = np.arange(1, k + 1) <= np.asarray(sizes)[:, None]
    s = np.where(inside, _logistic(z), 0.0)
    value = (np.where(inside, -0.5 * np.logaddexp(0.0, z), 0.0) + w * s).sum(axis=1)
    if not derivatives:
        return value, s
    rest = np.where(inside, _logistic(-z), 0.0)
    log_i = np.log(np.arange(1.0, k + 1.0))
    h = s * (-0.5 + w * rest)
    h2 = s * rest * (-0.5 + w * (rest - s))
    grad = np.stack([_LN10 * h.sum(axis=1), -(h @ log_i)], axis=1)
    cross = -_LN10 * (h2 @ log_i)
    hess = np.stack(
        [
            np.stack([_LN10**2 * h2.sum(axis=1), cross], axis=1),
            np.stack([cross, h2 @ log_i**2], axis=1),
        ],
        axis=1,
    )
    return value, s, grad, hess


def _ascent_direction(params, grad, hess):
    """Projected Newton direction, or a gradient step where that fails.

    A coordinate on a box edge whose gradient points out of the box is held
    fixed.  The Newton step on the free coordinates is used where their
    Hessian block is negative definite.  Elsewhere the step follows the free
    gradient: to the maximum of the quadratic model along it where that
    model is concave in this direction, else one grid cell in its largest
    component.
    """
    held = ((params <= _BOX_LO) & (grad < 0)) | ((params >= _BOX_HI) & (grad > 0))
    g = np.where(held, 0.0, grad)
    h00 = np.where(held[:, 0], -1.0, hess[:, 0, 0])
    h11 = np.where(held[:, 1], -1.0, hess[:, 1, 1])
    h01 = np.where(held.any(axis=1), 0.0, hess[:, 0, 1])
    det = h00 * h11 - h01**2
    newton = (h00 < 0) & (det > 0)
    safe = np.where(newton, det, 1.0)
    newton_step = -np.stack(
        [(h11 * g[:, 0] - h01 * g[:, 1]) / safe, (h00 * g[:, 1] - h01 * g[:, 0]) / safe],
        axis=1,
    )
    curvature = np.einsum("ri,rij,rj->r", g, hess, g)
    largest = np.abs(g).max(axis=1)
    length = np.where(
        curvature < 0,
        (g * g).sum(axis=1) / np.where(curvature < 0, -curvature, 1.0),
        _GRID_CELL / np.where(largest > 0, largest, 1.0),
    )
    return np.where(newton[:, None], newton_step, length[:, None] * g)


def _fit_nested_power_law(u, sigma2, n):
    """Maximize the power-law evidence of every nested model at once.

    Each model j (coordinates 1..j) starts from the argmax of its evidence
    over the 33 x 25 grid of (log10c, a) in the box [-4, 4] x [0, 6]; the
    grid columns of all models come from one cumulative sum of the
    per-coordinate terms.  The starts are then refined together by a
    projected, damped Newton ascent (see ``_ascent_direction``) whose
    backtracking accepts only steps that raise the evidence, so no fit ends
    below its grid start.

    Returns (params (k, 2), log_bf (k,), shrink (k, k), boundary_hit (k,)).
    """
    k = u.shape[0]
    kappa = n / 2.0
    w = u**2 / (2.0 * sigma2)
    z = _log_kappa_d(kappa, _GRID, k)
    grid_vals = np.cumsum(-0.5 * np.logaddexp(0.0, z) + w * _logistic(z), axis=1)
    params = _GRID[np.argmax(grid_vals, axis=0)]
    sizes = np.arange(1, k + 1)
    value, shrink, grad, hess = _nested_power_law(w, kappa, sizes, params, True)

    active = np.arange(k)
    for _ in range(_NEWTON_ITERATIONS):
        if active.size == 0:
            break
        x, f, g = params[active], value[active], grad[active]
        direction = _ascent_direction(x, g, hess[active])
        # Backtrack each model until a step raises its evidence by the
        # Armijo fraction of the predicted gain.  A model has converged when
        # the full step predicts a gain at rounding level or no step gains.
        predicted = (direction * g).sum(axis=1)
        todo = np.flatnonzero(predicted > _GAIN_TOL * (1.0 + np.abs(f)))
        accepted = np.zeros(active.size, dtype=bool)
        new_x = x.copy()
        step = 1.0
        for _ in range(_BACKTRACKS):
            if todo.size == 0:
                break
            trial = np.clip(x[todo] + step * direction[todo], _BOX_LO, _BOX_HI)
            trial_val, _ = _nested_power_law(w, kappa, sizes[active[todo]], trial)
            gain = trial_val - f[todo]
            ok = (gain > 0) & (gain >= _ARMIJO * ((trial - x[todo]) * g[todo]).sum(axis=1))
            new_x[todo[ok]] = trial[ok]
            accepted[todo[ok]] = True
            todo = todo[~ok]
            step *= 0.5
        moved = active[accepted]
        if moved.size == 0:
            break
        small = np.abs(new_x[accepted] - x[accepted]).max(axis=1) <= _STEP_TOL
        params[moved] = new_x[accepted]
        value[moved], shrink[moved], grad[moved], hess[moved] = _nested_power_law(
            w, kappa, sizes[moved], params[moved], True
        )
        active = moved[~small]

    log10c, a = params[:, 0], params[:, 1]
    boundary = (log10c <= _LOG10C_LO + _EDGE) | (log10c >= _LOG10C_HI - _EDGE) | (
        a >= _A_HI - _EDGE
    )
    return params, value, shrink, boundary


def _evidence_and_shrinkage(u, n, method, sigma2, refit_per_model=True):
    """Log evidence per nested model and per-coordinate shrinkage factors.

    ``u`` are the whitened coordinates of ``_summaries`` for a sample of
    size ``n``.  Returns (log_ev (k,), shrink (k, k)): row j-1 of ``shrink``
    scales beta_hat coordinates 1..j for the size-j model (zero beyond j).
    """
    k = u.shape[0]
    u_sq = u**2
    ssr = np.cumsum(u_sq)
    if method == "ml2":
        log_ev, a = ml2_known_variance_from_scalars(np.arange(1, k + 1), ssr, sigma2, float(n))
        shrink = np.tri(k) * (1.0 - 1.0 / (n + 1.0 + a * ssr))[:, None]
    elif method == "powerlaw":
        params, log_ev, shrink, _ = _fit_nested_power_law(u, sigma2, n)
        if not refit_per_model:
            log_ev, shrink = _nested_power_law(
                u_sq / (2.0 * sigma2), n / 2.0, np.arange(1, k + 1),
                np.broadcast_to(params[-1], (k, 2)),
            )
    elif method in ("aic", "bic"):
        penalty = 2.0 if method == "aic" else math.log(n)
        log_ev = ssr / (2.0 * sigma2) - 0.5 * penalty * np.arange(1.0, k + 1.0)
        shrink = np.tri(k)
    else:
        raise ValueError(f"unknown study method {method!r}")
    return log_ev, shrink


# Nodes asked of ``_loss_rule``; it rounds down to whole panels.
_LOSS_POINTS = 2000


@lru_cache(maxsize=1)
def _loss_rule():
    """Composite Gauss-Legendre rule on [-1, 1] graded toward x = 1.

    Uniform panels of width 1/16 on [-1, 1/2], then dyadic panels shrinking
    into the log-squared singularity at 1.  The neglected sliver beyond
    1 - 2^-45 contributes below 1e-10 for log-squared integrands, well under
    the 1e-6 relative target.
    """
    left = np.linspace(-1.0, 0.5, 25)
    right = 1.0 - 2.0 ** (-np.arange(2.0, 46.0))
    edges = np.concatenate([left, right])
    per_panel = max(4, _LOSS_POINTS // (edges.size - 1))
    z, w = np.polynomial.legendre.leggauss(per_panel)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    nodes = (lo + hi) / 2.0 + (hi - lo) / 2.0 * z[None, :]
    weights = (hi - lo) / 2.0 * w[None, :]
    return nodes.ravel(), weights.ravel()


def predictive_loss_integral(alpha_hat: float, beta_hat) -> float:
    """Integrated squared loss of the fitted expansion against the target.

    Computes the integral over [-1, 1] of (f(x) - fhat(x))^2 where fhat is
    the Chebyshev expansion with the given intercept and coefficients.
    """
    nodes, weights = _loss_rule()
    coeffs = np.concatenate([[alpha_hat], np.asarray(beta_hat, dtype=np.float64).reshape(-1)])
    resid = true_signal(nodes) - chebyshev.chebval(nodes, coeffs)
    return float(weights @ resid**2)


_SELECTORS = ("hpm", "mpm", "bma")
LOSS_KINDS = ("coefficient", "integrated")


def _make_loss_fn(loss_kind, k):
    """Loss functional for fitted (intercept, k coefficients) pairs.

    ``coefficient``: squared error of the fitted coefficient vector against
    the true expansion coefficients, intercept included.  ``integrated``:
    the squared curve difference integrated over [-1, 1].  The two agree
    when the basis is treated as orthonormal; the published benchmark values
    for this study correspond to the coefficient-space form.
    """
    if loss_kind == "coefficient":
        alpha_true, beta_true = series_coefficients(k)

        def loss_fn(alpha_hat, coef):
            diff = coef - beta_true
            return float((alpha_hat - alpha_true) ** 2 + diff @ diff)

        return loss_fn
    if loss_kind == "integrated":
        nodes, weights = _loss_rule()
        truth_at_nodes = true_signal(nodes)
        cheb_at_nodes = chebyshev.chebvander(nodes, k)[:, 1:]

        def loss_fn(alpha_hat, coef):
            resid = truth_at_nodes - alpha_hat - cheb_at_nodes @ coef
            return float(weights @ resid**2)

        return loss_fn
    raise ValueError(f"unknown loss kind {loss_kind!r}")


def _study_chunk(cell, lo, hi):
    """Losses (hpm, mpm, bma) and the HPM and MPM sizes for replicates
    lo..hi-1 of one scenario: one fit per replicate, scored by every rule."""
    n, k, sigma2, seed, methods, refit_per_model, loss_kind = cell
    _, x, knots = chebyshev_design(n, k)
    signal = true_signal(knots)
    loss_fn = _make_loss_fn(loss_kind, k)
    space = ModelSpace.nested(k)
    losses = np.empty((hi - lo, len(methods), len(_SELECTORS)))
    sizes = np.empty((hi - lo, len(methods), 2))
    for r, rep in enumerate(range(lo, hi)):
        rng = derive_stream(seed, rep)
        y = signal + math.sqrt(sigma2) * rng.standard_normal(n)
        alpha_hat, beta_hat, u = _summaries(y, x)
        for mi, method in enumerate(methods):
            log_ev, shrink = _evidence_and_shrinkage(u, n, method, sigma2, refit_per_model)
            posterior = posterior_from_evidence(space, log_ev)
            i_hpm, i_mpm = hpm(posterior), mpm(posterior)
            coefs = shrink * beta_hat  # row i: the model of size i + 1
            bma_coef = posterior.posterior_prob @ coefs
            for si, coef in enumerate((coefs[i_hpm], coefs[i_mpm], bma_coef)):
                losses[r, mi, si] = loss_fn(alpha_hat, coef)
            sizes[r, mi] = space.sizes[i_hpm], space.sizes[i_mpm]
    return losses, sizes


def run_study(
    cfg: NonparametricConfig,
    methods=STUDY_METHODS,
    threads: int = 1,
    refit_per_model: bool = True,
    loss_kind: str = "coefficient",
) -> list[dict]:
    """Monte Carlo study of one scenario: average predictive loss and size.

    One row per (method, selector) with the average loss (see
    ``_make_loss_fn`` for the two loss conventions), its standard error,
    and (for the selected-model rows) the average size.
    """
    methods = tuple(methods)
    cell = (cfg.n, cfg.k, cfg.sigma2, cfg.seed, methods, refit_per_model, loss_kind)
    [(losses, sizes)] = run_replicates(_study_chunk, [cell], cfg.replicates, threads)
    rows = []
    for mi, method in enumerate(methods):
        for si, sel in enumerate(_SELECTORS):
            keys = f"scenario={cfg.label}, method={method}, selector={sel}"
            avg_loss, se_loss = mean_se(losses[:, mi, si], f"{keys}, avg_loss")
            avg_size = se_size = ""
            if sel in ("hpm", "mpm"):
                avg_size, se_size = mean_se(sizes[:, mi, 0 if sel == "hpm" else 1],
                                            f"{keys}, avg_size")
            rows.append(
                {
                    "scenario": cfg.label,
                    "method": method,
                    "selector": sel,
                    "avg_loss": avg_loss,
                    "se_loss": se_loss,
                    "avg_size": avg_size,
                    "se_size": se_size,
                    "replicates": cfg.replicates,
                    "seed": cfg.seed,
                }
            )
    return rows
