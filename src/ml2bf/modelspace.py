"""Model-space enumeration, posterior probabilities, and summaries.

Models are tuples of 0-based candidate-column indices.  Evidence arrives as
null-based log Bayes factors; probabilities come out of a max-shifted
exponentiation, so the layer is safe for sample sizes where raw Bayes
factors overflow.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bayesfactors import PriorMethod, evidence
from .regression import Dataset, fit_models, model_mask

__all__ = [
    "ModelSpace",
    "ModelPosterior",
    "enumerate_models",
    "posterior_from_evidence",
    "hpm",
    "mpm",
    "inclusion_probs",
    "entropy",
]

# Time and memory of an all-subsets run double with each added predictor.
# `ml2bf bf` on a 100-row CSV under all six rules (2-core VM, one BLAS
# thread, wall time of the whole process) took 0.6 s / 62 MB peak at
# p = 12, 0.9 s / 81 MB at 13, 1.6 s / 128 MB at 14, 2.8 s / 219 MB at 15
# and 5.4 s / 421 MB at 16 (the same figures are in the README).
_MAX_ALL_SUBSETS = 16


@dataclass(frozen=True)
class ModelSpace:
    """Enumerable family of models plus the prior over it.

    ``all_subsets`` enumerates every subset of p candidates including the
    empty model; ``nested`` enumerates prefixes of sizes 1..k (or 0..k).
    The prior is uniform over models or uniform over model sizes.
    """

    kind: str
    size: int
    include_null: bool = True
    model_prior: str = "uniform_models"

    def __post_init__(self):
        if self.kind not in ("all_subsets", "nested"):
            raise ValueError(f"unknown model space kind {self.kind!r}")
        if self.model_prior not in ("uniform_models", "uniform_size"):
            raise ValueError(f"unknown model_prior {self.model_prior!r}")
        if self.size < 0:
            raise ValueError("size must be nonnegative")
        if self.kind == "all_subsets" and self.size > _MAX_ALL_SUBSETS:
            raise ValueError(
                f"all-subsets enumeration capped at {_MAX_ALL_SUBSETS} predictors, "
                f"got {self.size}: time and memory double with each predictor, "
                f"and {2**_MAX_ALL_SUBSETS} models already take about 5 s and 0.42 GB "
                "in `ml2bf bf` (see the README)"
            )

    @classmethod
    def all_subsets(cls, p: int, model_prior: str = "uniform_models") -> "ModelSpace":
        return cls(kind="all_subsets", size=p, model_prior=model_prior)

    @classmethod
    def nested(
        cls, k: int, include_null: bool = False, model_prior: str = "uniform_size"
    ) -> "ModelSpace":
        return cls(kind="nested", size=k, include_null=include_null,
                   model_prior=model_prior)

    def models(self) -> list[tuple[int, ...]]:
        if self.kind == "all_subsets":
            out = []
            for size in range(self.size + 1):
                out.extend(itertools.combinations(range(self.size), size))
            return out
        start = 0 if self.include_null else 1
        return [tuple(range(j)) for j in range(start, self.size + 1)]

    def log_prior(self, models) -> np.ndarray:
        if self.model_prior == "uniform_models":
            return np.zeros(len(models))
        sizes = np.fromiter(map(len, models), dtype=np.intp, count=len(models))
        counts = np.bincount(sizes)
        n_sizes = np.count_nonzero(counts)
        per_size = np.array([-math.log(n_sizes) - math.log(c) if c else 0.0
                             for c in counts.tolist()])
        return per_size[sizes]


@dataclass(frozen=True)
class ModelPosterior:
    """Log evidence and normalized posterior probabilities over a model space."""

    models: tuple
    log_evidence: np.ndarray
    posterior_prob: np.ndarray
    space: ModelSpace


def _model_order(model) -> tuple:
    # Parsimony first, then lexicographic: the deterministic tie-break.
    return (len(model), model)


def posterior_from_evidence(models, log_ev, space: ModelSpace) -> ModelPosterior:
    """Apply the model prior to log evidences and normalize.

    A +inf evidence marker hands probability one to the marked model (the
    tie-break picks one if several are marked).  ``log_ev`` of shape (R, m)
    holds R stacked replicates' evidences over the same models; each row is
    normalized on its own, bit for bit as alone, and the posterior's arrays
    keep the (R, m) shape.
    """
    models = tuple(tuple(m) for m in models)
    log_ev = np.asarray(log_ev, dtype=np.float64)
    if len(models) == 0:
        raise ValueError("empty model list")
    if log_ev.ndim not in (1, 2) or log_ev.shape[-1] != len(models):
        raise ValueError("log evidence length must match the model list")
    rows = log_ev.reshape(-1, len(models))
    probs = np.zeros(rows.shape)
    marked = np.isposinf(rows)
    saturated = marked.any(axis=1)
    if not saturated.all():
        scores = rows[~saturated] + space.log_prior(models)
        scores -= scores.max(axis=1, keepdims=True)
        with np.errstate(under="ignore"):  # an underflowing weight is negligible
            weights = np.exp(scores)
            probs[~saturated] = weights / weights.sum(axis=1, keepdims=True)
    if saturated.any():
        rank = np.argsort(sorted(range(len(models)), key=lambda i: _model_order(models[i])))
        winners = np.where(marked[saturated], rank, len(models)).argmin(axis=1)
        probs[np.flatnonzero(saturated), winners] = 1.0
    return ModelPosterior(
        models=models, log_evidence=log_ev, posterior_prob=probs.reshape(log_ev.shape),
        space=space
    )


def enumerate_models(
    dataset: Dataset, space: ModelSpace, method: PriorMethod
) -> ModelPosterior:
    """Evidence and posterior for every model in the space, fitted locally.

    Each model gets its own fitted prior scale (the local empirical-Bayes
    convention); a model that cannot be fitted raises with its index and
    columns attached.
    """
    table = fit_models(dataset, space.models())
    return posterior_from_evidence(table.models, evidence(method, table), space)


def hpm(posterior: ModelPosterior) -> tuple[int, ...]:
    """Highest probability model; exact ties go to the smaller model."""
    probs = posterior.posterior_prob
    tied = np.flatnonzero(probs == probs.max())
    return min((posterior.models[i] for i in tied), key=_model_order)


def inclusion_probs(posterior: ModelPosterior, mask=None) -> np.ndarray:
    """Posterior probability that each candidate predictor is in the model.

    ``mask`` is the models' boolean inclusion matrix (``ModelTable.mask``);
    it is built from ``posterior.models`` when not given.
    """
    if mask is None:
        mask = model_mask(posterior.models, posterior.space.size)
    return posterior.posterior_prob @ mask


def mpm(posterior: ModelPosterior, mask=None) -> tuple[int, ...]:
    """Median probability model.

    All-subsets spaces: the model of predictors with inclusion probability
    at least one half (``mask`` as in ``inclusion_probs``).  Nested spaces:
    the largest size whose upper-tail posterior probability is at least one
    half.
    """
    if posterior.space.kind == "all_subsets":
        incl = inclusion_probs(posterior, mask)
        return tuple(int(j) for j in np.nonzero(incl >= 0.5)[0])
    sizes = np.array([len(m) for m in posterior.models])
    order = np.argsort(sizes)
    tail = np.cumsum(posterior.posterior_prob[order][::-1])[::-1]
    return tuple(range(int(sizes[order][np.max(np.flatnonzero(tail >= 0.5), initial=0)])))


def entropy(posterior: ModelPosterior) -> float:
    """Shannon entropy (nats) of the posterior over models."""
    p = posterior.posterior_prob
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())
