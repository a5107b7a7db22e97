"""Model spaces, posterior probabilities, and summaries.

A ``ModelSpace`` owns its models, tuples of 0-based candidate-column indices
ordered smaller first and lexicographic within a size.  Evidence arrives as
null-based log Bayes factors over them; probabilities come out of a
max-shifted exponentiation, so the layer is safe for sample sizes where raw
Bayes factors overflow.  Ties go to the first model, and ``hpm`` and ``mpm``
return indices into the space's models, one per row of a stacked posterior.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

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
# thread, wall time of the whole process) took 0.6 s / 46 MB peak at
# p = 12, 0.6 s / 49 MB at 13, 1.2 s / 59 MB at 14, 2.0 s / 83 MB at 15
# and 3.5 s / 136 MB at 16 (the same figures are in the README).
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
        if self.kind == "nested" and self.size == 0 and not self.include_null:
            raise ValueError("empty model space: a nested space without the null model "
                             "needs size >= 1")
        if self.kind == "all_subsets" and self.size > _MAX_ALL_SUBSETS:
            raise ValueError(
                f"all-subsets enumeration capped at {_MAX_ALL_SUBSETS} predictors, "
                f"got {self.size}: time and memory double with each predictor, "
                f"and {2**_MAX_ALL_SUBSETS} models already take about 3.5 s and 0.14 GB "
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

    @cached_property
    def models(self) -> tuple[tuple[int, ...], ...]:
        """The models, smaller first and lexicographic within a size."""
        if self.kind == "all_subsets":
            return tuple(itertools.chain.from_iterable(
                itertools.combinations(range(self.size), size) for size in range(self.size + 1)))
        start = 0 if self.include_null else 1
        return tuple(tuple(range(j)) for j in range(start, self.size + 1))

    # mask and sizes are shared by every table fitted over the space.
    @cached_property
    def mask(self) -> np.ndarray:
        mask = model_mask(self.models, self.size)
        mask.flags.writeable = False
        return mask

    @cached_property
    def sizes(self) -> np.ndarray:
        sizes = np.count_nonzero(self.mask, axis=1)
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def log_prior(self) -> np.ndarray:
        if self.model_prior == "uniform_models":
            return np.zeros(len(self.models))
        counts = np.bincount(self.sizes)
        n_sizes = np.count_nonzero(counts)
        per_size = np.array([-math.log(n_sizes) - math.log(c) if c else 0.0
                             for c in counts.tolist()])
        return per_size[self.sizes]


@dataclass(frozen=True)
class ModelPosterior:
    """Log evidence and normalized posterior probabilities over a model space:
    column i is ``space.models[i]``, and a stacked posterior has a row per replicate."""

    space: ModelSpace
    log_evidence: np.ndarray
    posterior_prob: np.ndarray

    @property
    def models(self) -> tuple[tuple[int, ...], ...]:
        return self.space.models


def posterior_from_evidence(space: ModelSpace, log_ev) -> ModelPosterior:
    """Apply the model prior to log evidences over ``space.models`` and normalize.

    A +inf evidence marker hands probability one to the marked model (the
    first if several are marked).  ``log_ev`` of shape (R, m) holds R
    stacked replicates' evidences; each row is normalized on its own, bit
    for bit as alone, and the posterior's arrays keep the (R, m) shape.
    """
    m = len(space.models)
    log_ev = np.asarray(log_ev, dtype=np.float64)
    if log_ev.ndim not in (1, 2) or log_ev.shape[-1] != m:
        raise ValueError("log evidence length must match the model space")
    rows = log_ev.reshape(-1, m)
    probs = np.zeros(rows.shape)
    marked = np.isposinf(rows)
    saturated = marked.any(axis=1)
    if not saturated.all():
        scores = rows[~saturated] + space.log_prior
        scores -= scores.max(axis=1, keepdims=True)
        with np.errstate(under="ignore"):  # an underflowing weight is negligible
            weights = np.exp(scores)
            probs[~saturated] = weights / weights.sum(axis=1, keepdims=True)
    if saturated.any():
        probs[np.flatnonzero(saturated), marked[saturated].argmax(axis=1)] = 1.0
    return ModelPosterior(space, log_ev, probs.reshape(log_ev.shape))


def enumerate_models(dataset: Dataset, space: ModelSpace,
                    method: PriorMethod | str) -> ModelPosterior:
    """Evidence and posterior for every model in the space, fitted locally.

    Each model gets its own fitted prior scale (the local empirical-Bayes
    convention); a model that cannot be fitted raises with its index and
    columns attached.
    """
    return posterior_from_evidence(space, evidence(method, fit_models(dataset, space)))


def hpm(posterior: ModelPosterior):
    """Index of the highest probability model (one per row when stacked);
    exact ties go to the first, that is the smaller, model."""
    return posterior.posterior_prob.argmax(axis=-1)


def inclusion_probs(posterior: ModelPosterior) -> np.ndarray:
    """Posterior probability that each candidate predictor is in the model
    (one row per replicate when stacked)."""
    # One (1, m) @ (m, p) product per row keeps each row bit for bit as alone.
    return (posterior.posterior_prob[..., None, :] @ posterior.space.mask)[..., 0, :]


def mpm(posterior: ModelPosterior):
    """Index of the median probability model (one per row when stacked).

    All-subsets spaces: the model of predictors with inclusion probability
    at least one half.  Nested spaces: the largest model whose upper-tail
    posterior probability is at least one half.
    """
    space = posterior.space
    if space.kind == "all_subsets":
        chosen = inclusion_probs(posterior) >= 0.5
        return (space.mask == chosen[..., None, :]).all(axis=-1).argmax(axis=-1)
    tail = np.cumsum(posterior.posterior_prob[..., ::-1], axis=-1)[..., ::-1]
    # The tail mass only shrinks along the models and starts at the total, 1.
    return np.count_nonzero(tail >= 0.5, axis=-1) - 1


def entropy(posterior: ModelPosterior):
    """Shannon entropy (nats) of the posterior over models (one per row when
    stacked)."""
    p = posterior.posterior_prob
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(p > 0, p * np.log(p), 0.0).sum(axis=-1)
