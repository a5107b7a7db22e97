"""Model enumeration, posterior normalization, and summaries."""

import math

import numpy as np
import pytest

from ml2bf.bayesfactors import PriorMethod, log_bf_gprior
from ml2bf.modelspace import (
    ModelSpace,
    entropy,
    enumerate_models,
    hpm,
    inclusion_probs,
    mpm,
    posterior_from_evidence,
)
from ml2bf.regression import fit_suffstats, model_mask

from util import random_dataset


def _posterior(models, log_ev):
    """Posterior over the all-subsets space of the predictors ``models``
    name: each given model has its log evidence, every other model -inf."""
    space = ModelSpace.all_subsets(max((max(m) + 1 for m in models if m), default=0))
    full = np.full(len(space.models), -np.inf)
    full[[space.models.index(m) for m in models]] = log_ev
    return posterior_from_evidence(space, full)


class TestModelSpace:
    def test_all_subsets_enumeration(self):
        space = ModelSpace.all_subsets(3)
        models = space.models
        assert len(models) == 8
        assert () in models and (0, 1, 2) in models

    def test_nested_enumeration(self):
        assert ModelSpace.nested(3).models == ((0,), (0, 1), (0, 1, 2))
        assert ModelSpace.nested(2, include_null=True).models == ((), (0,), (0, 1))

    @pytest.mark.parametrize("space", [ModelSpace.all_subsets(p) for p in range(9)]
                             + [ModelSpace.nested(k, include_null=null)
                                for k in (1, 4, 79) for null in (False, True)],
                             ids=lambda s: f"{s.kind}-{s.size}-null{int(s.include_null)}")
    def test_parsimony_then_lexicographic_order(self, space):
        # The argmax and +inf tie-breaks take the first model in this order.
        assert space.models == tuple(sorted(space.models, key=lambda m: (len(m), m)))
        np.testing.assert_array_equal(space.sizes, [len(m) for m in space.models])
        np.testing.assert_array_equal(space.mask, model_mask(space.models, space.size))

    def test_enumeration_guard(self):
        with pytest.raises(ValueError, match="capped"):
            ModelSpace.all_subsets(26)

    def test_empty_space_is_rejected(self):
        with pytest.raises(ValueError, match="empty model space"):
            ModelSpace.nested(0)
        assert ModelSpace.nested(0, include_null=True).models == ((),)
        assert ModelSpace.all_subsets(0).models == ((),)

    def test_uniform_size_prior(self):
        space = ModelSpace.all_subsets(2, model_prior="uniform_size")
        models = space.models
        lp = space.log_prior
        probs = np.exp(lp)
        assert probs.sum() == pytest.approx(1.0)
        by_size = {0: 0.0, 1: 0.0, 2: 0.0}
        for m, pr in zip(models, probs):
            by_size[len(m)] += pr
        for total in by_size.values():
            assert total == pytest.approx(1 / 3)

    def test_uniform_size_prior_matches_counting_formula(self):
        def counted(models):
            sizes = [len(m) for m in models]
            counts = {s: sizes.count(s) for s in set(sizes)}
            return np.array([-math.log(len(counts)) - math.log(counts[s]) for s in sizes])

        spaces = [ModelSpace.all_subsets(p, model_prior="uniform_size") for p in (0, 1, 5, 10)]
        spaces += [ModelSpace.nested(k, include_null=null) for k in (1, 7, 79)
                   for null in (False, True)]
        for space in spaces:
            np.testing.assert_array_equal(space.log_prior, counted(space.models))


class TestPosterior:
    def test_equal_evidence_symmetry(self):
        post = _posterior([(0,), ()], [1.7, 1.7])
        np.testing.assert_allclose(post.posterior_prob, [0.5, 0.5])

    def test_normalization(self):
        rng = np.random.default_rng(0)
        log_ev = rng.normal(0, 300, 32)  # overflow-scale spread
        post = posterior_from_evidence(ModelSpace.all_subsets(5), log_ev)
        assert abs(post.posterior_prob.sum() - 1.0) < 1e-12
        assert np.all(post.posterior_prob >= 0)

    def test_infinite_marker_takes_all_mass(self):
        post = _posterior([(), (0,), (1,), (0, 1)], [0.0, math.inf, 1.0, math.inf])
        np.testing.assert_array_equal(post.posterior_prob, [0.0, 1.0, 0.0, 0.0])


class TestEnumerate:
    def test_brute_force_recomputation(self):
        # Each enumerated evidence must equal the same model fitted in isolation.
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, n=40, p=8)
        space = ModelSpace.all_subsets(8)
        post = enumerate_models(ds, space, PriorMethod.lb())
        assert len(post.models) == 256
        for m, le in zip(post.models, post.log_evidence):
            s = fit_suffstats(ds, m)
            expected = log_bf_gprior(s, float(ds.n)) if s.p else 0.0
            assert le == pytest.approx(expected, abs=1e-12)

    def test_error_carries_model_index(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n=30, p=3)
        x = ds.x.copy()
        x[:, 2] = x[:, 1]
        from ml2bf.regression import Dataset

        bad = Dataset(y=ds.y, x0=ds.x0, x=x)
        with pytest.raises(ValueError, match=r"model \d+ \(columns"):
            enumerate_models(bad, ModelSpace.all_subsets(3), PriorMethod.bic())

    def test_zs_batch_matches_scalar(self):
        from ml2bf.bayesfactors import log_bf_zs

        rng = np.random.default_rng(4)
        ds = random_dataset(rng, n=25, p=3)
        post = enumerate_models(ds, ModelSpace.all_subsets(3), PriorMethod.zs())
        for m, le in zip(post.models, post.log_evidence):
            assert le == pytest.approx(log_bf_zs(fit_suffstats(ds, m)), rel=1e-9)


class TestSummaries:
    def test_hpm_single_model(self):
        post = _posterior([(0,)], [0.0])
        assert post.models[hpm(post)] == (0,)

    def test_hpm_clear_winner(self):
        post = _posterior([(0,), (1,)], [math.log(0.7), math.log(0.3)])
        assert post.models[hpm(post)] == (0,)

    def test_hpm_tie_breaks_to_smaller(self):
        post = _posterior([(0, 1), (0,)], [2.0, 2.0])
        assert post.models[hpm(post)] == (0,)
        post = _posterior([(1,), (0,)], [2.0, 2.0])
        assert post.models[hpm(post)] == (0,)

    def test_mpm_point_mass(self):
        post = _posterior([(), (0,), (1,), (0, 1)], [0.0, 0.0, 0.0, 40.0])
        assert post.models[mpm(post)] == (0, 1)

    def test_mpm_hand_enumeration(self):
        # probs 0.4, 0.2, 0.2, 0.2 -> inclusion (0.4, 0.4) -> empty model
        logs = np.log([0.4, 0.2, 0.2, 0.2])
        post = _posterior([(), (0,), (1,), (0, 1)], logs)
        incl = inclusion_probs(post)
        np.testing.assert_allclose(incl, [0.4, 0.4], atol=1e-12)
        assert post.models[mpm(post)] == ()

    def test_mpm_nested_cumulative(self):
        post = posterior_from_evidence(ModelSpace.nested(3), np.log([0.3, 0.3, 0.4]))
        # tail mass by size: 1.0, 0.7, 0.4 -> largest size with tail >= 1/2 is 2
        assert post.models[mpm(post)] == (0, 1)

    def test_inclusion_extremes(self):
        post = _posterior([(0, 1)], [0.0])
        np.testing.assert_array_equal(inclusion_probs(post), [1.0, 1.0])
        post = _posterior([(), (0,), (1,), (0, 1)], [40.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(inclusion_probs(post), [0.0, 0.0], atol=1e-16)

    def test_entropy_values(self):
        assert entropy(_posterior([(0,), (1,)], [50.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
        post = posterior_from_evidence(ModelSpace.all_subsets(8), np.zeros(256))
        assert entropy(post) == pytest.approx(math.log(256))
        post = _posterior([(), (0,), (1,)], np.log([0.5, 0.25, 0.25]))
        assert entropy(post) == pytest.approx(1.5 * math.log(2))

    def test_entropy_drops_as_mode_grows(self):
        logs = np.array([1.0, 0.4, 0.0])
        post = _posterior([(), (0,), (1,)], logs)
        boosted = logs.copy()
        boosted[0] += 1.0
        post2 = _posterior([(), (0,), (1,)], boosted)
        assert entropy(post2) < entropy(post)


class TestPosteriorOrderingChains:
    def test_full_and_null_probability_chains(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            ds = random_dataset(rng)
            space = ModelSpace.all_subsets(ds.p)
            p_full, p_null = {}, {}
            for method in ("bic", "ml2", "lb"):
                post = enumerate_models(ds, space, PriorMethod.parse(method))
                lookup = dict(zip(post.models, post.posterior_prob))
                p_full[method] = lookup[tuple(range(ds.p))]
                p_null[method] = lookup[()]
            assert p_full["bic"] >= p_full["ml2"] - 1e-12
            assert p_full["ml2"] >= p_full["lb"] - 1e-12
            assert p_null["bic"] <= p_null["ml2"] + 1e-12
            assert p_null["ml2"] <= p_null["lb"] + 1e-12
