"""Plans, draws, the variance objective, and the end-to-end pipelines."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from copsamp.model import Dataset, probability_matrix
from copsamp.sampler import (
    LabelingError,
    SamplingConfig,
    cops_active,
    cops_coreset,
    draw_subsample,
    make_plan,
    subsample_and_refit,
    subsample_objective,
)
from copsamp.solver import fit_weighted_mle
from copsamp.uncertainty import ProbeEnsemble, ensemble_scores, train_ensemble


def synthetic(seed, n, K, d):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    beta = rng.normal(scale=0.8, size=(K, d))
    P = probability_matrix(beta, X)
    y = (rng.random(n)[:, None] > np.cumsum(P, axis=1)).sum(axis=1)
    return Dataset(X, y, K), beta


def cfg(**kw):
    base = dict(subsample_size=10, seed=0, score_transform="identity", beta_floor=0.1)
    base.update(kw)
    return SamplingConfig(**base)


class TestMakePlan:
    def test_constant_scores_uniform(self):
        plan = make_plan(np.array([1.0, 1, 1, 1]), cfg())
        npt.assert_allclose(plan.pi, 0.25)
        npt.assert_allclose(plan.pi_reweight, 0.25)
        assert not plan.uniform_fallback

    def test_clip_arithmetic(self):
        plan = make_plan(np.array([1.0, 2.0, 10.0]), cfg(alpha_multiplier=3.0))
        npt.assert_allclose(plan.pi, [1 / 6, 2 / 6, 3 / 6], rtol=1e-14)

    def test_clip_arithmetic_sqrt_scale(self):
        # identical clipped plan when u holds the squares and sqrt is applied
        plan = make_plan(np.array([1.0, 4.0, 100.0]),
                         cfg(score_transform="sqrt", alpha_multiplier=3.0))
        npt.assert_allclose(plan.pi, [1 / 6, 2 / 6, 3 / 6], rtol=1e-14)

    def test_beta_floor_arithmetic(self):
        plan = make_plan(np.array([0.05, 0.2, 0.75]), cfg(beta_floor=0.1))
        expected = np.array([0.1, 0.2, 0.75])
        npt.assert_allclose(plan.pi_reweight, expected / expected.sum(), rtol=1e-14)
        # the sampling distribution is not floored
        npt.assert_allclose(plan.pi, np.array([0.05, 0.2, 0.75]) / 1.0, rtol=1e-14)

    def test_all_zero_scores_fall_back_to_uniform(self):
        plan = make_plan(np.zeros(5), cfg())
        npt.assert_allclose(plan.pi, 0.2)
        npt.assert_allclose(plan.pi_reweight, 0.2)
        assert plan.uniform_fallback

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError):
            make_plan(np.array([1.0, -0.1]), cfg())

    def test_distributions_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.uniform(0, 3, size=int(rng.integers(2, 40)))
            plan = make_plan(u, cfg(alpha_multiplier=2.5, score_transform="sqrt"))
            assert abs(plan.pi.sum() - 1) < 1e-12
            assert abs(plan.pi_reweight.sum() - 1) < 1e-12
            assert plan.pi.min() >= 0 and plan.pi_reweight.min() >= 0

    def test_clip_only_decreases_max_probability(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = rng.uniform(0.01, 5, size=30)
            vanilla = make_plan(u, cfg())
            clipped = make_plan(u, cfg(alpha_multiplier=1.5))
            assert clipped.pi.max() <= vanilla.pi.max() + 1e-15

    def test_clip_never_alters_reweighting(self):
        rng = np.random.default_rng(2)
        for mult in (1.5, 3.0, 10.0):
            u = rng.uniform(0.01, 5, size=25)
            a = make_plan(u, cfg())
            b = make_plan(u, cfg(alpha_multiplier=mult))
            npt.assert_array_equal(a.pi_reweight, b.pi_reweight)

    def test_alpha_anchored_at_min_positive(self):
        # zero-score entries do not drag the clip level to zero
        u = np.array([0.0, 1.0, 2.0, 10.0])
        plan = make_plan(u, cfg(alpha_multiplier=3.0))
        clipped = np.array([0.0, 1.0, 2.0, 3.0])
        npt.assert_allclose(plan.pi, clipped / clipped.sum(), rtol=1e-14)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            cfg(alpha_multiplier=0.9)
        with pytest.raises(ValueError):
            cfg(subsample_size=0)
        with pytest.raises(ValueError):
            cfg(beta_floor=-0.1)
        with pytest.raises(ValueError):
            cfg(score_transform="cubic")

    @pytest.mark.parametrize("field, value", [
        ("alpha_multiplier", np.nan),
        ("beta_floor", np.nan),
        ("beta_floor", np.inf),
    ])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            cfg(**{field: value})

    def test_max_weight_ratio_counts_drawable_rows(self):
        # the zero-score row is floored for reweighting but never drawn:
        # drawable rows have weight 1 / (4 * 1/3.1) = 0.775 of uniform
        plan = make_plan(np.array([0.0, 1.0, 1.0, 1.0]), cfg(beta_floor=0.1))
        assert plan.pi[0] == 0.0
        assert plan.max_weight_ratio == pytest.approx(0.775, rel=1e-15)


class TestDrawSubsample:
    def test_point_mass(self):
        plan = make_plan(np.array([1.0, 0.0, 0.0]), cfg())
        sub = draw_subsample(plan, 3, 20, seed=0)
        assert np.all(sub.indices == 0)

    def test_empirical_frequencies(self):
        pi = np.array([0.2, 0.3, 0.5])
        plan = make_plan(pi, cfg())
        sub = draw_subsample(plan, 3, 100_000, seed=7)
        freq = np.bincount(sub.indices, minlength=3) / 100_000
        npt.assert_allclose(freq, pi, atol=0.01)

    def test_same_seed_same_draw(self):
        plan = make_plan(np.random.default_rng(0).uniform(0.1, 1, 50), cfg())
        a = draw_subsample(plan, 50, 200, seed=3)
        b = draw_subsample(plan, 50, 200, seed=3)
        npt.assert_array_equal(a.indices, b.indices)
        npt.assert_array_equal(a.weights, b.weights)

    def test_weights_are_inverse_reweighting(self):
        u = np.random.default_rng(1).uniform(0.1, 1, 20)
        plan = make_plan(u, cfg())
        sub = draw_subsample(plan, 20, 30, seed=1)
        npt.assert_allclose(sub.weights, 1.0 / plan.pi_reweight[sub.indices], rtol=1e-14)

    def test_nan_rejected(self):
        plan = make_plan(np.ones(3), cfg())
        plan.pi = np.array([0.5, np.nan, 0.5])
        with pytest.raises(ValueError):
            draw_subsample(plan, 3, 5, seed=0)


class TestPlanAndDrawProperties:
    scores = st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=50
    )
    configs = st.builds(
        cfg,
        score_transform=st.sampled_from(["sqrt", "identity"]),
        alpha_multiplier=st.one_of(st.none(), st.floats(1.01, 100.0)),
        beta_floor=st.floats(0.0, 10.0),
    )

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None)
    @given(scores, configs, st.integers(1, 200), st.integers(0, 2**32 - 1))
    def test_invariants(self, u, config, r, seed):
        u = np.array(u)
        n = u.size
        plan = make_plan(u, config)
        for dist in (plan.pi, plan.pi_reweight):
            assert dist.min() >= 0
            assert abs(dist.sum() - 1) <= 1e-12
        assert plan.uniform_fallback == (not np.any(u > 0))
        sub = draw_subsample(plan, n, r, seed)
        assert np.all(plan.pi[sub.indices] > 0)
        assert np.all(sub.weights <= n * plan.max_weight_ratio * (1 + 1e-12))


class TestObjective:
    def test_uniform_formula(self):
        n, val = 8, 0.7
        u = np.full(n, val)
        assert subsample_objective(u, np.full(n, 1 / n)) == pytest.approx(
            n * n * val * val, rel=1e-14
        )

    def test_single_sample(self):
        assert subsample_objective(np.array([3.0]), np.array([1.0])) == pytest.approx(9.0)

    def test_score_proportional_is_optimal(self):
        rng = np.random.default_rng(4)
        u = rng.uniform(0.1, 5.0, size=20)
        best = subsample_objective(u, u / u.sum())
        assert best == pytest.approx(u.sum() ** 2, rel=1e-12)
        strictly_worse = 0
        for _ in range(1000):
            pi = rng.dirichlet(np.ones(20))
            val = subsample_objective(u, pi)
            assert val >= best - 1e-9
            strictly_worse += val > best
        assert strictly_worse >= 990

    def test_zero_mass_on_positive_score_rejected(self):
        with pytest.raises(ValueError):
            subsample_objective(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


def constant_ensemble(beta, M=4, probe_size=100):
    members = np.repeat(np.asarray(beta)[None, :, :], M, axis=0)
    return ProbeEnsemble(members, probe_size)


class TestPipelines:
    def test_degenerate_ensemble_gives_uniform_plan(self):
        data, beta = synthetic(0, 400, 1, 2)
        ens = constant_ensemble(beta)
        config = cfg(subsample_size=100, seed=5)
        res = cops_coreset(data, ens, config)
        assert res.plan.uniform_fallback
        npt.assert_allclose(res.plan.pi, 1 / data.n)
        # identical to a plain uniform resample fit with the same seed
        rng = np.random.default_rng(5)
        idx = rng.choice(data.n, size=100, replace=True, p=np.full(data.n, 1 / data.n))
        manual = fit_weighted_mle(data.subset(idx), np.full(100, float(data.n)))
        npt.assert_array_equal(res.subsample.indices, idx)
        npt.assert_allclose(res.beta_bar, manual.beta, atol=1e-12)

    def test_r_equals_n_uniform_reduction(self):
        data, beta = synthetic(1, 150, 1, 2)
        ens = constant_ensemble(beta)
        res = cops_coreset(data, ens, cfg(subsample_size=150, seed=2))
        rng = np.random.default_rng(2)
        idx = rng.choice(150, size=150, replace=True, p=np.full(150, 1 / 150))
        manual = fit_weighted_mle(data.subset(idx), np.full(150, 150.0))
        npt.assert_allclose(res.beta_bar, manual.beta, atol=1e-12)

    def test_active_matches_coreset_under_uniform_scores(self):
        # degenerate ensemble: both pipelines sample uniformly, so with the
        # same seed the drawn indices coincide and the oracle returns the
        # stored labels
        data, beta = synthetic(2, 300, 2, 3)
        ens = constant_ensemble(beta)
        config = cfg(subsample_size=80, seed=9)
        res_core = cops_coreset(data, ens, config)
        unlabeled = Dataset(data.X, None, 2)
        res_act = cops_active(unlabeled, lambda i: int(data.y[i]), ens, config)
        npt.assert_array_equal(res_core.subsample.indices, res_act.subsample.indices)
        npt.assert_allclose(res_core.beta_bar, res_act.beta_bar, atol=1e-12)

    def test_active_label_budget(self):
        data, _ = synthetic(3, 500, 1, 2)
        ens = train_ensemble(data, 4, seed=0)
        unlabeled = Dataset(data.X, None, 1)
        queried = []
        def oracle(i):
            queried.append(i)
            return int(data.y[i])
        res = cops_active(unlabeled, oracle, ens, cfg(subsample_size=60, seed=4,
                                                      score_transform="sqrt"))
        distinct = np.unique(res.subsample.indices)
        assert res.labels_queried == distinct.size <= 60
        assert len(queried) == distinct.size

    def test_active_oracle_failure_aborts(self):
        data, _ = synthetic(4, 200, 1, 2)
        ens = train_ensemble(data, 3, seed=1)
        unlabeled = Dataset(data.X, None, 1)
        def oracle(i):
            raise KeyError(i)
        with pytest.raises(LabelingError):
            cops_active(unlabeled, oracle, ens, cfg(subsample_size=10, seed=0))

    def test_end_to_end_determinism(self):
        data, _ = synthetic(5, 400, 2, 3)
        ens = train_ensemble(data, 4, seed=2)
        config = cfg(subsample_size=50, seed=11, score_transform="sqrt",
                     alpha_multiplier=3.0)
        a = cops_coreset(data, ens, config)
        b = cops_coreset(data, ens, config)
        npt.assert_array_equal(a.subsample.indices, b.subsample.indices)
        npt.assert_array_equal(a.beta_bar, b.beta_bar)

    def test_exact_estimator_path(self):
        data, _ = synthetic(6, 500, 1, 3)
        ens = train_ensemble(data, 4, seed=3)
        config = cfg(subsample_size=60, seed=1, score_transform="sqrt",
                     estimator="exact")
        res = cops_coreset(data, ens, config)
        assert res.fit.converged
        assert np.all(res.scores >= 0)

    def test_histogram_covers_drawn_scores(self):
        data, _ = synthetic(7, 300, 1, 2)
        ens = train_ensemble(data, 4, seed=4)
        res = cops_coreset(data, ens, cfg(subsample_size=40, seed=6,
                                          score_transform="sqrt"))
        counts, edges = res.score_histogram
        assert counts.sum() == 40
        assert edges.shape == (11,)

    def test_stored_label_oracle_matches_labeled_path(self):
        data, _ = synthetic(8, 400, 2, 3)
        ens = train_ensemble(data, 4, seed=5)
        u = ensemble_scores(ens, data, "active") * ens.probe_size
        config = cfg(subsample_size=70, seed=3, score_transform="sqrt",
                     alpha_multiplier=3.0)
        labeled = subsample_and_refit(data, u, config)
        asked = []
        def oracle(i):
            asked.append(i)
            return int(data.y[i])
        queried = subsample_and_refit(Dataset(data.X, None, 2), u, config,
                                      label_oracle=oracle)
        npt.assert_array_equal(queried.subsample.indices, labeled.subsample.indices)
        npt.assert_array_equal(queried.subsample.weights, labeled.subsample.weights)
        npt.assert_array_equal(queried.beta_bar, labeled.beta_bar)
        assert labeled.labels_queried is None
        assert queried.labels_queried == len(asked)
        assert len(asked) == np.unique(labeled.subsample.indices).size

    def test_unlabeled_without_oracle_rejected(self):
        data, _ = synthetic(9, 100, 1, 2)
        with pytest.raises(ValueError, match="oracle"):
            subsample_and_refit(Dataset(data.X, None, 1), np.ones(100), cfg())
