"""Plans, draws, the variance objective, and the end-to-end pipelines."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from copsamp.model import Dataset
from copsamp.sampler import (
    LabelingError,
    SamplingConfig,
    SamplingPlan,
    cops_active,
    cops_coreset,
    draw_subsample,
    make_plan,
    subsample_and_refit,
)
from copsamp.solver import fit_weighted_batch, fit_weighted_mle
from copsamp.selfcheck import random_plan_gaps, subsample_objective
from copsamp.uncertainty import ensemble_scores, train_ensemble
from helpers import constant_ensemble, synthetic


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
        for field, value in [("subsample_size", 10.7), ("subsample_size", 10.0),
                             ("subsample_size", True), ("seed", 1.5), ("seed", False),
                             ("seed", -1)]:
            with pytest.raises(ValueError, match=field):
                cfg(**{field: value})
        assert cfg(subsample_size=np.int64(5), seed=np.uint64(2**64 - 1)).subsample_size == 5

    @pytest.mark.parametrize("field, value", [
        ("alpha_multiplier", np.nan),
        ("alpha_multiplier", np.inf),
        ("beta_floor", np.nan),
        ("beta_floor", np.inf),
    ])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            cfg(**{field: value})

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="estimator"):
            cfg(estimator="exactt")

    def test_max_weight_ratio_counts_drawable_rows(self):
        # the zero-score row is floored for reweighting but never drawn:
        # drawable rows have weight 1 / (4 * 1/3.1) = 0.775 of uniform
        plan = make_plan(np.array([0.0, 1.0, 1.0, 1.0]), cfg(beta_floor=0.1))
        assert plan.pi[0] == 0.0
        assert plan.max_weight_ratio == pytest.approx(0.775, rel=1e-15)

    def test_capped_and_floored_fractions(self):
        # alpha = 2 x 0.5 = 1 lowers the scores 2 and 4, not 1 itself; the
        # floor 0.75 raises 0 and 0.5, not 0.75 itself
        u = np.array([0.0, 0.5, 0.75, 1.0, 2.0, 4.0])
        plan = make_plan(u, cfg(alpha_multiplier=2.0, beta_floor=0.75))
        assert (plan.capped_fraction, plan.floored_fraction) == (2 / 6, 2 / 6)
        # without alpha nothing is capped; a zero floor raises nothing
        plan = make_plan(u, cfg(beta_floor=0.0))
        assert (plan.capped_fraction, plan.floored_fraction) == (0.0, 0.0)
        # the fractions are of the transformed scores: sqrt(4) = 2 is the
        # one above alpha = 2 x sqrt(0.5)
        plan = make_plan(u, cfg(score_transform="sqrt", alpha_multiplier=2.0, beta_floor=0.75))
        assert (plan.capped_fraction, plan.floored_fraction) == (1 / 6, 2 / 6)

    def test_uniform_fallback_caps_and_floors_nothing(self):
        plan = make_plan(np.zeros(4), cfg(alpha_multiplier=2.0, beta_floor=0.5))
        assert plan.uniform_fallback
        assert (plan.capped_fraction, plan.floored_fraction) == (0.0, 0.0)

    @pytest.mark.parametrize("u, floor", [
        ([1e308, 1e308], 0.1),  # the scores overflow the sum
        ([1.0, 2.0], 1e308),  # the floor overflows the reweighting sum
    ])
    def test_overflowing_sum_rejected(self, u, floor):
        with pytest.raises(ValueError, match="overflow"):
            make_plan(np.array(u), cfg(beta_floor=floor))

    def test_largest_summable_scores_planned(self):
        top = np.finfo(float).max / 2
        plan = make_plan(np.array([top, top]), cfg())
        npt.assert_array_equal(plan.pi, [0.5, 0.5])


class TestPlanWithCounts:
    """A plan over distinct scores with multiplicities is the expanded plan, compressed."""

    @pytest.mark.parametrize("transform", ["sqrt", "identity"])
    @pytest.mark.parametrize("alpha", [None, 3.0])
    @pytest.mark.parametrize("floor", [0.0, 0.5])
    def test_matches_plan_on_repeated_scores(self, transform, alpha, floor):
        rng = np.random.default_rng(12)
        config = cfg(score_transform=transform, alpha_multiplier=alpha, beta_floor=floor)
        for _ in range(30):
            m = int(rng.integers(1, 12))
            u = rng.uniform(0.0, 4.0, m) * (rng.random(m) < 0.8)
            counts = rng.integers(0, 8, m)
            counts[rng.integers(m)] += 1
            plan = make_plan(u, config, counts)
            rows = np.repeat(np.arange(m), counts)
            expanded = make_plan(u[rows], config)
            npt.assert_allclose(plan.pi[rows], expanded.pi, rtol=1e-15, atol=0)
            npt.assert_allclose(plan.pi_reweight[rows], expanded.pi_reweight, rtol=1e-15, atol=0)
            assert plan.uniform_fallback == expanded.uniform_fallback
            assert plan.max_weight_ratio == pytest.approx(expanded.max_weight_ratio, rel=1e-15)
            assert plan.capped_fraction == expanded.capped_fraction
            assert plan.floored_fraction == expanded.floored_fraction
            assert counts @ plan.pi == pytest.approx(1.0, rel=1e-15)
            assert counts @ plan.pi_reweight == pytest.approx(1.0, rel=1e-15)

    def test_alpha_ignores_uncounted_scores(self):
        # the 1e-6 score has no rows, so alpha is 3 x 1, not 3 x 1e-6
        u, counts = np.array([1e-6, 1.0, 4.0]), np.array([0, 5, 5])
        plan = make_plan(u, cfg(alpha_multiplier=3.0), counts)
        npt.assert_allclose(plan.pi[1:], [1 / 20, 3 / 20], rtol=1e-15)
        expanded = make_plan(np.repeat(u, counts), cfg(alpha_multiplier=3.0))
        npt.assert_allclose(plan.pi[np.repeat(np.arange(3), counts)], expanded.pi, rtol=1e-15)

    def test_uniform_fallback_when_only_uncounted_scores_positive(self):
        plan = make_plan(np.array([2.0, 0.0, 0.0]), cfg(), np.array([0, 3, 4]))
        assert plan.uniform_fallback
        npt.assert_allclose(plan.pi, 1 / 7, rtol=1e-15)
        npt.assert_allclose(plan.pi_reweight, 1 / 7, rtol=1e-15)

    def test_fractions_count_rows(self):
        # 2 of the 6 rows share the capped score 9, 3 the floored score 0
        u, counts = np.array([0.0, 1.0, 9.0]), np.array([3, 1, 2])
        plan = make_plan(u, cfg(alpha_multiplier=2.0), counts)
        assert (plan.capped_fraction, plan.floored_fraction) == (2 / 6, 3 / 6)

    def test_max_weight_ratio_uses_row_count(self):
        # pi_reweight = [1, 4] / 7 per row; the lightest drawable row has
        # weight 7 against 4 under uniform sampling of the 4 rows
        plan = make_plan(np.array([1.0, 4.0]), cfg(beta_floor=0.0), np.array([3, 1]))
        assert plan.max_weight_ratio == pytest.approx(7 / 4, rel=1e-15)

    @pytest.mark.parametrize("u", [[0.0, 0.0, 0.0], [0.0, 1e-6, 2.0, 9.0], np.arange(40.0) ** 3])
    def test_row_level_plan_is_unit_count_plan(self, u):
        u = np.array(u)
        for config in (cfg(), cfg(score_transform="sqrt", alpha_multiplier=3.0, beta_floor=1.5)):
            plan = make_plan(u, config)
            counted = make_plan(u, config, np.ones(u.size, dtype=int))
            for field in ("pi", "pi_reweight", "uniform_fallback", "max_weight_ratio",
                          "capped_fraction", "floored_fraction"):
                npt.assert_array_equal(getattr(plan, field), getattr(counted, field))

    @pytest.mark.parametrize("counts", [
        [1, 2],  # one short
        [[1, 2, 3]],  # not 1-d
        [1, -1, 2],
        [1.5, 1.0, 1.0],
        [1.0, 1.0, 1.0],  # integral, but not an integer array
        [True, True, True],
        [0, 0, 0],
    ])
    def test_bad_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="counts"):
            make_plan(np.array([1.0, 2.0, 3.0]), cfg(), np.array(counts))


class TestDrawSubsample:
    def test_point_mass(self):
        plan = make_plan(np.array([1.0, 0.0, 0.0]), cfg())
        sub = draw_subsample(plan, 20, seed=0)
        assert np.all(sub.indices == 0)

    def test_empirical_frequencies(self):
        pi = np.array([0.2, 0.3, 0.5])
        plan = make_plan(pi, cfg())
        sub = draw_subsample(plan, 100_000, seed=7)
        freq = np.bincount(sub.indices, minlength=3) / 100_000
        npt.assert_allclose(freq, pi, atol=0.01)

    def test_same_seed_same_draw(self):
        plan = make_plan(np.random.default_rng(0).uniform(0.1, 1, 50), cfg())
        a = draw_subsample(plan, 200, seed=3)
        b = draw_subsample(plan, 200, seed=3)
        npt.assert_array_equal(a.indices, b.indices)
        npt.assert_array_equal(a.weights, b.weights)

    def test_weights_are_inverse_reweighting(self):
        u = np.random.default_rng(1).uniform(0.1, 1, 20)
        plan = make_plan(u, cfg())
        sub = draw_subsample(plan, 30, seed=1)
        npt.assert_allclose(sub.weights, 1.0 / plan.pi_reweight[sub.indices], rtol=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 50, 20000])
    def test_draw_is_generator_choice(self, n):
        # the draw is Generator.choice's, bit for bit, on the source rows
        # themselves and through a counted plan over a shuffled column
        rng = np.random.default_rng(n)
        for seed in range(20):
            r = int(rng.integers(1, 3000))
            u = rng.uniform(0.1, 1.0, n) * (rng.random(n) < 0.7)
            u[rng.integers(n)] = 1.0
            plan = make_plan(u, cfg())
            expected = np.random.default_rng(seed).choice(n, r, replace=True, p=plan.pi)
            sub = draw_subsample(plan, r, seed)
            npt.assert_array_equal(sub.indices, expected)
            assert sub.indices.dtype == expected.dtype

            entries = min(n, 6)
            rows = rng.permutation(np.arange(n) % entries)
            counts = np.bincount(rows, minlength=entries)
            table = rng.uniform(0.1, 1.0, entries) * (np.arange(entries) != entries // 2)
            plan = make_plan(table if table.any() else np.ones(entries), cfg(), counts)
            expected = np.random.default_rng(seed).choice(n, r, replace=True, p=plan.pi[rows])
            sub = draw_subsample(plan, r, seed, rows)
            npt.assert_array_equal(sub.indices, expected)
            npt.assert_array_equal(sub.weights, 1.0 / plan.pi_reweight[rows[expected]])

    def test_plan_left_unchanged(self):
        rows = np.array([2, 0, 1, 2, 2, 0])
        u = np.array([1.0, 2.0, 3.0])
        for plan, column in ((make_plan(u, cfg(), np.bincount(rows)), rows),
                             (make_plan(u, cfg()), None)):
            pi = plan.pi.copy()
            draw_subsample(plan, 50, 0, column)
            npt.assert_array_equal(plan.pi, pi)

    def test_nan_rejected(self):
        # and a negative entry, an infinite one, or a total more than
        # sqrt(eps) from 1, on the source rows and through a rows column
        plan = make_plan(np.ones(3), cfg())
        for pi in ([0.5, np.nan, 0.5], [0.6, -0.1, 0.5], [0.5, np.inf, 0.5],
                   [0.5, 0.25, 0.25 + 1e-6]):
            plan.pi = np.array(pi)
            with pytest.raises(ValueError):
                draw_subsample(plan, 5, seed=0)
            with pytest.raises(ValueError):
                draw_subsample(plan, 5, seed=0, rows=np.arange(3))

    @pytest.mark.parametrize("r", [2.5, True, 0, -3, "5", None])
    def test_non_integer_r_rejected(self, r):
        plan = make_plan(np.ones(3), cfg())
        with pytest.raises(ValueError, match="r must be"):
            draw_subsample(plan, r, seed=0)


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

    # overflow warnings fail the test; a filter of every warning would also turn
    # the DeprecationWarnings of hypothesis's failure reporting into an internal error
    @pytest.mark.filterwarnings("error::RuntimeWarning")
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
        sub = draw_subsample(plan, r, seed)
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
        min_gap, strictly_worse = random_plan_gaps(u, rng, 1000)
        assert min_gap >= -1e-9
        assert strictly_worse >= 990

    def test_zero_mass_on_positive_score_rejected(self):
        with pytest.raises(ValueError):
            subsample_objective(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


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
        # an answer is refused, not coerced, unless it is an integer in [0, K]:
        # the error names the first distinct drawn row
        config = cfg(subsample_size=50, seed=0)
        first = np.unique(cops_active(unlabeled, lambda i: data.y[i], ens, config)
                          .subsample.indices)[0]
        for answer in (lambda y: y + 0.7, bool, str, lambda y: 5, lambda y: -1):
            with pytest.raises(LabelingError, match=rf"for index {first}\b"):
                cops_active(unlabeled, lambda i: answer(int(data.y[i])), ens, config)

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

    def test_ensemble_pipelines_plan_on_exact_scale(self):
        data, _ = synthetic(10, 600, 2, 3)
        unlabeled = Dataset(data.X, None, 2)
        ens = train_ensemble(data, 4, seed=6)
        config = cfg(subsample_size=50, seed=1, score_transform="sqrt")
        core = cops_coreset(data, ens, config)
        act = cops_active(unlabeled, lambda i: int(data.y[i]), ens, config)
        npt.assert_array_equal(
            core.scores, ensemble_scores(ens, data, "coreset") * ens.probe_size)
        npt.assert_array_equal(
            act.scores, ensemble_scores(ens, unlabeled, "active") * ens.probe_size)

    def test_beta_floor_rarely_binds_on_ensemble_scores(self):
        # M=10 members on a 10k-row probe (n' = 1000), K=2, d=5: unscaled,
        # most square-rooted ensemble scores would sit under the floor
        data, _ = synthetic(11, 30_000, 2, 5)
        probe = data.subset(np.arange(10_000))
        pool = data.subset(np.arange(10_000, 30_000))
        ens = train_ensemble(probe, 10, seed=0)
        config = cfg(subsample_size=1000, seed=2, score_transform="sqrt")
        raw = ensemble_scores(ens, pool, "coreset")
        assert np.mean(np.sqrt(raw) < config.beta_floor) > 0.5
        res = cops_coreset(pool, ens, config)
        assert np.mean(np.sqrt(res.scores) < config.beta_floor) < 0.01

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

    def table_and_rows(self, seed=4):
        # every atom carries each of the K + 1 labels, so no refit is separable
        rng = np.random.default_rng(seed)
        atoms = rng.normal(size=(4, 2))
        table = Dataset(np.repeat(atoms, 3, axis=0), np.tile([0, 1, 2], 4), K=2)
        rows = rng.integers(0, table.n, 500)
        return table, rows, rng.uniform(0.0, 3.0, table.n)

    @staticmethod
    def cell_refit(table, rows, u, config):
        """The simulation's refit: plan over the table, draw source rows, refit on the table."""
        plan = make_plan(u, config, np.bincount(rows, minlength=table.n))
        sub = draw_subsample(plan, config.subsample_size, config.seed, rows)
        weights = np.bincount(rows[sub.indices], weights=sub.weights, minlength=table.n)
        [fit] = fit_weighted_batch(table, weights[None])
        return plan, sub, fit

    @pytest.mark.parametrize("alpha", [None, 3.0])
    def test_table_with_rows_matches_expanded_rows(self, alpha):
        table, rows, u = self.table_and_rows()
        config = cfg(subsample_size=80, seed=9, score_transform="sqrt", alpha_multiplier=alpha)
        plan, sub, compact = self.cell_refit(table, rows, u, config)
        expanded = subsample_and_refit(table.subset(rows), u[rows], config)
        npt.assert_array_equal(sub.indices, expanded.subsample.indices)
        npt.assert_allclose(sub.weights, expanded.subsample.weights, rtol=1e-14)
        row_level = fit_weighted_mle(table.subset(rows[sub.indices]), sub.weights)
        npt.assert_allclose(compact.beta, row_level.beta, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(compact.beta, expanded.beta_bar, rtol=1e-12, atol=1e-12)
        assert plan.pi.shape == (table.n,)

    def test_oracle_sees_source_rows(self):
        # the table's labels at the drawn rows' entries are what a label oracle
        # over the source rows answers, so the cell refit is the active pipeline's
        table, rows, u = self.table_and_rows(seed=5)
        config = cfg(subsample_size=40, seed=2, score_transform="sqrt")
        asked = []

        def oracle(i):
            asked.append(i)
            return int(table.y[rows[i]])

        _, sub, compact = self.cell_refit(table, rows, u, config)
        queried = subsample_and_refit(Dataset(table.X[rows], None, 2), u[rows], config, oracle)
        npt.assert_array_equal(sub.indices, queried.subsample.indices)
        npt.assert_allclose(compact.beta, queried.beta_bar, rtol=1e-12, atol=1e-12)
        assert sorted(asked) == np.unique(sub.indices).tolist()

    @pytest.mark.parametrize("rows", [
        np.array([0, 12]),  # past the 12 table rows
        np.array([[0, 1]]),
        np.array([-1, 0]),
        np.array([], dtype=int),
        np.array([0.0, 1.0]),
    ])
    def test_bad_rows_rejected(self, rows):
        table, _, u = self.table_and_rows()
        plan = make_plan(u, cfg())
        with pytest.raises(ValueError, match="rows"):
            draw_subsample(plan, 5, 0, rows=rows)

    def test_unlabeled_without_oracle_rejected(self):
        # NaN scores, which make_plan refuses otherwise: the oracle is checked first
        data, _ = synthetic(9, 100, 1, 2)
        with pytest.raises(ValueError, match="oracle"):
            subsample_and_refit(Dataset(data.X, None, 1), np.full(100, np.nan), cfg())


#: each refused input of the sampling layer, and the message it raises
REFUSALS = {
    "2-d scores": (lambda: make_plan(np.ones((2, 2)), cfg()), "scores must be a nonempty 1-d array"),
    # a bool is not a number, as a config's JSON types rule
    "boolean beta_floor": (lambda: cfg(beta_floor=True), "beta_floor must be finite and >= 0"),
    "2-d plan": (lambda: draw_subsample(SamplingPlan(np.full((2, 2), 0.25), np.full((2, 2), 0.25)),
                                        2, 0),
                 "sampling distribution must be a nonempty 1-d array"),
    # negative scores, which make_plan refuses otherwise: the length is checked first
    "scores of the wrong length": (lambda: subsample_and_refit(Dataset(np.ones((4, 2)), np.arange(4) % 2, 1),
                                                               -np.ones(3), cfg()),
                                   "scores have shape \\(3,\\), expected one per row of data"),
    "objective of mismatched lengths": (lambda: subsample_objective(np.ones(3), np.ones(2) / 2),
                                        "u and pi must have the same length"),
    "coreset of unlabeled data": (lambda: cops_coreset(Dataset(np.ones((3, 2)), None, 1),
                                                       constant_ensemble(np.zeros((1, 2))), cfg()),
                                  "coreset selection needs labels"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refused_input(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()
