"""Corruption experiment harness: generation, trials, aggregation, determinism."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import expit

import copsamp.simulation as sim
from copsamp.model import Dataset
from copsamp.sampler import SamplingConfig, subsample_and_refit
from copsamp.simulation import (
    Method,
    SimulationSpec,
    default_methods,
    derive_seed,
    generate_dataset,
    regret,
    run_experiment,
    run_trial,
)
from copsamp.uncertainty import ensemble_scores, train_ensemble


def paper_spec(**kw):
    base = dict(
        atom_x=np.array([[1.0, 0.0], [0.1, 0.1], [0.0, 1.0]]),
        counts=np.array([1000, 100000, 100000]),
        beta_star=np.array([[2.0, 2.0]]),
        zeta=np.zeros(3),
        r=1000,
        trials=50,
        seed=0,
    )
    base.update(kw)
    return SimulationSpec(**base)


def small_spec(**kw):
    base = dict(
        atom_x=np.array([[1.0, 0.0], [0.1, 0.1], [0.0, 1.0]]),
        counts=np.array([60, 3000, 3000]),
        beta_star=np.array([[2.0, 2.0]]),
        zeta=np.array([-3.0, 0.0, 0.0]),
        r=200,
        trials=3,
        seed=5,
    )
    base.update(kw)
    return SimulationSpec(**base)


class TestMethod:
    def test_ids_round_trip(self):
        for m in (Method("uniform"), Method("vanilla", with_labels=False),
                  Method("clip", 3.0), Method("clip", 10.0, with_labels=False)):
            assert Method.parse(m.id) == m

    def test_invalid(self):
        with pytest.raises(ValueError):
            Method("clip")
        with pytest.raises(ValueError):
            Method("vanilla", 3.0)
        with pytest.raises(ValueError):
            Method.parse("nonsense")

    def test_default_method_grid_covers_clip_levels(self):
        ids = {m.id for m in default_methods(paper_spec())}
        assert "cops-clip3-withY" in ids and "cops-clip10-withY" in ids
        assert "cops-clip3-withoutY" in ids and "cops-clip10-withoutY" in ids
        assert "uniform" in ids


class TestDeriveSeed:
    def test_stable_across_processes(self):
        # blake2b-based, independent of Python hash randomization
        assert derive_seed(0, "zeta_x1_0", 0) == derive_seed(0, "zeta_x1_0", 0)
        assert derive_seed(0, "a") != derive_seed(0, "b")

    def test_distinct_parts_distinct_seeds(self):
        seen = {derive_seed(i, "x", j) for i in range(10) for j in range(10)}
        assert len(seen) == 100


class TestGenerateDataset:
    def test_shapes_and_order(self):
        spec = paper_spec()
        data = generate_dataset(spec, seed=0, corrupted=False)
        assert data.n == 201000 and data.d == 2
        npt.assert_array_equal(data.X[:1000], np.tile([1.0, 0.0], (1000, 1)))

    def test_clean_frequencies_bulk_atom(self):
        spec = paper_spec()
        data = generate_dataset(spec, seed=1, corrupted=False)
        # rows 1000..101000 belong to the [0.1, 0.1] atom
        frac = data.y[1000:101000].mean()
        assert abs(frac - expit(0.4)) < 0.005

    def test_corrupted_frequency_rare_atom(self):
        spec = paper_spec(zeta=np.array([-3.0, 0.0, 0.0]))
        data = generate_dataset(spec, seed=2, corrupted=True)
        frac = data.y[:1000].mean()
        assert abs(frac - expit(-1.0)) < 0.04

    def test_corruption_flag(self):
        spec = paper_spec(zeta=np.array([-3.0, 0.0, 0.0]))
        clean = generate_dataset(spec, seed=3, corrupted=False)
        frac = clean.y[:1000].mean()
        assert abs(frac - expit(2.0)) < 0.04

    def test_deterministic(self):
        spec = paper_spec()
        a = generate_dataset(spec, seed=4, corrupted=True)
        b = generate_dataset(spec, seed=4, corrupted=True)
        npt.assert_array_equal(a.y, b.y)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            paper_spec(beta_star=np.array([[1.0, 2.0], [3.0, 4.0]]))  # K must be 1
        with pytest.raises(ValueError):
            paper_spec(counts=np.array([0, 1, 1]))
        with pytest.raises(ValueError):
            paper_spec(zeta=np.array([np.inf, 0.0, 0.0]))
        with pytest.raises(ValueError):
            paper_spec(r=0)
        with pytest.raises(ValueError, match="probe_members"):
            paper_spec(probe_members=1)
        with pytest.raises(ValueError, match="beta_floor"):
            paper_spec(beta_floor=-1.0)
        with pytest.raises(ValueError, match="score_transform"):
            paper_spec(score_transform="log")
        with pytest.raises(ValueError, match="cops-clip1-withY"):
            paper_spec(clip_multipliers=(1.0,))


class TestRegret:
    def test_zero_at_truth(self):
        spec = small_spec()
        test = generate_dataset(spec, seed=0, corrupted=False)
        assert regret(spec.beta_star, spec.beta_star, test) == 0.0

    def test_positive_for_zero_model(self):
        spec = small_spec()
        test = generate_dataset(spec, seed=1, corrupted=False)
        assert regret(np.zeros((1, 2)), spec.beta_star, test) > 0

    def test_duplication_invariance(self):
        spec = small_spec()
        test = generate_dataset(spec, seed=2, corrupted=False)
        doubled = Dataset(np.vstack([test.X, test.X]),
                          np.concatenate([test.y, test.y]), 1)
        b = np.array([[1.0, 1.5]])
        npt.assert_allclose(
            regret(b, spec.beta_star, test), regret(b, spec.beta_star, doubled),
            rtol=1e-12,
        )


class TestRunTrial:
    def test_uniform_ignores_scores(self):
        spec = small_spec()
        res = run_trial(spec, Method("uniform"), seed=derive_seed(1, "c", 0))
        assert res.method_id == "uniform"
        assert len(res.param_error_components) == 2
        assert np.isfinite(res.regret)

    def test_aggregate_matches_row_level(self):
        # the cell table is an optimization only: rebuild each trial row by
        # row from the public functions and compare
        spec = small_spec()
        for method in (Method("uniform"), Method("vanilla"),
                       Method("vanilla", with_labels=False), Method("clip", 3.0)):
            seed = derive_seed(2, "equiv", method.id)
            fast = run_trial(spec, method, seed)
            probe = generate_dataset(spec, derive_seed(seed, "probe"), corrupted=True)
            sampling = generate_dataset(spec, derive_seed(seed, "sampling"), corrupted=True)
            test = generate_dataset(spec, derive_seed(seed, "test"), corrupted=False)
            ensemble = train_ensemble(probe, spec.probe_members, seed=derive_seed(seed, "shards"))
            if method.scheme == "uniform":
                u = np.ones(sampling.n)
            elif method.with_labels:
                u = ensemble_scores(ensemble, sampling, "coreset") * ensemble.probe_size
            else:
                unlabeled = Dataset(sampling.X, None, K=1)
                u = ensemble_scores(ensemble, unlabeled, "active") * ensemble.probe_size
            config = SamplingConfig(
                subsample_size=spec.r,
                seed=derive_seed(seed, "draw", method.id),
                score_transform=spec.score_transform,
                alpha_multiplier=method.clip_multiplier,
                beta_floor=spec.beta_floor,
            )
            beta_bar = subsample_and_refit(sampling, u, config).beta_bar
            errs = np.abs(beta_bar - spec.beta_star).reshape(-1)
            npt.assert_allclose(fast.regret, regret(beta_bar, spec.beta_star, test), atol=1e-10)
            npt.assert_allclose(fast.param_error_l2, np.linalg.norm(errs), atol=1e-10)
            npt.assert_allclose(fast.param_error_components, errs, atol=1e-10)

    def test_methods_share_datasets_within_trial(self):
        # paired comparisons: same trial seed, different methods, same data
        spec = small_spec()
        seed = derive_seed(3, "pair", 0)
        a = run_trial(spec, Method("uniform"), seed)
        b = run_trial(spec, Method("vanilla"), seed)
        assert a.seed == b.seed


class TestRunExperiment:
    def test_invalid_method_rejected_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sim, "run_trial", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match="cops-clip0.5-withY"):
            run_experiment(small_spec(), methods=[Method("uniform"), Method("clip", 0.5)])
        assert calls == []

    def test_single_trial_aggregates_match_row(self):
        spec = small_spec(trials=1)
        report = run_experiment(spec, methods=[Method("uniform")])
        row = report.rows[0]
        agg = report.aggregates["base/uniform"]
        assert agg["regret"]["mean"] == pytest.approx(row.regret)
        assert agg["regret"]["std"] == 0.0
        assert agg["param_error_l2"]["median"] == pytest.approx(row.param_error_l2)

    def test_method_order_invariance(self):
        spec = small_spec(trials=2)
        methods = [Method("uniform"), Method("vanilla"), Method("clip", 3.0)]
        a = run_experiment(spec, methods=methods)
        b = run_experiment(spec, methods=methods[::-1])
        assert a.aggregates == b.aggregates

    def test_aggregates_recomputable_from_rows(self):
        spec = small_spec(trials=3)
        report = run_experiment(spec, methods=[Method("uniform"), Method("vanilla")])
        for key, agg in report.aggregates.items():
            case, mid = key.split("/")
            regs = [r.regret for r in report.rows if r.case == case and r.method_id == mid]
            assert agg["regret"]["mean"] == pytest.approx(np.mean(regs))
            assert agg["trials"]["count"] == len(regs)

    def test_multiple_cases(self):
        spec = small_spec(trials=1)
        cases = {"clean": np.zeros(3), "hit": np.array([-3.0, 0.0, 0.0])}
        report = run_experiment(spec, methods=[Method("uniform")], zeta_cases=cases)
        assert set(report.cases) == {"clean", "hit"}
        assert len(report.rows) == 2

    def test_failures_recorded_not_fatal(self, monkeypatch):
        spec = small_spec(trials=2)
        real = sim.run_trial

        def flaky(case_spec, method, seed, **kw):
            if method.scheme == "vanilla" and kw.get("trial_index") == 1:
                raise RuntimeError("synthetic failure")
            return real(case_spec, method, seed, **kw)

        monkeypatch.setattr(sim, "run_trial", flaky)
        report = run_experiment(spec, methods=[Method("uniform"), Method("vanilla")])
        assert len(report.failures) == 1
        assert report.failures[0]["method_id"] == "cops-vanilla-withY"
        assert len(report.rows) == 3

    def test_threaded_matches_sequential(self):
        spec = small_spec(trials=2)
        methods = [Method("uniform"), Method("vanilla")]
        a = run_experiment(spec, methods=methods)
        b = run_experiment(spec, methods=methods, threads=4)
        assert a.aggregates == b.aggregates


class TestOrderings:
    """Paired-trial orderings on a reduced grid; full scale in acceptance."""

    def test_clip_beats_uniform_under_heavy_corruption(self):
        # label-free scoring family at zeta(x1) = -3: the clipped variant
        # wins most paired trials against both uniform and vanilla
        spec = paper_spec(zeta=np.array([-3.0, 0.0, 0.0]))
        wins_unif = wins_van = 0
        T = 50
        for t in range(T):
            seed = derive_seed(0, "zeta_x1_-3", t)
            unif = run_trial(spec, Method("uniform"), seed)
            van = run_trial(spec, Method("vanilla", with_labels=False), seed)
            clip = run_trial(spec, Method("clip", 3.0, with_labels=False), seed)
            wins_unif += clip.regret < unif.regret
            wins_van += clip.regret < van.regret
        assert wins_unif >= 0.6 * T
        assert wins_van >= 0.6 * T

    def test_vanilla_active_competitive_when_clean(self):
        # zeta == 0: mean regret of label-free vanilla does not exceed uniform
        spec = paper_spec(zeta=np.zeros(3))
        T = 50
        regs_u, regs_v = [], []
        for t in range(T):
            seed = derive_seed(0, "zeta_x1_0", t)
            regs_u.append(run_trial(spec, Method("uniform"), seed).regret)
            regs_v.append(run_trial(spec, Method("vanilla", with_labels=False), seed).regret)
        assert np.mean(regs_v) <= np.mean(regs_u)
