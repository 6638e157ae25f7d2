"""Corruption experiment harness: generation, trials, aggregation, determinism."""

import numpy as np
import numpy.testing as npt
import pytest

import copsamp.simulation as sim
from copsamp.model import Dataset
from copsamp.sampler import SamplingConfig, draw_subsample, subsample_and_refit
from copsamp.simulation import (
    PAPER_METHODS,
    Method,
    SimulationSpec,
    derive_seed,
    generate_dataset,
    regret,
    run_experiment,
    run_trial,
)
from copsamp.uncertainty import ensemble_scores, train_ensemble


def expit(t: float) -> float:
    return 1.0 / (1.0 + np.exp(-t))


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


def flaky_draw(bad_seed):
    """A :func:`draw_subsample` that raises on ``bad_seed``, failing that draw's trial."""
    def flaky(plan, r, seed, *args, **kw):
        if seed == bad_seed:
            raise RuntimeError("synthetic failure")
        return draw_subsample(plan, r, seed, *args, **kw)
    return flaky


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
        assert paper_spec().methods == PAPER_METHODS and len(PAPER_METHODS) == 7
        ids = {m.id for m in PAPER_METHODS}
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

    def test_far_corrupted_atom_all_zero_without_warning(self):
        # exp(-logit) overflows to inf: p is exactly 0, and no warning is raised
        spec = paper_spec(zeta=np.array([-1000.0, 0.0, 0.0]))
        data = generate_dataset(spec, seed=2, corrupted=True)
        assert not data.y[:1000].any()

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

    @pytest.mark.parametrize("corrupted", [False, True])
    def test_rows_match_atom_formula_and_cell_counts(self, corrupted):
        # the trial's cell columns and the row-level datasets draw the same
        # labels bit for bit; the simulate outputs depend on it
        spec = small_spec(zeta=np.array([-3.0, 1.0, -0.5]))
        atom = np.repeat(np.arange(3), spec.counts)
        logits = spec.atom_x @ spec.beta_star[0] + (spec.zeta if corrupted else 0.0)
        p = 1.0 / (1.0 + np.exp(-logits))
        for seed in (0, 7, derive_seed(1, "sampling"), derive_seed(2, "probe")):
            data = generate_dataset(spec, seed, corrupted)
            u = np.random.default_rng(seed).random(atom.size)
            y = (u < p[atom]).astype(int)
            npt.assert_array_equal(data.X, spec.atom_x[atom])
            npt.assert_array_equal(data.y, y)
            assert data.y.dtype == y.dtype
            # the column drawn atom by atom is the one-shot np.repeat formula
            cells = np.empty(atom.size, dtype=int)
            counts = sim._replica(spec, seed, corrupted, out=cells)
            formula = np.repeat(np.arange(0, 6, 2), spec.counts)
            formula += u < np.repeat(p, spec.counts)
            npt.assert_array_equal(cells, formula)
            assert cells.dtype == formula.dtype
            # the counts returned with the column, and without one, are the
            # column's cell counts
            bincount = np.bincount(cells, minlength=6)
            npt.assert_array_equal(counts, bincount)
            npt.assert_array_equal(sim._replica(spec, seed, corrupted), bincount)

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
            paper_spec(methods=(Method("uniform"), Method("clip", 1.0)))
        with pytest.raises(ValueError, match="distinct"):
            paper_spec(methods=(Method("uniform"), Method("uniform")))
        with pytest.raises(ValueError, match="not empty"):
            paper_spec(methods=())
        # values no trial can run: non-integral sizes and seeds, bools,
        # non-finite truth or atoms
        for field, value in [
            ("counts", [2.5, 3.9, 4.0]),
            ("counts", np.array([True, True, True])),
            ("r", 50.5),
            ("r", True),
            ("r", 1000.0),
            ("trials", 2.5),
            ("seed", 1.5),
            ("probe_members", 3.5),
            ("beta_star", np.array([[2.0, np.inf]])),
            ("beta_star", np.array([[np.nan, 2.0]])),
            ("atom_x", np.array([[1.0, np.nan], [0.1, 0.1], [0.0, 1.0]])),
        ]:
            with pytest.raises(ValueError, match=field):
                paper_spec(**{field: value})

    def test_spec_equality(self):
        # value equality over the compared fields, array fields included
        assert (small_spec() == small_spec()) is True
        assert (small_spec() == small_spec(zeta=np.zeros(3))) is False
        assert (small_spec() != small_spec(counts=np.array([60, 3000, 3001]))) is True
        assert small_spec() != "not a spec"

    def test_spec_accepts_numpy_integers(self):
        spec = small_spec(r=np.int64(200), trials=np.int32(3), seed=np.uint64(2**63),
                          probe_members=np.int16(4), counts=np.array([60, 3000, 3000], np.uint64))
        assert len(run_trial(spec, seed=1)) == len(PAPER_METHODS)
        # row 2a + y of the cell table holds atom a with label y
        npt.assert_array_equal(spec.cells.X, np.repeat(spec.atom_x, 2, axis=0))
        npt.assert_array_equal(spec.cells.y, [0, 1, 0, 1, 0, 1])


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
        spec = small_spec(methods=[Method("uniform")])
        [res] = run_trial(spec, seed=derive_seed(1, "c", 0))
        assert res.method_id == "uniform"
        assert len(res.param_error_components) == 2
        assert np.isfinite(res.regret)

    def test_aggregate_matches_row_level(self):
        # the cell table is an optimization only: rebuild each trial row by
        # row from the public functions and compare
        methods = (Method("uniform"), Method("vanilla"),
                   Method("vanilla", with_labels=False), Method("clip", 3.0))
        spec = small_spec(methods=methods)
        for seed in (derive_seed(2, "equiv", method.id) for method in methods):
            fast_rows = run_trial(spec, seed)
            probe = generate_dataset(spec, derive_seed(seed, "probe"), corrupted=True)
            sampling = generate_dataset(spec, derive_seed(seed, "sampling"), corrupted=True)
            test = generate_dataset(spec, derive_seed(seed, "test"), corrupted=False)
            ensemble = train_ensemble(probe, spec.probe_members, seed=derive_seed(seed, "shards"))
            for method, fast in zip(methods, fast_rows, strict=True):
                assert fast.method_id == method.id
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
                npt.assert_allclose(fast.regret, regret(beta_bar, spec.beta_star, test),
                                    atol=1e-10)
                npt.assert_allclose(fast.param_error_l2, np.linalg.norm(errs), atol=1e-10)
                npt.assert_allclose(fast.param_error_components, errs, atol=1e-10)

    def test_methods_paired_by_construction(self, monkeypatch):
        # every method of a trial reads one shared set of replicas, ensemble
        # and scores, however many methods the trial runs
        alone = Method("vanilla", with_labels=False)
        for t in range(20):
            [single] = run_trial(small_spec(methods=[alone]), derive_seed(3, "pair", t))
            paired = run_trial(small_spec(methods=PAPER_METHODS), derive_seed(3, "pair", t))
            assert single == paired[PAPER_METHODS.index(alone)], t
        seed = derive_seed(3, "pair", 0)

        replicas = []  # the sampling, test and probe replicas
        batches = []  # the size of each batched fit: the probe members, then the refits
        real_replica, real_batch = sim._replica, sim.fit_weighted_batch

        def replica(*args, **kwargs):
            replicas.append(args)
            return real_replica(*args, **kwargs)

        def batch(data, weights, *args, **kwargs):
            batches.append(len(weights))
            return real_batch(data, weights, *args, **kwargs)

        monkeypatch.setattr(sim, "_replica", replica)
        monkeypatch.setattr(sim, "fit_weighted_batch", batch)
        for methods, probe_members in (
            ([Method("uniform")], 10),
            ([alone], 10),
            ([alone], 4),
            (PAPER_METHODS, 10),
            (PAPER_METHODS, 3),
        ):
            spec = small_spec(methods=methods, probe_members=probe_members)
            replicas.clear()
            batches.clear()
            rows = run_trial(spec, seed)
            uniform_only = all(method.scheme == "uniform" for method in methods)
            assert len(rows) == len(methods)
            assert len(replicas) == (2 if uniform_only else 3)
            assert sum(batches) == len(methods) + (0 if uniform_only else probe_members)
            assert batches == ([] if uniform_only else [probe_members]) + [len(methods)]


class TestRunExperiment:
    def test_invalid_method_rejected_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sim, "run_trial", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match="cops-clip0.5-withY"):
            run_experiment(small_spec(methods=[Method("uniform"), Method("clip", 0.5)]))
        with pytest.raises(ValueError, match="zeta"):
            run_experiment(small_spec(methods=[Method("uniform")]),
                           zeta_cases={"clean": np.zeros(3), "bad": np.zeros(2)})
        assert calls == []

    def test_single_trial_aggregates_match_row(self):
        spec = small_spec(trials=1, methods=[Method("uniform")])
        report = run_experiment(spec)
        row = report.rows[0]
        agg = report.aggregates["base/uniform"]
        assert agg["regret"]["mean"] == pytest.approx(row.regret)
        assert agg["regret"]["std"] == 0.0
        assert agg["param_error_l2"]["median"] == pytest.approx(row.param_error_l2)

    def test_method_order_invariance(self):
        methods = [Method("uniform"), Method("vanilla"), Method("clip", 3.0)]
        a = run_experiment(small_spec(trials=2, methods=methods))
        b = run_experiment(small_spec(trials=2, methods=methods[::-1]))
        assert a.aggregates == b.aggregates

    def test_aggregates_recomputable_from_rows(self, monkeypatch):
        # every statistic is the per-group numpy call's exactly; the second
        # round fails trial 1 of one case, so groups of 3 and of 2 trials
        # are reduced side by side
        spec = small_spec(trials=3, methods=[Method("uniform"), Method("vanilla")])
        cases = {"base": spec.zeta, "clean": np.zeros(3)}
        bad_draw = derive_seed(derive_seed(spec.seed, "base", 1), "draw", "cops-vanilla-withY")
        for failing in (False, True):
            if failing:
                monkeypatch.setattr(sim, "draw_subsample", flaky_draw(bad_draw))
            report = run_experiment(spec, zeta_cases=cases)
            assert len(report.failures) == (2 if failing else 0)
            trial_counts = set()
            for key, agg in report.aggregates.items():
                case, mid = key.split("/")
                group = [r for r in report.rows if r.case == case and r.method_id == mid]
                columns = {
                    "param_error_l2": [r.param_error_l2 for r in group],
                    "regret": [r.regret for r in group],
                    "param_error_d1": [r.param_error_components[0] for r in group],
                    "param_error_d2": [r.param_error_components[1] for r in group],
                }
                assert list(agg) == [*columns, "trials"]
                for name, vals in columns.items():
                    assert agg[name] == {"mean": np.mean(vals), "median": np.median(vals),
                                         "std": np.std(vals)}
                assert agg["trials"] == {"count": len(group)}
                trial_counts.add(len(group))
            assert trial_counts == ({2, 3} if failing else {3})

    def test_aggregates_match_per_group_calls_at_many_trial_counts(self):
        # above 8 trials numpy's pairwise sums unroll, so a reduction along a
        # strided trials axis would differ from the per-group calls in the
        # last bits
        rng = np.random.default_rng(0)
        rows = []
        for case, trials in (("a", 1), ("b", 8), ("c", 9), ("d", 50), ("e", 129), ("f", 50)):
            for method_id in ("uniform", "cops-vanilla-withY"):
                for t in range(trials):
                    errs = np.abs(rng.standard_normal(2)) * 10.0 ** rng.integers(-4, 3)
                    rows.append(sim.TrialResult(method_id, case, t, tuple(errs),
                                                float(np.linalg.norm(errs)),
                                                float(rng.standard_normal() * 1e-3), 0))
        rng.shuffle(rows)
        aggregates = sim.aggregate_rows(rows)
        assert list(aggregates) == sorted(aggregates)
        for key, agg in aggregates.items():
            group = [r for r in rows if f"{r.case}/{r.method_id}" == key]
            comps = np.array([r.param_error_components for r in group])
            columns = {
                "param_error_l2": np.array([r.param_error_l2 for r in group]),
                "regret": np.array([r.regret for r in group]),
                "param_error_d1": comps[:, 0],
                "param_error_d2": comps[:, 1],
            }
            assert list(agg) == [*columns, "trials"]
            for name, vals in columns.items():
                assert agg[name] == {"mean": vals.mean(), "median": np.median(vals),
                                     "std": vals.std()}
            assert agg["trials"] == {"count": len(group)}

    def test_multiple_cases(self):
        spec = small_spec(trials=1, methods=[Method("uniform")])
        cases = {"clean": np.zeros(3), "hit": np.array([-3.0, 0.0, 0.0])}
        report = run_experiment(spec, zeta_cases=cases)
        assert set(report.cases) == {"clean", "hit"}
        assert len(report.rows) == 2

    def test_failures_recorded_not_fatal(self, monkeypatch):
        # one method's draw fails in trial 1, so the whole trial fails:
        # one failure entry per method, trial 0's rows stay as they were
        spec = small_spec(trials=2, methods=[Method("uniform"), Method("vanilla")])
        clean = run_experiment(spec)
        bad_draw = derive_seed(derive_seed(spec.seed, "base", 1), "draw", "cops-vanilla-withY")
        real = sim.draw_subsample
        monkeypatch.setattr(sim, "draw_subsample", flaky_draw(bad_draw))
        report = run_experiment(spec)
        assert [(f["trial_index"], f["method_id"]) for f in report.failures] == [
            (1, "uniform"), (1, "cops-vanilla-withY")]
        assert {f["error"] for f in report.failures} == {"RuntimeError: synthetic failure"}
        assert report.rows == [row for row in clean.rows if row.trial_index == 0]

        # one method's refit fails inside the batched refit: the same, with the
        # message the method's fit alone would raise
        def negative_weights(plan, r, seed, *args, **kw):
            sub = real(plan, r, seed, *args, **kw)
            if seed == bad_draw:
                sub.weights = -sub.weights
            return sub

        monkeypatch.setattr(sim, "draw_subsample", negative_weights)
        report = run_experiment(spec)
        assert [(f["trial_index"], f["method_id"]) for f in report.failures] == [
            (1, "uniform"), (1, "cops-vanilla-withY")]
        assert {f["error"] for f in report.failures} == {
            "ValueError: weights must be finite and nonnegative"}
        assert report.rows == [row for row in clean.rows if row.trial_index == 0]

    def test_threaded_matches_sequential(self):
        spec = small_spec(trials=2, methods=[Method("uniform"), Method("vanilla")])
        a = run_experiment(spec)
        b = run_experiment(spec, threads=4)
        assert a.aggregates == b.aggregates
        with pytest.raises(ValueError):
            run_experiment(spec, threads=0)


class TestOrderings:
    """Paired-trial orderings on a reduced grid; full scale in acceptance."""

    def test_clip_beats_uniform_under_heavy_corruption(self):
        # label-free scoring family at zeta(x1) = -3: the clipped variant
        # wins most paired trials against both uniform and vanilla
        spec = paper_spec(
            zeta=np.array([-3.0, 0.0, 0.0]),
            methods=(Method("uniform"), Method("vanilla", with_labels=False),
                     Method("clip", 3.0, with_labels=False)),
        )
        wins_unif = wins_van = 0
        T = 50
        for t in range(T):
            unif, van, clip = run_trial(spec, derive_seed(0, "zeta_x1_-3", t))
            wins_unif += clip.regret < unif.regret
            wins_van += clip.regret < van.regret
        assert wins_unif >= 0.6 * T
        assert wins_van >= 0.6 * T

    def test_vanilla_active_competitive_when_clean(self):
        # zeta == 0: mean regret of label-free vanilla does not exceed uniform
        spec = paper_spec(zeta=np.zeros(3),
                          methods=(Method("uniform"), Method("vanilla", with_labels=False)))
        T = 50
        regs_u, regs_v = [], []
        for t in range(T):
            unif, van = run_trial(spec, derive_seed(0, "zeta_x1_0", t))
            regs_u.append(unif.regret)
            regs_v.append(van.regret)
        assert np.mean(regs_v) <= np.mean(regs_u)


#: a model, the truth and labeled test rows, which regret's refused counts are weighed on
REGRET_ARGS = (np.zeros((1, 2)), np.ones((1, 2)), Dataset(np.ones((3, 2)), np.array([0, 1, 0]), 1))

#: each refused input of the simulation layer, and the message it raises
REFUSALS = {
    "unknown scheme": (lambda: Method("bogus"), "unknown scheme 'bogus'"),
    "1-d atom_x": (lambda: small_spec(atom_x=np.array([1.0, 0.1, 0.0])), r"atom_x must be \(A, d\)"),
    "regret on unlabeled data": (
        lambda: regret(np.zeros((1, 2)), np.zeros((1, 2)), Dataset(np.ones((3, 2)), None, 1)),
        "regret needs labeled test data"),
    "regret counts of the wrong length": (lambda: regret(*REGRET_ARGS, np.ones(2, dtype=int)),
                                          r"counts has shape \(2,\), expected \(3,\)"),
    "negative regret counts": (lambda: regret(*REGRET_ARGS, [1, -1, 1]),
                               "counts must be finite and nonnegative"),
    "NaN regret counts": (lambda: regret(*REGRET_ARGS, [1.0, np.nan, 1.0]),
                          "counts must be finite and nonnegative"),
    "all-zero regret counts": (lambda: regret(*REGRET_ARGS, np.zeros(3, dtype=int)),
                               "counts must not be all zero"),
    # a NaN beta used to give a nan regret, a two-class beta on binary rows a
    # finite number, and a beta of the wrong d a numpy gufunc error
    "regret of a NaN beta": (lambda: regret(np.full((1, 2), np.nan), *REGRET_ARGS[1:]),
                             "beta contains non-finite entries"),
    "regret against a NaN truth": (
        lambda: regret(REGRET_ARGS[0], np.full((1, 2), np.nan), REGRET_ARGS[2]),
        "beta contains non-finite entries"),
    "regret of a two-class beta on binary rows": (
        lambda: regret(np.array([[0.3, -0.2], [0.1, 0.4]]), *REGRET_ARGS[1:]),
        r"beta has class count 2, data has 1: shape \(2, 2\), expected \(1, 2\)"),
    "regret against a two-class truth": (
        lambda: regret(REGRET_ARGS[0], np.ones((2, 2)), REGRET_ARGS[2]),
        r"beta has class count 2, data has 1: shape \(2, 2\), expected \(1, 2\)"),
    "regret of a beta of the wrong d": (lambda: regret(np.zeros((1, 3)), *REGRET_ARGS[1:]),
                                        r"beta has feature dimension 3, data has 2: "
                                        r"shape \(1, 3\), expected \(1, 2\)"),
    "regret against a truth of the wrong d": (
        lambda: regret(REGRET_ARGS[0], np.ones((1, 1)), REGRET_ARGS[2]),
        r"beta has feature dimension 1, data has 2: shape \(1, 1\), expected \(1, 2\)"),
    "clip method without a multiplier": (lambda: Method.parse("cops-clip-withY"),
                                         "unrecognized method id 'cops-clip-withY'"),
    "clip method with a word for a multiplier": (lambda: Method.parse("cops-clipx-withY"),
                                                 "unrecognized method id 'cops-clipx-withY'"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refused_input(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()
