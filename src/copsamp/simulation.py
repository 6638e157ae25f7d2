"""Monte-Carlo comparison of subsampling methods under label corruption.

Datasets are built from a small set of feature atoms, each repeated a
fixed number of times; labels are Bernoulli with success probability
``sigmoid(x @ beta_star + zeta_atom)``, where the per-atom offsets
``zeta`` corrupt the labels away from the model family (the clean case
has ``zeta = 0``). A trial trains a probe ensemble on one corrupted
replica, scores a second corrupted replica, draws ``r`` rows, refits,
and evaluates the result against ``beta_star`` and against a freshly
generated clean test set of the same atom counts.

All rows at an atom share the same features, so the spec holds one
table of (atom, label) cells and a replica is a column of cell indices.
No replica is expanded to rows. Per cell: the probe members are one
batched fit (:func:`copsamp.solver.fit_weighted_batch`) of the shards'
cell counts, test regret weighs per-cell losses by the test counts, and
every score and every method's plan is made over the six cells with
the sampling replica's cell counts as multiplicities. The methods'
refits are a second batched fit on the cells, each with its drawn
rows' weights ``1/pi_reweight`` summed per cell. Per row: every
replica, drawn by one routine with one uniform per row that it compares
with the row's atom's label probability, counting each cell and writing
the column only for the sampling and probe replicas, never for the
clean test replica; the probe's shard permutation; and each method's
draw, which :func:`copsamp.sampler.draw_subsample` makes over the
sampling column's source rows, so it picks the rows a row-level plan
would. A test rebuilds the trial from the row-level public functions
and checks that both agree.

A trial builds its replicas, ensemble and scores once and runs every
method on them, so comparisons within a trial are paired by
construction, not by re-seeding; a trial that raises fails as a unit,
for all of its methods. Everything is deterministic given the master
seed: per-trial seeds are derived by hashing (seed, case label, trial
index), and each method's draw seed additionally hashes its id, so
reordering methods changes nothing.

Test-set regret of a fitted model can be slightly negative at finite
test size because ``beta_star`` minimizes the population loss, not the
realized test loss; comparisons are made between method means, never
per-trial signs.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Iterable, Mapping

import numpy as np

from copsamp.model import (
    Coefficients, Dataset, _check_beta, _check_integer, _check_nonnegative, _loss_sum,
)
from copsamp.sampler import (
    SamplingConfig,
    draw_subsample,
    make_plan,
    plan_scores,
)
from copsamp.solver import fit_weighted_batch
from copsamp.uncertainty import ProbeEnsemble, _shard_rows, shard_indices

__all__ = [
    "SimulationSpec",
    "Method",
    "TrialResult",
    "ExperimentReport",
    "derive_seed",
    "generate_dataset",
    "regret",
    "run_trial",
    "run_experiment",
    "PAPER_METHODS",
]


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from hashable parts (never Python's salted hash)."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


@dataclass(frozen=True)
class Method:
    """A subsampling method identity: scheme, clip level, label availability."""

    scheme: str  # "uniform" | "vanilla" | "clip"
    clip_multiplier: float | None = None
    with_labels: bool = True

    def __post_init__(self) -> None:
        if self.scheme not in ("uniform", "vanilla", "clip"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if (self.scheme == "clip") != (self.clip_multiplier is not None):
            raise ValueError("clip_multiplier is required iff scheme == 'clip'")

    @property
    def id(self) -> str:
        if self.scheme == "uniform":
            return "uniform"
        tag = "withY" if self.with_labels else "withoutY"
        if self.scheme == "vanilla":
            return f"cops-vanilla-{tag}"
        return f"cops-clip{self.clip_multiplier:g}-{tag}"

    @staticmethod
    def parse(method_id: str) -> "Method":
        if method_id == "uniform":
            return Method("uniform")
        parts = method_id.split("-")
        if len(parts) == 3 and parts[0] == "cops" and parts[2] in ("withY", "withoutY"):
            with_labels = parts[2] == "withY"
            if parts[1] == "vanilla":
                return Method("vanilla", with_labels=with_labels)
            if parts[1].startswith("clip"):
                with suppress(ValueError):  # a multiplier that is not a float
                    return Method("clip", float(parts[1][4:]), with_labels)
        raise ValueError(f"unrecognized method id {method_id!r}")


#: the paper's seven methods: uniform, then vanilla and alpha-capped (3, 10)
#: score-proportional sampling, each with and without labels
PAPER_METHODS = tuple(Method.parse(m) for m in (
    "uniform", "cops-vanilla-withY", "cops-vanilla-withoutY",
    "cops-clip3-withY", "cops-clip3-withoutY", "cops-clip10-withY", "cops-clip10-withoutY",
))


@dataclass
class SimulationSpec:
    """Atoms, truth, corruption offsets, methods and experiment sizes.

    ``atom_x`` is (A, d); ``counts`` gives the number of rows per atom;
    ``zeta`` holds the per-atom corruption offsets of one corruption
    case. Binary labels only (K = 1). ``methods`` are the distinct
    methods an experiment compares; when one of them plans from scores,
    each of the ``probe_members`` shards of a replica must hold the
    ``K + d`` rows that :func:`~copsamp.uncertainty.train_ensemble` asks
    of its shards. ``score_transform`` and ``beta_floor`` default to
    :class:`~copsamp.sampler.SamplingConfig`'s.
    """

    atom_x: np.ndarray
    counts: np.ndarray
    beta_star: Coefficients
    zeta: np.ndarray
    r: int
    methods: tuple[Method, ...] = PAPER_METHODS
    trials: int = 50
    seed: int = 0
    probe_members: int = 10
    score_transform: str = SamplingConfig.score_transform
    beta_floor: float = SamplingConfig.beta_floor
    cells: Dataset = field(init=False, repr=False, compare=False)  # row 2a + y: atom a, label y

    def __post_init__(self) -> None:
        self.atom_x = np.asarray(self.atom_x, dtype=float)
        self.counts = np.asarray(self.counts)
        self.beta_star = np.asarray(self.beta_star, dtype=float)
        self.zeta = np.asarray(self.zeta, dtype=float)
        self.methods = tuple(self.methods)
        if self.atom_x.ndim != 2:
            raise ValueError("atom_x must be (A, d)")
        A = self.atom_x.shape[0]
        try:
            self.cells = Dataset(np.repeat(self.atom_x, 2, axis=0), np.tile([0, 1], A), K=1)
        except ValueError as err:
            raise ValueError(f"atom_x: {err}") from None
        counts_int = self.counts.dtype.kind in "iu" and self.counts.shape == (A,)
        if not counts_int or np.any(self.counts < 1):
            raise ValueError(f"counts must be positive integers, one per atom, got {self.counts}")
        self.counts = self.counts.astype(int)
        if self.beta_star.shape != (1, self.atom_x.shape[1]):
            raise ValueError("beta_star must be (1, d): binary labels only")
        if not np.all(np.isfinite(self.beta_star)):
            raise ValueError("beta_star must be finite")
        if self.zeta.shape != (A,) or not np.all(np.isfinite(self.zeta)):
            raise ValueError("zeta must be finite, one offset per atom")
        for name, minimum in (("r", 1), ("trials", 1), ("seed", None), ("probe_members", 2)):
            _check_integer(name, getattr(self, name), minimum)
        ids = [method.id for method in self.methods]
        if not ids or len(set(ids)) != len(ids):
            raise ValueError(f"methods must be distinct and not empty, got {ids}")
        if any(method.scheme != "uniform" for method in self.methods):
            _shard_rows(int(self.counts.sum()), self.probe_members, self.cells.K, self.cells.d)
        # each method's own SamplingConfig checks score_transform, beta_floor
        # and its clip multiplier, before any trial runs
        for method in self.methods:
            try:
                self.sampling_config(method)
            except ValueError as err:
                raise ValueError(f"method {method.id}: {err}") from err

    def __eq__(self, other) -> bool:
        """Equal compared fields, array fields by ``np.array_equal``; ``cells`` is derived."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare]
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in pairs)

    def sampling_config(self, method: Method, seed: int = 0) -> SamplingConfig:
        """The plan settings of ``method``'s trials, drawing with ``seed``."""
        return SamplingConfig(
            subsample_size=self.r,
            seed=seed,
            score_transform=self.score_transform,
            alpha_multiplier=method.clip_multiplier,
            beta_floor=self.beta_floor,
        )


@dataclass
class TrialResult:
    method_id: str
    case: str
    trial_index: int
    param_error_components: tuple[float, ...]
    param_error_l2: float
    regret: float
    seed: int


@dataclass
class ExperimentReport:
    trials: int
    methods: tuple[str, ...]
    cases: tuple[str, ...]
    seed: int
    rows: list[TrialResult]
    aggregates: dict[str, dict[str, dict[str, float]]]
    failures: list[dict] = field(default_factory=list)


def _replica(
    spec: SimulationSpec, seed: int, corrupted: bool, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw one replica and return its (2A,) cell counts.

    One uniform draw per row, in row order; the rows of atom ``a`` are
    the ``counts[a]`` after those of the atoms before it, and a row's
    label is ``u < p_a``. ``out``, when given, is an integer array of
    one entry per row that receives the row's cell ``2a + y``.
    """
    logits = spec.atom_x @ spec.beta_star[0]
    if corrupted:
        logits = logits + spec.zeta
    # exp overflows to inf below a logit of about -709, where p is 0 anyway
    with np.errstate(over="ignore"):
        p_atom = 1.0 / (1.0 + np.exp(-logits))
    u = np.random.default_rng(seed).random(int(spec.counts.sum()))
    counts = np.empty(2 * spec.counts.size, dtype=int)
    start = 0
    for a, (p, end) in enumerate(zip(p_atom, np.cumsum(spec.counts))):
        if out is None:
            counts[2 * a + 1] = np.count_nonzero(u[start:end] < p)
        else:
            counts[2 * a + 1] = np.count_nonzero(np.less(u[start:end], p, out=out[start:end]))
            out[start:end] += 2 * a
        counts[2 * a] = end - start - counts[2 * a + 1]
        start = end
    return counts


def generate_dataset(spec: SimulationSpec, seed: int, corrupted: bool) -> Dataset:
    """Expand atoms to rows and draw Bernoulli labels, optionally corrupted."""
    column = np.empty(int(spec.counts.sum()), dtype=int)
    _replica(spec, seed, corrupted, out=column)
    return spec.cells.subset(column)


def regret(
    beta_bar: Coefficients,
    beta_star: Coefficients,
    test: Dataset,
    counts: np.ndarray | None = None,
) -> float:
    """Excess mean test loss of ``beta_bar`` over ``beta_star``.

    ``counts``, when given, finite, nonnegative and not all zero, is the
    multiplicity of each row of ``test``, so a table of distinct rows
    stands for the expanded test set. Both coefficient matrices must be
    finite ``(test.K, test.d)`` matrices.
    """
    beta_bar, beta_star = _check_beta(beta_bar, test), _check_beta(beta_star, test)
    if not test.labeled:
        raise ValueError("regret needs labeled test data")
    w = np.ones(test.n) if counts is None else _check_nonnegative("counts", counts, (test.n,))
    if not w.any():
        raise ValueError("counts must not be all zero")

    def mean_loss(beta: Coefficients) -> float:
        return _loss_sum(beta, test.X, test.y, w)[0] / float(w.sum())

    return mean_loss(beta_bar) - mean_loss(beta_star)


def run_trial(
    spec: SimulationSpec,
    seed: int,
    case: str = "base",
    trial_index: int = 0,
) -> list[TrialResult]:
    """One probe/score/draw/refit/evaluate trial, one result per method of ``spec``.

    The trial's datasets, ensemble and scores are built once and shared
    by every method, so comparisons within a trial are paired by
    construction; only the draw seed is method-specific. The members are
    fitted as one batch and the refits as another, so a fit that raises
    fails the whole trial.
    """
    cells, n = spec.cells, int(spec.counts.sum())
    test_counts = _replica(spec, derive_seed(seed, "test"), corrupted=False)
    uniform = np.ones(cells.n)
    scores = {}  # with_labels -> per-cell scores
    if any(method.scheme != "uniform" for method in spec.methods):
        # each member's fit to its shard's cell counts is the row-level fit
        probe = np.empty(n, dtype=int)
        _replica(spec, derive_seed(seed, "probe"), corrupted=True, out=probe)
        M = spec.probe_members
        shard_counts = np.stack([
            np.bincount(probe[idx], minlength=cells.n)
            for idx in shard_indices(n, M, derive_seed(seed, "shards"))
        ])
        members = np.stack([fit.beta for fit in fit_weighted_batch(cells, shard_counts)])
        ensemble = ProbeEnsemble(members, probe_size=n // M)
        del probe  # freed before the sampling column is drawn: the two never coexist
        scores[True] = plan_scores(ensemble, cells, "coreset", "ensemble")
        scores[False] = plan_scores(ensemble, cells, "active", "ensemble")

    sampling = np.empty(n, dtype=int)
    counts = _replica(spec, derive_seed(seed, "sampling"), corrupted=True, out=sampling)
    # each method's refit on its drawn rows is the fit on the cells with the
    # drawn weights summed per cell; without-label methods only ever read
    # labels of the drawn rows, so the stored labels act as the label oracle
    # of the active pipeline
    cell_weights = np.empty((len(spec.methods), cells.n))
    for m, method in enumerate(spec.methods):
        u = uniform if method.scheme == "uniform" else scores[method.with_labels]
        config = spec.sampling_config(method, derive_seed(seed, "draw", method.id))
        plan = make_plan(u, config, counts)
        sub = draw_subsample(plan, config.subsample_size, config.seed, sampling)
        cell_weights[m] = np.bincount(sampling[sub.indices], weights=sub.weights,
                                      minlength=cells.n)

    results = []
    for method, refit in zip(spec.methods, fit_weighted_batch(cells, cell_weights)):
        beta_bar = refit.beta
        errs = np.abs(beta_bar - spec.beta_star).reshape(-1)
        results.append(TrialResult(
            method_id=method.id,
            case=case,
            trial_index=trial_index,
            param_error_components=tuple(float(e) for e in errs),
            param_error_l2=float(np.linalg.norm(errs)),
            regret=float(regret(beta_bar, spec.beta_star, cells, test_counts)),
            seed=seed,
        ))
    return results


_METRICS = ("param_error_l2", "regret")


def aggregate_rows(rows: Iterable[TrialResult]) -> dict[str, dict[str, dict[str, float]]]:
    """mean/median/std of each metric, keyed by "case/method_id".

    Groups with the same trial count are reduced together, one call per
    statistic along a contiguous trials axis. numpy sums each such row
    pairwise, as it sums one group's 1-d column, so every figure is the
    per-group call's bit for bit.
    """
    grouped: dict[str, list[TrialResult]] = {}
    for row in rows:
        grouped.setdefault(f"{row.case}/{row.method_id}", []).append(row)
    out: dict[str, dict[str, dict[str, float]]] = {key: {} for key in sorted(grouped)}
    metrics = attrgetter(*_METRICS)
    shapes: dict[tuple[int, int], list[str]] = {}
    for key in out:
        group = grouped[key]
        shapes.setdefault((len(group), len(group[0].param_error_components)), []).append(key)
    for (trials, d), keys in shapes.items():
        names = [*_METRICS, *(f"param_error_d{j + 1}" for j in range(d))]
        table = np.array([  # (groups, trials, metrics)
            [(*metrics(row), *row.param_error_components) for row in grouped[key]]
            for key in keys
        ])
        table = np.ascontiguousarray(table.transpose(0, 2, 1))  # trials last, contiguous
        mean, median, std = table.mean(axis=-1), np.median(table, axis=-1), table.std(axis=-1)
        for g, key in enumerate(keys):
            for m, name in enumerate(names):
                out[key][name] = {"mean": float(mean[g, m]), "median": float(median[g, m]),
                                  "std": float(std[g, m])}
            out[key]["trials"] = {"count": float(trials)}
    return out


def run_experiment(
    spec: SimulationSpec,
    zeta_cases: Mapping[str, np.ndarray] | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Run ``spec.trials`` trials x corruption cases of ``spec.methods`` and aggregate.

    Each case's offsets pass the spec's own checks before any trial runs.
    A trial fails as a unit: its error is recorded once per method, so
    every method's aggregates cover the same trials, and it is never
    fatal. Per-trial seeds hash (``spec.seed``, case, trial index);
    method order is immaterial. Trials are independent given their
    derived seeds, so a pool of ``threads`` workers, an integer of at
    least 1, runs them; results are assembled in deterministic order
    regardless of the pool size.
    """
    _check_integer("threads", threads, 1)
    if zeta_cases is None:
        zeta_cases = {"base": spec.zeta}

    tasks = []
    for case_label in zeta_cases:
        case_spec = replace(spec, zeta=np.asarray(zeta_cases[case_label], dtype=float))
        tasks += [(case_spec, case_label, t) for t in range(spec.trials)]

    def work(task) -> list:
        case_spec, case_label, t = task
        try:
            return run_trial(case_spec, derive_seed(spec.seed, case_label, t),
                             case=case_label, trial_index=t)
        except Exception as err:  # noqa: BLE001 - recorded, not fatal
            error = f"{type(err).__name__}: {err}"
            return [{"case": case_label, "trial_index": t, "method_id": method.id,
                     "error": error} for method in spec.methods]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        outcomes = [outcome for trial in pool.map(work, tasks) for outcome in trial]

    rows = [o for o in outcomes if isinstance(o, TrialResult)]
    failures = [o for o in outcomes if not isinstance(o, TrialResult)]
    return ExperimentReport(
        trials=spec.trials,
        methods=tuple(m.id for m in spec.methods),
        cases=tuple(zeta_cases),
        seed=spec.seed,
        rows=rows,
        aggregates=aggregate_rows(rows),
        failures=failures,
    )
