"""Monte-Carlo comparison of subsampling methods under label corruption.

Datasets are built from a small set of feature atoms, each repeated a
fixed number of times; labels are Bernoulli with success probability
``sigmoid(x @ beta_star + zeta_atom)``, where the per-atom offsets
``zeta`` corrupt the labels away from the model family (the clean case
has ``zeta = 0``). A trial trains a probe ensemble on one corrupted
replica, scores a second corrupted replica, draws ``r`` rows, refits,
and evaluates the result against ``beta_star`` and against a freshly
generated clean test set of the same atom counts.

All rows at an atom share the same features, so a trial works on one
table of (atom, label) cells: probe members are fitted to per-shard cell
counts, scores are computed per cell and looked up per row, and test
regret weighs per-cell losses by the test counts. The draw and the
refit run row by row through :func:`copsamp.sampler.subsample_and_refit`.
A test rebuilds the trial from the row-level public functions and checks
that both give the same results.

Everything is deterministic given the master seed: per-trial seeds are
derived by hashing (seed, case label, trial index), and the draw seed
additionally hashes the method id, so methods within a trial see the
same datasets (paired comparisons) and reordering methods changes
nothing.

Test-set regret of a fitted model can be slightly negative at finite
test size because ``beta_star`` minimizes the population loss, not the
realized test loss; comparisons are made between method means, never
per-trial signs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np
from scipy.special import expit

from copsamp.model import Coefficients, Dataset, _log_probability_of_label
from copsamp.sampler import SamplingConfig, subsample_and_refit
from copsamp.solver import fit_weighted_mle
from copsamp.uncertainty import ProbeEnsemble, ensemble_scores, shard_indices

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
    "default_methods",
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
                return Method("clip", float(parts[1][4:]), with_labels)
        raise ValueError(f"unrecognized method id {method_id!r}")


@dataclass
class SimulationSpec:
    """Atoms, truth, corruption offsets and experiment sizes.

    ``atom_x`` is (A, d); ``counts`` gives the number of rows per atom;
    ``zeta`` holds the per-atom corruption offsets of one corruption
    case. Binary labels only (K = 1). ``score_transform`` and
    ``beta_floor`` default to :class:`~copsamp.sampler.SamplingConfig`'s.
    """

    atom_x: np.ndarray
    counts: np.ndarray
    beta_star: Coefficients
    zeta: np.ndarray
    r: int
    clip_multipliers: tuple[float, ...] = (3.0, 10.0)
    trials: int = 50
    seed: int = 0
    probe_members: int = 10
    score_transform: str = SamplingConfig.score_transform
    beta_floor: float = SamplingConfig.beta_floor

    def __post_init__(self) -> None:
        self.atom_x = np.asarray(self.atom_x, dtype=float)
        self.counts = np.asarray(self.counts, dtype=int)
        self.beta_star = np.asarray(self.beta_star, dtype=float)
        self.zeta = np.asarray(self.zeta, dtype=float)
        if self.atom_x.ndim != 2:
            raise ValueError("atom_x must be (A, d)")
        A = self.atom_x.shape[0]
        if self.counts.shape != (A,) or np.any(self.counts < 1):
            raise ValueError("counts must be positive, one per atom")
        if self.beta_star.shape != (1, self.atom_x.shape[1]):
            raise ValueError("beta_star must be (1, d): binary labels only")
        if self.zeta.shape != (A,) or not np.all(np.isfinite(self.zeta)):
            raise ValueError("zeta must be finite, one offset per atom")
        if self.r < 1 or self.trials < 1:
            raise ValueError("r and trials must be >= 1")
        if self.probe_members < 2:
            raise ValueError(f"probe_members must be >= 2, got {self.probe_members}")
        # the trials' own SamplingConfigs check score_transform and
        # beta_floor, then each clip multiplier, before any trial runs
        self.sampling_config(Method("uniform"))
        self.check_methods(default_methods(self))

    def sampling_config(self, method: Method, seed: int = 0) -> SamplingConfig:
        """The plan settings of ``method``'s trials, drawing with ``seed``."""
        return SamplingConfig(
            subsample_size=self.r,
            seed=seed,
            score_transform=self.score_transform,
            alpha_multiplier=method.clip_multiplier,
            beta_floor=self.beta_floor,
        )

    def check_methods(self, methods: Iterable[Method]) -> None:
        """Raise ``ValueError`` naming the first method whose plan settings are invalid."""
        for method in methods:
            try:
                self.sampling_config(method)
            except ValueError as err:
                raise ValueError(f"method {method.id}: {err}") from err

    @property
    def n_total(self) -> int:
        return int(self.counts.sum())

    def atom_of_row(self) -> np.ndarray:
        return np.repeat(np.arange(self.atom_x.shape[0]), self.counts)


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


def default_methods(spec: SimulationSpec) -> list[Method]:
    """Uniform, vanilla and clipped variants, with and without labels."""
    methods = [Method("uniform"), Method("vanilla", with_labels=True),
               Method("vanilla", with_labels=False)]
    for mult in spec.clip_multipliers:
        methods.append(Method("clip", float(mult), with_labels=True))
        methods.append(Method("clip", float(mult), with_labels=False))
    return methods


def generate_dataset(spec: SimulationSpec, seed: int, corrupted: bool) -> Dataset:
    """Expand atoms to rows and draw Bernoulli labels, optionally corrupted."""
    logits = spec.atom_x @ spec.beta_star[0]
    if corrupted:
        logits = logits + spec.zeta
    p_atom = expit(logits)
    atom_idx = spec.atom_of_row()
    rng = np.random.default_rng(seed)
    y = (rng.random(spec.n_total) < p_atom[atom_idx]).astype(int)
    return Dataset(spec.atom_x[atom_idx], y, K=1)


def regret(
    beta_bar: Coefficients,
    beta_star: Coefficients,
    test: Dataset,
    counts: np.ndarray | None = None,
) -> float:
    """Excess mean test loss of ``beta_bar`` over ``beta_star``.

    ``counts``, when given, is the multiplicity of each row of ``test``,
    so a table of distinct rows stands for the expanded test set.
    """
    if not test.labeled:
        raise ValueError("regret needs labeled test data")
    w = np.ones(test.n) if counts is None else np.asarray(counts, dtype=float)

    def mean_loss(beta: Coefficients) -> float:
        losses = -_log_probability_of_label(np.asarray(beta, float), test.X, test.y)
        return float(w @ losses / w.sum())

    return mean_loss(beta_bar) - mean_loss(beta_star)


def run_trial(
    spec: SimulationSpec,
    method: Method,
    seed: int,
    case: str = "base",
    trial_index: int = 0,
) -> TrialResult:
    """One probe/score/draw/refit/evaluate cycle for one method.

    Dataset seeds depend only on ``seed``, so different methods called
    with the same trial seed see identical probe, sampling and test
    data; only the draw seed is method-specific.
    """
    probe_seed = derive_seed(seed, "probe")
    sampling_seed = derive_seed(seed, "sampling")
    test_seed = derive_seed(seed, "test")
    shard_seed = derive_seed(seed, "shards")
    draw_seed = derive_seed(seed, "draw", method.id)

    probe = generate_dataset(spec, probe_seed, corrupted=True)
    sampling = generate_dataset(spec, sampling_seed, corrupted=True)
    test = generate_dataset(spec, test_seed, corrupted=False)
    config = spec.sampling_config(method, draw_seed)

    # one row per (atom, label) cell: row 2a + y holds atom a with label y
    A = spec.atom_x.shape[0]
    atom_idx = spec.atom_of_row()
    cells = Dataset(np.repeat(spec.atom_x, 2, axis=0), np.tile([0, 1], A), K=1)

    def cell_counts(data: Dataset, rows=slice(None)) -> np.ndarray:
        return np.bincount(atom_idx[rows] * 2 + data.y[rows], minlength=2 * A)

    if method.scheme == "uniform":
        u = np.ones(sampling.n)
    else:
        # each member's fit to its shard's cell counts is the row-level fit
        M = spec.probe_members
        members = np.stack([
            fit_weighted_mle(cells, cell_counts(probe, idx).astype(float)).beta
            for idx in shard_indices(probe.n, M, shard_seed)
        ])
        ensemble = ProbeEnsemble(members, probe_size=probe.n // M)
        # Ensemble scores are put on the exact-trace scale by the per-member
        # training size n', so the absolute reweighting floor keeps the
        # meaning it has for exact scores.
        if method.with_labels:
            u_cell = ensemble_scores(ensemble, cells, "coreset")
            u = (u_cell * ensemble.probe_size)[atom_idx * 2 + sampling.y]
        else:
            u_atom = ensemble_scores(ensemble, Dataset(spec.atom_x, None, K=1), "active")
            u = (u_atom * ensemble.probe_size)[atom_idx]

    # without-label methods only ever read labels of the drawn rows, so the
    # stored labels act as the label oracle of the active pipeline
    beta_bar = subsample_and_refit(sampling, u, config).beta_bar
    reg = regret(beta_bar, spec.beta_star, cells, cell_counts(test))

    errs = np.abs(np.asarray(beta_bar) - spec.beta_star).reshape(-1)
    return TrialResult(
        method_id=method.id,
        case=case,
        trial_index=trial_index,
        param_error_components=tuple(float(e) for e in errs),
        param_error_l2=float(np.linalg.norm(errs)),
        regret=float(reg),
        seed=seed,
    )


_METRICS = ("param_error_l2", "regret")


def aggregate_rows(rows: Iterable[TrialResult]) -> dict[str, dict[str, dict[str, float]]]:
    """mean/median/std of each metric, keyed by "case/method_id"."""
    grouped: dict[str, list[TrialResult]] = {}
    for row in rows:
        grouped.setdefault(f"{row.case}/{row.method_id}", []).append(row)
    out: dict[str, dict[str, dict[str, float]]] = {}
    for key in sorted(grouped):
        group = grouped[key]
        out[key] = {}
        for metric in _METRICS:
            vals = np.array([getattr(row, metric) for row in group])
            out[key][metric] = {
                "mean": float(vals.mean()),
                "median": float(np.median(vals)),
                "std": float(vals.std(ddof=0)),
            }
        comp = np.array([row.param_error_components for row in group])
        for j in range(comp.shape[1]):
            out[key][f"param_error_d{j + 1}"] = {
                "mean": float(comp[:, j].mean()),
                "median": float(np.median(comp[:, j])),
                "std": float(comp[:, j].std(ddof=0)),
            }
        out[key]["trials"] = {"count": float(len(group))}
    return out


def run_experiment(
    spec: SimulationSpec,
    methods: Iterable[Method] | None = None,
    zeta_cases: Mapping[str, np.ndarray] | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Run ``spec.trials`` trials x methods x corruption cases and aggregate.

    Invalid method settings raise ``ValueError`` before any trial runs;
    trial failures are recorded and skipped, never fatal. Per-trial seeds
    hash (``spec.seed``, case, trial index); method order is immaterial.
    Trials are independent given their derived seeds, so ``threads > 1``
    runs them concurrently; results are assembled in deterministic order
    regardless.
    """
    methods = list(methods) if methods is not None else default_methods(spec)
    spec.check_methods(methods)
    if zeta_cases is None:
        zeta_cases = {"base": spec.zeta}

    tasks = []
    for case_label in zeta_cases:
        case_spec = replace(spec, zeta=np.asarray(zeta_cases[case_label], dtype=float))
        for t in range(spec.trials):
            trial_seed = derive_seed(spec.seed, case_label, t)
            for method in methods:
                tasks.append((case_spec, method, trial_seed, case_label, t))

    def work(task):
        case_spec, method, trial_seed, case_label, t = task
        try:
            return run_trial(case_spec, method, trial_seed, case=case_label, trial_index=t)
        except Exception as err:  # noqa: BLE001 - recorded, not fatal
            return {
                "case": case_label,
                "trial_index": t,
                "method_id": method.id,
                "error": f"{type(err).__name__}: {err}",
            }

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(work, tasks))
    else:
        outcomes = [work(task) for task in tasks]

    rows = [o for o in outcomes if isinstance(o, TrialResult)]
    failures = [o for o in outcomes if not isinstance(o, TrialResult)]
    return ExperimentReport(
        trials=spec.trials,
        methods=tuple(m.id for m in methods),
        cases=tuple(zeta_cases),
        seed=spec.seed,
        rows=rows,
        aggregates=aggregate_rows(rows),
        failures=failures,
    )
