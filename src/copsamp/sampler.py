"""Score-proportional subsampling with clipping and weight-floor safeguards.

Scores ``u`` become two distributions over the n source rows:

* the sampling distribution ``pi``, proportional to the (optionally
  square-rooted) scores, with an optional cap at ``alpha`` = multiplier
  times the smallest positive score. Capping guards against oversampling
  a low-density region whose labels may be corrupted.
* the reweighting distribution ``pi_reweight``, proportional to the
  scores floored at ``beta_floor``, never capped. Inverse-probability
  weights ``1 / pi_reweight`` keep the weighted fit approximately
  unbiased while the floor bounds the weights.

The square-root transform is the default because the loss-optimal
sampling distribution is proportional to the square root of the trace
scores; ``identity`` reproduces sampling by the raw scores.

Draws are with replacement (r independent categorical draws), which is
what the 1/r variance analysis of the weighted estimator presumes. A
draw is ``Generator.choice``'s inverse-CDF search, run in place on one
cumulative sum of the probabilities, so a seed picks the rows ``choice``
would pick, bit for bit.

Every plan is a counted plan: ``make_plan(u, config, counts)`` takes one
score and one multiplicity per entry, one each by default, and returns,
per entry, the probability of each one of its source rows. Where many
rows are copies of a few distinct ones, the plan is made over the
distinct rows alone, and the draw reads a column ``rows`` that maps every
source row to its distinct row, so it draws the same source rows as the
expanded plan; the caller sums the drawn weights per distinct row and
refits on the distinct rows (the simulation does this for all of a
trial's methods in one batched fit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from copsamp.model import Coefficients, Dataset, _check_integer
from copsamp.solver import FitReport, fit_weighted_mle
from copsamp.uncertainty import ProbeEnsemble, score_rows

__all__ = [
    "SamplingConfig",
    "SamplingPlan",
    "Subsample",
    "LabelingError",
    "PipelineResult",
    "make_plan",
    "draw_subsample",
    "subsample_objective",
    "subsample_and_refit",
    "plan_scores",
    "cops_coreset",
    "cops_active",
]


class LabelingError(RuntimeError):
    """The label oracle failed on a drawn index; the pipeline aborts."""


@dataclass(frozen=True)
class SamplingConfig:
    """Settings shared by the subsampling pipelines.

    ``alpha_multiplier`` of ``None`` disables the sampling cap;
    otherwise it is finite and ``alpha = alpha_multiplier * min positive
    transformed score``. ``beta_floor`` applies to the transformed scores
    of the reweighting distribution only.
    """

    subsample_size: int
    seed: int = 0
    score_transform: Literal["sqrt", "identity"] = "sqrt"
    alpha_multiplier: float | None = None
    beta_floor: float = 0.1
    estimator: Literal["ensemble", "exact"] = "ensemble"

    def __post_init__(self) -> None:
        _check_integer("subsample_size", self.subsample_size, 1)
        _check_integer("seed", self.seed, 0)
        # written so that NaN fails each comparison and is rejected
        if self.alpha_multiplier is not None and not 1 < self.alpha_multiplier < np.inf:
            raise ValueError(
                f"alpha_multiplier must be finite and exceed 1, got {self.alpha_multiplier}"
            )
        if not 0 <= self.beta_floor < np.inf:
            raise ValueError(f"beta_floor must be finite and >= 0, got {self.beta_floor}")
        if self.score_transform not in ("sqrt", "identity"):
            raise ValueError(f"unknown score_transform {self.score_transform!r}")
        if self.estimator not in ("ensemble", "exact"):
            raise ValueError(f"unknown estimator {self.estimator!r}")


@dataclass
class SamplingPlan:
    """Sampling and reweighting distributions over the n source rows.

    A plan made with counts holds one entry per distinct row: the
    probability of each one of that row's copies.

    ``uniform_fallback`` flags the degenerate all-zero-score case where
    both distributions fall back to uniform. ``max_weight_ratio`` is the
    largest inverse-probability weight of a row that can be drawn
    (``pi > 0``) relative to uniform sampling, a bounded-moments
    diagnostic.
    """

    pi: np.ndarray
    pi_reweight: np.ndarray
    uniform_fallback: bool = False
    max_weight_ratio: float = field(default=1.0)


@dataclass
class Subsample:
    """r drawn row indices (with multiplicity) and their weights ``1/pi_reweight``."""

    indices: np.ndarray
    weights: np.ndarray


def _check_counts(counts, size: int) -> np.ndarray:
    """``counts`` as a float array: integers, nonnegative, one per score, not all zero."""
    counts = np.asarray(counts)
    if counts.shape != (size,) or counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be an integer array with one entry per score, "
                         f"got {counts.dtype} of shape {counts.shape}")
    if np.any(counts < 0) or not np.any(counts > 0):
        raise ValueError("counts must be nonnegative and not all zero")
    return counts.astype(float)


def make_plan(
    u: np.ndarray, config: SamplingConfig, counts: np.ndarray | None = None
) -> SamplingPlan:
    """Turn nonnegative scores into sampling and reweighting distributions.

    ``u[i]`` is the score shared by ``counts[i]`` source rows, one by
    default, and the plan is that of ``np.repeat(u, counts)`` compressed
    to one entry per score: ``pi[i]`` and ``pi_reweight[i]`` are the
    probabilities of each one of those rows, so ``sum(counts * pi) == 1``.
    Only entries with ``counts > 0`` set alpha and the uniform fallback,
    and n is ``counts.sum()``.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("scores must be a nonempty 1-d array")
    if np.any(u < 0) or not np.all(np.isfinite(u)):
        raise ValueError("scores must be finite and nonnegative")
    v = np.sqrt(u) if config.score_transform == "sqrt" else u
    counts = np.ones(v.size) if counts is None else _check_counts(counts, v.size)
    n, present = int(counts.sum()), v[counts > 0]
    if not np.any(present > 0):
        uniform = np.full(v.size, 1.0 / n)
        return SamplingPlan(
            pi=uniform, pi_reweight=uniform.copy(), uniform_fallback=True
        )
    # with every term at most finfo.max / n, neither normalizing sum overflows
    top = max(v.max(), config.beta_floor)
    if top > np.finfo(float).max / n:
        raise ValueError(
            f"scores too large to normalize: a sum over {n} rows of values "
            f"up to {top:.3g} can overflow a double"
        )
    sampling = v
    if config.alpha_multiplier is not None:
        alpha = config.alpha_multiplier * present[present > 0].min()
        sampling = np.minimum(v, alpha)
    # numpy's pairwise sum, as for the weighted loss: a BLAS dot would round
    # differently with the BLAS thread count
    pi = sampling / np.sum(counts * sampling)
    floored = np.maximum(v, config.beta_floor)
    pi_reweight = floored / np.sum(counts * floored)
    # rows with pi = 0 are never drawn, so their weights never occur
    drawn = (pi > 0) & (counts > 0)
    max_weight_ratio = float(1.0 / (n * pi_reweight[drawn].min()))
    return SamplingPlan(
        pi=pi,
        pi_reweight=pi_reweight,
        uniform_fallback=False,
        max_weight_ratio=max_weight_ratio,
    )


def draw_subsample(
    plan: SamplingPlan, r: int, seed: int, rows: np.ndarray | None = None
) -> Subsample:
    """r independent categorical draws from ``plan.pi``, weights from ``pi_reweight``.

    ``rows``, when given, maps each source row to its entry of a plan made
    with counts; the draw then runs over the source rows, so it returns
    the source rows the expanded plan would draw.

    Over its n entries or source rows, the draw is
    ``np.random.default_rng(seed).choice(n, r, p=...)`` bit for bit: the
    same inverse-CDF search on the same uniforms. The distribution is
    checked on the plan's entries and on the running total the search
    builds anyway, not row by row as ``choice`` checks it.
    """
    _check_integer("r", r, 1)
    pi = np.asarray(plan.pi, dtype=float)
    if pi.ndim != 1 or pi.size == 0:
        raise ValueError("sampling distribution must be a nonempty 1-d array")
    if np.any(np.isnan(pi)):
        raise ValueError("sampling distribution contains NaN")
    if np.any(pi < 0):
        raise ValueError("sampling distribution has a negative entry")
    if rows is None:
        cdf = np.cumsum(pi)
    else:
        rows = np.asarray(rows)
        bad = f"rows must be a nonempty 1-d integer column of entries of the {pi.size}-entry plan"
        if rows.ndim != 1 or rows.dtype.kind not in "iu" or rows.size == 0 or rows.min() < 0:
            raise ValueError(bad)
        try:
            cdf = pi[rows]
        except IndexError:
            raise ValueError(bad) from None
        np.cumsum(cdf, out=cdf)
    # Generator.choice's tolerance on the total
    if not abs(cdf[-1] - 1.0) <= np.sqrt(np.finfo(float).eps):
        raise ValueError(f"sampling distribution sums to {cdf[-1]!r}, not 1")
    cdf /= cdf[-1]
    indices = cdf.searchsorted(np.random.default_rng(seed).random(r), side="right")
    entries = indices if rows is None else rows[indices]
    return Subsample(indices=indices, weights=1.0 / plan.pi_reweight[entries])


def subsample_objective(u: np.ndarray, pi: np.ndarray) -> float:
    """``sum_i u_i**2 / pi_i``, the variance proxy the optimal plan minimizes.

    Minimized over distributions at ``pi`` proportional to ``u`` (by the
    Cauchy-Schwarz inequality), where it equals ``(sum_i u_i)**2``.
    """
    u = np.asarray(u, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if u.shape != pi.shape:
        raise ValueError("u and pi must have the same length")
    active = u > 0
    if np.any(pi[active] <= 0):
        raise ValueError("pi must be positive wherever u is positive")
    return float(np.sum(u[active] ** 2 / pi[active]))


@dataclass
class PipelineResult:
    """Output of one subsampling-and-refit run."""

    subsample: Subsample
    beta_bar: Coefficients
    fit: FitReport
    scores: np.ndarray
    plan: SamplingPlan
    labels_queried: int | None = None


def _ask(label_oracle: Callable[[int], int], idx: int, K: int) -> int:
    """The oracle's label of row ``idx``, refused unless an int or numpy integer in ``[0, K]``."""
    try:
        label = label_oracle(idx)
    except Exception as err:
        raise LabelingError(f"label oracle failed on index {idx}") from err
    try:
        _check_integer("label", label, 0)
    except ValueError as err:
        raise LabelingError(f"label oracle answered {label!r} for index {idx}") from err
    if label > K:
        raise LabelingError(f"label oracle answered {label!r} for index {idx}, above K = {K}")
    return label


def subsample_and_refit(
    data: Dataset,
    u: np.ndarray,
    config: SamplingConfig,
    label_oracle: Callable[[int], int] | None = None,
) -> PipelineResult:
    """Plan from scores ``u``, draw r rows, label them, refit with 1/pi_reweight weights.

    Labels come from ``data.y`` unless ``label_oracle`` is given. The
    oracle is asked once per distinct drawn row and must answer an int
    label in ``[0, K]``, or the pipeline aborts with a
    :class:`LabelingError` naming the row; ``labels_queried`` records how
    many rows it labeled.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (data.n,):
        raise ValueError(f"scores have shape {u.shape}, expected one per row of data: ({data.n},)")
    if label_oracle is None and not data.labeled:
        raise ValueError("unlabeled data needs a label oracle")
    plan = make_plan(u, config)
    sub = draw_subsample(plan, config.subsample_size, config.seed)
    distinct, inverse = np.unique(sub.indices, return_inverse=True)
    if label_oracle is None:
        labels, labels_queried = data.y[distinct], None
    else:
        labels = np.array([_ask(label_oracle, i, data.K) for i in distinct.tolist()], dtype=int)
        labels_queried = distinct.size
    report = fit_weighted_mle(Dataset(data.X[sub.indices], labels[inverse], data.K), sub.weights)
    return PipelineResult(
        subsample=sub,
        beta_bar=report.beta,
        fit=report,
        scores=u,
        plan=plan,
        labels_queried=labels_queried,
    )


def plan_scores(
    ensemble: ProbeEnsemble, data: Dataset, kind: str, estimator: str
) -> np.ndarray:
    """:func:`score_rows` on the exact-trace scale, where ``beta_floor`` is set.

    Ensemble scores are multiplied by the per-member training size n'.
    """
    u = score_rows(ensemble, data, kind, estimator)
    return u * ensemble.probe_size if estimator == "ensemble" else u


def cops_coreset(
    data: Dataset,
    ensemble: ProbeEnsemble,
    config: SamplingConfig,
) -> PipelineResult:
    """Score labeled data, draw r rows, and refit with 1/pi_reweight weights."""
    if not data.labeled:
        raise ValueError("coreset selection needs labels")
    u = plan_scores(ensemble, data, "coreset", config.estimator)
    return subsample_and_refit(data, u, config)


def cops_active(
    data_x: Dataset,
    label_oracle: Callable[[int], int],
    ensemble: ProbeEnsemble,
    config: SamplingConfig,
) -> PipelineResult:
    """Score by features alone, draw, then query labels for drawn rows only."""
    u = plan_scores(ensemble, data_x, "active", config.estimator)
    return subsample_and_refit(data_x, u, config, label_oracle)
