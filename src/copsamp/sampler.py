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
what the 1/r variance analysis of the weighted estimator presumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

from copsamp.model import Coefficients, Dataset
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


def _check_integer(name: str, value, minimum: int | None = None) -> None:
    """Refuse ``value`` unless it is an int or a numpy integer, not a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


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
        _check_integer("seed", self.seed)
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


def make_plan(u: np.ndarray, config: SamplingConfig) -> SamplingPlan:
    """Turn nonnegative scores into sampling and reweighting distributions."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("scores must be a nonempty 1-d array")
    if np.any(u < 0) or not np.all(np.isfinite(u)):
        raise ValueError("scores must be finite and nonnegative")
    v = np.sqrt(u) if config.score_transform == "sqrt" else u
    n = v.size
    if not np.any(v > 0):
        uniform = np.full(n, 1.0 / n)
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
        alpha = config.alpha_multiplier * v[v > 0].min()
        sampling = np.minimum(v, alpha)
    pi = sampling / sampling.sum()
    floored = np.maximum(v, config.beta_floor)
    pi_reweight = floored / floored.sum()
    # rows with pi = 0 are never drawn, so their weights never occur
    max_weight_ratio = float(1.0 / (n * pi_reweight[pi > 0].min()))
    return SamplingPlan(
        pi=pi,
        pi_reweight=pi_reweight,
        uniform_fallback=False,
        max_weight_ratio=max_weight_ratio,
    )


def draw_subsample(plan: SamplingPlan, data_len: int, r: int, seed: int) -> Subsample:
    """r independent categorical draws from ``plan.pi``, weights from ``pi_reweight``."""
    if plan.pi.shape != (data_len,):
        raise ValueError(f"plan covers {plan.pi.shape[0]} rows, data has {data_len}")
    if np.any(np.isnan(plan.pi)):
        raise ValueError("sampling distribution contains NaN")
    if r < 1:
        raise ValueError("r must be >= 1")
    rng = np.random.default_rng(seed)
    indices = rng.choice(data_len, size=r, replace=True, p=plan.pi)
    return Subsample(indices=indices, weights=1.0 / plan.pi_reweight[indices])


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


def subsample_and_refit(
    data: Dataset,
    u: np.ndarray,
    config: SamplingConfig,
    label_oracle: Callable[[int], int] | None = None,
) -> PipelineResult:
    """Plan from scores ``u``, draw r rows, label them, refit with 1/pi_reweight weights.

    Labels come from ``data.y`` unless ``label_oracle`` is given; the
    oracle is asked once per distinct drawn row and ``labels_queried``
    records how many rows it labeled.
    """
    u = np.asarray(u, dtype=float)
    plan = make_plan(u, config)
    sub = draw_subsample(plan, data.n, config.subsample_size, config.seed)
    labels_queried = None
    if label_oracle is None:
        if not data.labeled:
            raise ValueError("unlabeled data needs a label oracle")
        y = data.y[sub.indices]
    else:
        distinct = np.unique(sub.indices)
        labels: dict[int, int] = {}
        for idx in distinct:
            try:
                labels[int(idx)] = int(label_oracle(int(idx)))
            except Exception as err:
                raise LabelingError(f"label oracle failed on index {idx}") from err
        y = np.array([labels[int(i)] for i in sub.indices], dtype=int)
        labels_queried = len(distinct)
    report = fit_weighted_mle(Dataset(data.X[sub.indices], y, data.K), sub.weights)
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
