"""Multifidelity Monte Carlo estimation of a scalar model output.

Given pilot statistics for a family of models (correlation with the
high-fidelity model, cost per sample, output standard deviation), this module

* orders models by decreasing squared correlation,
* tests which subsets admit a variance reduction over plain Monte Carlo,
* allocates an evaluation budget across the chosen subset with one rule that
  picks its own regime: the optimal allocation, or, below the smallest budget
  that supports it, a staircase of pinned leading levels,
* combines model outputs into the control-variate estimate, and
* provides the matching theoretical and empirical mean-squared errors.

Subsets are written as tuples of model ids and always include the
high-fidelity model.  Within a subset, models are indexed ``j = 1..m`` in
correlation order with ``j = 1`` the high-fidelity model; the squared
correlation of a virtual ``(m+1)``-th model is 0 by convention.  Each call
orders a subset once and derives its feasibility, optimal sample ratios,
variance ratio and minimum budget from that one ordering, so scoring every
subset of a family orders each subset exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from .errors import (
    ConfigError,
    DegenerateStatisticsError,
    InfeasibleSubsetError,
    InsufficientBudgetError,
    as_float,
    as_int,
)

__all__ = [
    "ModelStats",
    "SubsetCandidate",
    "AllocationPlan",
    "EstimationResult",
    "pilot_statistics",
    "order_subset",
    "is_feasible",
    "variance_reduction_ratio",
    "minimum_budget",
    "enumerate_feasible_subsets",
    "resolve_case",
    "sample_ratios",
    "allocate",
    "estimator_variance",
    "theoretical_mse",
    "mfmc_estimate",
    "mc_estimate",
    "empirical_mse",
]

#: Additive nudge applied before flooring real-valued sample counts, so that
#: counts that are integers up to roundoff are not truncated by one.
_FLOOR_NUDGE = 1e-9


@dataclass(frozen=True, eq=False)
class ModelStats:
    """Per-model pilot statistics.

    Attributes
    ----------
    ids:
        Unique positive model identifiers, one per row.
    rho:
        Pearson correlation of each model's output with the high-fidelity
        output.  Exactly one entry must equal 1.0; that row is the
        high-fidelity model.
    cost:
        Wall-clock seconds per evaluation (positive).
    sigma:
        Sample standard deviation of each model's output (positive).
    h, delta:
        Optional per-model discretization metadata carried to artifacts.
    """

    ids: tuple[int, ...]
    rho: np.ndarray
    cost: np.ndarray
    sigma: np.ndarray
    h: np.ndarray | None = None
    delta: np.ndarray | None = None

    def __post_init__(self) -> None:
        ids = tuple(as_int(i, "model id", low=1) for i in self.ids)
        rho = np.array(self.rho, dtype=float)
        cost = np.array(self.cost, dtype=float)
        sigma = np.array(self.sigma, dtype=float)
        k = len(ids)
        if k < 1:
            raise ConfigError("ModelStats needs at least one model")
        if len(set(ids)) != k:
            raise ConfigError(f"model ids must be unique, got {ids}")
        for name, arr in (("rho", rho), ("cost", cost), ("sigma", sigma)):
            if arr.shape != (k,):
                raise ConfigError(f"{name} must have shape ({k},), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"{name} must be finite, got {arr}")
        if np.any(np.abs(rho) > 1.0 + 1e-12):
            raise ConfigError(f"correlations must lie in [-1, 1], got {rho}")
        hf_rows = np.flatnonzero(rho == 1.0)
        if hf_rows.size != 1:
            raise ConfigError(
                "exactly one model must have correlation 1.0 (the high-fidelity "
                f"model); found {hf_rows.size}"
            )
        if np.any(cost <= 0.0):
            raise ConfigError(f"costs must be positive, got {cost}")
        if np.any(sigma <= 0.0):
            raise ConfigError(f"standard deviations must be positive, got {sigma}")
        for name in ("h", "delta"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.array(arr, dtype=float)
                if arr.shape != (k,):
                    raise ConfigError(f"{name} must have shape ({k},), got {arr.shape}")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        for name, arr in (("rho", rho), ("cost", cost), ("sigma", sigma)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_hf_position", int(hf_rows[0]))

    @property
    def hf_position(self) -> int:
        """Row index of the high-fidelity model."""
        return self._hf_position  # type: ignore[attr-defined]

    @property
    def hf_id(self) -> int:
        return self.ids[self.hf_position]

    @property
    def c1(self) -> float:
        """Cost per high-fidelity evaluation."""
        return float(self.cost[self.hf_position])

    @property
    def sigma1(self) -> float:
        """High-fidelity output standard deviation."""
        return float(self.sigma[self.hf_position])

    def index(self, model_id: int) -> int:
        try:
            return self.ids.index(model_id)
        except ValueError:
            raise ConfigError(f"unknown model id {model_id}; have {self.ids}") from None


@dataclass(frozen=True)
class SubsetCandidate:
    """A feasible model subset with its figures of merit.

    Attributes
    ----------
    model_ids:
        Subset in estimator order (high-fidelity model first).
    v_ratio:
        Estimator variance relative to a Monte Carlo estimator of the same
        budget; below 1 means the subset pays off.
    b_min:
        Smallest budget (seconds) for which the optimal real-valued
        allocation gives every model at least one sample.
    """

    model_ids: tuple[int, ...]
    v_ratio: float
    b_min: float


@dataclass(frozen=True, eq=False)
class AllocationPlan:
    """Sample allocation of a budget over an ordered model subset.

    ``samples[j]`` is the evaluation count of ``model_ids[j]`` (non-decreasing
    along the subset), ``alpha[j-1]`` the control-variate weight of model
    ``j >= 2``, and ``ratios`` the real-valued per-model sample ratios the
    counts were floored from.
    """

    model_ids: tuple[int, ...] = field(metadata={"json_key": "subset"})
    alpha: np.ndarray
    ratios: np.ndarray
    samples: npt.NDArray[np.int64]
    budget: float = field(metadata={"json_key": "budget_seconds"})
    predicted_cost: float = field(metadata={"json_key": "predicted_cost_seconds"})
    below_minimum: bool

    def __post_init__(self) -> None:
        m = len(self.model_ids)
        alpha = np.array(self.alpha, dtype=float)
        ratios = np.array(self.ratios, dtype=float)
        samples = np.array(self.samples, dtype=object)
        if alpha.shape != (max(m - 1, 0),):
            raise ConfigError(f"alpha must have shape ({m - 1},), got {alpha.shape}")
        if ratios.shape != (m,) or samples.shape != (m,):
            raise ConfigError("ratios and samples must have one entry per model")
        samples = np.array([as_int(n, "sample count") for n in samples], dtype=np.int64)
        if samples[0] < 1:
            raise ConfigError(f"the high-fidelity model needs >= 1 sample, got {samples[0]}")
        if np.any(np.diff(samples) < 0):
            raise ConfigError(f"sample counts must be non-decreasing, got {samples}")
        if self.predicted_cost > self.budget * (1.0 + 1e-9) + 1e-9:
            raise ConfigError(
                f"allocation cost {self.predicted_cost} exceeds budget {self.budget}"
            )
        for arr in (alpha, ratios, samples):
            arr.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True, eq=False)
class EstimationResult:
    """One estimator evaluation: the estimate and its per-level terms."""

    value: float
    plan: AllocationPlan
    level_terms: np.ndarray
    realized_cost: float | None = field(
        default=None, metadata={"json_key": "realized_cost_seconds"}
    )


def pilot_statistics(
    ids: Sequence[int],
    values: np.ndarray,
    seconds: np.ndarray,
    hf_id: int = 1,
    h: Sequence[float] | None = None,
    delta: Sequence[float] | None = None,
) -> ModelStats:
    """Compute pilot statistics from a shared-sample evaluation matrix.

    Parameters
    ----------
    ids:
        Model identifiers, one per row of ``values``.
    values:
        Shape ``(n_models, n_samples)``; all models evaluated at the same
        random inputs.
    seconds:
        Per-evaluation wall-clock seconds, shape ``(n_models, n_samples)``.
    hf_id:
        Which id is the high-fidelity model (correlation anchor).

    Raises
    ------
    DegenerateStatisticsError
        If fewer than two samples were taken or some model output is constant
        across the pilot samples.
    """
    values = np.asarray(values, dtype=float)
    ids = tuple(as_int(i, "model id", low=1) for i in ids)
    if values.ndim != 2 or values.shape[0] != len(ids):
        raise ConfigError(
            f"values must have shape (n_models={len(ids)}, n_samples), got {values.shape}"
        )
    n = values.shape[1]
    if n < 2:
        raise DegenerateStatisticsError(
            f"pilot statistics need at least 2 samples, got {n}"
        )
    seconds = np.asarray(seconds, dtype=float)
    if seconds.shape != values.shape:
        raise ConfigError(f"seconds must have shape {values.shape}, got {seconds.shape}")
    cost = seconds.mean(axis=1)
    sigma = values.std(axis=1, ddof=1)
    if np.any(sigma == 0.0):
        flat = [ids[k] for k in np.flatnonzero(sigma == 0.0)]
        raise DegenerateStatisticsError(
            f"model output is constant across pilot samples for ids {flat}"
        )
    if as_int(hf_id, "hf_id") not in ids:
        raise ConfigError(f"high-fidelity id {hf_id} not among {ids}")
    hf_row = ids.index(hf_id)
    centered = values - values.mean(axis=1, keepdims=True)
    cov_hf = centered @ centered[hf_row] / (n - 1)
    rho = cov_hf / (sigma * sigma[hf_row])
    rho = np.clip(rho, -1.0, 1.0)
    rho[hf_row] = 1.0
    if np.any(np.delete(rho, hf_row) == 1.0):
        raise DegenerateStatisticsError(
            "a surrogate is perfectly correlated with the high-fidelity model"
        )
    return ModelStats(
        ids=ids,
        rho=rho,
        cost=cost,
        sigma=sigma,
        h=None if h is None else np.asarray(h, dtype=float),
        delta=None if delta is None else np.asarray(delta, dtype=float),
    )


def _order_key(stats: ModelStats, position: int):
    return (
        position != stats.hf_position,
        -float(stats.rho[position]) ** 2,
        float(stats.cost[position]),
        stats.ids[position],
    )


def order_subset(stats: ModelStats, model_ids: Sequence[int]) -> tuple[int, ...]:
    """A subset of model ids in estimator order: high-fidelity first, then by
    decreasing squared correlation (ties: cheaper first, then lower id).

    The subset must contain the high-fidelity model and no duplicates.
    """
    ids = tuple(as_int(i, "model id", low=1) for i in model_ids)
    if len(set(ids)) != len(ids):
        raise ConfigError(f"subset has duplicate ids: {ids}")
    positions = [stats.index(i) for i in ids]
    if stats.hf_position not in positions:
        raise ConfigError(
            f"subset {ids} does not contain the high-fidelity model "
            f"(id {stats.hf_id})"
        )
    positions.sort(key=lambda p: _order_key(stats, p))
    return tuple(stats.ids[p] for p in positions)


def _tail_ratios(rho2: np.ndarray, cost: np.ndarray, j: int) -> np.ndarray:
    """Optimal sample ratios of levels ``j..m-1`` (0-based) to level ``j``."""
    tail = np.arange(j, len(cost))
    gap_ref = rho2[j] - rho2[j + 1]
    r = np.sqrt(cost[j] * (rho2[tail] - rho2[tail + 1]) / (cost[tail] * gap_ref))
    r[0] = 1.0
    return r


class _Subset(NamedTuple):
    """A subset's per-level data in estimator order.

    ``rho2`` holds the squared correlations with the virtual trailing 0, and
    ``r`` the optimal sample ratios, or ``None`` if the subset is infeasible.
    """

    ids: tuple[int, ...]
    rho: np.ndarray
    cost: np.ndarray
    sigma: np.ndarray
    rho2: np.ndarray
    r: np.ndarray | None

    @property
    def ratios(self) -> np.ndarray:
        """The optimal sample ratios of a feasible subset."""
        if self.r is None:
            raise InfeasibleSubsetError(
                f"model subset {self.ids} violates the estimator ordering conditions"
            )
        return self.r


def _derive(stats: ModelStats, model_ids: Sequence[int]) -> _Subset:
    """Order a subset once and derive its per-level arrays and, if it is
    feasible (:func:`is_feasible`), its optimal sample ratios."""
    ordered = order_subset(stats, model_ids)
    positions = [stats.index(i) for i in ordered]
    rho, cost = stats.rho[positions], stats.cost[positions]
    rho2 = np.concatenate([rho**2, [0.0]])
    gaps = rho2[:-1] - rho2[1:]
    # condition 1, then condition 2 (whose divisions need condition 1)
    feasible = np.all(gaps > 0.0) and np.all(cost[:-1] / cost[1:] > gaps[:-1] / gaps[1:])
    r = _tail_ratios(rho2, cost, 0) if feasible else None
    return _Subset(ordered, rho, cost, stats.sigma[positions], rho2, r)


def _candidate(subset: _Subset) -> SubsetCandidate:
    """A feasible subset with its figures of merit (raises if infeasible)."""
    r = subset.ratios
    cost, rho2 = subset.cost, subset.rho2
    root_sum = np.sqrt(cost / cost[0] * (rho2[:-1] - rho2[1:])).sum()
    return SubsetCandidate(
        model_ids=subset.ids, v_ratio=float(root_sum**2), b_min=float(np.dot(cost, r))
    )


def is_feasible(stats: ModelStats, model_ids: Sequence[int]) -> bool:
    """Whether the subset satisfies both estimator ordering conditions.

    Condition 1: squared correlations strictly decrease along the subset, down
    to the virtual trailing 0.  Condition 2: each cost ratio exceeds the
    matching ratio of squared correlation gaps, so the optimal sample counts
    strictly increase.
    """
    return _derive(stats, model_ids).r is not None


def variance_reduction_ratio(stats: ModelStats, model_ids: Sequence[int]) -> float:
    """Estimator variance relative to same-budget Monte Carlo (feasible subsets)."""
    return _candidate(_derive(stats, model_ids)).v_ratio


def sample_ratios(stats: ModelStats, model_ids: Sequence[int]) -> np.ndarray:
    """Optimal per-model sample ratios ``r_j = m_j / m_1`` (feasible subsets)."""
    return _derive(stats, model_ids).ratios


def minimum_budget(stats: ModelStats, model_ids: Sequence[int]) -> float:
    """Smallest budget (seconds) with >= 1 high-fidelity sample under the
    optimal allocation; equals ``c1 * sqrt(V / (1 - rho_2^2))``."""
    return _candidate(_derive(stats, model_ids)).b_min


def enumerate_feasible_subsets(stats: ModelStats) -> list[SubsetCandidate]:
    """All feasible subsets of two or more models, sorted by variance ratio.

    Every candidate contains the high-fidelity model plus a non-empty set of
    surrogates.  The returned order is ascending variance ratio with ties
    broken by minimum budget and then by the id tuple.
    """
    surrogates = [i for i in stats.ids if i != stats.hf_id]
    found: list[SubsetCandidate] = []
    for size in range(1, len(surrogates) + 1):
        for combo in combinations(surrogates, size):
            subset = _derive(stats, (stats.hf_id, *combo))
            if subset.r is not None:
                found.append(_candidate(subset))
    found.sort(key=lambda c: (c.v_ratio, c.b_min, c.model_ids))
    return found


def resolve_case(stats: ModelStats, case: str) -> SubsetCandidate:
    """Pick a subset by selection rule.

    Rules: ``"min-V"`` (smallest variance ratio), ``"min-budget"`` (smallest
    minimum budget), ``"rank:K"`` (K-th smallest variance ratio, 1-based),
    ``"ids:1+3+9"`` (explicit subset, must be feasible).
    """
    case = case.strip()
    if case.startswith("ids:"):
        try:
            ids = tuple(int(tok) for tok in case[4:].split("+"))
        except ValueError:
            raise ConfigError(f"cannot parse subset selector {case!r}") from None
        return _candidate(_derive(stats, ids))
    candidates = enumerate_feasible_subsets(stats)
    if not candidates:
        raise InfeasibleSubsetError("no feasible model subset exists")
    if case == "min-V":
        return candidates[0]
    if case == "min-budget":
        return min(candidates, key=lambda c: (c.b_min, c.v_ratio, c.model_ids))
    if case.startswith("rank:"):
        try:
            rank = int(case[5:])
        except ValueError:
            raise ConfigError(f"cannot parse rank in {case!r}") from None
        if not 1 <= rank <= len(candidates):
            raise ConfigError(
                f"rank {rank} out of range; {len(candidates)} feasible subsets"
            )
        return candidates[rank - 1]
    raise ConfigError(
        f"unknown case {case!r}; expected 'min-V', 'min-budget', 'rank:K', or 'ids:...'"
    )


def allocate(stats: ModelStats, model_ids: Sequence[int], budget: float) -> AllocationPlan:
    """Integer allocation of ``budget`` seconds over a feasible subset.

    With ``r`` the optimal sample ratios and ``b_min = dot(cost, r)`` the
    subset's minimum budget (:func:`minimum_budget`), a budget of at least
    ``b_min`` gets the floored optimal counts ``floor(budget / b_min * r)``.

    A budget below ``b_min`` gives a subset of two or more models a
    ``below_minimum`` plan.  Walking up the interior levels of the same
    real-valued counts, each level ``j`` (1-based) whose count falls below
    ``j`` pins levels ``1..j`` to counts ``1..j``, and the remaining budget is
    re-optimized over the tail with level ``j+1`` as its reference.  The
    plan's ratios are its real-valued counts over the first.  The budget must
    cover the fully pinned staircase ``sum_j j * cost_j``.

    A one-model subset is plain Monte Carlo: its minimum budget is ``c1``, it
    has no staircase, and it buys ``floor(budget / c1)`` samples, at least one.
    A non-finite budget, or one whose counts overflow an int64, is a
    :class:`ConfigError`.
    """
    budget = as_float(budget, "budget")
    subset = _derive(stats, model_ids)
    ordered, rho, cost, sigma, rho2, _ = subset
    r, b_min = subset.ratios, _candidate(subset).b_min
    counts = budget / b_min * r
    m = len(ordered)
    below_minimum = m > 1 and budget < b_min
    if below_minimum:
        staircase = float(np.dot(np.arange(1, m + 1), cost))
        if budget < staircase * (1.0 - 1e-12):
            raise InsufficientBudgetError(
                f"budget {budget:.6g} s cannot cover even one sample of the "
                f"high-fidelity model plus the nested staircase of subset {ordered} "
                f"(needs {staircase:.6g} s)"
            )
        for j in range(1, m):
            if counts[j - 1] < j:
                counts[:j] = np.arange(1, j + 1)
                r_tail = _tail_ratios(rho2, cost, j)
                remaining = budget - float(np.dot(np.arange(1, j + 1), cost[:j]))
                counts[j:] = remaining / float(np.dot(cost[j:], r_tail)) * r_tail
        ratios = counts / counts[0]
    elif counts[0] < 1.0 - _FLOOR_NUDGE:
        raise InsufficientBudgetError(
            f"budget {budget:.6g} s buys no high-fidelity sample (cost {b_min:.6g} s)"
        )
    else:
        ratios = r
    floored = np.floor(counts + _FLOOR_NUDGE)
    if not np.all(floored < 2.0**63):
        raise ConfigError(
            f"budget {budget:.6g} s asks for {floored.max():.6g} samples, more than "
            "an int64 count holds"
        )
    samples = floored.astype(np.int64)
    return AllocationPlan(
        model_ids=ordered,
        alpha=rho[1:] * sigma[0] / sigma[1:],
        ratios=ratios,
        samples=samples,
        budget=budget,
        predicted_cost=float(np.dot(cost, samples)),
        below_minimum=below_minimum,
    )


def estimator_variance(stats: ModelStats, plan: AllocationPlan) -> float:
    """Exact variance of the estimator under the given integer allocation."""
    subset = _derive(stats, plan.model_ids)
    rho, sigma = subset.rho, subset.sigma
    m = plan.samples.astype(float)
    var = sigma[0] ** 2 / m[0]
    for j in range(1, len(m)):
        weight = 1.0 / m[j - 1] - 1.0 / m[j]
        a = plan.alpha[j - 1]
        var += weight * (a**2 * sigma[j] ** 2 - 2.0 * a * rho[j] * sigma[0] * sigma[j])
    return float(var)


def theoretical_mse(stats: ModelStats, model_ids: Sequence[int], budget: float) -> float:
    """Mean-squared error of the estimator at its optimal real-valued
    allocation: ``sigma1^2 * V * c1 / budget``."""
    budget = as_float(budget, "budget", positive=True)
    v = variance_reduction_ratio(stats, model_ids)
    return stats.sigma1**2 * v * stats.c1 / budget


def mfmc_estimate(
    plan: AllocationPlan, values: Mapping[int, np.ndarray]
) -> EstimationResult:
    """Combine per-model evaluations into the control-variate estimate.

    ``values[model_id]`` must hold at least ``samples[j]`` outputs evaluated at
    the shared nested input stream; entry ``n`` of every model corresponds to
    the same random input.
    """
    terms = np.empty(len(plan.model_ids))
    for j, model_id in enumerate(plan.model_ids):
        if model_id not in values:
            raise ConfigError(f"missing evaluations for model {model_id}")
        vals = np.asarray(values[model_id], dtype=float)
        need = plan.samples[j]
        if vals.ndim != 1 or vals.size < need:
            raise ConfigError(
                f"model {model_id} needs {need} evaluations, got {vals.shape}"
            )
        if j == 0:
            terms[0] = vals[:need].mean()
        else:
            prev = plan.samples[j - 1]
            terms[j] = plan.alpha[j - 1] * (vals[:need].mean() - vals[:prev].mean())
    return EstimationResult(value=float(terms.sum()), plan=plan, level_terms=terms)


def mc_estimate(values: np.ndarray) -> float:
    """Plain Monte Carlo estimate: the sample mean."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 1:
        raise ConfigError(f"need a non-empty 1-D value array, got shape {values.shape}")
    return float(values.mean())


def empirical_mse(estimates: Sequence[float], reference: float) -> float:
    """Mean squared deviation of replicate estimates from a reference value."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.ndim != 1 or estimates.size < 2:
        raise ConfigError(
            f"empirical MSE needs at least 2 replicate estimates, got {estimates.shape}"
        )
    return float(np.mean((estimates - reference) ** 2))
