"""Multifidelity Monte Carlo estimation of a scalar model output.

Given pilot statistics for a family of models (correlation with the
high-fidelity model, cost per sample, output standard deviation), this module

* orders models by decreasing squared correlation,
* tests which subsets admit a variance reduction over plain Monte Carlo,
* allocates an evaluation budget across the chosen subset, also when the
  budget is below the smallest budget that supports the optimal allocation,
* combines model outputs into the control-variate estimate, and
* provides the matching theoretical and empirical mean-squared errors.

Subsets are written as tuples of model ids and always include the
high-fidelity model.  Within a subset, models are indexed ``j = 1..m`` in
correlation order with ``j = 1`` the high-fidelity model; the squared
correlation of a virtual ``(m+1)``-th model is 0 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np
import numpy.typing as npt

from .errors import (
    ConfigError,
    DegenerateStatisticsError,
    InfeasibleSubsetError,
    InsufficientBudgetError,
)

__all__ = [
    "ModelStats",
    "SubsetCandidate",
    "AllocationPlan",
    "EstimationResult",
    "pilot_statistics",
    "order_models",
    "order_subset",
    "is_feasible",
    "variance_reduction_ratio",
    "minimum_budget",
    "enumerate_feasible_subsets",
    "resolve_case",
    "sample_ratios",
    "allocate",
    "allocate_below_minimum",
    "estimator_variance",
    "theoretical_mse",
    "mfmc_estimate",
    "mc_estimate",
    "empirical_mse",
]

#: Additive nudge applied before flooring real-valued sample counts, so that
#: counts that are integers up to roundoff are not truncated by one.
_FLOOR_NUDGE = 1e-9


def _floor_counts(values: np.ndarray) -> np.ndarray:
    return np.floor(np.asarray(values) + _FLOOR_NUDGE).astype(np.int64)


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
        ids = tuple(int(i) for i in self.ids)
        rho = np.array(self.rho, dtype=float)
        cost = np.array(self.cost, dtype=float)
        sigma = np.array(self.sigma, dtype=float)
        k = len(ids)
        if k < 1:
            raise ConfigError("ModelStats needs at least one model")
        if len(set(ids)) != k:
            raise ConfigError(f"model ids must be unique, got {ids}")
        if any(i < 1 for i in ids):
            raise ConfigError(f"model ids must be positive, got {ids}")
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
        samples = np.array(self.samples, dtype=np.int64)
        if alpha.shape != (max(m - 1, 0),):
            raise ConfigError(f"alpha must have shape ({m - 1},), got {alpha.shape}")
        if ratios.shape != (m,) or samples.shape != (m,):
            raise ConfigError("ratios and samples must have one entry per model")
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
        Per-evaluation wall-clock seconds, shape ``(n_models, n_samples)`` or
        ``(n_models,)`` (already averaged).
    hf_id:
        Which id is the high-fidelity model (correlation anchor).

    Raises
    ------
    DegenerateStatisticsError
        If fewer than two samples were taken or some model output is constant
        across the pilot samples.
    """
    values = np.asarray(values, dtype=float)
    ids = tuple(int(i) for i in ids)
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
    if seconds.shape == values.shape:
        cost = seconds.mean(axis=1)
    elif seconds.shape == (len(ids),):
        cost = seconds.copy()
    else:
        raise ConfigError(
            f"seconds must have shape {values.shape} or ({len(ids)},), got {seconds.shape}"
        )
    sigma = values.std(axis=1, ddof=1)
    if np.any(sigma == 0.0):
        flat = [ids[k] for k in np.flatnonzero(sigma == 0.0)]
        raise DegenerateStatisticsError(
            f"model output is constant across pilot samples for ids {flat}"
        )
    hf_row = ids.index(hf_id) if hf_id in ids else None
    if hf_row is None:
        raise ConfigError(f"high-fidelity id {hf_id} not among {ids}")
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


def order_models(stats: ModelStats) -> tuple[int, ...]:
    """All model ids in estimator order: high-fidelity first, then by
    decreasing squared correlation (ties: cheaper first, then lower id)."""
    positions = sorted(range(len(stats.ids)), key=lambda p: _order_key(stats, p))
    return tuple(stats.ids[p] for p in positions)


def order_subset(stats: ModelStats, model_ids: Sequence[int]) -> tuple[int, ...]:
    """A subset of model ids in estimator order.

    The subset must contain the high-fidelity model and no duplicates.
    """
    ids = tuple(int(i) for i in model_ids)
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


def _subset_arrays(
    stats: ModelStats, model_ids: Sequence[int]
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    ordered = order_subset(stats, model_ids)
    positions = [stats.index(i) for i in ordered]
    rho = stats.rho[positions]
    cost = stats.cost[positions]
    sigma = stats.sigma[positions]
    return ordered, rho, cost, sigma


def _rho2_extended(rho: np.ndarray) -> np.ndarray:
    """Squared correlations with the virtual trailing 0 appended."""
    return np.concatenate([rho**2, [0.0]])


def is_feasible(stats: ModelStats, model_ids: Sequence[int]) -> bool:
    """Whether the subset satisfies both estimator ordering conditions.

    Condition 1: squared correlations strictly decrease along the subset.
    Condition 2: each cost ratio exceeds the matching ratio of squared
    correlation gaps, so the optimal sample counts strictly increase.
    """
    _, rho, cost, _ = _subset_arrays(stats, model_ids)
    rho2 = _rho2_extended(rho)
    if np.any(np.diff(rho2[:-1]) >= 0.0):
        return False
    m = len(cost)
    for j in range(1, m):
        gap_prev = rho2[j - 1] - rho2[j]
        gap_next = rho2[j] - rho2[j + 1]
        if gap_next <= 0.0:
            return False
        if cost[j - 1] / cost[j] <= gap_prev / gap_next:
            return False
    return True


def _require_feasible(stats: ModelStats, model_ids: Sequence[int]) -> None:
    if not is_feasible(stats, model_ids):
        raise InfeasibleSubsetError(
            f"model subset {tuple(model_ids)} violates the estimator ordering "
            "conditions"
        )


def variance_reduction_ratio(stats: ModelStats, model_ids: Sequence[int]) -> float:
    """Estimator variance relative to same-budget Monte Carlo (feasible subsets)."""
    _require_feasible(stats, model_ids)
    _, rho, cost, _ = _subset_arrays(stats, model_ids)
    rho2 = _rho2_extended(rho)
    c1 = cost[0]
    root_sum = np.sqrt(cost / c1 * (rho2[:-1] - rho2[1:])).sum()
    return float(root_sum**2)


def _tail_ratios(rho2: np.ndarray, cost: np.ndarray, j: int) -> np.ndarray:
    """Optimal sample ratios of levels ``j..m-1`` (0-based) to level ``j``."""
    tail = np.arange(j, len(cost))
    gap_ref = rho2[j] - rho2[j + 1]
    r = np.sqrt(cost[j] * (rho2[tail] - rho2[tail + 1]) / (cost[tail] * gap_ref))
    r[0] = 1.0
    return r


def sample_ratios(stats: ModelStats, model_ids: Sequence[int]) -> np.ndarray:
    """Optimal per-model sample ratios ``r_j = m_j / m_1`` (feasible subsets)."""
    _require_feasible(stats, model_ids)
    _, rho, cost, _ = _subset_arrays(stats, model_ids)
    return _tail_ratios(_rho2_extended(rho), cost, 0)


def minimum_budget(stats: ModelStats, model_ids: Sequence[int]) -> float:
    """Smallest budget (seconds) with >= 1 high-fidelity sample under the
    optimal allocation; equals ``c1 * sqrt(V / (1 - rho_2^2))``."""
    _, _, cost, _ = _subset_arrays(stats, model_ids)
    r = sample_ratios(stats, model_ids)
    return float(np.dot(cost, r))


def _candidate(stats: ModelStats, model_ids: Sequence[int]) -> SubsetCandidate:
    """A feasible subset with its figures of merit (raises if infeasible)."""
    return SubsetCandidate(
        model_ids=order_subset(stats, model_ids),
        v_ratio=variance_reduction_ratio(stats, model_ids),
        b_min=minimum_budget(stats, model_ids),
    )


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
            ids = (stats.hf_id, *combo)
            if not is_feasible(stats, ids):
                continue
            found.append(_candidate(stats, ids))
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
        return _candidate(stats, ids)
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


def _alphas(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    return rho[1:] * sigma[0] / sigma[1:]


def _require_finite(budget: float) -> None:
    if not np.isfinite(budget):
        raise ConfigError(f"budget must be finite, got {budget}")


def allocate(stats: ModelStats, model_ids: Sequence[int], budget: float) -> AllocationPlan:
    """Optimal integer allocation of ``budget`` seconds over a feasible subset.

    Requires ``budget >= minimum_budget``; counts are the floored optimal
    real-valued allocation.
    """
    _require_finite(budget)
    ordered, rho, cost, sigma = _subset_arrays(stats, model_ids)
    r = sample_ratios(stats, model_ids)
    denom = float(np.dot(cost, r))
    m1 = budget / denom
    if m1 < 1.0 - _FLOOR_NUDGE:
        if len(ordered) == 1:
            raise InsufficientBudgetError(
                f"budget {budget:.6g} s buys no high-fidelity sample (cost {denom:.6g} s)"
            )
        raise InsufficientBudgetError(
            f"budget {budget:.6g} s is below the minimum budget {denom:.6g} s of "
            f"subset {ordered}; use the below-minimum allocation"
        )
    samples = _floor_counts(m1 * r)
    predicted = float(np.dot(cost, samples))
    return AllocationPlan(
        model_ids=ordered,
        alpha=_alphas(rho, sigma),
        ratios=r,
        samples=samples,
        budget=float(budget),
        predicted_cost=predicted,
        below_minimum=False,
    )


def allocate_below_minimum(
    stats: ModelStats, model_ids: Sequence[int], budget: float
) -> AllocationPlan:
    """Allocation for budgets below the subset's minimum budget.

    Starting from the optimal real-valued allocation, repeatedly find the
    first interior level ``j`` whose count falls below ``j`` (1-based), pin
    levels ``1..j`` to counts ``1..j``, and re-optimize the remaining budget
    over the tail with level ``j+1`` as its reference.  Requires the budget to
    cover the fully pinned staircase ``sum_j j * cost_j``.
    """
    _require_finite(budget)
    ordered, rho, cost, sigma = _subset_arrays(stats, model_ids)
    _require_feasible(stats, ordered)
    m = len(ordered)
    rho2 = _rho2_extended(rho)
    staircase = float(np.dot(np.arange(1, m + 1), cost))
    if budget < staircase * (1.0 - 1e-12):
        raise InsufficientBudgetError(
            f"budget {budget:.6g} s cannot cover even one sample of the "
            f"high-fidelity model plus the nested staircase of subset {ordered} "
            f"(needs {staircase:.6g} s)"
        )
    r = sample_ratios(stats, ordered)
    counts = budget / float(np.dot(cost, r)) * r
    pinned = 0
    while True:
        bad = [j for j in range(pinned, m - 1) if counts[j] < (j + 1)]
        if not bad:
            break
        j = bad[0] + 1  # 1-based level index to pin through
        counts[:j] = np.arange(1, j + 1)
        r_tail = _tail_ratios(rho2, cost, j)
        remaining = budget - float(np.dot(np.arange(1, j + 1), cost[:j]))
        lead = remaining / float(np.dot(cost[j:], r_tail))
        counts[j:] = lead * r_tail
        pinned = j
    samples = _floor_counts(counts)
    predicted = float(np.dot(cost, samples))
    return AllocationPlan(
        model_ids=ordered,
        alpha=_alphas(rho, sigma),
        ratios=counts / counts[0],
        samples=samples,
        budget=float(budget),
        predicted_cost=predicted,
        below_minimum=True,
    )


def estimator_variance(stats: ModelStats, plan: AllocationPlan) -> float:
    """Exact variance of the estimator under the given integer allocation."""
    _, rho, cost, sigma = _subset_arrays(stats, plan.model_ids)
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
    if not 0.0 < budget < np.inf:
        raise ConfigError(f"budget must be positive and finite, got {budget}")
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
        need = int(plan.samples[j])
        if vals.ndim != 1 or vals.size < need:
            raise ConfigError(
                f"model {model_id} needs {need} evaluations, got {vals.shape}"
            )
        if j == 0:
            terms[0] = vals[: plan.samples[0]].mean()
        else:
            prev = int(plan.samples[j - 1])
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
