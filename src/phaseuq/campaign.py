"""Campaign orchestration: configuration, model evaluation, and studies.

A *campaign* is a family of models (one high-fidelity, several surrogates)
evaluated at shared random inputs to (1) estimate pilot statistics,
(2) build budget-constrained estimators, and (3) validate their error against
a reference estimate.  All sampling is addressed through
:mod:`phaseuq.sampling`, so campaigns are reproducible evaluation-by-
evaluation regardless of worker count or caching.

The high-fidelity model is the one with ``model_id == 1``.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Mapping, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, InsufficientBudgetError
from .grid import KernelParams
from .mfmc import (
    AllocationPlan,
    EstimationResult,
    ModelStats,
    SubsetCandidate,
    allocate,
    allocate_below_minimum,
    estimator_variance,
    empirical_mse,
    mc_estimate,
    mfmc_estimate,
    pilot_statistics,
    resolve_case,
    theoretical_mse,
)
from .sampling import SampleStream, pilot_stream, replicate_stream, validation_stream
from .solver import ModelSpec, SimParams, evaluate_model

__all__ = [
    "HF_MODEL_ID",
    "CampaignConfig",
    "EvalEngine",
    "PilotResult",
    "ValidationResult",
    "StudyRow",
    "StudyResult",
    "desk_config",
    "reference_config",
    "run_pilot",
    "run_validation",
    "build_plan",
    "run_estimate",
    "run_mse_study",
]

logger = logging.getLogger(__name__)

#: Identifier of the high-fidelity model within every campaign.
HF_MODEL_ID = 1

_CONFIG_VERSION = 1

#: Where the JSON form of a config departs from ``field name: value``: model
#: entries use short keys, and ``KernelParams.delta`` is not written but read
#: back as ``delta_hf``, because a campaign's family kernel is untruncated.
_JSON_KEYS = {(ModelSpec, "model_id"): "id", (ModelSpec, "n_interior"): "n"}
_JSON_COPIES = {(KernelParams, "delta"): "delta_hf"}


def _json_fields(cls) -> list:
    """The written fields of a config dataclass, with their JSON keys."""
    return [
        (f, _JSON_KEYS.get((cls, f.name), f.name))
        for f in fields(cls)
        if (cls, f.name) not in _JSON_COPIES
    ]


def _encode(value):
    if is_dataclass(value):
        return {key: _encode(getattr(value, f.name)) for f, key in _json_fields(type(value))}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _decode(hint, value, where: str):
    """A JSON value as an instance of the annotated type ``hint``: a config
    dataclass, a ``tuple[X, ...]``, or ``int``, ``float`` or ``str``."""
    if is_dataclass(hint):
        if not isinstance(value, Mapping):
            raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
        written = _json_fields(hint)
        unknown = set(value) - {key for _, key in written}
        if unknown:
            raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
        hints = get_type_hints(hint)
        kwargs = {}
        for f, key in written:
            if key in value:
                kwargs[f.name] = _decode(hints[f.name], value[key], key)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing key {key!r} in {where}")
        for (owner, name), source in _JSON_COPIES.items():
            if owner is hint:
                kwargs[name] = kwargs.get(source, getattr(hint, source))
        return hint(**kwargs)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a JSON list, got {type(value).__name__}")
        return tuple(_decode(get_args(hint)[0], item, where) for item in value)
    try:
        return hint(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be {hint.__name__}, got {value!r}") from None


@dataclass(frozen=True)
class CampaignConfig:
    """Full description of a campaign.

    Attributes
    ----------
    master_seed:
        Root of all sampling streams.
    models:
        Model family; must contain ``model_id == 1`` (high-fidelity) and
        unique ids.
    kernel:
        Family kernel parameters.  The family kernel is untruncated
        (``kernel.delta == kernel.delta_hf``); :meth:`kernel_for` truncates
        it at each model's own ``delta``.
    sim:
        Time stepping controls shared by all models.
    pilot_samples:
        Shared samples used to estimate correlations, costs, and variances.
    replicates:
        Independent estimator repetitions per study point.
    budgets:
        Budgets in seconds explored by the error study.
    cases:
        Subset selection rules explored by the error study
        (see :func:`phaseuq.mfmc.resolve_case`).
    validation_samples:
        High-fidelity samples of the reference estimate.
    workers:
        Process count for model evaluations.
    """

    master_seed: int = 2026
    models: tuple[ModelSpec, ...] = ()
    kernel: KernelParams = field(default_factory=KernelParams)
    sim: SimParams = field(default_factory=SimParams)
    pilot_samples: int = 50
    replicates: int = 10
    budgets: tuple[float, ...] = ()
    cases: tuple[str, ...] = ("min-V", "min-budget")
    validation_samples: int = 1000
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.models:
            raise ConfigError("campaign needs at least one model")
        ids = [m.model_id for m in self.models]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"model ids must be unique, got {ids}")
        if HF_MODEL_ID not in ids:
            raise ConfigError(
                f"campaign needs a high-fidelity model with id {HF_MODEL_ID}"
            )
        if self.kernel.delta != self.kernel.delta_hf:
            raise ConfigError(
                f"the family kernel must be untruncated (delta == delta_hf), got "
                f"delta={self.kernel.delta} with delta_hf={self.kernel.delta_hf}"
            )
        if self.pilot_samples < 2:
            raise ConfigError(f"pilot_samples must be >= 2, got {self.pilot_samples}")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if any(b <= 0 for b in self.budgets):
            raise ConfigError(f"budgets must be positive, got {self.budgets}")
        if self.validation_samples < 1:
            raise ConfigError(
                f"validation_samples must be >= 1, got {self.validation_samples}"
            )
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    def model(self, model_id: int) -> ModelSpec:
        for m in self.models:
            if m.model_id == model_id:
                return m
        raise ConfigError(f"unknown model id {model_id}")

    def kernel_for(self, model: ModelSpec) -> KernelParams:
        """Family kernel truncated at the model's radius."""
        return replace(self.kernel, delta=model.delta)

    def to_dict(self) -> dict:
        return {"version": _CONFIG_VERSION, **_encode(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "CampaignConfig":
        if isinstance(data, Mapping):
            data = dict(data)
            version = data.pop("version", _CONFIG_VERSION)
            if version != _CONFIG_VERSION:
                raise ConfigError(f"unsupported config version {version}")
        return _decode(cls, data, "config")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(data)


def _family_models(resolutions: Sequence[int], t_final: float, seed: int, **kwargs):
    """Nine-model family over three resolutions and three truncation radii."""
    n_hi, n_mid, n_lo = resolutions
    layout = [
        (1, n_hi, 0.25),
        (2, n_hi, 0.1875),
        (3, n_mid, 0.1875),
        (4, n_mid, 0.25),
        (5, n_hi, 0.125),
        (6, n_mid, 0.125),
        (7, n_lo, 0.1875),
        (8, n_lo, 0.25),
        (9, n_lo, 0.125),
    ]
    models = tuple(
        ModelSpec(model_id=i, n_interior=n, delta=d, label=f"n{n}-d{d:g}")
        for i, n, d in layout
    )
    return CampaignConfig(
        master_seed=seed,
        models=models,
        kernel=KernelParams(eps2=0.00178, delta_hf=0.25, delta=0.25, c_f=1.0),
        sim=SimParams(t_final=t_final),
        **kwargs,
    )


def desk_config(seed: int = 2026) -> CampaignConfig:
    """Small nine-model family that runs in minutes on one core."""
    return _family_models(
        (32, 24, 16),
        t_final=0.1,
        seed=seed,
        budgets=(5.0, 10.0, 20.0, 40.0),
        validation_samples=500,
    )


def reference_config(seed: int = 2026) -> CampaignConfig:
    """Production-scale nine-model family (hours of compute)."""
    return _family_models((128, 88, 64), t_final=1.0, seed=seed)


def _evaluate_task(payload):
    model, family, sim, seed, tag, index = payload
    theta = SampleStream(seed, tag).theta(index)
    evaluation = evaluate_model(model, theta, family, sim)
    return index, evaluation.value, evaluation.seconds


class EvalEngine:
    """Evaluates models at stream-addressed inputs with caching and workers.

    Every ``(model_id, tag, index)`` triple is evaluated at most once per
    engine; results are cached so nested sample sets and repeated study
    points reuse work.  With ``workers > 1`` a process pool evaluates missing
    entries in parallel (results are identical to serial evaluation).
    """

    def __init__(self, config: CampaignConfig, workers: int | None = None):
        self.config = config
        self.workers = config.workers if workers is None else workers
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        self._cache: dict[tuple[int, str, int], tuple[float, float]] = {}
        self._pool: ProcessPoolExecutor | None = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "EvalEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def evaluate(self, model_id: int, tag: str, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Values and per-evaluation seconds for stream indices ``0..count-1``."""
        model = self.config.model(model_id)
        family = self.config.kernel_for(model)
        sim = self.config.sim
        seed = self.config.master_seed
        missing = [
            i for i in range(count) if (model_id, tag, i) not in self._cache
        ]
        if missing:
            logger.info(
                "evaluating model %d: %d new samples (stream %r)",
                model_id,
                len(missing),
                tag,
            )
            payloads = [(model, family, sim, seed, tag, i) for i in missing]
            if self.workers > 1 and len(missing) > 1:
                chunk = max(1, len(missing) // (4 * self.workers))
                results = self._executor().map(_evaluate_task, payloads, chunksize=chunk)
            else:
                results = map(_evaluate_task, payloads)
            for index, value, seconds in results:
                self._cache[(model_id, tag, index)] = (value, seconds)
        values = np.array([self._cache[(model_id, tag, i)][0] for i in range(count)])
        seconds = np.array([self._cache[(model_id, tag, i)][1] for i in range(count)])
        return values, seconds


@dataclass(frozen=True, eq=False)
class PilotResult:
    """Pilot statistics plus the raw shared-sample evaluations behind them."""

    stats: ModelStats
    values: np.ndarray
    seconds: np.ndarray


@dataclass(frozen=True)
class ValidationResult:
    """Reference estimate from independent high-fidelity samples."""

    value: float
    n_samples: int
    cost_seconds: float


@dataclass(frozen=True, eq=False)
class StudyRow:
    """One (case, budget) point of the estimator error study."""

    case: str
    model_ids: tuple[int, ...]
    budget: float
    samples: tuple[int, ...]
    below_minimum: bool
    estimates: tuple[float, ...]
    empirical_mse: float
    theoretical_mse: float
    plan_mse: float
    mean_realized_cost: float


@dataclass(frozen=True, eq=False)
class StudyResult:
    """All rows of an error study plus the reference they were scored against."""

    rows: tuple[StudyRow, ...]
    reference: float


def run_pilot(engine: EvalEngine) -> PilotResult:
    """Evaluate all models at the shared pilot inputs and fit statistics."""
    config = engine.config
    tag = pilot_stream(config.master_seed).tag
    ids = [m.model_id for m in config.models]
    values = []
    seconds = []
    for model_id in ids:
        vals, secs = engine.evaluate(model_id, tag, config.pilot_samples)
        values.append(vals)
        seconds.append(secs)
    values = np.vstack(values)
    seconds = np.vstack(seconds)
    stats = pilot_statistics(
        ids,
        values,
        seconds,
        hf_id=HF_MODEL_ID,
        h=[m.h for m in config.models],
        delta=[m.delta for m in config.models],
    )
    return PilotResult(stats=stats, values=values, seconds=seconds)


def run_validation(engine: EvalEngine) -> ValidationResult:
    """High-fidelity Monte Carlo reference on the validation stream."""
    config = engine.config
    tag = validation_stream(config.master_seed).tag
    values, seconds = engine.evaluate(
        HF_MODEL_ID, tag, config.validation_samples
    )
    return ValidationResult(
        value=mc_estimate(values),
        n_samples=config.validation_samples,
        cost_seconds=float(seconds.sum()),
    )


def build_plan(
    stats: ModelStats,
    candidate: SubsetCandidate,
    budget: float,
    allow_below_minimum: bool = True,
) -> AllocationPlan:
    """Allocate a budget over a chosen subset, dispatching on the regime.

    A one-model subset (plain Monte Carlo) has no below-minimum regime: its
    staircase is its minimum budget, so it always takes the optimal
    allocation, which buys ``floor(budget / c1)`` samples or raises.
    """
    if budget >= candidate.b_min or len(candidate.model_ids) == 1:
        return allocate(stats, candidate.model_ids, budget)
    if not allow_below_minimum:
        raise InsufficientBudgetError(
            f"budget {budget:.6g} s is below the minimum budget "
            f"{candidate.b_min:.6g} s of subset {candidate.model_ids}"
        )
    return allocate_below_minimum(stats, candidate.model_ids, budget)


def run_estimate(engine: EvalEngine, plan: AllocationPlan, tag: str) -> EstimationResult:
    """Evaluate the models a plan asks for and combine them into an estimate."""
    values: dict[int, np.ndarray] = {}
    cost = 0.0
    for j, model_id in enumerate(plan.model_ids):
        vals, secs = engine.evaluate(model_id, tag, int(plan.samples[j]))
        values[model_id] = vals
        cost += float(secs.sum())
    result = mfmc_estimate(plan, values)
    return replace(result, realized_cost=cost)


def run_mse_study(
    engine: EvalEngine, stats: ModelStats, reference: float
) -> StudyResult:
    """Replicated estimator error study over all configured cases and budgets.

    For every case (plus a plain high-fidelity Monte Carlo baseline labelled
    ``"mc"``, which is the one-model subset ``ids:1``) and every budget, builds
    the allocation, runs the configured number of replicate estimates on
    independent streams, and scores their empirical mean-squared error against
    the reference value.
    """
    config = engine.config
    if not config.budgets:
        raise ConfigError("the study needs at least one budget")
    if config.replicates < 2:
        raise ConfigError("the study needs at least 2 replicates")
    rows: list[StudyRow] = []
    resolved = [(case, resolve_case(stats, case)) for case in config.cases]
    resolved.append(("mc", resolve_case(stats, f"ids:{HF_MODEL_ID}")))
    for case, candidate in resolved:
        for budget in config.budgets:
            plan = build_plan(stats, candidate, budget)
            if plan.below_minimum:
                logger.info(
                    "case %s at budget %.3g s: below minimum budget %.3g s",
                    case,
                    budget,
                    candidate.b_min,
                )
            estimates = []
            costs = []
            for rep in range(config.replicates):
                tag = replicate_stream(config.master_seed, rep).tag
                result = run_estimate(engine, plan, tag)
                estimates.append(result.value)
                costs.append(result.realized_cost)
            rows.append(
                StudyRow(
                    case=case,
                    model_ids=plan.model_ids,
                    budget=float(budget),
                    samples=tuple(int(s) for s in plan.samples),
                    below_minimum=plan.below_minimum,
                    estimates=tuple(estimates),
                    empirical_mse=empirical_mse(estimates, reference),
                    theoretical_mse=theoretical_mse(stats, plan.model_ids, budget),
                    plan_mse=estimator_variance(stats, plan),
                    mean_realized_cost=float(np.mean(costs)),
                )
            )
    return StudyResult(rows=tuple(rows), reference=reference)
