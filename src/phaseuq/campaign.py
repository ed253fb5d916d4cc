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

import ctypes
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy

from .artifacts import encode
from .errors import ConfigError, InsufficientBudgetError, as_float, as_int
from .grid import KernelParams
from .mfmc import (
    AllocationPlan,
    EstimationResult,
    ModelStats,
    SubsetCandidate,
    allocate,
    estimator_variance,
    empirical_mse,
    mc_estimate,
    mfmc_estimate,
    pilot_statistics,
    resolve_case,
    theoretical_mse,
)
from .sampling import SampleStream, pilot_stream, replicate_stream, validation_stream
from .solver import ModelSpec, SimParams, check_well_posed, evaluate_model, model_stencil

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
    model_ids: tuple[int, ...] = field(metadata={"json_key": "subset"})
    budget: float = field(metadata={"json_key": "budget_seconds"})
    samples: tuple[int, ...]
    below_minimum: bool
    estimates: tuple[float, ...]
    empirical_mse: float
    theoretical_mse: float
    plan_mse: float
    mean_realized_cost: float = field(metadata={"json_key": "mean_realized_cost_seconds"})


@dataclass(frozen=True, eq=False)
class StudyResult:
    """All rows of an error study plus the reference they were scored against."""

    rows: tuple[StudyRow, ...]
    reference: float


_CONFIG_VERSION = 1


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
    version:
        Version of the JSON form; only the current one is accepted.
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
    version: int = _CONFIG_VERSION

    def __post_init__(self) -> None:
        if as_int(self.version, "version") != _CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {self.version}")
        for name, low in (("master_seed", None), ("pilot_samples", 2), ("replicates", 1),
                          ("validation_samples", 1), ("workers", 1)):
            object.__setattr__(self, name, as_int(getattr(self, name), name, low))
        budgets = tuple(as_float(b, "budgets", positive=True) for b in self.budgets)
        object.__setattr__(self, "budgets", budgets)
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

    def model(self, model_id: int) -> ModelSpec:
        for m in self.models:
            if m.model_id == model_id:
                return m
        raise ConfigError(f"unknown model id {model_id}")

    def kernel_for(self, model: ModelSpec) -> KernelParams:
        """Family kernel truncated at the model's radius."""
        return replace(self.kernel, delta=model.delta)

    def to_json(self) -> str:
        """The JSON form, as ``config.json`` holds it; run directories are
        named by its hash (:func:`phaseuq.artifacts.run_id`)."""
        return json.dumps(encode(self), indent=2, sort_keys=True)


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


#: The OpenBLAS builds that the scipy and numpy wheels bundle: the package,
#: the library's file pattern next to it, and the suffix of its exported names.
_BUNDLED_OPENBLAS = (
    (scipy, "scipy.libs/libscipy_openblas-*.so", ""),
    (np, "numpy.libs/libscipy_openblas64_-*.so", "64_"),
)


@lru_cache(maxsize=1)
def _openblas_thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """The ``(get_num_threads, set_num_threads)`` functions of each bundled
    OpenBLAS that this process has loaded."""
    controls = []
    for package, pattern, suffix in _BUNDLED_OPENBLAS:
        for path in Path(package.__file__).parent.parent.glob(pattern):
            try:
                library = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                get = getattr(library, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(library, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):  # not loaded, or another build
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


def _pin_one_blas_thread() -> None:
    """Run every bundled OpenBLAS of this process on one thread.

    The initializer of the engine's pool workers: with ``workers`` processes
    on as many cores, a second BLAS thread per worker only oversubscribes
    them, which made n=64 evaluations 5-13 times slower on a 2-core machine.
    """
    controls = _openblas_thread_controls()
    if not controls:
        logger.info("no bundled OpenBLAS found; BLAS threads left as they are")
    for _, set_threads in controls:
        set_threads(1)


@contextmanager
def _blas_threads_pinned() -> Iterator[None]:
    """Run the body on one BLAS thread, then restore the thread counts."""
    before = [(set_threads, get()) for get, set_threads in _openblas_thread_controls()]
    _pin_one_blas_thread()
    try:
        yield
    finally:
        for set_threads, count in before:
            set_threads(count)


def _evaluate_task(payload):
    model, family, sim, seed, tag, index = payload
    theta = SampleStream(seed, tag).theta(index)
    evaluation = evaluate_model(model, theta, family, sim)
    return evaluation.value, evaluation.seconds


class EvalEngine:
    """Evaluates models at stream-addressed inputs with caching and workers.

    Every ``(model_id, tag, index)`` triple is evaluated at most once per
    engine; results are cached so nested sample sets and repeated study
    points reuse work.  A command hands the engine its whole sample set
    through :meth:`prefetch`, which computes every missing entry in one pass,
    largest grids first, so that with ``workers > 1`` the process pool is
    never drained between models or streams and the cheapest evaluations
    fill its tail.  Results are identical to serial evaluation in any order.

    Evaluations run on one BLAS thread: the pool's workers for their whole
    life, and serial evaluation (``workers == 1``) in the caller's process
    for the length of one :meth:`prefetch`, after which the caller's thread
    counts are restored.  So measured costs do not depend on how many
    threads the BLAS library would otherwise start.
    """

    def __init__(self, config: CampaignConfig):
        self.config = config
        self.workers = config.workers
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
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_pin_one_blas_thread
            )
        return self._pool

    def prefetch(self, requests: Iterable[tuple[int, str, int]]) -> None:
        """Compute, in one pass, every uncached address that the
        ``(model_id, tag, count)`` requests name (indices ``0..count-1``).

        Raises :class:`ConfigError` before any evaluation if a requested
        model's time step is ill-posed (see :func:`check_well_posed`).
        """
        config = self.config
        sim = config.sim
        payloads = {}
        for model_id, tag, count in requests:
            model = config.model(model_id)
            family = config.kernel_for(model)
            stencil = model_stencil(model, family)
            grid = stencil.grid
            check_well_posed(
                f"model {model_id}", grid.n_solution, grid.h, stencil.xi,
                sim.beta1, sim.beta2, sim.dt,
            )
            for i in range(count):
                if (model_id, tag, i) not in self._cache:
                    payloads[(model_id, tag, i)] = (
                        model, family, sim, config.master_seed, tag, i
                    )
        if not payloads:
            return
        # Longest first: the cost of an evaluation grows with its grid.
        order = sorted(payloads, key=lambda address: -payloads[address][0].n_interior)
        logger.info("evaluating %d new samples in one pass", len(order))
        tasks = [payloads[address] for address in order]
        if self.workers > 1 and len(tasks) > 1:
            self._cache.update(zip(order, self._executor().map(_evaluate_task, tasks)))
        else:
            with _blas_threads_pinned():
                self._cache.update(zip(order, map(_evaluate_task, tasks)))

    def evaluate(self, model_id: int, tag: str, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Values and per-evaluation seconds for stream indices ``0..count-1``."""
        self.prefetch([(model_id, tag, count)])
        cached = [self._cache[(model_id, tag, i)] for i in range(count)]
        return np.array([v for v, _ in cached]), np.array([s for _, s in cached])


def run_pilot(engine: EvalEngine) -> PilotResult:
    """Evaluate all models at the shared pilot inputs and fit statistics."""
    config = engine.config
    tag = pilot_stream(config.master_seed).tag
    ids = [m.model_id for m in config.models]
    engine.prefetch([(model_id, tag, config.pilot_samples) for model_id in ids])
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
    """Allocate a budget over a chosen subset with
    :func:`phaseuq.mfmc.allocate`, refusing a below-minimum plan unless
    ``allow_below_minimum``."""
    plan = allocate(stats, candidate.model_ids, budget)
    if plan.below_minimum and not allow_below_minimum:
        raise InsufficientBudgetError(
            f"budget {budget:.6g} s is below the minimum budget "
            f"{candidate.b_min:.6g} s of subset {candidate.model_ids}"
        )
    return plan


def run_estimate(engine: EvalEngine, plan: AllocationPlan, tag: str) -> EstimationResult:
    """Evaluate the models a plan asks for and combine them into an estimate."""
    counts = list(zip(plan.model_ids, plan.samples.tolist()))
    engine.prefetch([(m, tag, n) for m, n in counts])
    values: dict[int, np.ndarray] = {}
    cost = 0.0
    for model_id, n in counts:
        vals, secs = engine.evaluate(model_id, tag, n)
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
    resolved = [(case, resolve_case(stats, case)) for case in config.cases]
    resolved.append(("mc", resolve_case(stats, f"ids:{HF_MODEL_ID}")))
    points = []
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
            points.append((case, budget, plan))
    tags = [replicate_stream(config.master_seed, rep).tag for rep in range(config.replicates)]
    engine.prefetch(
        (model_id, tag, count)
        for _, _, plan in points
        for tag in tags
        for model_id, count in zip(plan.model_ids, plan.samples.tolist())
    )
    rows: list[StudyRow] = []
    for case, budget, plan in points:
        results = [run_estimate(engine, plan, tag) for tag in tags]
        estimates = [result.value for result in results]
        rows.append(
            StudyRow(
                case=case,
                model_ids=plan.model_ids,
                budget=budget,
                samples=tuple(plan.samples.tolist()),
                below_minimum=plan.below_minimum,
                estimates=tuple(estimates),
                empirical_mse=empirical_mse(estimates, reference),
                theoretical_mse=theoretical_mse(stats, plan.model_ids, budget),
                plan_mse=estimator_variance(stats, plan),
                mean_realized_cost=float(np.mean([r.realized_cost for r in results])),
            )
        )
    return StudyResult(rows=tuple(rows), reference=reference)
