"""Per-layer tracing from outside the package.

The tracer replaces public functions, as the calling module sees them, with
wrappers that time and count each call.  A call made from inside the same
layer (say ``artifacts.write_plan_json`` calling ``artifacts.plan_to_dict``)
is nested in its caller's span and not counted again.  The self time of a
span is its duration minus the time of the spans it encloses.

Only calls made in this process are seen: evaluations that the campaign
engine sends to its worker processes are invisible here, so the solver,
grid and sampling layers are traced on the serial workloads.
"""

from __future__ import annotations

import functools
import os
import time
import weakref
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []  # frames: [layer, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    # -- instrumentation ---------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def span(self, layer: str, func, after=None):
        """Wrap ``func`` as a span of ``layer``; ``after(args, result, seconds)``
        runs on each outermost call of the layer."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            nested = bool(self._stack) and self._stack[-1][0] == layer
            frame = [layer, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    # A nested call of the same layer is part of its caller's
                    # self time; only its children are passed up.
                    self._stack[-1][1] += frame[1] if nested else elapsed
            if not nested:
                self.counts[f"{layer}.calls"] += 1
                self.counts[f"{layer}.s"] += elapsed
                self.counts[f"{layer}.self_s"] += elapsed - frame[1]
                if after is not None:
                    after(args, result, elapsed)
            return result

        return wrapper

    def wrap(self, owner, attr: str, layer: str, after=None) -> None:
        self.patch(owner, attr, self.span(layer, getattr(owner, attr), after))


# --- the package's layers -------------------------------------------------------


class _FactorProxy:
    """Forwards to a SuperLU factor, timing its ``solve``."""

    def __init__(self, factor, tracer: Tracer):
        self._factor = factor
        self._solve = tracer.span("solver.lu_solve", factor.solve)

    def solve(self, *args, **kwargs):
        return self._solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._factor, name)


class _SparseLinalgProxy:
    """The solver's view of ``scipy.sparse.linalg`` with ``splu`` traced."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._last = None
        self._tracer = tracer
        self._splu = tracer.span("solver.factorize", module.splu, self._count_repeat)

    def _count_repeat(self, args, result, seconds) -> None:
        m = args[0]
        key = (m.shape, m.indptr.copy(), m.indices.copy(), m.data.copy())
        last = self._last
        if last is not None and last[0] == key[0] and all(
            np.array_equal(a, b) for a, b in zip(last[1:], key[1:])
        ):
            self._tracer.counts["solver.repeat_factorizations"] += 1
        self._last = key

    def splu(self, *args, **kwargs):
        return _FactorProxy(self._splu(*args, **kwargs), self._tracer)

    def __getattr__(self, name):
        return getattr(self._module, name)


def trace_solver(tracer: Tracer, pq) -> None:
    """Steps, sweeps, LU work, convolution, per-model evaluation seconds."""
    solver, grid = pq.solver, pq.grid

    def step_done(args, state, seconds):
        tracer.counts["solver.sweeps"] += state.sweeps
        tracer.samples["solver.sweeps_per_step"].append(state.sweeps)

    def eval_done(args, result, seconds):
        tracer.samples[f"solver.eval_s.m{args[0].model_id}"].append(seconds)

    tracer.wrap(solver, "time_step", "solver.step", step_done)
    tracer.wrap(solver, "evaluate_model", "solver.evaluate", eval_done)
    tracer.patch(solver, "spla", _SparseLinalgProxy(solver.spla, tracer))
    convolve = tracer.span("grid.convolve", grid.convolve)
    tracer.patch(grid, "convolve", convolve)
    tracer.patch(solver, "convolve", convolve)


def trace_sampling(tracer: Tracer, pq) -> None:
    tracer.wrap(pq.sampling.SampleStream, "theta", "sampling.theta")


def trace_campaign(tracer: Tracer, pq) -> None:
    """CLI commands, campaign entry points, engine requests, estimator calls
    from the campaign and CLI, and artifact files."""
    cli, campaign, artifacts = pq.cli, pq.campaign, pq.artifacts
    tracer.wrap(cli, "main", "cli")
    for name in ("run_pilot", "run_validation", "build_plan", "run_estimate", "run_mse_study"):
        tracer.wrap(cli, name, "campaign")
    for module in (campaign, cli):
        for name in pq.mfmc.__all__:
            if callable(getattr(module, name, None)) and name[0].islower():
                tracer.wrap(module, name, "mfmc")

    def file_written(args, result, seconds):
        tracer.counts["artifacts.files_written"] += 1
        tracer.counts["artifacts.bytes_written"] += os.path.getsize(args[0])

    for name in artifacts.__all__:
        after = file_written if name.startswith("write_") else None
        tracer.wrap(artifacts, name, "artifacts", after)

    # Addresses an engine has already been asked for are served from its
    # cache; the seconds it returns for new ones were measured in a worker.
    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def evaluated(args, result, seconds):
        engine, model_id, tag, count = args
        done = seen.setdefault(engine, set())
        new = [i for i in range(count) if (model_id, tag, i) not in done]
        done.update((model_id, tag, i) for i in new)
        tracer.counts["campaign.evaluations_requested"] += count
        tracer.counts["campaign.evaluations_computed"] += len(new)
        if new:
            tracer.counts["campaign.worker_busy_s"] += float(np.sum(result[1][new]))
            tracer.counts["campaign.pool_capacity_s"] += seconds * engine.workers

    tracer.wrap(campaign.EvalEngine, "evaluate", "campaign.engine", evaluated)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as ``(value, unit)``.

    Counts and seconds are per pass over the workload's fixed round set, so a
    count repeats exactly however many passes a run makes; medians and ratios
    are over all traced passes.
    """
    c = {name: value / passes for name, value in tracer.counts.items()}
    c = defaultdict(float, c)
    s = tracer.samples
    sweeps = s["solver.sweeps_per_step"]
    steps = c["solver.step.calls"]
    requested = c["campaign.evaluations_requested"]
    metrics = {
        "solver.factorizations": (c["solver.factorize.calls"], "count"),
        "solver.repeat_factorizations": (c["solver.repeat_factorizations"], "count"),
        "solver.factorize_s": (c["solver.factorize.s"], "s"),
        "solver.lu_solves": (c["solver.lu_solve.calls"], "count"),
        "solver.lu_solve_s": (c["solver.lu_solve.s"], "s"),
        "solver.steps": (steps, "count"),
        "solver.step_s": (c["solver.step.s"], "s"),
        # Step time outside the convolution, factorization and solve spans.
        "solver.step_self_s": (c["solver.step.self_s"], "s"),
        "solver.sweeps": (c["solver.sweeps"], "count"),
        "solver.sweeps_per_step": (c["solver.sweeps"] / steps if steps else 0.0, "ratio"),
        "solver.max_sweeps_per_step": (float(max(sweeps, default=0)), "count"),
    }
    for model_id in range(1, 10):
        metrics[f"solver.eval_s.m{model_id}"] = (_median(s[f"solver.eval_s.m{model_id}"]), "s")
    metrics.update({
        "grid.convolve_calls": (c["grid.convolve.calls"], "count"),
        "grid.convolve_s": (c["grid.convolve.s"], "s"),
        "campaign.evaluations_requested": (requested, "count"),
        "campaign.evaluations_computed": (c["campaign.evaluations_computed"], "count"),
        "campaign.cache_hit_ratio": (
            1.0 - c["campaign.evaluations_computed"] / requested if requested else 0.0, "ratio"),
        "campaign.worker_busy_s": (c["campaign.worker_busy_s"], "s"),
        "campaign.worker_utilisation": (
            c["campaign.worker_busy_s"] / c["campaign.pool_capacity_s"]
            if c["campaign.pool_capacity_s"] else 0.0, "ratio"),
        "campaign.s": (c["campaign.s"], "s"),
        "sampling.theta_calls": (c["sampling.theta.calls"], "count"),
        "sampling.theta_s": (c["sampling.theta.s"], "s"),
        "mfmc.calls": (c["mfmc.calls"], "count"),
        "mfmc.s": (c["mfmc.s"], "s"),
        "artifacts.files_written": (c["artifacts.files_written"], "count"),
        "artifacts.bytes_written": (c["artifacts.bytes_written"], "count"),
        "artifacts.s": (c["artifacts.s"], "s"),
        "cli.commands": (c["cli.calls"], "count"),
        "cli.s": (c["cli.s"], "s"),
        "cli.self_s": (c["cli.self_s"], "s"),
    })
    return metrics
