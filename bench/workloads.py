"""The three workloads.

Each workload makes its inputs from the seed, runs whole passes over a fixed
round set until the requested seconds have passed, records the seconds of
every operation outside the program, and checks the outputs afterwards,
outside the timed part.  The package is always reached through its module
attributes (``pq.solver.time_step``, ``pq.cli.main``), so the tracer's
replacements of those attributes are the functions that run.
"""

from __future__ import annotations

import contextlib
import csv
import json
import shutil
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

import layers
import reference
from reference import CheckError

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


#: Nominal seconds of one speed probe; timings are reported in seconds at
#: the machine speed where a probe takes this long.
PROBE_SECONDS = 0.040


class SpeedProbe:
    """A fixed sparse-LU workload, independent of the package, timed between
    operations to measure how fast the machine runs at that moment.

    On the 2-core VM this benchmark was built on, one evaluation's time
    swings by 20-40% over seconds with the neighbours' load (its thread CPU
    time swings with it, so it is not preemption), while its ratio to this
    probe stays within a few percent.
    """

    def __init__(self) -> None:
        a_mat, _ = reference.neumann_operators(33, 1.0 / 32, -0.5, 1.0, 0.05, 0.01)
        self.matrix = a_mat.tocsc()
        self.rhs = np.ones(self.matrix.shape[0])
        self.last = self.time()

    def time(self) -> float:
        start = time.perf_counter()
        for _ in range(12):
            spla.splu(self.matrix).solve(self.rhs)
        return time.perf_counter() - start

    def scale(self) -> float:
        """The factor turning seconds measured since the last probe into
        seconds at the nominal speed."""
        probe = self.time()
        factor = PROBE_SECONDS / (0.5 * (probe + self.last))
        self.last = probe
        return factor


class Workload:
    """Timed passes over a fixed round set; see the subclasses.

    Timings are scaled by the speed probe taken right after them (see
    :class:`SpeedProbe`); ``op_s`` is the mean of the run's scaled operation
    times, ``op_s.p75`` their 75th percentile, and the other metrics are
    medians.
    """

    NAMES = ("op", "round", "part1", "part2", "part3")

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.probe = SpeedProbe()
        self.reset_timings()

    def reset_timings(self) -> None:
        self.times: dict[str, list[float]] = {name: [] for name in self.NAMES}

    def keep(self, name: str, seconds: float) -> None:
        self.times[name].append(seconds)

    def measure(self, seconds: float) -> int:
        """Run whole passes until ``seconds`` have passed; return the count."""
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < seconds:
            self.run_pass()
            passes += 1
        return passes

    def install_tracing(self, tracer) -> None:
        """Trace the layers that run in this process (serial workloads)."""
        layers.trace_solver(tracer, self.pq)
        layers.trace_sampling(tracer, self.pq)

    def summary(self) -> dict[str, float]:
        t = self.times
        return {
            # The mean: step times cluster by sweep count (4-9 sweeps), and
            # a median jumps between clusters from one seed's inputs to the
            # next.
            "op_s": float(np.mean(t["op"])),
            "op_s.p75": float(np.percentile(t["op"], 75)),
            "round_s": float(np.median(t["round"])),
            **{f"{name}_s": float(np.median(t[name])) for name in ("part1", "part2", "part3")},
        }


def _check_trajectory(ref, states, label: str) -> list[str]:
    problems = []
    for k in range(1, len(states)):
        try:
            reference.check_step(ref, states[k - 1].padded, states[k])
        except CheckError as exc:
            problems.append(f"{label} step {k}: {exc}")
    return problems


def reference_model(config, model) -> reference.ReferenceModel:
    k = config.kernel
    return reference.ReferenceModel(model.n_interior, model.delta, k.eps2, k.delta_hf,
                                    k.c_f, config.sim)


class HfReference(Workload):
    """Serial ``time_step`` of the n=128, delta=0.25 reference model.

    A round is the first ``STEPS`` steps from one pilot-stream input; a pass
    is ``INPUTS`` rounds.  Early steps take up to 9 active-set sweeps, later
    ones 4-6, so the parts split a round into steps 1-3, 4-6 and 7-10; each
    part is timed as the sum of its steps, which varies less from input to
    input than a single step does.
    """

    INPUTS = 3
    STEPS = 10

    def __init__(self, pq, seed: int):
        super().__init__()
        self.pq = pq
        self.config = pq.reference_config(seed)
        self.model = self.config.model(1)
        kernel = self.config.kernel_for(self.model)
        self.grid = pq.build_grid(self.model.n_interior, kernel.delta_hf)
        self.stencil = pq.build_stencil(self.grid, kernel)
        self.stream = pq.pilot_stream(seed)
        self.trajectories: dict[int, list] = {}
        self.repeat_mismatch: list[str] = []
        # Warm the operator cache and the sparse LU with one step.
        state = pq.initial_state(self.grid, self.stream.theta(0), self.config.sim)
        pq.solver.time_step(state, self.stencil, self.config.sim)

    def run_pass(self) -> None:
        solver, sim = self.pq.solver, self.config.sim
        for i in range(self.INPUTS):
            state = solver.initial_state(self.grid, self.stream.theta(i), sim)
            states = [state]
            sums = [0.0, 0.0, 0.0]
            for step in range(1, self.STEPS + 1):
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    state = solver.time_step(state, self.stencil, sim)
                except self.pq.ConvergenceError:
                    self.failed += 1
                    break
                seconds = (time.perf_counter() - t0) * self.probe.scale()
                self.keep("op", seconds)
                sums[0 if step <= 3 else 1 if step <= 6 else 2] += seconds
                states.append(state)
            self.keep("round", sum(sums))
            for k, total in enumerate(sums):
                self.keep(f"part{k + 1}", total)
            first = self.trajectories.setdefault(i, states)
            if first is not states and not np.array_equal(first[-1].padded, states[-1].padded):
                self.repeat_mismatch.append(f"input {i}: a repeated trajectory differs")

    def check(self) -> list[str]:
        ref = reference_model(self.config, self.model)
        problems = list(self.repeat_mismatch)
        for i, states in self.trajectories.items():
            problems += _check_trajectory(ref, states, f"input {i}")
        return problems


class DeskModels(Workload):
    """Serial ``evaluate_model`` of the nine desk models.

    A round is the nine models at one pilot-stream input; a pass is
    ``INPUTS`` rounds.  The parts are the n=32, n=24 and n=16 evaluations.
    """

    INPUTS = 3

    def __init__(self, pq, seed: int):
        super().__init__()
        self.pq = pq
        self.config = pq.desk_config(seed)
        self.stream = pq.pilot_stream(seed)
        sizes = sorted({m.n_interior for m in self.config.models}, reverse=True)
        self.part = {m.model_id: f"part{sizes.index(m.n_interior) + 1}"
                     for m in self.config.models}
        self.values: dict[tuple[int, int], float] = {}
        self.costs: dict[int, list[float]] = defaultdict(list)
        self.repeat_mismatch: list[str] = []
        theta = self.stream.theta(0)
        for model in self.config.models:  # warm the stencil and operator caches
            pq.solver.evaluate_model(model, theta, self.config.kernel_for(model),
                                     self.config.sim)

    def run_pass(self) -> None:
        solver, sim = self.pq.solver, self.config.sim
        for i in range(self.INPUTS):
            start = time.perf_counter()
            theta = self.stream.theta(i)
            evaluations = []
            for model in self.config.models:
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = solver.evaluate_model(model, theta, self.config.kernel_for(model), sim)
                except self.pq.ConvergenceError:
                    self.failed += 1
                    continue
                evaluations.append((model.model_id, time.perf_counter() - t0))
                self.costs[model.model_id].append(result.seconds)
                first = self.values.setdefault((model.model_id, i), result.value)
                if first != result.value:
                    self.repeat_mismatch.append(f"model {model.model_id} input {i}: "
                                                "a repeated evaluation differs")
            round_seconds = time.perf_counter() - start
            factor = self.probe.scale()
            self.keep("round", round_seconds * factor)
            for model_id, seconds in evaluations:
                self.keep("op", seconds * factor)
                self.keep(self.part[model_id], seconds * factor)

    def cost_table(self, seconds: float) -> dict:
        """Median serial seconds per evaluation of each model, as the pilot
        measures them (``ModelEvaluation.seconds``)."""
        self.measure(seconds)
        return {str(i): float(np.median(c)) for i, c in sorted(self.costs.items())}

    def check(self) -> list[str]:
        pq, sim = self.pq, self.config.sim
        problems = list(self.repeat_mismatch)
        for model in self.config.models:
            ref = reference_model(self.config, model)
            kernel = self.config.kernel_for(model)
            grid = pq.build_grid(model.n_interior, kernel.delta_hf)
            stencil = pq.build_stencil(grid, kernel)
            for i in range(self.INPUTS):
                states: list = []
                final = pq.run_simulation(grid, stencil, self.stream.theta(i), sim,
                                          on_step=states.append)
                label = f"model {model.model_id} input {i}"
                problems += _check_trajectory(ref, states, label)
                value = pq.mass_fraction(grid, final.padded)
                returned = self.values.get((model.model_id, i))
                if returned is not None and value != returned:
                    problems.append(f"{label}: evaluate_model returned {returned!r}, "
                                    f"trajectory gives {value!r}")
                if abs(value - reference.mass_fraction(ref, final.padded)) > 1e-15:
                    problems.append(f"{label}: mass fraction differs from the reference formula")
        return problems


class DeskCampaign(Workload):
    """The CLI pipeline ``pilot -> subsets -> validate -> estimate -> mse-study``
    with ``--workers 2`` on a scaled-down desk config; one pipeline per pass.

    ``estimate`` and ``mse-study`` read the pilot's statistics with the cost
    column replaced by the frozen table in ``frozen_costs.json``, so sample
    counts do not depend on machine load.  The parts are the ``pilot``,
    ``validate`` and ``mse-study`` commands; an operation is one pilot
    evaluation, timed by the engine inside a worker.
    """

    PILOT_SAMPLES = 8
    VALIDATION_SAMPLES = 16
    REPLICATES = 2
    BUDGETS = (0.5, 1.5)
    # One MFMC case: with two, whether their subsets coincide (and so share
    # evaluations) varies with the seed, and with it the study's work.
    CASES = ("min-V",)
    ESTIMATE_BUDGET = 0.5
    WORKERS = 2
    PARTS = {"pilot": "part1", "validate": "part2", "mse-study": "part3"}

    def __init__(self, pq, seed: int):
        super().__init__()
        self.pq = pq
        self.seed = seed
        self.config = replace(
            pq.desk_config(seed),
            pilot_samples=self.PILOT_SAMPLES,
            validation_samples=self.VALIDATION_SAMPLES,
            replicates=self.REPLICATES,
            budgets=self.BUDGETS,
            cases=self.CASES,
            workers=self.WORKERS,
        )
        self.out = OUT / "desk-campaign"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.config_path = self.out / "config.json"
        self.config_path.write_text(self.config.to_json() + "\n")
        table = json.loads((BENCH / "frozen_costs.json").read_text())["cost_s"]
        self.ids = [m.model_id for m in self.config.models]
        self.frozen = {i: float(table[str(i)]) for i in self.ids}
        run_id = pq.artifacts.run_id
        self.pilot_dir = self.out / run_id("pilot", self.config)
        self.validate_dir = self.out / run_id("validate", self.config)
        self.estimate_dir = self.out / run_id("estimate", self.config)
        self.study_dir = self.out / run_id("mse-study", self.config)
        self.frozen_stats = self.out / "stats_frozen.csv"
        # Pool workers are forked from this process and inherit its stencil
        # and operator caches: fill them once, so that every pass starts
        # alike.  One step per model fills them; the cache keys omit t_final.
        one_step = replace(self.config.sim, t_final=self.config.sim.dt)
        theta = pq.pilot_stream(seed).theta(0)
        for model in self.config.models:
            pq.solver.evaluate_model(model, theta, self.config.kernel_for(model), one_step)

    def cli(self, *argv) -> float:
        """Run one command; keep and return its scaled seconds."""
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = self.pq.cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"phaseuq {argv[0]} exited with code {code}")
        elapsed = time.perf_counter() - start
        self.factor = self.probe.scale()  # kept for the pilot's evaluations
        seconds = elapsed * self.factor
        if argv[0] in self.PARTS:
            self.keep(self.PARTS[argv[0]], seconds)
        return seconds

    def write_frozen_stats(self) -> None:
        """The pilot's stats.csv with its cost column from the frozen table."""
        lines = (self.pilot_dir / "stats.csv").read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        c1 = self.frozen[1]
        with self.frozen_stats.open("w", newline="") as fh:
            fh.write(f"# c1_seconds={c1!r}\n")
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            for row in rows:
                writer.writerow({**row, "cost_ratio": repr(self.frozen[int(row["model"])] / c1)})

    def run_pass(self) -> None:
        common = ["--config", self.config_path, "--out", self.out, "--workers", self.WORKERS]
        total = self.cli("pilot", *common)
        pilot = json.loads((self.pilot_dir / "pilot.json").read_text())
        for row in pilot["seconds"]:  # timed in the workers during the pilot
            for seconds in row:
                self.keep("op", seconds * self.factor)
        self.write_frozen_stats()
        total += self.cli("subsets", "--stats", self.frozen_stats, "--out", self.out)
        total += self.cli("validate", *common)
        total += self.cli("estimate", *common, "--stats", self.frozen_stats, "--budget",
                          self.ESTIMATE_BUDGET, "--subset", "min-V", "--allow-below-min")
        total += self.cli("mse-study", *common, "--stats", self.frozen_stats,
                          "--validation", self.validate_dir / "validation.json")
        self.keep("round", total)
        self.attempted += self.evaluations_computed()

    def evaluations_computed(self) -> int:
        """Evaluations the pipeline's engines computed: each command's engine
        evaluates every (model, stream, index) it is asked for once."""
        plan = json.loads((self.estimate_dir / "estimate.json").read_text())["plan"]
        study = json.loads((self.study_dir / "mse_study.json").read_text())
        deepest: dict[int, int] = defaultdict(int)
        for row in study["rows"]:
            for model_id, count in zip(row["subset"], row["samples"]):
                deepest[model_id] = max(deepest[model_id], count)
        return (len(self.ids) * self.PILOT_SAMPLES + self.VALIDATION_SAMPLES
                + sum(plan["samples"]) + self.REPLICATES * sum(deepest.values()))

    def install_tracing(self, tracer) -> None:
        layers.trace_campaign(tracer, self.pq)

    # -- checks ------------------------------------------------------------

    def serial_value(self, model_id: int, tag: str, index: int) -> float:
        model = self.config.model(model_id)
        theta = self.pq.SampleStream(self.seed, tag).theta(index)
        return self.pq.solver.evaluate_model(model, theta, self.config.kernel_for(model),
                                             self.config.sim).value

    def check(self) -> list[str]:
        problems: list[str] = []
        for name, check in (("pilot", self.check_pilot), ("validate", self.check_validation),
                            ("estimate", self.check_estimate), ("mse-study", self.check_study)):
            try:
                check()
            except CheckError as exc:
                problems.append(f"{name}: {exc}")
        return problems

    def pilot_stats(self):
        """``(rho, sigma)`` by model id, as written to the pilot's stats.csv."""
        lines = (self.pilot_dir / "stats.csv").read_text().splitlines()
        rows = {int(r["model"]): r for r in csv.DictReader(lines[1:])}
        return ({i: float(rows[i]["rho"]) for i in self.ids},
                {i: float(rows[i]["sigma"]) for i in self.ids})

    def check_pilot(self) -> None:
        pilot = json.loads((self.pilot_dir / "pilot.json").read_text())
        values = np.array(pilot["values"])
        rho, sigma = self.pilot_stats()
        hf = pilot["models"].index(1)
        want_rho = np.corrcoef(values)[hf]
        want_sigma = values.std(axis=1, ddof=1)
        for row, model_id in enumerate(pilot["models"]):
            reference.require(abs(rho[model_id] - want_rho[row]) <= 1e-12,
                              f"model {model_id}: rho {rho[model_id]!r} != {want_rho[row]!r}")
            reference.require(abs(sigma[model_id] / want_sigma[row] - 1.0) <= 1e-12,
                              f"model {model_id}: sigma {sigma[model_id]!r} != {want_sigma[row]!r}")
            index = (self.seed + model_id) % self.PILOT_SAMPLES
            serial = self.serial_value(model_id, "pilot", index)
            reference.require(serial == values[row][index],
                              f"model {model_id} pilot sample {index}: 2-worker value "
                              f"{values[row][index]!r} != serial {serial!r}")

    def check_validation(self) -> None:
        value = json.loads((self.validate_dir / "validation.json").read_text())["value"]
        serial = np.array([self.serial_value(1, "validation", i)
                           for i in range(self.VALIDATION_SAMPLES)])
        reference.require(value == float(serial.mean()),
                          f"validation mean {value!r} != mean of serial values {serial.mean()!r}")

    def subset_arrays(self, subset):
        rho, sigma = self.pilot_stats()
        return (np.array([rho[i] for i in subset]), np.array([sigma[i] for i in subset]),
                np.array([self.frozen[i] for i in subset]))

    def check_estimate(self) -> None:
        estimate = json.loads((self.estimate_dir / "estimate.json").read_text())
        plan = estimate["plan"]
        subset, samples = plan["subset"], plan["samples"]
        rho, sigma, cost = self.subset_arrays(subset)
        alpha = reference.control_weights(rho, sigma)
        reference.require(np.allclose(plan["alpha"], alpha, rtol=1e-12, atol=0.0),
                          f"plan weights {plan['alpha']} != {alpha.tolist()}")
        reference.require(float(np.dot(cost, samples)) <= plan["budget_seconds"] * (1 + 1e-9),
                          "estimate plan costs more than its budget")
        tag = self.pq.replicate_stream(self.seed, 0).tag
        values = [[self.serial_value(i, tag, k) for k in range(n)]
                  for i, n in zip(subset, samples)]
        want = reference.mfmc_value(values, samples, alpha)
        reference.require(abs(estimate["value"] - want) <= 1e-12,
                          f"estimate {estimate['value']!r} != MFMC formula {want!r}")

    def check_study(self) -> None:
        study = json.loads((self.study_dir / "mse_study.json").read_text())
        mc = {row["budget_seconds"]: row for row in study["rows"] if row["case"] == "mc"}
        for row in study["rows"]:
            label = f"{row['case']} at B={row['budget_seconds']}"
            samples, budget = row["samples"], row["budget_seconds"]
            rho, sigma, cost = self.subset_arrays(row["subset"])
            reference.require(all(a <= b for a, b in zip(samples, samples[1:])),
                              f"{label}: sample counts {samples} decrease")
            reference.require(float(np.dot(cost, samples)) <= budget * (1 + 1e-9),
                              f"{label}: cost {np.dot(cost, samples)!r} exceeds budget")
            if row["case"] == "mc":
                continue
            theory = sigma[0] ** 2 * reference.variance_ratio(rho, cost) * cost[0] / budget
            reference.require(abs(row["theoretical_mse"] / theory - 1.0) <= 1e-9,
                              f"{label}: theoretical MSE {row['theoretical_mse']!r} != {theory!r}")
            b_min = reference.minimum_budget(rho, cost)
            reference.require(row["below_minimum"] == (budget < b_min),
                              f"{label}: below_minimum flag disagrees with B_min={b_min!r}")
            if budget >= b_min:
                reference.require(row["theoretical_mse"] <= mc[budget]["theoretical_mse"],
                                  f"{label}: theoretical MSE above plain Monte Carlo")


WORKLOADS = {
    "hf-reference": HfReference,
    "desk-models": DeskModels,
    "desk-campaign": DeskCampaign,
}
