"""Shows that every output check of the benchmark rejects a perturbed input.

Run from the repository root::

    python3 bench/selftest.py

Each line names a check and a perturbation and says whether the check
rejected it.  An unperturbed output must be accepted and every perturbed one
rejected; the exit code is 1 otherwise.  Takes about a minute: it runs one
desk-campaign pipeline.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np

import run

pq = run.import_package()

import reference  # noqa: E402
import workloads  # noqa: E402
from reference import CheckError  # noqa: E402

outcomes: list[bool] = []


def expect(name: str, check, reject: bool, match: str = "") -> None:
    """Run ``check``; it must raise CheckError (with ``match`` in the
    message) exactly when ``reject``."""
    try:
        check()
        rejected, message = False, ""
    except CheckError as exc:
        rejected, message = True, str(exc)
    ok = rejected == reject and match in message
    outcomes.append(ok)
    verdict = "rejected" if rejected else "accepted"
    print(f"{'ok ' if ok else 'BAD'} {name}: {verdict} {message}".rstrip())


def problems_check(problems_of, match: str):
    """Adapt a workload's ``check()`` problem list to a raising check."""

    def check():
        found = [p for p in problems_of() if match in p]
        reference.require(not found, "; ".join(found))

    return check


def step_checks() -> None:
    config = pq.desk_config(1)
    model = config.model(8)
    kernel = config.kernel_for(model)
    grid = pq.build_grid(model.n_interior, kernel.delta_hf)
    stencil = pq.build_stencil(grid, kernel)
    prev = pq.initial_state(grid, pq.pilot_stream(1).theta(0), config.sim)
    state = pq.time_step(prev, stencil, config.sim)
    ref = workloads.reference_model(config, model)
    g = ref.convolve(prev.padded).ravel()
    expect("reference convolution matches the package",
           lambda: reference.require(
               np.abs(g - pq.convolve(stencil, prev.padded).ravel()).max() <= 1e-13,
               "convolutions differ"), reject=False)

    def perturbed(**changes):
        fields = dict(padded=state.padded.copy(), multiplier=state.multiplier.copy(),
                      active_pos=state.active_pos, active_neg=state.active_neg)
        fields.update(changes)
        return types.SimpleNamespace(**fields)

    free = np.flatnonzero(~(state.active_pos | state.active_neg))[0]
    row, col = divmod(int(free), ref.n_sol)
    node = (ref.pad + row, ref.pad + col)
    nudged = state.padded.copy()
    nudged[node] += 1e-6
    over = state.padded.copy()
    over[node] = 1.0 + 1e-6
    collar = state.padded.copy()
    collar[0, 0] += 1e-6
    doubled = state.padded.copy()
    doubled[ref.pad:ref.pad + ref.n_sol, ref.pad:ref.pad + ref.n_sol] += 2.0
    cases = {
        reference.check_obstacle_bound: ("u = 1 + 1e-6 on a free node", perturbed(padded=over)),
        reference.check_multiplier_signs: ("flipped multiplier sign",
                                           perturbed(multiplier=-state.multiplier)),
        reference.check_residual: ("u + 1e-6 on a free node", perturbed(padded=nudged)),
        reference.check_balance_law: ("u + 1e-6 on a free node", perturbed(padded=nudged)),
        reference.check_collar: ("collar node + 1e-6", perturbed(padded=collar)),
        reference.check_mass_fraction: ("u + 2 on the solution block", perturbed(padded=doubled)),
    }
    for check, (what, bad) in cases.items():
        name = check.__name__
        expect(f"{name}, solver output", lambda: check(ref, prev.padded, state, g), reject=False)
        expect(f"{name}, {what}", lambda: check(ref, prev.padded, bad, g), reject=True)


def desk_models_checks() -> None:
    class OneInput(workloads.DeskModels):
        INPUTS = 1

    work = OneInput(pq, 1)
    work.run_pass()
    match = "evaluate_model returned"
    expect("desk-models checks, solver output", problems_check(work.check, ""), reject=False)
    key = (9, 0)
    work.values[key] = np.nextafter(work.values[key], 1.0)
    expect("desk-models value, evaluate_model result + 1 ulp",
           problems_check(work.check, match), reject=True, match=match)
    work.run_pass()
    expect("desk-models repeat, repeated evaluation against a changed first value",
           problems_check(lambda: work.repeat_mismatch, "differs"), reject=True, match="differs")


def campaign_checks() -> None:
    work = workloads.DeskCampaign(pq, 1)
    work.run_pass()
    checks = {"pilot": work.check_pilot, "validate": work.check_validation,
              "estimate": work.check_estimate, "mse-study": work.check_study}
    for name, check in checks.items():
        expect(f"desk-campaign {name}, CLI output", check, reject=False)

    def with_edit(path: Path, edit, check, name: str, match: str = "") -> None:
        original = path.read_text()
        path.write_text(edit(original))
        try:
            expect(name, check, reject=True, match=match)
        finally:
            path.write_text(original)

    def json_edit(change):
        def edit(text):
            data = json.loads(text)
            change(data)
            return json.dumps(data)
        return edit

    def flip_rho(text):
        lines = text.splitlines()
        fields = lines[3].split(",")  # model 2
        fields[3] = repr(-float(fields[3]))
        lines[3] = ",".join(fields)
        return "\n".join(lines) + "\n"

    def nudge_sampled_pilot_value(data):
        index = (work.seed + 3) % work.PILOT_SAMPLES
        row = data["models"].index(3)
        data["values"][row][index] = float(np.nextafter(data["values"][row][index], 1.0))

    stats = work.pilot_dir / "stats.csv"
    pilot = work.pilot_dir / "pilot.json"
    validation = work.validate_dir / "validation.json"
    estimate = work.estimate_dir / "estimate.json"
    study = work.study_dir / "mse_study.json"
    with_edit(stats, flip_rho, work.check_pilot, "pilot rho, model 2 sign flipped", "rho")
    with_edit(pilot, json_edit(nudge_sampled_pilot_value), work.check_pilot,
              "pilot value, sampled value + 1 ulp", "2-worker value")
    with_edit(validation, json_edit(lambda d: d.update(value=np.nextafter(d["value"], 1.0))),
              work.check_validation, "validation mean + 1 ulp", "validation mean")
    with_edit(estimate, json_edit(lambda d: d.update(value=d["value"] + 1e-9)),
              work.check_estimate, "estimate shifted by 1e-9", "MFMC formula")
    with_edit(estimate, json_edit(lambda d: d["plan"]["alpha"].__setitem__(0, 1.5)),
              work.check_estimate, "estimate weight changed", "plan weights")

    def mfmc_rows(data):
        return [r for r in data["rows"] if r["case"] != "mc"]

    def reverse_samples(data):
        row = mfmc_rows(data)[0]
        row["samples"] = row["samples"][::-1]

    def overspend(data):
        data["rows"][-1]["samples"] = [data["rows"][-1]["samples"][0] * 10]

    def scale_theory(data):
        mfmc_rows(data)[0]["theoretical_mse"] *= 1.01

    def flip_below_minimum(data):
        row = mfmc_rows(data)[0]
        row["below_minimum"] = not row["below_minimum"]

    def mc_beats_mfmc(data):
        # A budget far above every minimum budget, with the MFMC row's
        # theoretical MSE recomputed for it, and plain MC claiming zero error.
        row = mfmc_rows(data)[0]
        rho, sigma, cost = work.subset_arrays(row["subset"])
        budget = 1e6
        row.update(budget_seconds=budget, below_minimum=False,
                   theoretical_mse=sigma[0] ** 2 * reference.variance_ratio(rho, cost)
                   * cost[0] / budget)
        data["rows"].append({"case": "mc", "subset": [1], "budget_seconds": budget,
                             "samples": [1], "theoretical_mse": 0.0})

    for change, what, match in (
        (reverse_samples, "sample counts reversed", "decrease"),
        (overspend, "MC samples x10", "exceeds budget"),
        (scale_theory, "theoretical MSE x1.01", "theoretical MSE"),
        (flip_below_minimum, "below_minimum flag flipped", "below_minimum"),
        (mc_beats_mfmc, "MC theoretical MSE 0 above the minimum budget", "above plain Monte Carlo"),
    ):
        with_edit(study, json_edit(change), work.check_study, f"mse-study {what}", match)


if __name__ == "__main__":
    step_checks()
    desk_models_checks()
    campaign_checks()
    print(f"{sum(outcomes)} of {len(outcomes)} as expected")
    sys.exit(0 if all(outcomes) else 1)
