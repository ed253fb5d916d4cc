"""Command-line interface.

Commands
--------
``pilot``
    Evaluate all models at shared pilot inputs; write the statistics table.
``subsets``
    Rank feasible model subsets from a statistics table.
``estimate``
    Allocate a budget over a subset and compute one estimate.
``validate``
    Compute the high-fidelity reference estimate.
``mse-study``
    Replicated error study over cases and budgets against the reference.
``simulate``
    Run a single simulation and write field snapshots.

Exit codes: 0 success, 2 configuration/validation error, 3 infeasible subset
or insufficient budget, 4 solver convergence failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import artifacts
from .campaign import (
    CampaignConfig,
    EvalEngine,
    ValidationResult,
    desk_config,
    reference_config,
    run_estimate,
    run_mse_study,
    run_pilot,
    run_validation,
    build_plan,
)
from .errors import ConfigError, PhaseUQError
from .mfmc import enumerate_feasible_subsets, resolve_case
from .sampling import SampleStream, replicate_stream
from .solver import RandomInputs, mass_fraction, model_stencil, run_simulation

logger = logging.getLogger(__name__)


def _load_config(args) -> CampaignConfig:
    name = args.config
    if name == "desk":
        config = desk_config()
    elif name == "reference":
        config = reference_config()
    else:
        config = artifacts.read_json(Path(name), CampaignConfig)
    if getattr(args, "seed", None) is not None:
        config = replace(config, master_seed=args.seed)
    if getattr(args, "workers", None) is not None:
        config = replace(config, workers=args.workers)
    return config


def _out_dir(args, command: str, config: CampaignConfig) -> Path:
    out = Path(args.out) / artifacts.run_id(command, config)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_pilot(args) -> int:
    config = _load_config(args)
    out = _out_dir(args, "pilot", config)
    with EvalEngine(config) as engine:
        result = run_pilot(engine)
    artifacts.write_stats_csv(out / "stats.csv", result.stats)
    artifacts.write_pilot_json(out / "pilot.json", result)
    artifacts.write_json(out / "config.json", config)
    stats = result.stats
    print(f"pilot: {config.pilot_samples} samples x {len(stats.ids)} models")
    print(f"c1_seconds={stats.c1!r}")
    for k, model_id in enumerate(stats.ids):
        print(
            f"model {model_id}: rho={stats.rho[k]:.7f} "
            f"cost_ratio={stats.cost[k] / stats.c1:.4f} sigma={stats.sigma[k]:.4e}"
        )
    print(f"wrote {out / 'stats.csv'}")
    return 0


def _cmd_subsets(args) -> int:
    stats = artifacts.read_stats_csv(Path(args.stats))
    candidates = enumerate_feasible_subsets(stats)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "subsets.csv"
    artifacts.write_subsets_csv(path, candidates, stats.c1)
    print(f"{len(candidates)} feasible subsets")
    for k, cand in enumerate(candidates[:10]):
        print(
            f"rank {k + 1}: {artifacts.subset_label(cand.model_ids)} "
            f"V={cand.v_ratio:.5f} Bmin={cand.b_min / stats.c1:.2f}*C1"
        )
    print(f"wrote {path}")
    return 0


def _cmd_estimate(args) -> int:
    config = _load_config(args)
    stats = artifacts.read_stats_csv(Path(args.stats))
    candidate = resolve_case(stats, args.subset)
    plan = build_plan(
        stats, candidate, args.budget, allow_below_minimum=args.allow_below_min
    )
    out = _out_dir(args, "estimate", config)
    artifacts.write_json(out / "plan.json", plan)
    with EvalEngine(config) as engine:
        result = run_estimate(engine, plan, replicate_stream(config.master_seed, 0).tag)
    artifacts.write_json(out / "estimate.json", result)
    artifacts.write_json(out / "config.json", config)
    below = " (below minimum budget)" if plan.below_minimum else ""
    print(f"subset {artifacts.subset_label(plan.model_ids)}{below}")
    print(f"samples {artifacts.subset_label(plan.samples)}")
    print(f"estimate {result.value!r}")
    print(f"realized_cost_seconds {result.realized_cost!r}")
    print(f"wrote {out / 'estimate.json'}")
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args)
    if args.samples is not None:
        config = replace(config, validation_samples=args.samples)
    out = _out_dir(args, "validate", config)
    with EvalEngine(config) as engine:
        result = run_validation(engine)
    artifacts.write_json(out / "validation.json", result)
    artifacts.write_json(out / "config.json", config)
    print(f"reference {result.value!r} from {result.n_samples} samples")
    print(f"wrote {out / 'validation.json'}")
    return 0


def _cmd_mse_study(args) -> int:
    config = _load_config(args)
    if args.budgets:
        try:
            budgets = tuple(float(tok) for tok in args.budgets.split(","))
        except ValueError:
            raise ConfigError(f"cannot parse budgets {args.budgets!r}") from None
        config = replace(config, budgets=budgets)
    stats = artifacts.read_stats_csv(Path(args.stats))
    reference = artifacts.read_json(Path(args.validation), ValidationResult).value
    out = _out_dir(args, "mse-study", config)
    with EvalEngine(config) as engine:
        study = run_mse_study(engine, stats, reference)
    artifacts.write_study_csv(out / "mse_study.csv", study)
    artifacts.write_json(out / "mse_study.json", study)
    artifacts.write_json(out / "config.json", config)
    for row in study.rows:
        print(
            f"{row.case:>10} B={row.budget:9.3f}s subset="
            f"{artifacts.subset_label(row.model_ids):<12} "
            f"emp={row.empirical_mse:.4e} theory={row.theoretical_mse:.4e}"
        )
    print(f"wrote {out / 'mse_study.csv'}")
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    model = config.model(args.model)
    if args.theta_file is not None:
        theta = artifacts.read_json(Path(args.theta_file), RandomInputs)
    else:
        theta = SampleStream(config.master_seed, args.stream).theta(args.theta_index)
    stencil = model_stencil(model, config.kernel_for(model))
    grid = stencil.grid
    out = _out_dir(args, f"simulate-m{model.model_id}", config)
    sim = config.sim
    every = args.snapshot_every
    times = []
    fractions = []

    def record(state) -> None:
        k = len(times)
        times.append(state.t)
        fractions.append(mass_fraction(grid, state.padded))
        if k in (0, sim.n_steps) or (every > 0 and k % every == 0):
            artifacts.write_field_csv(out / f"u_t{k:04d}.csv", state.padded)

    run_simulation(grid, stencil, theta, sim, on_step=record)
    summary = {
        "model": model.model_id,
        "n_interior": model.n_interior,
        "pad": grid.pad,
        "delta": model.delta,
        "t_final": sim.t_final,
        "times": times,
        "mass_fraction": fractions,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"model {model.model_id}: mass fraction {fractions[-1]!r} at t={times[-1]:g}")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseuq",
        description=(
            "Nonlocal phase-change simulation and multifidelity Monte Carlo "
            "estimation of the phase mass fraction"
        ),
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log evaluation progress"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--config",
            default="desk",
            help="JSON config path, or builtin name 'desk' or 'reference'",
        )
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument(
            "--workers", type=int, default=None, help="override worker count"
        )
        p.add_argument("--out", default="phaseuq-out", help="artifact directory")

    p = sub.add_parser("pilot", help="estimate model statistics from shared samples")
    common(p)
    p.set_defaults(func=_cmd_pilot)

    p = sub.add_parser("subsets", help="rank feasible model subsets")
    p.add_argument("--stats", required=True, help="stats.csv from the pilot")
    p.add_argument("--out", default="phaseuq-out", help="artifact directory")
    p.set_defaults(func=_cmd_subsets)

    p = sub.add_parser("estimate", help="allocate a budget and estimate once")
    common(p)
    p.add_argument("--stats", required=True, help="stats.csv from the pilot")
    p.add_argument("--budget", type=float, required=True, help="budget in seconds")
    p.add_argument(
        "--subset",
        default="min-V",
        help="selection rule: min-V, min-budget, rank:K, or ids:1+3+9",
    )
    p.add_argument(
        "--allow-below-min",
        action="store_true",
        help="permit budgets below the subset's minimum budget",
    )
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("validate", help="high-fidelity reference estimate")
    common(p)
    p.add_argument(
        "--samples", type=int, default=None, help="override validation sample count"
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("mse-study", help="replicated estimator error study")
    common(p)
    p.add_argument("--stats", required=True, help="stats.csv from the pilot")
    p.add_argument(
        "--validation", required=True, help="validation.json with the reference"
    )
    p.add_argument(
        "--budgets", default=None, help="override budgets, e.g. '5,10,20'"
    )
    p.set_defaults(func=_cmd_mse_study)

    p = sub.add_parser("simulate", help="run one simulation and write snapshots")
    common(p)
    p.add_argument("--model", type=int, required=True, help="model id to run")
    p.add_argument(
        "--theta-index", type=int, default=0, help="index into the sampling stream"
    )
    p.add_argument(
        "--stream", default="pilot", help="sampling stream tag for --theta-index"
    )
    p.add_argument(
        "--theta-file",
        default=None,
        help="JSON file with explicit inputs {'mu': [...], 'eta': [[...]]}",
    )
    p.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        help="write a field snapshot every K steps (0: initial and final only)",
    )
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except PhaseUQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
