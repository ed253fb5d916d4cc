"""Record one point of the performance trajectory as ``BENCH_<label>.json``.

Runs ``bench/run.py`` of a checkout untraced for every workload named in its
``BENCHMARK.json`` over a few seeds, then once more per workload with
``--trace 1`` for the noise-free counters.  The traced solver counters read
0 (``bench/layers.py`` counts ``splu`` calls, which the solver no longer
makes), so it also runs ``tools/solver_counts.py`` of this repository on the
checkout for the factorization, sweep, solve and ``B``-product counts and the
factored band sizes (which it can count only on a checkout whose step states
carry those counts).  It writes the
medians, the counters, the versions and the exact commands (the bench's run
in the checkout's root, the counts' in this repository's) to
``BENCH_<label>.json`` at the root of the repository holding this script::

    python3 tools/bench_snapshot.py --label after
    python3 tools/bench_snapshot.py --label before --repo ../checkout-of-parent

Each run takes the benchmark's own ``run_seconds``, so three workloads over
three seeds take about eight minutes, and the counts a few seconds more.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent

#: Traced counters that repeat exactly from run to run, unlike timings.
COUNTERS = (
    "solver.factorizations",
    "solver.sweeps",
    "solver.repeat_factorizations",
    "campaign.evaluations_computed",
)

#: Counts of ``tools/solver_counts.py`` kept per round set.
SOLVER_COUNTS = ("factorizations", "sweeps", "solves", "b_products", "factored_unknowns",
                 "band_flops", "band_storage", "segments")


def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def bench(repo: Path, commands: list[str], workload: str, seed: int, seconds: float,
          trace: int) -> dict:
    """One ``bench/run.py`` run; its result object."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    commands.append(" ".join(["python3", *argv[1:]]))
    print(f"[{len(commands)}] {commands[-1]}", file=sys.stderr, flush=True)
    done = subprocess.run(argv, cwd=repo, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"bench_snapshot: {commands[-1]} printed no result:\n{done.stderr}")
    return json.loads(lines[-1])


def solver_counts(repo: Path, commands: list[str], seed: int) -> dict:
    """The :data:`SOLVER_COUNTS` of both serial round sets of ``repo``."""
    argv = [sys.executable, "tools/solver_counts.py", "--repo", os.path.relpath(repo, ROOT),
            "--seed", str(seed)]
    commands.append(" ".join(["python3", *argv[1:]]))
    print(f"[{len(commands)}] {commands[-1]}", file=sys.stderr, flush=True)
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_snapshot: {commands[-1]} failed:\n{done.stderr}")
    counts = json.loads(done.stdout)
    return {name: {k: counts[name][k] for k in SOLVER_COUNTS}
            for name in ("hf-reference", "desk-models")}


def snapshot(repo: Path, label: str, seeds: list[int]) -> dict:
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = [m["name"] for m in spec["end_to_end"]]
    commands: list[str] = []
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(repo, commands, workload, seed, seconds, 0) for seed in seeds]
        traced = bench(repo, commands, workload, seeds[0], seconds, 1)
        values = [{m: run["metrics"][m]["value"] for m in metrics} for run in runs]
        workloads[workload] = {
            "medians": {m: statistics.median(v[m] for v in values) for m in metrics},
            "runs": [
                {"seed": seed, **{k: run[k] for k in ("correct", "attempted", "failed")},
                 "metrics": v}
                for seed, run, v in zip(seeds, runs, values)
            ],
            "counters": {name: traced["metrics"][name]["value"] for name in COUNTERS},
            "traced_run": {k: traced[k] for k in ("correct", "attempted", "failed")},
        }
    return {
        "label": label,
        "commit": git(repo, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(git(repo, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "run_seconds": seconds,
        "seeds": seeds,
        "commands": commands,
        "workloads": workloads,
        "solver_counts": solver_counts(repo, commands, seeds[0]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--repo", type=Path, default=ROOT,
                        help="checkout to benchmark (default: this repository)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3],
                        help="workload seeds of the untraced runs; the first is traced")
    args = parser.parse_args(argv)
    result = snapshot(args.repo.resolve(), args.label, args.seeds)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
