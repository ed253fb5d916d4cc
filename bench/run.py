"""Layered benchmark of phaseuq.

Run from the repository root::

    python3 bench/run.py --workload hf-reference --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``python3 bench/run.py --cost-table`` measures the frozen
per-model cost table anew.  See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys
import time

# One BLAS/OpenMP thread per process, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def process_age() -> float:
    """Seconds since this process started (Linux ``/proc`` start time)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def import_package():
    """The package from this checkout's ``src``; nothing installed elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import phaseuq
        import phaseuq.artifacts
        import phaseuq.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import phaseuq from {src}: {exc}")
    if Path(phaseuq.__file__).resolve().parent.parent != src:
        sys.exit(f"bench: phaseuq was imported from {phaseuq.__file__}, not {src}")
    return phaseuq


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--cost-table", action="store_true",
                        help="measure the frozen desk cost table from desk-models")
    args = parser.parse_args(argv)
    if not args.cost_table and args.workload is None:
        parser.error("--workload is required")

    pq = import_package()
    if args.cost_table:
        table = {
            "made_by": f"python3 bench/run.py --cost-table --seed {args.seed} "
                       f"--seconds {args.seconds:g}",
            "cost_s": workloads.DeskModels(pq, args.seed).cost_table(args.seconds),
        }
        OUT.mkdir(parents=True, exist_ok=True)
        text = json.dumps(table, indent=2) + "\n"
        (OUT / "frozen_costs.json").write_text(text)
        print(text, end="")
        return 0

    workload = workloads.WORKLOADS[args.workload](pq, args.seed)
    setup_s = process_age()
    passes = workload.measure(args.seconds)
    if args.trace:
        untraced = workload.summary()
        tracer = layers.Tracer()
        workload.install_tracing(tracer)
        workload.reset_timings()
        try:
            for _ in range(passes):
                workload.run_pass()
        finally:
            tracer.restore()
        traced = workload.summary()
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.layer_metrics(tracer, passes).items()}
        for name in ("op_s", "round_s"):
            metrics[f"trace.overhead.{name}"] = {
                "value": traced[name] - untraced[name], "unit": "s"}
    else:
        metrics = {name: {"value": value, "unit": "s"}
                   for name, value in workload.summary().items()}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}

    problems = workload.check()
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "run"
    (OUT / f"{args.workload}-{kind}.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
