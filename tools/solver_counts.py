"""Noise-free solver counts of a checkout, and the timing of an n=64 pilot.

Counts the factorizations, active-set sweeps and solves of the two serial
bench round sets at one seed, per factorization backend (``BandCholesky`` or
``BandLU``), by wrapping ``solver._factorize`` (and the ``solve`` of each
factor it returns) and ``solver.time_step``:

* ``hf-reference``: the first 10 steps of reference model 1 (n=128) from
  pilot inputs 0-2;
* ``desk-models``: the nine desk models at pilot inputs 0-2.

These counts repeat exactly from run to run and do not depend on how the
sweep matrix is factorized, so they compare two versions of the solver where
``bench/layers.py`` cannot: it counts ``splu`` calls only, and the solver
makes none.

Then it times ``run_pilot`` of a two-model n=64 family (delta 0.25 and
0.1875, ``t_final`` 0.1, 6 pilot samples) at ``workers`` 1 and 2, in
alternation, and checks that the two worker counts give bit-identical
values.  The BLAS environment is left as the caller set it, so with
``OPENBLAS_NUM_THREADS`` unset the pilot shows how the engine's processes use
BLAS threads.  Run as::

    python3 tools/solver_counts.py
    python3 tools/solver_counts.py --repo ../checkout-of-parent

It prints one JSON object; the counts take about 10 s and each pilot about
2 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STEPS = 10
INPUTS = 3


class CountingFactor:
    """Forwards ``solve`` to a factorization and counts the calls."""

    def __init__(self, factor, counts: Counter, backend: str):
        self.factor, self.counts, self.backend = factor, counts, backend

    def solve(self, rhs):
        self.counts[f"solves.{self.backend}"] += 1
        return self.factor.solve(rhs)


@contextlib.contextmanager
def counting(solver):
    """Count, while the body runs, into the ``Counter`` it is given; the
    one-entry factorization cache starts empty."""
    counts: Counter = Counter()
    factorize, time_step = solver._factorize, solver.time_step

    def counting_factorize(*args):
        factor = factorize(*args)
        backend = type(factor).__name__.lstrip("_")
        counts[f"factorizations.{backend}"] += 1
        return CountingFactor(factor, counts, backend)

    def counting_time_step(*args):
        state = time_step(*args)
        counts["steps"] += 1
        counts["sweeps"] += state.sweeps
        return state

    solver._factorize, solver.time_step = counting_factorize, counting_time_step
    solver._sweep_factorization.cache_clear()
    try:
        yield counts
    finally:
        solver._factorize, solver.time_step = factorize, time_step
        solver._sweep_factorization.cache_clear()
    for name in ("factorizations", "solves"):
        counts[name] = sum(v for k, v in counts.items() if k.startswith(f"{name}."))


def hf_reference_counts(pq, seed: int) -> dict:
    solver, config = pq.solver, pq.reference_config(seed)
    model = config.model(1)
    stencil = solver.model_stencil(model, config.kernel_for(model))
    stream = pq.pilot_stream(seed)
    with counting(solver) as counts:
        for i in range(INPUTS):
            state = solver.initial_state(stencil.grid, stream.theta(i), config.sim)
            for _ in range(STEPS):
                state = solver.time_step(state, stencil, config.sim)
    return dict(sorted(counts.items()))


def desk_models_counts(pq, seed: int) -> dict:
    solver, config = pq.solver, pq.desk_config(seed)
    stream = pq.pilot_stream(seed)
    with counting(solver) as counts:
        for i in range(INPUTS):
            for model in config.models:
                solver.evaluate_model(model, stream.theta(i), config.kernel_for(model),
                                      config.sim)
    return dict(sorted(counts.items()))


def pilot_timings(pq, repeats: int) -> dict:
    models = (
        pq.ModelSpec(model_id=1, n_interior=64, delta=0.25),
        pq.ModelSpec(model_id=2, n_interior=64, delta=0.1875),
    )
    base = pq.CampaignConfig(
        models=models,
        kernel=pq.KernelParams(eps2=0.00178, delta_hf=0.25, delta=0.25, c_f=1.0),
        sim=pq.SimParams(t_final=0.1),
        pilot_samples=6,
    )
    runs, values = [], {}
    for _ in range(repeats):
        for workers in (1, 2):
            config = replace(base, workers=workers)
            start = time.perf_counter()
            with pq.EvalEngine(config) as engine:
                pilot = pq.run_pilot(engine)
            runs.append({"workers": workers, "seconds": time.perf_counter() - start,
                         "c1_seconds": float(pilot.stats.cost[0])})
            values.setdefault(workers, pilot.values)
    return {"runs": runs,
            "values_match_across_workers": bool((values[1] == values[2]).all())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=ROOT,
                        help="checkout whose src/phaseuq is probed (default: this repository)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the bench round sets")
    parser.add_argument("--repeats", type=int, default=2,
                        help="pilot runs per worker count")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.repo.resolve() / "src"))
    import phaseuq as pq

    result = {
        "repo": str(args.repo.resolve()),
        "seed": args.seed,
        "hf-reference": hf_reference_counts(pq, args.seed),
        "desk-models": desk_models_counts(pq, args.seed),
        "pilot-n64": pilot_timings(pq, args.repeats),
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
