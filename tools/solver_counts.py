"""Noise-free solver counts of a checkout, and the timing of an n=64 pilot.

Counts the factorizations, active-set sweeps and solves of the two serial
bench round sets at one seed, per factorization backend (``BandCholesky`` or
``BandLU``), by wrapping ``solver._factorize`` (and the ``solve`` of each
factor it returns) and ``solver.time_step``, and the products by ``B``
(``b_products``) by wrapping ``solver._matvec``, through which the solver
makes every sparse product, and counting those whose matrix is a ``B`` that
``solver._step_matrices`` returned.  Per backend it also sums the sizes of
the LAPACK bands each factorization holds (one for band LU, one per segment
for band Cholesky): ``factored_unknowns`` adds their columns ``N_j``,
``band_flops`` adds ``N_j * kd_j**2``, the order of the factorization's
flops for bandwidth ``kd_j``, and ``band_storage`` the numbers each band
holds.  ``segments`` lists, per backend, each distinct chain of bands as
its ``(kd_j, N_j)`` pairs.  The round sets are:

* ``hf-reference``: the first 10 steps of reference model 1 (n=128) from
  pilot inputs 0-2;
* ``desk-models``: the nine desk models at pilot inputs 0-2.

These counts repeat exactly from run to run, so they compare two versions of
the solver where ``bench/layers.py`` cannot: it counts ``splu`` calls only,
and the solver makes none.  A checkout whose solver has no ``_matvec`` (one
from before sparse products went through it) cannot be counted.  The
factorization, sweep, solve and product counts do not depend on how the
sweep matrix is factorized; the band sizes show how much each factorization
works on.

Then it times ``run_pilot`` of a two-model n=64 family (delta 0.25 and
0.1875, ``t_final`` 0.1, 6 pilot samples) at ``workers`` 1 and 2, in
alternation, and checks that the two worker counts give bit-identical
values.  The BLAS environment is left as the caller set it, so with
``OPENBLAS_NUM_THREADS`` unset the pilot shows how the engine's processes use
BLAS threads.  Run as::

    python3 tools/solver_counts.py
    python3 tools/solver_counts.py --repo ../checkout-of-parent
    python3 tools/solver_counts.py --repeats 0    # the counts only

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


def bands(factor) -> list[tuple[int, int, int]]:
    """The bandwidth, columns and rows of each LAPACK band a factor holds:
    band LU keeps ``3 kd + 1`` rows in ``lu`` and ``kd`` in ``k``, band
    Cholesky ``kd_j + 1`` rows per segment in ``chain`` (in ``factor``, one
    band, on checkouts from before the segments)."""
    if hasattr(factor, "lu"):
        return [(factor.k, factor.lu.shape[1], factor.lu.shape[0])]
    chain = [band for _, band, _ in factor.chain] if hasattr(factor, "chain") else [factor.factor]
    return [(band.shape[0] - 1, band.shape[1], band.shape[0]) for band in chain]


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
    step_matrices, matvec, b_ids = solver._step_matrices, solver._matvec, set()
    chains: dict[str, set] = {}

    def counting_factorize(*args):
        factor = factorize(*args)
        backend = type(factor).__name__.lstrip("_")
        chain = bands(factor)
        counts[f"factorizations.{backend}"] += 1
        counts[f"factored_unknowns.{backend}"] += sum(columns for _, columns, _ in chain)
        counts[f"band_flops.{backend}"] += sum(columns * kd**2 for kd, columns, _ in chain)
        counts[f"band_storage.{backend}"] += sum(columns * rows for _, columns, rows in chain)
        chains.setdefault(backend, set()).add(tuple((kd, columns) for kd, columns, _ in chain))
        return CountingFactor(factor, counts, backend)

    def counting_time_step(*args):
        state = time_step(*args)
        counts["steps"] += 1
        counts["sweeps"] += state.sweeps
        return state

    def recording_step_matrices(*args):
        operators = step_matrices(*args)
        b_ids.add(id(operators[0]))
        return operators

    def counting_matvec(matrix, vector):
        counts["b_products"] += id(matrix) in b_ids
        return matvec(matrix, vector)

    solver._factorize, solver.time_step = counting_factorize, counting_time_step
    solver._step_matrices, solver._matvec = recording_step_matrices, counting_matvec
    solver._sweep_factorization.cache_clear()
    try:
        yield counts
    finally:
        solver._factorize, solver.time_step = factorize, time_step
        solver._step_matrices, solver._matvec = step_matrices, matvec
        solver._sweep_factorization.cache_clear()
    for name in ("factorizations", "solves", "factored_unknowns", "band_flops", "band_storage"):
        counts[name] = sum(v for k, v in counts.items() if k.startswith(f"{name}."))
    counts["segments"] = {backend: sorted(map(list, found)) for backend, found in chains.items()}


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
                        help="pilot runs per worker count; 0 skips the pilot")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.repo.resolve() / "src"))
    import phaseuq as pq

    result = {
        "repo": str(args.repo.resolve()),
        "seed": args.seed,
        "hf-reference": hf_reference_counts(pq, args.seed),
        "desk-models": desk_models_counts(pq, args.seed),
    }
    if args.repeats > 0:
        result["pilot-n64"] = pilot_timings(pq, args.repeats)
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
