"""Noise-free solver counts of a checkout.

Sums the work counts that every ``solver.time_step`` reports in its state
(``sweeps``, ``factorizations``, ``solves`` and ``b_products``, see the
``solver.py`` docstring) over the two serial bench round sets at one seed,
each from an empty factorization cache.  From one factorization of each
model's grid it takes the sizes of the LAPACK bands that every
factorization of that model holds (one for band LU, one per segment for
band Cholesky): ``factored_unknowns`` adds their columns ``N_j``,
``band_flops`` adds ``N_j * kd_j**2``, the order of the factorization's
flops for bandwidth ``kd_j``, and ``band_storage`` the numbers each band
holds, all once per factorization.  ``segments`` lists, per factorization
backend (``BandCholesky`` or ``BandLU``), each distinct chain of bands as
its ``(kd_j, N_j)`` pairs.  The round sets are:

* ``hf-reference``: the first 10 steps of reference model 1 (n=128) from
  pilot inputs 0-2;
* ``desk-models``: the nine desk models at pilot inputs 0-2.

These counts repeat exactly from run to run, so they compare two versions of
the solver where timings cannot.  Only a checkout whose states carry the
counts can be counted.  The factorization, sweep, solve and product counts
do not depend on how the sweep matrix is factorized; the band sizes show how
much each factorization works on.  Run as::

    python3 tools/solver_counts.py
    python3 tools/solver_counts.py --repo ../checkout-of-parent

It prints one JSON object, in about 3 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STEPS = 10
INPUTS = 3

#: The work counts of a step's state that :func:`count` sums.
WORK = ("sweeps", "factorizations", "solves", "b_products")


def bands(factor) -> list[tuple[int, int, int]]:
    """The bandwidth, columns and rows of each LAPACK band a factor holds:
    band LU keeps ``3 kd + 1`` rows in ``lu`` and ``kd`` in ``k``, band
    Cholesky ``kd_j + 1`` rows per segment in ``chain``."""
    if hasattr(factor, "lu"):
        return [(factor.k, factor.lu.shape[1], factor.lu.shape[0])]
    return [(band.shape[0] - 1, band.shape[1], band.shape[0]) for _, band, _ in factor.chain]


def count(pq, config, runs, steps: int) -> dict:
    """The summed work of ``runs``, ``(model, theta)`` pairs of ``config``
    stepped in turn from an empty factorization cache, ``steps`` time steps
    each, and the band sizes of their factorizations."""
    solver, sim = pq.solver, config.sim
    work: dict = {}
    solver._sweep_factorization.cache_clear()
    for model, theta in runs:
        stencil = solver.model_stencil(model, config.kernel_for(model))
        counts = work.setdefault(model, (stencil, Counter()))[1]
        state = solver.initial_state(stencil.grid, theta, sim)
        for _ in range(steps):
            state = solver.time_step(state, stencil, sim)
            counts.update({"steps": 1, **{name: getattr(state, name) for name in WORK}})
    totals: Counter = Counter()
    chains: dict[str, set] = {}
    for stencil, counts in work.values():
        grid = stencil.grid
        key = (grid.n_solution, grid.h, stencil.xi, sim.beta1, sim.beta2, sim.dt)
        factor = solver._sweep_factorization(*key, bytes(grid.n_solution**2))
        chain = bands(factor)
        totals.update(counts)
        totals["factored_unknowns"] += counts["factorizations"] * sum(c for _, c, _ in chain)
        totals["band_flops"] += counts["factorizations"] * sum(c * kd**2 for kd, c, _ in chain)
        totals["band_storage"] += counts["factorizations"] * sum(c * rows for _, c, rows in chain)
        chains.setdefault(type(factor).__name__.lstrip("_"), set()).add(
            tuple((kd, columns) for kd, columns, _ in chain)
        )
    solver._sweep_factorization.cache_clear()
    totals["segments"] = {backend: sorted(map(list, found)) for backend, found in chains.items()}
    return dict(sorted(totals.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=ROOT,
                        help="checkout whose src/phaseuq is probed (default: this repository)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the bench round sets")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.repo.resolve() / "src"))
    import phaseuq as pq

    stream = pq.pilot_stream(args.seed)
    reference, desk = pq.reference_config(args.seed), pq.desk_config(args.seed)
    result = {
        "repo": str(args.repo.resolve()),
        "seed": args.seed,
        "hf-reference": count(
            pq, reference, [(reference.model(1), stream.theta(i)) for i in range(INPUTS)], STEPS
        ),
        "desk-models": count(
            pq, desk, [(model, stream.theta(i)) for i in range(INPUTS) for model in desk.models],
            desk.sim.n_steps,
        ),
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
