"""Phase-field simulation with a double-obstacle potential.

The state ``u`` lives on the padded grid of :mod:`phaseuq.grid` and is
constrained to ``[-1, 1]``.  Solution nodes evolve under a conserved nonlocal
dynamic; collar nodes carry fixed interaction data.  One implicit time step
solves the complementarity system

.. code-block:: text

    A u + B lam = u_prev / dt + B g,      g = kernel * u_prev,
    lam in the normal cone of [-1, 1] at u,

with ``B = beta1 * I - beta2 * Lap`` (lumped mass, homogeneous Neumann
Laplacian in flux form) and ``A = I / dt + xi * B``.  The active-set strategy
guesses which nodes sit on the obstacle bounds, solves the resulting linear
system exchanging unknowns ``u`` (free nodes) and ``lam`` (active nodes), and
updates the guess from the multiplier sign test until the sets are stable.

The matrix ``M`` of one sweep takes the columns of ``A`` at free nodes and
those of ``B`` at active ones; ``A`` is never assembled.  With
``P_F = diag(1 on free nodes, 0 on active nodes)``,

.. code-block:: text

    M   = P_F / dt + B E,     E = diag(xi on free nodes, 1 on active nodes),
    M D = P_F / dt + xi B,    D = diag(1 on free nodes, xi on active nodes).

``B`` is a 5-point operator, so on the checkerboard colouring (red nodes
``i + j`` even, black ``i + j`` odd) each colour couples only to the other,
and ``M``'s red-red block is diagonal.  Every sweep eliminates the red nodes
exactly and factors only the black Schur complement
``S = M_K - C_KR diag(E_R / M_R) C_RK E_K``, where ``C`` is ``B``'s fixed
red-black coupling: ``n_solution**2 // 2`` unknowns with the bandwidth
``n_solution`` of ``M`` itself, so the band, the factorization flops and the
band solves are halved.  A per-grid plan, cached with ``B``, maps the
reciprocal red diagonal to the slots of the black bands.  ``S D_K`` is the
Schur complement of ``M D``, so it is symmetric, and positive definite when
``xi > 0`` and ``beta1 > 0``: on every grid those models get LAPACK's band
Cholesky of ``S D_K`` (``dpbtrf``, below), the others band LU of ``S``
(``dgbtrf``, ``3 n_solution + 1`` rows).  In the
built-in families only reference models 5 and 6 take band LU above
``n_interior = 64``, and :func:`check_well_posed` rejects both at their
``dt``.  At a smaller ``dt``, band LU of ``S`` at ``n_interior = 128`` takes
about twice as long per factorization as band Cholesky (31 against 15 ms on
a loaded 2-core machine, where band LU of the whole ``M`` took 62 ms) and
holds a 26 MB band (204 MB at ``n_interior = 256``).

The plan orders the black nodes by anti-diagonal (``i + j``, then ``i``).
``S`` couples each black node only to those on its own anti-diagonal and
the two next to it, so in that order the first column of each row of its
lower triangle never decreases, and the rows' widths grow from 2 to
``n_solution`` and back: the envelope is a diamond, and envelope Cholesky
(George & Liu, *Computer Solution of Large Sparse Positive Definite
Systems*, 1981) needs about half the flops of the band.  Band Cholesky
factors ``S D_K`` as a chain of band segments, one ``dpbtrf`` each with its
own bandwidth, joined exactly by block Cholesky (see
:class:`_BandCholesky`); the boundaries fall between anti-diagonals.  A band
is split only when it is at least four ``dpbtrf`` blocks (``4 * 32``) wide,
into segments of 16 anti-diagonals from either end, whose bandwidths step by
one block, and one middle segment that holds the widest anti-diagonals (a
boundary there would save no band work and cost the largest interface): of
the built-in grids only ``n_interior = 128`` is split, into 7 segments of
bandwidths 32, 64, 96, 129, 96, 64 and 32.  On a shared 2-core machine
(OpenBLAS, one thread), one factorization of reference model 1's ``S D_K``
after 5 steps took 10-21% less time in 8 segments of 16 anti-diagonals
than in one band (7.1-7.6 against 7.7-9.1 ms in quiet spells, medians of
30-80 interleaved repeats), and 2 points less again without the boundary
at the widest anti-diagonal; the solves agreed with one band's to 4e-15.
At ``n_interior = 64`` no split paid: 2, 4 and 6
segments were 10-39% slower and 3 segments 2% faster, since ``dpbtrf``
spends more per column of a narrow band than the narrowing saves (0.56 us
per column at bandwidth 64, 0.41 us at 65).  Band LU keeps one band over the
same order, of bandwidth ``n_solution``.

Each residual of a step is one product by ``B``:
``r(u, lam) = rhs0 - u / dt - B (xi u + lam) = rhs0 - A u - B lam``.  A sweep
solves ``M x = r(pinned, 0)`` and applies the sign test to its ``u`` and
``lam``; as in any semismooth Newton method, a sweep whose sets change only
proposes the next sets, and its residual is never formed.  Only the sweep
that reproduces its own sets forms ``r = r(u, lam)``; when ``max |r|`` misses
``solver_tol`` (or is NaN) it refines ``x`` once by a second solve from
``r`` and tests the refined ``u`` and ``lam`` again, going on with the new
sets if they changed and forming the refined residual only if they did not.
The step is accepted when that ``max |r|`` is within ``solver_tol``, so a
sweep makes one product by ``B`` and the accepting sweep one more.  The
active sets are one ``int8`` sign per node (``+1`` on the upper bound, ``-1``
on the lower, ``0`` free), and a sweep compares its tested signs with its
own as bytes, once per solve.

A step runs in the red-black order from start to end: it gathers ``u_prev``,
``g``, ``rhs0`` and the sets into ``plan.order`` once, every sweep works on
red-black vectors, masks and factorizations, and the step scatters ``u``,
``lam`` and the sets back to the natural order once at the end.  The one
cached ``B`` is in that order too: its rows are permuted, and each row keeps
its entries in the natural column order, so every product by it adds the
same terms in the same order as the natural ``B`` and gives the same bits.
Every sparse product of a step (``B``, the couplings and ``t_map``) goes
through :func:`_matvec`, which calls scipy's CSR kernel
``scipy.sparse._sparsetools.csr_matvec`` directly.  That is the kernel ``@``
calls, so the products are bit-identical, and skipping ``@``'s dispatch
roughly halves their cost on the small grids.  It is a private scipy entry
point and a maintenance risk: a scipy release may move or change it, and
``tests/test_solver.py`` compares :func:`_matvec` with ``@`` bit for bit on
every matrix a step multiplies by.  The convolution of each step has the
same risk: :func:`phaseuq.grid.convolve` calls scipy's private pocketfft
transforms (``scipy.fft._pocketfft.pypocketfft``) directly, and
``tests/test_grid.py`` compares them with ``rfftn``/``irfftn`` bit for bit.

A one-entry cache keyed by the operators and the active set carries the last
factorization to the next call: a step starts from the active sets its
predecessor converged on, so its first sweep reuses the factorization of the
previous step's last sweep instead of factorizing the same matrix again.

Each step counts its work in the :class:`StepState` it returns, next to
``sweeps``: ``factorizations`` are the misses of this process's cache during
the step (a regularized refactorization counted once), ``solves`` one per
sweep and refinement, and ``b_products`` one for ``rhs0`` and one per
residual.  Unlike timings they repeat exactly, given what the cache held
before the step.

A step is well posed only if ``A`` is positive definite;
:func:`check_well_posed` tests that in closed form before any solve.

The model output of interest is the mass fraction of the ``+1`` phase,
``0.5 * (1 + mean(u))`` over the solution block.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
# Unused here, but bench/layers.py patches ``solver.spla`` to trace ``splu``, and
# ``bench/run.py --trace 1`` fails without the attribute.
import scipy.sparse.linalg as spla  # noqa: F401
from scipy.linalg import blas, lapack
from scipy.sparse import _sparsetools

from .errors import ConfigError, ConvergenceError, as_float, as_int
from .grid import ConvolutionStencil, Grid, KernelParams, cached_stencil, convolve

__all__ = [
    "NUCLEUS_CENTERS",
    "DEPTH_RANGE",
    "SHIFT_RANGE",
    "ModelSpec",
    "SimParams",
    "RandomInputs",
    "StepState",
    "ModelEvaluation",
    "initial_condition",
    "initial_state",
    "check_well_posed",
    "model_stencil",
    "time_step",
    "run_simulation",
    "mass_fraction",
    "evaluate_model",
]

#: Nominal centers of the four undercooled nuclei in the initial condition.
NUCLEUS_CENTERS = np.array(
    [
        [0.25, 0.50],
        [0.75, 0.50],
        [0.50, 0.25],
        [0.50, 0.75],
    ]
)

#: Inverse squared width of each Gaussian nucleus.
_NUCLEUS_SHARPNESS = 36.0

#: Admissible ranges of the random inputs: depth in [0.9, 1.0] and
#: per-axis center shift in [-0.025, 0.025].
DEPTH_RANGE = (0.9, 1.0)
SHIFT_RANGE = (-0.025, 0.025)

_RANGE_TOL = 1e-12

#: Absolute threshold in the active-set sign tests.  Filters pure roundoff so
#: that stationary states sitting exactly on a bound cannot make the sets
#: oscillate between sweeps; far below every solver tolerance.
_ACTIVATION_TOL = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    """One member of the model family: a grid resolution and truncation radius.

    Attributes
    ----------
    model_id:
        Positive identifier; id 1 is reserved for the high-fidelity model.
        Written to JSON as ``id``.
    n_interior:
        Cells per side (``h = 1 / n_interior``).  Written to JSON as ``n``.
    delta:
        Kernel truncation radius of this model.
    label:
        Free-form display name.
    """

    model_id: int = field(metadata={"json_key": "id"})
    n_interior: int = field(metadata={"json_key": "n"})
    delta: float
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("model_id", "n_interior"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, low=1))
        object.__setattr__(self, "delta", as_float(self.delta, "delta", positive=True))

    @property
    def h(self) -> float:
        return 1.0 / self.n_interior


@dataclass(frozen=True)
class SimParams:
    """Time stepping and solver controls.

    Attributes
    ----------
    beta1:
        Bulk relaxation coefficient of the chemical potential (>= 0).
    beta2:
        Diffusive mobility of the chemical potential (>= 0, beta1 + beta2 > 0).
    dt:
        Time step size.
    t_final:
        Final time; must be a near-integer multiple of ``dt``.
    solver_tol:
        Absolute residual bound accepted for one step's linear system.
    max_sweeps:
        Active-set iteration limit per time step.
    active_set_c:
        Positive weight in the active-set update test
        ``lam + c * (u -/+ 1)``.
    interaction_fill:
        Data on the collar nodes: ``"initial"`` freezes the initial condition
        there, ``"plus-one"`` uses the constant 1.
    """

    beta1: float = 1.0
    beta2: float = 0.05
    dt: float = 0.01
    t_final: float = 1.0
    solver_tol: float = 1e-10
    max_sweeps: int = 100
    active_set_c: float = 1.0
    interaction_fill: str = "initial"

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_sweeps", as_int(self.max_sweeps, "max_sweeps", low=1))
        for name, positive in (("beta1", False), ("beta2", False), ("dt", True),
                               ("t_final", False), ("solver_tol", True), ("active_set_c", True)):
            object.__setattr__(self, name, as_float(getattr(self, name), name, positive))
        as_float(self.beta1 + self.beta2, "beta1 + beta2", positive=True)
        steps = as_float(self.t_final / self.dt, "t_final / dt")
        if abs(steps - round(steps)) > 1e-6:
            raise ConfigError(
                f"t_final={self.t_final} is not an integer multiple of dt={self.dt}"
            )
        if self.interaction_fill not in ("initial", "plus-one"):
            raise ConfigError(
                f"interaction_fill must be 'initial' or 'plus-one', "
                f"got {self.interaction_fill!r}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)


@dataclass(frozen=True, eq=False)
class RandomInputs:
    """Random perturbation of the four-nucleus initial condition.

    Attributes
    ----------
    mu:
        Nucleus depths, shape ``(4,)``, each in ``[0.9, 1.0]``.
    eta:
        Center shifts, shape ``(4, 2)``, each component in
        ``[-0.025, 0.025]``.
    """

    mu: np.ndarray
    eta: np.ndarray

    def __post_init__(self) -> None:
        mu = np.array(self.mu, dtype=float)
        eta = np.array(self.eta, dtype=float)
        if mu.shape != (4,):
            raise ConfigError(f"mu must have shape (4,), got {mu.shape}")
        if eta.shape != (4, 2):
            raise ConfigError(f"eta must have shape (4, 2), got {eta.shape}")
        lo, hi = DEPTH_RANGE
        if np.any(mu < lo - _RANGE_TOL) or np.any(mu > hi + _RANGE_TOL):
            raise ConfigError(f"depths must lie in [{lo}, {hi}], got {mu}")
        lo, hi = SHIFT_RANGE
        if np.any(eta < lo - _RANGE_TOL) or np.any(eta > hi + _RANGE_TOL):
            raise ConfigError(f"shifts must lie in [{lo}, {hi}], got {eta}")
        mu.setflags(write=False)
        eta.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "eta", eta)

    @classmethod
    def from_flat(cls, values) -> "RandomInputs":
        """Build from a flat vector ``(mu1, ex1, ey1, mu2, ex2, ey2, ...)``."""
        values = np.asarray(values, dtype=float)
        if values.shape != (12,):
            raise ConfigError(f"flat input vector must have shape (12,), got {values.shape}")
        block = values.reshape(4, 3)
        return cls(mu=block[:, 0], eta=block[:, 1:])

    def to_flat(self) -> np.ndarray:
        return np.column_stack([self.mu, self.eta]).ravel()


@dataclass(eq=False)
class StepState:
    """Simulation state after a time step.

    ``chemical_potential`` and ``multiplier`` are raveled over the solution
    block (row-major); ``padded`` is the full node set including the collar.
    ``sweeps``, ``solves`` and ``b_products`` count the work of the step that
    made the state (0 at ``t = 0``), and ``factorizations`` the misses of this
    process's factorization cache during it, a regularized refactorization
    once.
    """

    grid: Grid
    padded: np.ndarray
    chemical_potential: np.ndarray
    multiplier: np.ndarray
    active_pos: np.ndarray
    active_neg: np.ndarray
    t: float = 0.0
    sweeps: int = 0
    residual: float = 0.0
    factorizations: int = 0
    solves: int = 0
    b_products: int = 0

    @property
    def solution(self) -> np.ndarray:
        """State restricted to the solution block, shape ``(n_solution,) * 2``."""
        sol = self.grid.solution_slice
        return self.padded[sol, sol]


class ModelEvaluation(NamedTuple):
    """Output of one model run: the mass fraction and its wall-clock cost."""

    value: float
    seconds: float


def initial_condition(grid: Grid, theta: RandomInputs) -> np.ndarray:
    """Evaluate the perturbed four-nucleus initial state on the padded grid.

    A uniform ``+1`` phase is undercooled by four Gaussian wells of random
    depth and center; values are clamped into the admissible range.
    """
    x = grid.coords_1d()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    u = np.ones_like(xx)
    centers = NUCLEUS_CENTERS + theta.eta
    for k in range(4):
        dist2 = (xx - centers[k, 0]) ** 2 + (yy - centers[k, 1]) ** 2
        u -= 2.0 * theta.mu[k] * np.exp(-_NUCLEUS_SHARPNESS * dist2)
    return np.clip(u, -1.0, 1.0)


def initial_state(grid: Grid, theta: RandomInputs, sim: SimParams) -> StepState:
    """Assemble the state at ``t = 0`` with collar data per ``interaction_fill``."""
    padded = initial_condition(grid, theta)
    if sim.interaction_fill == "plus-one":
        interior = grid.solution_mask()
        padded = np.where(interior, padded, 1.0)
    n_sol = grid.n_solution**2
    u0 = padded[grid.solution_slice, grid.solution_slice].ravel()
    return StepState(
        grid=grid,
        padded=padded,
        chemical_potential=np.zeros(n_sol),
        multiplier=np.zeros(n_sol),
        active_pos=u0 >= 1.0,
        active_neg=u0 <= -1.0,
        t=0.0,
    )


def _neumann_laplacian_1d(n: int) -> sp.csr_matrix:
    """Flux-form 1-D Neumann Laplacian on ``n`` nodes (without 1/h^2)."""
    main = np.full(n, -2.0)
    main[0] = main[-1] = -1.0
    off = np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def check_well_posed(
    name: str, n_solution: int, h: float, xi: float, beta1: float, beta2: float, dt: float
) -> None:
    """Raise :class:`ConfigError` unless ``A = I / dt + xi * B`` is positive
    definite on the ``n_solution``-node block; ``name`` names the model.

    ``B`` is diagonal in the 2-D DCT-II basis, with eigenvalues from ``beta1``
    up to ``beta1 + beta2 * 2 * (2 - 2 cos(pi (n_solution - 1) / n_solution)) / h^2``,
    so ``lambda_min(A) = 1 / dt + min(xi * lambda(B))`` in closed form.  When it
    is not positive the active-set sweeps of a step cycle without converging.
    """
    top = 2.0 * (2.0 - 2.0 * math.cos(math.pi * (n_solution - 1) / n_solution))
    b_max = beta1 + beta2 * top / h**2
    a_min = 1.0 / dt + min(xi * beta1, xi * b_max)
    if not a_min > 0.0:
        raise ConfigError(
            f"{name} has an ill-posed time step: lambda_min(A) = 1/dt + xi*lambda_max(B) "
            f"= {a_min:.4g} <= 0 (xi={xi:.4g}, dt={dt:g}); "
            f"dt must be below {1.0 / (-xi * b_max):.4g}"
        )


class _Segment(NamedTuple):
    """One band of the chain that :class:`_BandCholesky` factors: the black
    positions ``start:stop`` in a ``(kd + 1, stop - start)`` band held at
    ``band`` of the plan's flat storage.

    ``head_slots`` are the band slots of the lower triangle of the segment's
    leading block, and ``head_index`` the Fortran-order positions of the same
    entries in the dense update that the previous segment leaves there (both
    empty on the first segment).  The segment's last ``m`` columns couple to
    the next segment's first ``r`` rows: ``tail_slots`` are the band slots of
    the lower triangle of the trailing ``m x m`` block and ``tail_index`` their
    Fortran-order positions in a dense ``m x m`` matrix, and ``coupling`` is
    where the transposed coupling block lies in the flat storage, ``m x r`` in
    Fortran order (``m = r = 0`` on the last segment).
    """

    start: int
    stop: int
    kd: int
    band: slice
    head_slots: np.ndarray
    head_index: np.ndarray
    m: int
    r: int
    tail_slots: np.ndarray
    tail_index: np.ndarray
    coupling: slice


class _RedBlackPlan(NamedTuple):
    """The checkerboard split of the solution block that every sweep matrix
    of one ``B`` shares.

    Red nodes have ``i + j`` even, black nodes ``i + j`` odd; ``order`` lists
    the red nodes in the natural order and then the black ones by
    anti-diagonal (``i + j``, then ``i``), and ``position`` is its inverse
    permutation.  ``c_kr`` is ``B``'s black-red block and ``c_rk`` its
    transpose.  ``t_map`` takes a vector ``v`` over the red nodes to the
    entries of the lower triangle of ``T(v) = c_kr diag(v) c_rk``, the
    diagonal first, and ``kd`` is the bandwidth of ``T``.  ``cholesky_slots``
    are the positions of those entries in a flat storage of ``cholesky_size``
    numbers that holds the Fortran-ordered bands of ``segments`` and the
    coupling blocks between them; in a ``(3 kd + 1, n_black)`` general band,
    ``lu_slots`` are those of the entries ``lu_terms`` of ``t_map``'s output
    and of their mirror images above the diagonal, whose columns are
    ``lu_columns``.
    """

    order: np.ndarray
    position: np.ndarray
    n_red: int
    c_kr: sp.csr_matrix
    c_rk: sp.csr_matrix
    t_map: sp.csr_matrix
    kd: int
    segments: tuple[_Segment, ...]
    cholesky_size: int
    cholesky_slots: np.ndarray
    lu_slots: np.ndarray
    lu_terms: np.ndarray
    lu_columns: np.ndarray


#: The largest block of reference LAPACK's ``dpbtrf``.  The segments of
#: :class:`_BandCholesky` span half as many black anti-diagonals, so their
#: bandwidths step by one block, and only bands at least four blocks wide
#: are split (see the module docstring).
_DPBTRF_BLOCK = 32


def _red_black_plan(n_solution: int, lower1: np.ndarray, lower_k: np.ndarray) -> _RedBlackPlan:
    """The :class:`_RedBlackPlan` of the ``B`` whose first and ``n_solution``-th
    subdiagonals are ``lower1`` and ``lower_k``.

    A black node's position in its colour is looked up in ``black_position``.
    ``T`` couples each black node to those on its own anti-diagonal and the
    two next to it, so the first column of each row of its lower triangle
    never decreases along the black order, and each entry lies in one
    segment or couples two consecutive ones.
    """
    n, size = n_solution, n_solution**2
    i, j = np.divmod(np.arange(size), n)
    red = np.flatnonzero((i + j) % 2 == 0)
    black = np.flatnonzero((i + j) % 2 == 1)
    black = black[np.lexsort((i[black], (i + j)[black]))]
    order = np.concatenate([red, black])
    n_red, n_black = red.size, black.size
    black_position = np.zeros(size, dtype=np.intp)
    black_position[black] = np.arange(n_black)
    # The four neighbours of each red node, in increasing order, and B's couplings to them.
    ri, rj = i[red], j[red]
    neighbours = red[:, None] + np.array([-n, -1, 1, n])
    exists = np.stack([ri > 0, rj > 0, rj < n - 1, ri < n - 1], axis=1)
    l1, lk = np.append(lower1, 0.0), np.append(lower_k, np.zeros(n))
    weights = np.stack([lk[red - n], l1[red - 1], l1[red], lk[red]], axis=1) * exists
    counts = np.concatenate([[0], np.cumsum(exists.sum(axis=1))])
    neighbours = black_position[np.where(exists, neighbours, 0)]
    c_rk = sp.csr_matrix((weights[exists], neighbours[exists], counts), shape=(n_red, n_black))
    # Red node r adds c_ar c_br v_r to T[a, b] for each pair of its black
    # neighbours a >= b; the entry T[a, b] is keyed by (a - b, b).
    pairs = [(s, t) for s in range(4) for t in range(s + 1)]
    both = [exists[:, s] & exists[:, t] for s, t in pairs]
    a = np.concatenate([neighbours[m, s] for m, (s, _) in zip(both, pairs)])
    b = np.concatenate([neighbours[m, t] for m, (_, t) in zip(both, pairs)])
    w = np.concatenate([weights[m, s] * weights[m, t] for m, (s, t) in zip(both, pairs)])
    r = np.concatenate([np.flatnonzero(m) for m in both])
    keys, entry = np.unique((a - b) * n_black + b, return_inverse=True)
    offsets, cols = np.divmod(keys, n_black)
    rows, kd = cols + offsets, int(offsets.max(initial=0))
    # Segment boundaries fall between black anti-diagonals, every NB / 2 of
    # them from either end, so that the widest ones share the middle segment.
    diagonal_starts = np.flatnonzero(np.diff((i + j)[black], prepend=-1))
    span = _DPBTRF_BLOCK // 2
    picks = span * np.arange(diagonal_starts.size // (2 * span) if kd >= 4 * _DPBTRF_BLOCK else 1)
    picks = np.concatenate([picks, diagonal_starts.size - picks[:0:-1]])
    segments, cholesky_slots, cholesky_size = _cholesky_chain(
        diagonal_starts[picks], n_black, rows, cols
    )
    mirrored = np.flatnonzero(offsets > 0)
    lu_rows = 3 * kd + 1
    return _RedBlackPlan(
        order=order,
        position=np.argsort(order),
        n_red=n_red,
        c_kr=c_rk.T.tocsr(),
        c_rk=c_rk,
        t_map=sp.csr_matrix((w, (entry, r)), shape=(keys.size, n_red)),
        kd=kd,
        segments=segments,
        cholesky_size=cholesky_size,
        cholesky_slots=cholesky_slots,
        lu_slots=np.concatenate([
            cols * lu_rows + 2 * kd + offsets,
            rows[mirrored] * lu_rows + 2 * kd - offsets[mirrored],
        ]),
        lu_terms=np.concatenate([np.arange(keys.size), mirrored]),
        lu_columns=np.concatenate([cols, rows[mirrored]]),
    )


def _cholesky_chain(starts, n_black, rows, cols):
    """The segments that start at the black positions ``starts`` (the first
    at 0), the flat slots of the lower-triangle entries ``(rows, cols)`` of
    ``T`` in their bands or coupling blocks, and the size of that storage.

    Each entry couples two positions of one segment or of two consecutive
    ones.  A segment's band covers its own entries and the dense update its
    predecessor leaves on its first ``r`` rows.
    """
    stops = np.append(starts[1:], n_black)
    segment_of = np.repeat(np.arange(starts.size), stops - starts)
    upper, lower = segment_of[rows], segment_of[cols]
    count, cross = starts.size, upper > lower
    m = np.zeros(count, dtype=np.intp)
    r = np.zeros(count, dtype=np.intp)
    np.maximum.at(m, lower[cross], stops[lower[cross]] - cols[cross])
    np.maximum.at(r, lower[cross], rows[cross] - starts[upper[cross]] + 1)
    kd = np.zeros(count, dtype=np.intp)
    np.maximum.at(kd, upper[~cross], (rows - cols)[~cross])
    kd[1:] = np.maximum(kd[1:], r[:-1] - 1)  # room for the dense update on the head
    sizes = np.concatenate([(kd + 1) * (stops - starts), m * r])
    bases = np.concatenate([[0], np.cumsum(sizes)])
    band_base, coupling_base = bases[:count], bases[count:-1]
    slots = np.where(
        cross,
        coupling_base[lower] + cols - stops[lower] + m[lower] + (rows - starts[upper]) * m[lower],
        band_base[upper] + (cols - starts[upper]) * (kd[upper] + 1) + rows - cols,
    )
    heads = np.append(0, r[:-1])
    segments = []
    for s in range(count):
        head_rows, head_cols = np.tril_indices(heads[s])
        tail_rows, tail_cols = np.tril_indices(m[s])  # inside the band: m <= kd + 1
        segments.append(_Segment(
            start=int(starts[s]),
            stop=int(stops[s]),
            kd=int(kd[s]),
            band=slice(int(band_base[s]), int(band_base[s] + sizes[s])),
            head_slots=head_cols * (kd[s] + 1) + head_rows - head_cols,
            head_index=head_rows + head_cols * heads[s],
            m=int(m[s]),
            r=int(r[s]),
            tail_slots=(tail_cols + stops[s] - starts[s] - m[s]) * (kd[s] + 1)
            + tail_rows - tail_cols,
            tail_index=tail_rows + tail_cols * m[s],
            coupling=slice(int(coupling_base[s]), int(coupling_base[s] + m[s] * r[s])),
        ))
    return tuple(segments), slots, int(bases[-1])


def _matvec(a: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for a float CSR matrix and vector, bit for bit, through the
    kernel that ``@`` itself calls, without its dispatch.

    ``scipy.sparse._sparsetools.csr_matvec`` is a private scipy entry point
    (see the module docstring); this is the one place that reaches it.  The
    kernel does not check the vector's length, so this does, as ``@`` would.
    """
    rows, columns = a.shape
    if x.shape != (columns,):
        raise ValueError(f"cannot multiply a {rows}x{columns} matrix by a vector of {x.shape}")
    y = np.zeros(rows)
    _sparsetools.csr_matvec(rows, columns, a.indptr, a.indices, a.data, x, y)
    return y


@lru_cache(maxsize=32)
def _step_matrices(
    n_solution: int, h: float, xi: float, beta1: float, beta2: float, dt: float
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, _RedBlackPlan]:
    """Cached ``B`` on the solution block, the diagonals of ``A`` and ``B``,
    all in the red-black order, and the :class:`_RedBlackPlan` of its sweep
    matrices; checks first that the step is well posed.

    Each row of the red-black ``B`` keeps its entries in the natural column
    order, so a product by it sums each entry in the same order as the
    natural ``B`` does, and gives the same bits in the red-black order.
    """
    check_well_posed(
        f"the n_interior={n_solution - 1} model with xi={xi:.4g}",
        n_solution, h, xi, beta1, beta2, dt,
    )
    t1 = _neumann_laplacian_1d(n_solution)
    eye = sp.identity(n_solution, format="csr")
    lap = (sp.kron(eye, t1) + sp.kron(t1, eye)).tocsr() / h**2
    b_mat = beta1 * sp.identity(n_solution**2, format="csr") - beta2 * lap
    plan = _red_black_plan(n_solution, b_mat.diagonal(-1), b_mat.diagonal(-n_solution))
    b_diagonal = b_mat.diagonal()[plan.order]
    rows = b_mat[plan.order]
    b_mat = sp.csr_matrix((rows.data, plan.position[rows.indices], rows.indptr), b_mat.shape)
    return b_mat, xi * b_diagonal + 1.0 / dt, b_diagonal, plan


class _RedBlack:
    """The sweep matrix ``M``, whose diagonal is ``diagonal`` and whose other
    entries are those of ``B E``, with its red nodes eliminated exactly; the
    diagonal, the free mask and the vectors ``solve`` takes and returns are
    in the red-black order of ``plan``.

    ``M``'s red-red block is its diagonal ``M_R``, so red unknowns are
    ``x_R = M_R^-1 (f_R - C_RK E_K x_K)`` and the black ones solve the Schur
    complement ``S = M_K - T(v) E_K``, ``v = E_R / M_R``, for the right-hand
    side ``f_K - C_KR (v f_R)``; a subclass factors ``S`` in ``_factor``
    from the diagonal of ``M_K`` and the entries ``plan.t_map @ v`` of
    ``T(v)``, and solves with it in ``_solve_black``.  The pivots are ``M_R``
    followed by those of ``S``: together, the pivots of ``M``'s LU without
    row exchanges in the red-black order.
    """

    def __init__(self, plan: _RedBlackPlan, diagonal, free, xi):
        e, n_red = np.where(free, xi, 1.0), plan.n_red
        self.plan, self.xi = plan, xi
        self.red_diagonal = diagonal[:n_red]
        self.v = e[:n_red] / self.red_diagonal
        self.e_black = e[n_red:]
        self._factor(diagonal[n_red:], _matvec(plan.t_map, self.v))

    @property
    def pivots(self) -> np.ndarray:
        """``M_R`` followed by the pivots of ``S``."""
        return np.concatenate([self.red_diagonal, self._black_pivots()])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        plan = self.plan
        f_red, f_black = rhs[: plan.n_red], rhs[plan.n_red :]
        x_black = self._solve_black(f_black - _matvec(plan.c_kr, self.v * f_red))
        x_red = (f_red - _matvec(plan.c_rk, self.e_black * x_black)) / self.red_diagonal
        return np.concatenate([x_red, x_black])


class _BandLU(_RedBlack):
    """LU with partial pivoting (``dgbtrf``/``dgbtrs``) of the black Schur
    complement ``S`` of :class:`_RedBlack`, in a ``(3 kd + 1, n_black)`` band."""

    def _factor(self, diagonal, t):
        plan, n, k = self.plan, diagonal.size, self.plan.kd
        band = np.zeros((3 * k + 1) * n)
        band[plan.lu_slots] = -t[plan.lu_terms] * self.e_black[plan.lu_columns]
        band = band.reshape((3 * k + 1, n), order="F")
        band[2 * k] += diagonal
        self.k = k
        self.lu, self.ipiv, info = lapack.dgbtrf(band, k, k, overwrite_ab=True)
        if info != 0:
            raise RuntimeError(f"band LU failed (dgbtrf info={info})")

    def _black_pivots(self) -> np.ndarray:
        """The diagonal of ``U``."""
        return self.lu[2 * self.k]

    def _solve_black(self, rhs: np.ndarray) -> np.ndarray:
        x, info = lapack.dgbtrs(self.lu, self.k, self.k, rhs, self.ipiv)
        if info != 0:
            raise RuntimeError(f"band solve failed (dgbtrs info={info})")
        return x


class _BandCholesky(_RedBlack):
    """Cholesky factorization ``L L^T`` of ``S D_K``, for the black Schur
    complement ``S`` of :class:`_RedBlack`, as a chain of band segments
    (``dpbtrf``/``dtbtrs`` per segment).  ``S D_K = D_K M_K - xi T(v)`` is
    the Schur complement of ``M D`` and so symmetric positive definite with
    it; ``S x_K = f`` is solved as ``x_K = D_K y``, ``S D_K y = f``.

    Segment ``j + 1`` meets segment ``j`` through the block ``C`` that
    couples its first ``r`` rows to ``j``'s last ``m`` columns, so ``L``'s
    block below ``L_j`` is ``W^T`` on those rows and columns, with
    ``W = L_tri^-1 C^T`` for the trailing ``m x m`` triangle ``L_tri`` of
    ``L_j``, and segment ``j + 1`` factors its own block less ``W^T W``.
    """

    def _factor(self, diagonal, t):
        plan, xi = self.plan, self.xi
        self.d = xi / self.e_black  # D E = xi I
        values = -xi * t
        values[: diagonal.size] += diagonal * self.d
        storage = np.zeros(plan.cholesky_size)
        storage[plan.cholesky_slots] = values
        # Each segment's band factor L_j and the W to the next segment (None on the last).
        self.chain, update = [], None
        for segment in plan.segments:
            band = storage[segment.band]
            if update is not None:
                band[segment.head_slots] -= update.ravel(order="F")[segment.head_index]
            factor, info = lapack.dpbtrf(
                band.reshape((segment.kd + 1, -1), order="F"), lower=1, overwrite_ab=1
            )
            if info != 0:
                raise RuntimeError(f"band Cholesky failed (dpbtrf info={info})")
            w = None
            if segment.m:
                tail = np.zeros(segment.m * segment.m)
                tail[segment.tail_index] = factor.ravel(order="F")[segment.tail_slots]
                w, info = lapack.dtrtrs(
                    tail.reshape((segment.m, segment.m), order="F"),
                    storage[segment.coupling].reshape((segment.m, segment.r), order="F"),
                    lower=1, overwrite_b=1,
                )
                if info != 0:
                    raise RuntimeError(f"triangular solve failed (dtrtrs info={info})")
                update = blas.dsyrk(1.0, w, trans=1, lower=1)
            self.chain.append((segment, factor, w))

    def _black_pivots(self) -> np.ndarray:
        """The pivots of ``S``'s LU without row exchanges, ``diag(L)^2 / d``."""
        return np.concatenate([factor[0] for _, factor, _ in self.chain]) ** 2 / self.d

    def _solve_black(self, rhs: np.ndarray) -> np.ndarray:
        y = rhs.copy()
        # L y = f: each segment's solution passes W^T y to the next one's head ...
        for segment, factor, w in self.chain:
            part = y[segment.start : segment.stop]
            part[:] = _band_solve(factor, part, "N")
            if w is not None:
                y[segment.stop : segment.stop + segment.r] -= w.T @ part[-segment.m :]
        # ... and L^T x = y, backwards: each takes W x of the next one's head.
        for segment, factor, w in reversed(self.chain):
            part = y[segment.start : segment.stop]
            if w is not None:
                part[-segment.m :] -= w @ y[segment.stop : segment.stop + segment.r]
            part[:] = _band_solve(factor, part, "T")
        return self.d * y


def _band_solve(factor: np.ndarray, rhs: np.ndarray, trans: str) -> np.ndarray:
    """``L^-1 rhs`` (``trans="N"``) or ``L^-T rhs`` (``"T"``) for a lower band
    factor ``L`` of ``dpbtrf``."""
    x, info = lapack.dtbtrs(factor, rhs, uplo="L", trans=trans)
    if info != 0:
        raise RuntimeError(f"band Cholesky solve failed (dtbtrs info={info})")
    return x


def _factorize(plan, diagonal, free, xi, beta1, scale) -> _BandCholesky | _BandLU:
    """The sweep matrix ``M`` of :class:`_RedBlack` with the same first four
    arguments, its red nodes eliminated and its black Schur complement
    factored by band Cholesky when ``xi > 0`` and ``beta1 > 0``, by band LU
    otherwise; regularizes singular systems.

    The factorization of an exactly singular matrix may silently produce a
    tiny pivot instead of failing, so in regimes where singularity can occur
    (no bulk relaxation, or every node active) the pivots are checked
    explicitly, and a failed or singular factorization is repeated on
    ``M + eps I`` with a tiny ``eps``.
    """
    factor = _BandCholesky if xi > 0.0 and beta1 > 0.0 else _BandLU
    try:
        lu = factor(plan, diagonal, free, xi)
        if beta1 == 0.0 or not free.any():
            pivots = np.abs(lu.pivots)
            if pivots.min() <= 1e-12 * max(pivots.max(), 1.0):
                raise RuntimeError("numerically singular factorization")
    except RuntimeError:
        lu = factor(plan, diagonal + 1e-10 * scale, free, xi)
    return lu


@lru_cache(maxsize=1)
def _sweep_factorization(
    n_solution: int, h: float, xi: float, beta1: float, beta2: float, dt: float,
    active: bytes,
) -> _BandCholesky | _BandLU:
    """The factorization of one sweep's matrix, for the operators of
    :func:`_step_matrices` with the same arguments and the active set given
    as the bytes of a boolean mask in the red-black order.

    One entry only: callers keep many states, and an n=128 factorization is
    about 7 MB.  It is what the first sweep of each step reuses, since a step
    starts from the sets the previous step converged on.
    """
    _, a_diagonal, b_diagonal, plan = _step_matrices(n_solution, h, xi, beta1, beta2, dt)
    free = ~np.frombuffer(active, dtype=bool)
    diagonal = np.where(free, a_diagonal, b_diagonal)
    scale = 1.0 / dt + abs(xi) * (beta1 + 8.0 * beta2 / h**2)
    return _factorize(plan, diagonal, free, xi, beta1, scale)


def time_step(state: StepState, stencil: ConvolutionStencil, sim: SimParams) -> StepState:
    """Advance the state by one implicit step of the obstacle problem.

    Raises
    ------
    ConvergenceError
        If the active sets do not stabilize within ``sim.max_sweeps`` sweeps or
        the converged linear residual exceeds ``sim.solver_tol``.
    """
    grid = state.grid
    if stencil.grid != grid:
        raise ConfigError("stencil was built for a different grid")
    key = (grid.n_solution, grid.h, stencil.xi, sim.beta1, sim.beta2, sim.dt)
    b_mat, _, _, plan = _step_matrices(*key)
    order, xi, dt, c = plan.order, stencil.xi, sim.dt, sim.active_set_c
    sol = grid.solution_slice
    g = convolve(stencil, state.padded).ravel()
    # From here to the end of the sweeps every vector is in the red-black order.
    rhs0 = state.padded[sol, sol].ravel()[order] / dt + _matvec(b_mat, g[order])
    # The active sets as one sign per node: +1 on the upper bound, -1 on the lower.
    signs = np.subtract(state.active_pos, state.active_neg, dtype=np.int8)[order]
    misses, solves, b_products = _sweep_factorization.cache_info().misses, 0, 1
    for sweeps in range(1, sim.max_sweeps + 1):
        active = signs != 0
        pinned = signs.astype(float)
        lu = _sweep_factorization(*key, active.tobytes())
        # Each residual is r(u, lam) = rhs0 - A u - B lam, with one product by B.
        x = lu.solve(rhs0 - pinned / dt - _matvec(b_mat, xi * pinned))
        solves, b_products = solves + 1, b_products + 1
        for refined in (False, True):
            u = np.where(active, pinned, x)
            lam = np.where(active, x, 0.0)
            tested = np.subtract(lam + c * (u - 1.0) > _ACTIVATION_TOL,
                                 lam + c * (u + 1.0) < -_ACTIVATION_TOL, dtype=np.int8)
            repeated = tested.tobytes() == signs.tobytes()
            if not repeated:
                break
            r = rhs0 - u / dt - _matvec(b_mat, xi * u + lam)
            b_products += 1
            if refined or np.abs(r).max() <= sim.solver_tol:  # a NaN residual refines
                break
            x += lu.solve(r)
            solves += 1
        if repeated:
            break
        signs = tested
    else:
        max_residual = float(np.abs(rhs0 - u / dt - _matvec(b_mat, xi * u + lam)).max())
        raise ConvergenceError(
            f"active sets did not stabilize in {sim.max_sweeps} sweeps at "
            f"t={state.t + sim.dt:.6g} (last residual {max_residual:.3e})"
        )

    max_residual = float(np.abs(r).max())
    if not max_residual <= sim.solver_tol:  # also catches a NaN residual
        raise ConvergenceError(
            f"linear residual {max_residual:.3e} exceeds solver_tol={sim.solver_tol:.3e} "
            f"at t={state.t + sim.dt:.6g}"
        )

    position = plan.position
    u, lam, signs = u[position], lam[position], signs[position]
    padded = state.padded.copy()
    padded[sol, sol] = u.reshape(grid.n_solution, grid.n_solution)
    return StepState(
        grid=grid,
        padded=padded,
        chemical_potential=xi * u - g + lam,
        multiplier=lam,
        active_pos=signs > 0,
        active_neg=signs < 0,
        t=state.t + sim.dt,
        sweeps=sweeps,
        residual=max_residual,
        factorizations=_sweep_factorization.cache_info().misses - misses,
        solves=solves,
        b_products=b_products,
    )


def run_simulation(
    grid: Grid,
    stencil: ConvolutionStencil,
    theta: RandomInputs,
    sim: SimParams,
    on_step: Callable[[StepState], None] | None = None,
) -> StepState:
    """Run the full time integration from the perturbed initial condition.

    ``on_step`` is called with the state at every time level including ``t=0``.
    """
    state = initial_state(grid, theta, sim)
    if on_step is not None:
        on_step(state)
    for _ in range(sim.n_steps):
        state = time_step(state, stencil, sim)
        if on_step is not None:
            on_step(state)
    return state


def mass_fraction(grid: Grid, padded: np.ndarray) -> float:
    """Mass fraction of the ``+1`` phase: ``0.5 * (1 + mean(u))`` on the solution block."""
    padded = np.asarray(padded, dtype=float)
    ns = grid.n_side
    if padded.shape != (ns, ns):
        raise ConfigError(f"field shape {padded.shape} does not match grid ({ns}, {ns})")
    sol = grid.solution_slice
    return 0.5 * (1.0 + float(padded[sol, sol].mean()))


def model_stencil(model: ModelSpec, family: KernelParams) -> ConvolutionStencil:
    """The cached stencil of ``model``: the ``family`` kernel truncated at the
    model's own radius, on the model's grid."""
    return cached_stencil(
        model.n_interior, family.eps2, family.delta_hf, model.delta, family.c_f
    )


def evaluate_model(
    model: ModelSpec,
    theta: RandomInputs,
    family: KernelParams,
    sim: SimParams,
) -> ModelEvaluation:
    """Run one model at one random input; return output and wall-clock seconds.

    Operator assembly is cached per model and excluded from the timing, so the
    reported cost reflects the steady-state per-sample work.
    """
    stencil = model_stencil(model, family)
    grid = stencil.grid
    # Warm the matrix cache so assembly cost is not charged to this sample.
    _step_matrices(grid.n_solution, grid.h, stencil.xi, sim.beta1, sim.beta2, sim.dt)
    start = time.perf_counter()
    state = run_simulation(grid, stencil, theta, sim)
    value = mass_fraction(grid, state.padded)
    seconds = time.perf_counter() - start
    return ModelEvaluation(value=value, seconds=seconds)
