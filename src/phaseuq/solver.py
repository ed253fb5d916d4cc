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
reciprocal red diagonal to the slots of the black band.  ``S D_K`` is the
Schur complement of ``M D``, so it is symmetric, and positive definite when
``xi > 0`` and ``beta1 > 0``: on every grid those models get LAPACK's band
Cholesky of ``S D_K`` (``dpbtrf``, a band of ``n_solution + 1`` rows), the
others band LU of ``S`` (``dgbtrf``, ``3 n_solution + 1`` rows).  In the
built-in families only reference models 5 and 6 take band LU above
``n_interior = 64``, and :func:`check_well_posed` rejects both at their
``dt``.  At a smaller ``dt``, band LU of ``S`` at ``n_interior = 128`` takes
about twice as long per factorization as band Cholesky (31 against 15 ms on
a loaded 2-core machine, where band LU of the whole ``M`` took 62 ms) and
holds a 26 MB band (204 MB at ``n_interior = 256``).

Each residual of a step is one product by ``B``:
``r(u, lam) = rhs0 - u / dt - B (xi u + lam) = rhs0 - A u - B lam``.  A sweep
solves ``M x = r(pinned, 0)`` and applies the sign test to its ``u`` and
``lam``; as in any semismooth Newton method, a sweep whose sets change only
proposes the next sets, and its residual is never formed.  Only the sweep
that reproduces its own sets forms ``r = r(u, lam)``; when ``max |r|`` misses
``solver_tol`` (or is NaN) it refines ``x`` once by a second solve from
``r`` and tests the refined ``u`` and ``lam`` again, going on with the new
sets if they changed.  The step is accepted when that ``max |r|`` is within
``solver_tol``, so a sweep makes one product by ``B`` and the accepting
sweep one more.

A one-entry cache keyed by the operators and the active set carries the last
factorization to the next call: a step starts from the active sets its
predecessor converged on, so its first sweep reuses the factorization of the
previous step's last sweep instead of factorizing the same matrix again.

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
from scipy.linalg import lapack

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


class _RedBlackPlan(NamedTuple):
    """The checkerboard split of the solution block that every sweep matrix
    of one ``B`` shares.

    Red nodes have ``i + j`` even, black nodes ``i + j`` odd; ``order`` lists
    the red nodes and then the black ones, each in the natural order, and
    ``position`` is its inverse permutation.  ``c_kr`` is ``B``'s black-red
    block and ``c_rk`` its transpose.  ``t_map`` takes a vector ``v`` over the
    red nodes to the entries of the lower triangle of
    ``T(v) = c_kr diag(v) c_rk``, the diagonal first, and ``kd`` is the
    bandwidth of ``T``.  ``cholesky_slots`` are the flat positions of those
    entries in a Fortran-ordered ``(kd + 1, n_black)`` band of the lower
    triangle; in a ``(3 kd + 1, n_black)`` general band, ``lu_slots`` are
    those of the entries ``lu_terms`` of ``t_map``'s output and of their
    mirror images above the diagonal, whose columns are ``lu_columns``.
    """

    order: np.ndarray
    position: np.ndarray
    n_red: int
    c_kr: sp.csr_matrix
    c_rk: sp.csr_matrix
    t_map: sp.csr_matrix
    kd: int
    cholesky_slots: np.ndarray
    lu_slots: np.ndarray
    lu_terms: np.ndarray
    lu_columns: np.ndarray


def _red_black_plan(n_solution: int, lower1: np.ndarray, lower_k: np.ndarray) -> _RedBlackPlan:
    """The :class:`_RedBlackPlan` of the ``B`` whose first and ``n_solution``-th
    subdiagonals are ``lower1`` and ``lower_k``.

    A node's position within its colour is ``p // 2`` for either parity of
    ``n_solution``, so ``T`` has bandwidth ``n_solution`` (from ``i +- 2``).
    """
    n, size = n_solution, n_solution**2
    i, j = np.divmod(np.arange(size), n)
    red = np.flatnonzero((i + j) % 2 == 0)
    order = np.concatenate([red, np.flatnonzero((i + j) % 2 == 1)])
    n_red, n_black = red.size, size - red.size
    # The four neighbours of each red node, in increasing order, and B's couplings to them.
    ri, rj = i[red], j[red]
    neighbours = red[:, None] + np.array([-n, -1, 1, n])
    exists = np.stack([ri > 0, rj > 0, rj < n - 1, ri < n - 1], axis=1)
    l1, lk = np.append(lower1, 0.0), np.append(lower_k, np.zeros(n))
    weights = np.stack([lk[red - n], l1[red - 1], l1[red], lk[red]], axis=1) * exists
    counts = np.concatenate([[0], np.cumsum(exists.sum(axis=1))])
    c_rk = sp.csr_matrix(
        (weights[exists], neighbours[exists] // 2, counts), shape=(n_red, n_black)
    )
    # Red node r adds c_ar c_br v_r to T[a, b] for each pair of its black
    # neighbours a >= b; the entry T[a, b] is keyed by (a - b, b).
    pairs = [(s, t) for s in range(4) for t in range(s + 1)]
    both = [exists[:, s] & exists[:, t] for s, t in pairs]
    a = np.concatenate([neighbours[m, s] // 2 for m, (s, _) in zip(both, pairs)])
    b = np.concatenate([neighbours[m, t] // 2 for m, (_, t) in zip(both, pairs)])
    w = np.concatenate([weights[m, s] * weights[m, t] for m, (s, t) in zip(both, pairs)])
    r = np.concatenate([np.flatnonzero(m) for m in both])
    keys, entry = np.unique((a - b) * n_black + b, return_inverse=True)
    offsets, cols = np.divmod(keys, n_black)
    rows, kd = cols + offsets, int(offsets.max(initial=0))
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
        cholesky_slots=cols * (kd + 1) + offsets,
        lu_slots=np.concatenate([
            cols * lu_rows + 2 * kd + offsets,
            rows[mirrored] * lu_rows + 2 * kd - offsets[mirrored],
        ]),
        lu_terms=np.concatenate([np.arange(keys.size), mirrored]),
        lu_columns=np.concatenate([cols, rows[mirrored]]),
    )


@lru_cache(maxsize=32)
def _step_matrices(
    n_solution: int, h: float, xi: float, beta1: float, beta2: float, dt: float
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, _RedBlackPlan]:
    """Cached ``B`` on the solution block, the diagonals of ``A`` and ``B``,
    and the :class:`_RedBlackPlan` of its sweep matrices; checks first that
    the step is well posed."""
    check_well_posed(
        f"the n_interior={n_solution - 1} model with xi={xi:.4g}",
        n_solution, h, xi, beta1, beta2, dt,
    )
    t1 = _neumann_laplacian_1d(n_solution)
    eye = sp.identity(n_solution, format="csr")
    lap = (sp.kron(eye, t1) + sp.kron(t1, eye)).tocsr() / h**2
    b_mat = beta1 * sp.identity(n_solution**2, format="csr") - beta2 * lap
    plan = _red_black_plan(n_solution, b_mat.diagonal(-1), b_mat.diagonal(-n_solution))
    b_diagonal = b_mat.diagonal(0)
    return b_mat, xi * b_diagonal + 1.0 / dt, b_diagonal, plan


class _RedBlack:
    """The sweep matrix ``M``, whose diagonal is ``diagonal`` and whose other
    entries are those of ``B E``, with its red nodes eliminated exactly.

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
        diagonal, free, n_red = diagonal[plan.order], free[plan.order], plan.n_red
        e = np.where(free, xi, 1.0)
        self.plan, self.xi = plan, xi
        self.red_diagonal = diagonal[:n_red]
        self.v = e[:n_red] / self.red_diagonal
        self.e_black = e[n_red:]
        self._factor(diagonal[n_red:], plan.t_map @ self.v)

    @property
    def pivots(self) -> np.ndarray:
        """``M_R`` followed by the pivots of ``S``."""
        return np.concatenate([self.red_diagonal, self._black_pivots()])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        plan = self.plan
        f = rhs[plan.order]
        f_red, f_black = f[: plan.n_red], f[plan.n_red :]
        x_black = self._solve_black(f_black - plan.c_kr @ (self.v * f_red))
        x_red = (f_red - plan.c_rk @ (self.e_black * x_black)) / self.red_diagonal
        return np.concatenate([x_red, x_black])[plan.position]


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
    """Cholesky factorization ``L L^T`` (``dpbtrf``/``dpbtrs``) of ``S D_K``,
    for the black Schur complement ``S`` of :class:`_RedBlack`, in a
    ``(kd + 1, n_black)`` band.  ``S D_K = D_K M_K - xi T(v)`` is the Schur
    complement of ``M D`` and so symmetric positive definite with it; ``S
    x_K = f`` is solved as ``x_K = D_K y``, ``S D_K y = f``."""

    def _factor(self, diagonal, t):
        plan, n, k, xi = self.plan, diagonal.size, self.plan.kd, self.xi
        self.d = xi / self.e_black  # D E = xi I
        band = np.zeros((k + 1) * n)
        band[plan.cholesky_slots] = -xi * t
        band = band.reshape((k + 1, n), order="F")
        band[0] += diagonal * self.d
        self.factor, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            raise RuntimeError(f"band Cholesky failed (dpbtrf info={info})")

    def _black_pivots(self) -> np.ndarray:
        """The pivots of ``S``'s LU without row exchanges, ``diag(L)^2 / d``."""
        return self.factor[0] ** 2 / self.d

    def _solve_black(self, rhs: np.ndarray) -> np.ndarray:
        y, info = lapack.dpbtrs(self.factor, rhs, lower=1)
        if info != 0:
            raise RuntimeError(f"band Cholesky solve failed (dpbtrs info={info})")
        return self.d * y


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
    as the bytes of a boolean mask.

    One entry only: callers keep many states, and an n=128 factorization is
    about 9 MB.  It is what the first sweep of each step reuses, since a step
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
    b_mat = _step_matrices(*key)[0]
    sol = grid.solution_slice
    g = convolve(stencil, state.padded).ravel()
    u_prev = state.padded[sol, sol].ravel()
    rhs0 = u_prev / sim.dt + b_mat @ g

    def residual(u, lam):  # rhs0 - A u - B lam, with one product by B
        return rhs0 - u / sim.dt - b_mat @ (stencil.xi * u + lam)

    def sign_test(u, lam):
        c = sim.active_set_c
        return (lam + c * (u - 1.0) > _ACTIVATION_TOL,
                lam + c * (u + 1.0) < -_ACTIVATION_TOL)

    def repeats(new_pos, new_neg):
        return np.array_equal(new_pos, active_pos) and np.array_equal(new_neg, active_neg)

    active_pos = state.active_pos.copy()
    active_neg = state.active_neg.copy()
    u = u_prev
    lam = state.multiplier
    sweeps = 0
    for sweeps in range(1, sim.max_sweeps + 1):
        active = active_pos | active_neg
        free = ~active
        pinned = np.subtract(active_pos, active_neg, dtype=float)
        lu = _sweep_factorization(*key, active.tobytes())
        x = lu.solve(residual(pinned, 0.0))
        u = np.where(free, x, pinned)
        lam = np.where(active, x, 0.0)
        new_pos, new_neg = sign_test(u, lam)
        if repeats(new_pos, new_neg):
            r = residual(u, lam)
            if not np.abs(r).max() <= sim.solver_tol:  # also refines a NaN residual
                x += lu.solve(r)
                u = np.where(free, x, pinned)
                lam = np.where(active, x, 0.0)
                r = residual(u, lam)
                new_pos, new_neg = sign_test(u, lam)
            if repeats(new_pos, new_neg):
                break
        active_pos, active_neg = new_pos, new_neg
    else:
        max_residual = float(np.abs(residual(u, lam)).max())
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

    padded = state.padded.copy()
    padded[sol, sol] = u.reshape(grid.n_solution, grid.n_solution)
    w = stencil.xi * u - g + lam
    return StepState(
        grid=grid,
        padded=padded,
        chemical_potential=w,
        multiplier=lam,
        active_pos=active_pos,
        active_neg=active_neg,
        t=state.t + sim.dt,
        sweeps=sweeps,
        residual=max_residual,
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
