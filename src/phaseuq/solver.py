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

The matrix of one sweep takes the columns of ``A`` at free nodes and those of
``B`` at active nodes.  ``A`` and ``B`` share one sparsity pattern, so it is
assembled by selecting each column's data from one of them.  It is factorized
by sparse LU with the minimum-degree ordering of ``M^T + M`` (the matrix is
structurally symmetric, which keeps the fill about half that of COLAMD).  The
last factorization is carried to the next call: a step starts from the active
sets its predecessor converged on, so its first sweep reuses the LU of the
previous step's last sweep instead of factorizing the same matrix again.

The model output of interest is the mass fraction of the ``+1`` phase,
``0.5 * (1 + mean(u))`` over the solution block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, ConvergenceError
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
    n_interior:
        Cells per side (``h = 1 / n_interior``).
    delta:
        Kernel truncation radius of this model.
    label:
        Free-form display name.
    """

    model_id: int
    n_interior: int
    delta: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.model_id < 1:
            raise ConfigError(f"model_id must be >= 1, got {self.model_id}")
        if self.n_interior < 1:
            raise ConfigError(f"n_interior must be >= 1, got {self.n_interior}")
        if not self.delta > 0.0:
            raise ConfigError(f"delta must be positive, got {self.delta}")

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
        if self.beta1 < 0.0 or self.beta2 < 0.0 or self.beta1 + self.beta2 <= 0.0:
            raise ConfigError(
                f"beta1, beta2 must be non-negative and not both zero, "
                f"got {self.beta1}, {self.beta2}"
            )
        if not self.dt > 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_final < 0.0:
            raise ConfigError(f"t_final must be non-negative, got {self.t_final}")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-6:
            raise ConfigError(
                f"t_final={self.t_final} is not an integer multiple of dt={self.dt}"
            )
        if not self.solver_tol > 0.0:
            raise ConfigError(f"solver_tol must be positive, got {self.solver_tol}")
        if self.max_sweeps < 1:
            raise ConfigError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if not self.active_set_c > 0.0:
            raise ConfigError(f"active_set_c must be positive, got {self.active_set_c}")
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


@lru_cache(maxsize=32)
def _step_matrices(
    n_solution: int, h: float, xi: float, beta1: float, beta2: float, dt: float
) -> tuple[sp.csc_matrix, sp.csc_matrix]:
    """Cached assembly of the operators ``A`` and ``B`` on the solution block.

    Both are returned in CSC form with sorted indices on one shared pattern,
    the union of their nonzeros, so that :func:`_masked_matrix` can pick each
    column's data from either.
    """
    t1 = _neumann_laplacian_1d(n_solution)
    eye = sp.identity(n_solution, format="csr")
    lap = (sp.kron(eye, t1) + sp.kron(t1, eye)).tocsr() / h**2
    b_mat = (beta1 * sp.identity(n_solution**2, format="csr") - beta2 * lap).tocsr()
    a_mat = (sp.identity(n_solution**2, format="csr") / dt + xi * b_mat).tocsr()
    pattern = abs(a_mat) + abs(b_mat)
    return _on_pattern(a_mat, pattern), _on_pattern(b_mat, pattern)


def _on_pattern(mat: sp.spmatrix, pattern: sp.spmatrix) -> sp.csc_matrix:
    """``mat`` stored on ``pattern``, a superset of its nonzeros; the entries
    outside ``mat``'s own pattern are explicit zeros."""
    mat, pattern = mat.tocoo(), pattern.tocoo()
    data = np.concatenate([mat.data, np.zeros(pattern.nnz)])
    rows = np.concatenate([mat.row, pattern.row])
    cols = np.concatenate([mat.col, pattern.col])
    # Duplicates are summed (v + 0.0 == v) and explicit zeros kept.
    return sp.csc_matrix((data, (rows, cols)), shape=mat.shape)


def _masked_matrix(
    a_mat: sp.csc_matrix, b_mat: sp.csc_matrix, free: np.ndarray
) -> sp.csc_matrix:
    """The matrix of one sweep: the columns of ``A`` at free nodes and of ``B``
    at active ones, selected on the operators' shared pattern."""
    data = np.where(np.repeat(free, np.diff(a_mat.indptr)), a_mat.data, b_mat.data)
    return sp.csc_matrix((data, a_mat.indices, a_mat.indptr), shape=a_mat.shape)


#: Fill-reducing ordering of the sparse LU: minimum degree on ``M^T + M``.
_ORDERING = "MMD_AT_PLUS_A"


def _factorize(
    m_mat: sp.csc_matrix, scale: float, check_singular: bool
) -> spla.SuperLU:
    """Sparse LU of a sweep's matrix; regularizes singular systems.

    The factorization of an exactly singular matrix may silently produce a
    tiny pivot instead of failing, so in regimes where singularity can occur
    (no bulk relaxation with every node active) the pivots are checked
    explicitly and the system is shifted by a tiny multiple of the identity.
    """
    try:
        lu = spla.splu(m_mat, permc_spec=_ORDERING)
        if check_singular:
            pivots = np.abs(lu.U.diagonal())
            if pivots.min() <= 1e-12 * max(pivots.max(), 1.0):
                raise RuntimeError("numerically singular factorization")
    except RuntimeError:
        reg = m_mat + 1e-10 * scale * sp.identity(m_mat.shape[0], format="csc")
        lu = spla.splu(reg.tocsc(), permc_spec=_ORDERING)
    return lu


class _Factorization(NamedTuple):
    """A sweep's matrix and its LU, with the operators and active set it was
    built from."""

    operators: tuple[sp.csc_matrix, sp.csc_matrix]
    active: np.ndarray
    m_mat: sp.csc_matrix
    lu: spla.SuperLU


#: The last factorization made by :func:`time_step`, reused by a sweep with the
#: same operators and active set (the first sweep of each step starts from the
#: sets the previous step converged on).  One entry only: callers keep many
#: states, and an n=128 factorization is about 8 MB.  The entry is replaced
#: whole and read once per sweep, so a stale read only costs a factorization.
_last_factorization: _Factorization | None = None


def time_step(state: StepState, stencil: ConvolutionStencil, sim: SimParams) -> StepState:
    """Advance the state by one implicit step of the obstacle problem.

    Raises
    ------
    ConvergenceError
        If the active sets do not stabilize within ``sim.max_sweeps`` sweeps or
        the converged linear residual exceeds ``sim.solver_tol``.
    """
    global _last_factorization
    grid = state.grid
    if stencil.grid != grid:
        raise ConfigError("stencil was built for a different grid")
    operators = _step_matrices(
        grid.n_solution, grid.h, stencil.xi, sim.beta1, sim.beta2, sim.dt
    )
    a_mat, b_mat = operators
    sol = grid.solution_slice
    g = convolve(stencil, state.padded).ravel()
    u_prev = state.padded[sol, sol].ravel()
    rhs0 = u_prev / sim.dt + b_mat @ g

    active_pos = state.active_pos.copy()
    active_neg = state.active_neg.copy()
    scale = 1.0 / sim.dt + abs(stencil.xi) * (sim.beta1 + 8.0 * sim.beta2 / grid.h**2)
    u = u_prev
    lam = state.multiplier
    converged = False
    sweeps = 0
    for sweeps in range(1, sim.max_sweeps + 1):
        active = active_pos | active_neg
        free = ~active
        pinned = np.where(active_pos, 1.0, 0.0) - np.where(active_neg, 1.0, 0.0)
        last = _last_factorization
        if (
            last is not None
            and last.operators is operators
            and np.array_equal(last.active, active)
        ):
            m_mat, lu = last.m_mat, last.lu
        else:
            m_mat = _masked_matrix(a_mat, b_mat, free)
            lu = _factorize(m_mat, scale, sim.beta1 == 0.0 or not free.any())
            _last_factorization = _Factorization(operators, active, m_mat, lu)
        rhs = rhs0 - a_mat @ pinned
        x = lu.solve(rhs)
        x += lu.solve(rhs - m_mat @ x)
        u = pinned + np.where(free, x, 0.0)
        lam = np.where(active, x, 0.0)
        c = sim.active_set_c
        new_pos = lam + c * (u - 1.0) > _ACTIVATION_TOL
        new_neg = lam + c * (u + 1.0) < -_ACTIVATION_TOL
        if np.array_equal(new_pos, active_pos) and np.array_equal(new_neg, active_neg):
            converged = True
            break
        active_pos, active_neg = new_pos, new_neg

    residual = float(np.abs(a_mat @ u + b_mat @ lam - rhs0).max())
    if not converged:
        raise ConvergenceError(
            f"active sets did not stabilize in {sim.max_sweeps} sweeps at "
            f"t={state.t + sim.dt:.6g} (last residual {residual:.3e})"
        )
    if residual > sim.solver_tol:
        raise ConvergenceError(
            f"linear residual {residual:.3e} exceeds solver_tol={sim.solver_tol:.3e} "
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
        residual=residual,
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
    stencil = cached_stencil(
        model.n_interior, family.eps2, family.delta_hf, model.delta, family.c_f
    )
    grid = stencil.grid
    # Warm the matrix cache so assembly cost is not charged to this sample.
    _step_matrices(grid.n_solution, grid.h, stencil.xi, sim.beta1, sim.beta2, sim.dt)
    start = time.perf_counter()
    state = run_simulation(grid, stencil, theta, sim)
    value = mass_fraction(grid, state.padded)
    seconds = time.perf_counter() - start
    return ModelEvaluation(value=value, seconds=seconds)
