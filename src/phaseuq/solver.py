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
those of ``B`` at active ones.  ``B`` is symmetric, and in the natural
row-major order its only nonzero diagonals are 0, +-1 and +-``n_solution``,
so ``M`` is built from those diagonals of ``B`` alone; ``A`` is never
assembled.  With ``P_F = diag(1 on free nodes, 0 on active nodes)``,

.. code-block:: text

    M   = P_F / dt + B E,     E = diag(xi on free nodes, 1 on active nodes),
    M D = P_F / dt + xi B,    D = diag(1 on free nodes, xi on active nodes).

``M D`` is symmetric, and positive definite when ``xi > 0`` and ``beta1 > 0``.
On every grid those models get LAPACK's band Cholesky of ``M D`` (``dpbtrf``,
a band of ``n_solution + 1`` rows), whose solve returns ``D y``; the others
get band LU of ``M`` (``dgbtrf``, ``3 n_solution + 1`` rows).  In the built-in
families only reference models 5 and 6 take band LU above ``n_interior = 64``,
and :func:`check_well_posed` rejects both at their ``dt``.  At a smaller
``dt``, band LU would be about 1.4 times slower than sparse LU at
``n_interior = 128`` (76 against 54 ms per factorization on a 2-core machine)
and hold a 52 MB band (408 MB at ``n_interior = 256``).

Each residual of a step is one product by ``B``:
``r(u, lam) = rhs0 - u / dt - B (xi u + lam) = rhs0 - A u - B lam``.  A sweep
solves ``M x = r(pinned, 0)`` and refines ``x`` once from the residual of that
solve; the step is accepted when ``max |r(u, lam)|`` is within ``solver_tol``.

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
        if self.model_id < 1:
            raise ConfigError(f"model_id must be >= 1, got {self.model_id}")
        if self.n_interior < 1:
            raise ConfigError(f"n_interior must be >= 1, got {self.n_interior}")
        if not 0.0 < self.delta < np.inf:
            raise ConfigError(f"delta must be positive and finite, got {self.delta}")

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
        for name in ("beta1", "beta2", "dt", "t_final", "solver_tol", "active_set_c"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
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


@lru_cache(maxsize=32)
def _step_matrices(
    n_solution: int, h: float, xi: float, beta1: float, beta2: float, dt: float
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
    """Cached ``B`` on the solution block, its diagonal, and its first and
    ``n_solution``-th subdiagonals (its only other nonzero diagonals below the
    main one); checks first that the step is well posed."""
    check_well_posed(
        f"the n_interior={n_solution - 1} model with xi={xi:.4g}",
        n_solution, h, xi, beta1, beta2, dt,
    )
    t1 = _neumann_laplacian_1d(n_solution)
    eye = sp.identity(n_solution, format="csr")
    lap = (sp.kron(eye, t1) + sp.kron(t1, eye)).tocsr() / h**2
    b_mat = beta1 * sp.identity(n_solution**2, format="csr") - beta2 * lap
    return b_mat, b_mat.diagonal(0), b_mat.diagonal(-1), b_mat.diagonal(-n_solution)


class _BandLU:
    """LU with partial pivoting (``dgbtrf``/``dgbtrs``) of the sweep matrix
    ``M``, whose diagonal is ``diagonal`` and whose other entries are those of
    ``B E``; ``lower1`` and ``lower_k`` are ``B``'s first and ``k``-th
    subdiagonals."""

    def __init__(self, diagonal, lower1, lower_k, free, xi):
        n, k = diagonal.size, diagonal.size - lower_k.size
        e = np.where(free, xi, 1.0)
        band = np.zeros((3 * k + 1, n), order="F")
        band[2 * k] = diagonal
        band[2 * k + 1, :-1] = lower1 * e[:-1]
        band[2 * k - 1, 1:] = lower1 * e[1:]
        band[3 * k, :-k] = lower_k * e[:-k]
        band[k, k:] = lower_k * e[k:]
        self.k = k
        self.lu, self.ipiv, info = lapack.dgbtrf(band, k, k, overwrite_ab=True)
        if info != 0:
            raise RuntimeError(f"band LU failed (dgbtrf info={info})")

    @property
    def pivots(self) -> np.ndarray:
        """The diagonal of ``U``."""
        return self.lu[2 * self.k]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = lapack.dgbtrs(self.lu, self.k, self.k, rhs, self.ipiv)
        if info != 0:
            raise RuntimeError(f"band solve failed (dgbtrs info={info})")
        return x


class _BandCholesky:
    """Cholesky factorization ``L L^T`` (``dpbtrf``/``dpbtrs``) of ``M D``, for
    the ``M`` of :class:`_BandLU` with the same arguments; ``M D`` is ``xi B``
    off its diagonal.  It solves ``M x = rhs`` as ``x = D y``, ``M D y = rhs``."""

    def __init__(self, diagonal, lower1, lower_k, free, xi):
        n, k = diagonal.size, diagonal.size - lower_k.size
        self.d = np.where(free, 1.0, xi)
        band = np.zeros((k + 1, n), order="F")
        band[0] = diagonal * self.d
        band[1, :-1] = xi * lower1
        band[k, :-k] = xi * lower_k
        self.factor, info = lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            raise RuntimeError(f"band Cholesky failed (dpbtrf info={info})")

    @property
    def pivots(self) -> np.ndarray:
        """The pivots of ``M``'s LU without row exchanges, ``diag(L)^2 / d``."""
        return self.factor[0] ** 2 / self.d

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y, info = lapack.dpbtrs(self.factor, rhs, lower=1)
        if info != 0:
            raise RuntimeError(f"band Cholesky solve failed (dpbtrs info={info})")
        return self.d * y


def _factorize(diagonal, lower1, lower_k, free, xi, beta1, scale) -> _BandCholesky | _BandLU:
    """Band Cholesky of ``M D`` when ``xi > 0`` and ``beta1 > 0``, band LU of
    ``M`` otherwise, for the sweep matrix ``M`` of :class:`_BandLU` with the
    same first five arguments; regularizes singular systems.

    The factorization of an exactly singular matrix may silently produce a
    tiny pivot instead of failing, so in regimes where singularity can occur
    (no bulk relaxation, or every node active) the pivots are checked
    explicitly, and a failed or singular factorization is repeated on
    ``M + eps I`` with a tiny ``eps`` (on ``M D + eps D`` for band Cholesky).
    """
    factor = _BandCholesky if xi > 0.0 and beta1 > 0.0 else _BandLU
    try:
        lu = factor(diagonal, lower1, lower_k, free, xi)
        if beta1 == 0.0 or not free.any():
            pivots = np.abs(lu.pivots)
            if pivots.min() <= 1e-12 * max(pivots.max(), 1.0):
                raise RuntimeError("numerically singular factorization")
    except RuntimeError:
        lu = factor(diagonal + 1e-10 * scale, lower1, lower_k, free, xi)
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
    about 17 MB.  It is what the first sweep of each step reuses, since a step
    starts from the sets the previous step converged on.
    """
    _, b_diagonal, lower1, lower_k = _step_matrices(n_solution, h, xi, beta1, beta2, dt)
    free = ~np.frombuffer(active, dtype=bool)
    diagonal = np.where(free, xi * b_diagonal + 1.0 / dt, b_diagonal)
    scale = 1.0 / dt + abs(xi) * (beta1 + 8.0 * beta2 / h**2)
    return _factorize(diagonal, lower1, lower_k, free, xi, beta1, scale)


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

    active_pos = state.active_pos.copy()
    active_neg = state.active_neg.copy()
    u = u_prev
    lam = state.multiplier
    converged = False
    sweeps = 0
    for sweeps in range(1, sim.max_sweeps + 1):
        active = active_pos | active_neg
        free = ~active
        pinned = np.where(active_pos, 1.0, 0.0) - np.where(active_neg, 1.0, 0.0)
        lu = _sweep_factorization(*key, active.tobytes())
        x = lu.solve(residual(pinned, 0.0))
        x += lu.solve(residual(pinned + np.where(free, x, 0.0), np.where(active, x, 0.0)))
        u = pinned + np.where(free, x, 0.0)
        lam = np.where(active, x, 0.0)
        c = sim.active_set_c
        new_pos = lam + c * (u - 1.0) > _ACTIVATION_TOL
        new_neg = lam + c * (u + 1.0) < -_ACTIVATION_TOL
        if np.array_equal(new_pos, active_pos) and np.array_equal(new_neg, active_neg):
            converged = True
            break
        active_pos, active_neg = new_pos, new_neg

    max_residual = float(np.abs(residual(u, lam)).max())
    if not converged:
        raise ConvergenceError(
            f"active sets did not stabilize in {sim.max_sweeps} sweeps at "
            f"t={state.t + sim.dt:.6g} (last residual {max_residual:.3e})"
        )
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
