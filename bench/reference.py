"""Reference code and output checks, written apart from the package.

Nothing here calls the package's grid, solver or estimator code: the kernel,
the convolution, the operators and the MFMC formula are implemented again
from their definitions, so a fault in the package cannot hide in the check.
Each check raises :class:`CheckError` with a message naming what failed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp


class CheckError(AssertionError):
    """A program output violated a property of the method."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- kernel, convolution and operators -------------------------------------


def kernel_offsets(n_interior: int, eps2: float, delta_hf: float, delta: float):
    """Integer offsets ``(k, 2)`` and quadrature weights of the truncated kernel.

    ``weight = 4 eps2 / (pi a^4) exp(-(r/a)^2) h^2`` for lattice distances
    ``r <= delta``, with ``a = delta_hf / 3`` and ``h = 1 / n_interior``.
    """
    h = 1.0 / n_interior
    a = delta_hf / 3.0
    reach = int(delta / h) + 1
    offsets, weights = [], []
    for i in range(-reach, reach + 1):
        for j in range(-reach, reach + 1):
            r = math.hypot(i, j) * h
            if r <= delta * (1.0 + 1e-12):
                offsets.append((i, j))
                weights.append(
                    4.0 * eps2 / (math.pi * a**4) * math.exp(-((r / a) ** 2)) * h * h
                )
    return np.array(offsets), np.array(weights)


def shifted_sum_convolution(padded: np.ndarray, offsets, weights, pad: int, n_sol: int):
    """Kernel convolution on the solution block as a direct sum of shifted
    copies of the padded field, one per stencil offset."""
    out = np.zeros((n_sol, n_sol))
    for (i, j), w in zip(offsets, weights):
        out += w * padded[pad + i : pad + i + n_sol, pad + j : pad + j + n_sol]
    return out


def neumann_operators(n_sol: int, h: float, xi: float, beta1: float, beta2: float, dt: float):
    """``B = beta1 I - beta2 L`` and ``A = I/dt + xi B`` with ``L`` the 5-point
    flux-form Neumann Laplacian on the ``n_sol x n_sol`` block (row-major)."""
    index = np.arange(n_sol * n_sol).reshape(n_sol, n_sol)
    pairs = np.concatenate(
        [
            np.stack([index[:-1, :].ravel(), index[1:, :].ravel()], axis=1),
            np.stack([index[:, :-1].ravel(), index[:, 1:].ravel()], axis=1),
        ]
    )
    p, q = pairs[:, 0], pairs[:, 1]
    inv_h2 = 1.0 / (h * h)
    rows = np.concatenate([p, q, p, q])
    cols = np.concatenate([q, p, p, q])
    vals = np.concatenate(
        [np.full(len(p), inv_h2), np.full(len(p), inv_h2), np.full(2 * len(p), -inv_h2)]
    )
    size = n_sol * n_sol
    lap = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    eye = sp.identity(size, format="csr")
    b_mat = (beta1 * eye - beta2 * lap).tocsr()
    a_mat = (eye / dt + xi * b_mat).tocsr()
    return a_mat, b_mat


class ReferenceModel:
    """Independent operators of one model: kernel, ``xi``, ``A`` and ``B``."""

    def __init__(self, n_interior: int, delta: float, eps2: float, delta_hf: float,
                 c_f: float, sim):
        self.n_sol = n_interior + 1
        self.pad = max(math.ceil(delta_hf * n_interior - 1e-12), 1)
        self.offsets, self.weights = kernel_offsets(n_interior, eps2, delta_hf, delta)
        self.xi = float(self.weights.sum()) - c_f
        self.sim = sim
        self.a_mat, self.b_mat = neumann_operators(
            self.n_sol, 1.0 / n_interior, self.xi, sim.beta1, sim.beta2, sim.dt
        )

    def solution(self, padded: np.ndarray) -> np.ndarray:
        return padded[self.pad : self.pad + self.n_sol, self.pad : self.pad + self.n_sol]

    def convolve(self, padded: np.ndarray) -> np.ndarray:
        return shifted_sum_convolution(padded, self.offsets, self.weights, self.pad, self.n_sol)


# --- checks of one time step ------------------------------------------------


def mass_fraction(ref: ReferenceModel, padded: np.ndarray) -> float:
    return 0.5 * (1.0 + float(np.mean(ref.solution(padded))))


def _fields(ref: ReferenceModel, prev_padded: np.ndarray, state):
    """``u``, ``u_prev``, ``lam`` and the +1 / -1 / free node sets of a step."""
    u = ref.solution(state.padded).ravel()
    u_prev = ref.solution(prev_padded).ravel()
    pos, neg = np.asarray(state.active_pos), np.asarray(state.active_neg)
    return u, u_prev, np.asarray(state.multiplier), pos, neg, ~(pos | neg)


def check_obstacle_bound(ref, prev_padded, state, g) -> None:
    u = _fields(ref, prev_padded, state)[0]
    require(np.abs(u).max() <= 1.0 + 1e-10, f"obstacle bound: max|u| = {np.abs(u).max()!r}")


def check_multiplier_signs(ref, prev_padded, state, g) -> None:
    u, _, lam, pos, neg, free = _fields(ref, prev_padded, state)
    require(np.all(u[pos] == 1.0) and np.all(u[neg] == -1.0),
            "active nodes are not on their bounds")
    require(np.all(lam[pos] >= 0.0),
            f"multiplier negative on the u=+1 set: {lam[pos].min(initial=0.0)!r}")
    require(np.all(lam[neg] <= 0.0),
            f"multiplier positive on the u=-1 set: {lam[neg].max(initial=0.0)!r}")
    require(np.all(lam[free] == 0.0), "nonzero multiplier on a free node")


def check_residual(ref, prev_padded, state, g) -> None:
    u, u_prev, lam = _fields(ref, prev_padded, state)[:3]
    tol = ref.sim.solver_tol
    residual = ref.a_mat @ u + ref.b_mat @ lam - u_prev / ref.sim.dt - ref.b_mat @ g
    res = float(np.abs(residual).max())
    require(res <= tol, f"linear residual {res:.3e} > solver_tol {tol:.1e}")


def check_balance_law(ref, prev_padded, state, g) -> None:
    """Zero column sums of the Neumann Laplacian: a step changes ``sum(u)`` by
    ``-dt beta1 sum(w)``, ``w = xi u - g + lam``, up to the solver residual."""
    u, u_prev, lam = _fields(ref, prev_padded, state)[:3]
    sim = ref.sim
    w = ref.xi * u - g + lam
    lhs = float(np.sum(u - u_prev))
    rhs = -sim.dt * sim.beta1 * float(np.sum(w))
    slack = sim.dt * u.size * sim.solver_tol + 1e-12 * (
        float(np.abs(u - u_prev).sum()) + sim.dt * sim.beta1 * float(np.abs(w).sum())
    )
    require(abs(lhs - rhs) <= slack, f"balance law off by {abs(lhs - rhs):.3e} (slack {slack:.1e})")


def check_collar(ref, prev_padded, state, g) -> None:
    collar = np.ones(prev_padded.shape, dtype=bool)
    collar[ref.pad : ref.pad + ref.n_sol, ref.pad : ref.pad + ref.n_sol] = False
    require(np.array_equal(state.padded[collar], prev_padded[collar]), "collar nodes changed")


def check_mass_fraction(ref, prev_padded, state, g) -> None:
    fraction = mass_fraction(ref, state.padded)
    require(0.0 <= fraction <= 1.0, f"mass fraction {fraction!r} outside [0, 1]")


STEP_CHECKS = (
    check_obstacle_bound,
    check_multiplier_signs,
    check_residual,
    check_balance_law,
    check_collar,
    check_mass_fraction,
)


def check_step(ref: ReferenceModel, prev_padded: np.ndarray, state) -> None:
    """Properties every converged implicit step must have.

    ``state`` carries ``padded``, ``multiplier``, ``active_pos`` and
    ``active_neg`` as returned by the solver.
    """
    g = ref.convolve(prev_padded).ravel()
    for check in STEP_CHECKS:
        check(ref, prev_padded, state, g)


# --- estimator formulas ---------------------------------------------------------


def mfmc_value(values_by_level, samples, alpha) -> float:
    """Control-variate estimate ``mean(y1[:m1]) + sum_j alpha_j (mean(yj[:mj])
    - mean(yj[:m_{j-1}]))`` over levels in estimator order."""
    estimate = float(np.mean(values_by_level[0][: samples[0]]))
    for j in range(1, len(samples)):
        y = values_by_level[j]
        estimate += alpha[j - 1] * (
            float(np.mean(y[: samples[j]])) - float(np.mean(y[: samples[j - 1]]))
        )
    return estimate


def control_weights(rho, sigma) -> np.ndarray:
    """``alpha_j = rho_j sigma_1 / sigma_j`` for levels ``j >= 2``."""
    rho, sigma = np.asarray(rho, float), np.asarray(sigma, float)
    return rho[1:] * sigma[0] / sigma[1:]


def variance_ratio(rho, cost) -> float:
    """``V = (sum_j sqrt(c_j / c_1 (rho_j^2 - rho_{j+1}^2)))^2`` with ``rho_{m+1} = 0``."""
    rho2 = np.append(np.asarray(rho, float) ** 2, 0.0)
    cost = np.asarray(cost, float)
    return float(np.sum(np.sqrt(cost / cost[0] * (rho2[:-1] - rho2[1:]))) ** 2)


def minimum_budget(rho, cost) -> float:
    """Budget at which the optimal allocation gives the high-fidelity model one
    sample: ``sum_j c_j r_j`` with ``r_j = sqrt(c_1 (rho_j^2 - rho_{j+1}^2) /
    (c_j (1 - rho_2^2)))``."""
    rho2 = np.append(np.asarray(rho, float) ** 2, 0.0)
    cost = np.asarray(cost, float)
    denom = 1.0 - rho2[1] if len(cost) > 1 else 1.0
    r = np.sqrt(cost[0] * (rho2[:-1] - rho2[1:]) / (cost * denom))
    r[0] = 1.0
    return float(np.dot(cost, r))
