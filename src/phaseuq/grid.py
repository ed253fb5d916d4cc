"""Uniform grid, interaction kernel, and discrete convolution.

The computational domain is the unit square.  A model resolves it with a
uniform node spacing ``h = 1 / n_interior``; because the interactions are
nonlocal, the node set is extended by ``pad`` extra layers on every side so
that every node of the closed unit square has a complete interaction
neighbourhood.  Nodes of the closed square are *solution* nodes (their values
evolve); the surrounding collar nodes only supply interaction data.

The interaction kernel is a truncated Gaussian.  Its shape is set by the
finest interaction radius ``delta_hf`` of a model family, while the truncation
radius ``delta`` may be shortened per model to cheapen the convolution::

    kernel(r) = 4 * eps2 / (pi * a**4) * exp(-(r / a)**2)   for r <= delta,
    kernel(r) = 0                                           otherwise,

with ``a = delta_hf / 3``.  All quadrature uses the uniform weight ``h**2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

from .errors import ConfigError, DegenerateStencilError, as_float, as_int

__all__ = [
    "Grid",
    "KernelParams",
    "ConvolutionStencil",
    "build_grid",
    "kernel_value",
    "build_stencil",
    "convolve",
]

#: Relative slack used when testing ``r <= delta`` so that lattice points
#: lying exactly on the truncation circle are kept despite roundoff.
_CUTOFF_RTOL = 1e-12


@dataclass(frozen=True)
class KernelParams:
    """Parameters of the truncated-Gaussian interaction kernel.

    Attributes
    ----------
    eps2:
        Interface-energy coefficient (``epsilon**2``); positive and finite.
    delta_hf:
        Interaction radius that fixes the Gaussian shape parameter
        ``a = delta_hf / 3``; shared across a model family.
    delta:
        Truncation radius of this particular model, ``0 < delta <= delta_hf``.
        Not written to JSON, and read back as ``delta_hf``: a kernel stored
        as JSON is a campaign's family kernel, which is untruncated.
    c_f:
        Height of the double-obstacle potential well; positive and finite.
    """

    eps2: float = 0.00178
    delta_hf: float = 0.25
    delta: float = field(default=0.25, metadata={"json_copy_of": "delta_hf"})
    c_f: float = 1.0

    def __post_init__(self) -> None:
        for name in ("eps2", "delta_hf", "delta", "c_f"):
            object.__setattr__(self, name, as_float(getattr(self, name), name, positive=True))
        if self.delta > self.delta_hf * (1.0 + _CUTOFF_RTOL):
            raise ConfigError(
                f"delta must satisfy 0 < delta <= delta_hf, got delta={self.delta} "
                f"with delta_hf={self.delta_hf}"
            )

    @property
    def shape_radius(self) -> float:
        """Gaussian shape parameter ``a = delta_hf / 3``."""
        return self.delta_hf / 3.0


@dataclass(frozen=True)
class Grid:
    """Uniform padded grid over the unit square.

    Attributes
    ----------
    n_interior:
        Number of cells per side; the solution block has ``n_interior + 1``
        nodes per side and spacing ``h = 1 / n_interior``.
    pad:
        Number of collar node layers added on each side for interaction data.
    """

    n_interior: int
    pad: int

    def __post_init__(self) -> None:
        for name in ("n_interior", "pad"):
            object.__setattr__(self, name, as_int(getattr(self, name), name, low=1))

    @property
    def h(self) -> float:
        """Node spacing."""
        return 1.0 / self.n_interior

    @property
    def n_side(self) -> int:
        """Total nodes per side including the collar."""
        return self.n_interior + 1 + 2 * self.pad

    @property
    def n_solution(self) -> int:
        """Nodes per side of the solution block (closed unit square)."""
        return self.n_interior + 1

    @property
    def solution_slice(self) -> slice:
        """Index slice selecting solution nodes along either axis."""
        return slice(self.pad, self.pad + self.n_solution)

    def coords_1d(self) -> np.ndarray:
        """Node coordinates along one axis (collar nodes lie outside [0, 1])."""
        return (np.arange(self.n_side) - self.pad) * self.h

    def solution_mask(self) -> np.ndarray:
        """Boolean ``(n_side, n_side)`` mask of the solution block."""
        mask = np.zeros((self.n_side, self.n_side), dtype=bool)
        mask[self.solution_slice, self.solution_slice] = True
        return mask


def build_grid(n_interior: int, delta_hf: float) -> Grid:
    """Build the padded grid for a given resolution and family interaction radius.

    The collar is ``ceil(delta_hf / h)`` layers so that every solution node has
    its full interaction disc inside the node set for any truncation radius
    ``delta <= delta_hf``.
    """
    grid = Grid(n_interior=n_interior, pad=1)
    pad = math.ceil(as_float(delta_hf, "delta_hf", positive=True) / grid.h - _CUTOFF_RTOL)
    return replace(grid, pad=max(pad, 1))


def kernel_value(r, params: KernelParams):
    """Evaluate the truncated-Gaussian kernel at distance ``r`` (scalar or array)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ConfigError("kernel distances must be non-negative")
    a = params.shape_radius
    peak = 4.0 * params.eps2 / (math.pi * a**4)
    values = np.where(
        r <= params.delta * (1.0 + _CUTOFF_RTOL),
        peak * np.exp(-((r / a) ** 2)),
        0.0,
    )
    if values.ndim == 0:
        return float(values)
    return values


@dataclass(frozen=True, eq=False)
class ConvolutionStencil:
    """Precomputed discrete convolution data for one (grid, kernel) pair.

    Attributes
    ----------
    grid:
        The grid the stencil was built for.
    params:
        Kernel parameters.
    radius_cells:
        Offsets range over ``-radius_cells .. radius_cells`` in each axis.
    patch:
        Dense ``(2 * radius_cells + 1,) * 2`` array of quadrature-scaled
        kernel weights (``kernel * h**2``), zero outside the truncation disc.
    c_gamma:
        Discrete kernel mass ``sum(patch)``; also the action of the
        convolution on the constant field 1.
    xi:
        Spectral shift ``c_gamma - c_f`` of the linearized operator.
    fft_shape:
        Transform shape of the zero-padded linear convolution of a padded
        field with ``patch``.
    spectrum:
        ``rfftn(patch, fft_shape)``, the kernel's half spectrum.

    ``patch`` and ``spectrum`` are read-only: :func:`cached_stencil` shares
    them between callers.
    """

    grid: Grid
    params: KernelParams
    radius_cells: int
    patch: np.ndarray
    c_gamma: float
    xi: float
    fft_shape: tuple[int, int]
    spectrum: np.ndarray


def build_stencil(grid: Grid, params: KernelParams) -> ConvolutionStencil:
    """Tabulate the convolution stencil of a grid/kernel pair.

    Raises
    ------
    DegenerateStencilError
        If ``delta < h``: the truncation disc then contains no neighbour and
        the discrete operator degenerates to a multiple of the identity.
    """
    h = grid.h
    radius = int(math.floor(params.delta / h + _CUTOFF_RTOL))
    if radius < 1:
        raise DegenerateStencilError(
            f"truncation radius delta={params.delta} is below the grid spacing "
            f"h={h}; the discrete interaction disc is empty"
        )
    if radius > grid.pad:
        raise ConfigError(
            f"grid pad={grid.pad} is too small for truncation radius "
            f"delta={params.delta} (needs {radius} layers)"
        )
    span = np.arange(-radius, radius + 1)
    dist = np.hypot(span[:, None], span[None, :]) * h
    patch = kernel_value(dist, params) * h**2
    c_gamma = float(patch.sum())
    # The shape that ``scipy.signal.fftconvolve`` picks for a padded field.
    fft_shape = tuple(next_fast_len(grid.n_side + n - 1, True) for n in patch.shape)
    spectrum = rfftn(patch, fft_shape)
    patch.setflags(write=False)
    spectrum.setflags(write=False)
    return ConvolutionStencil(
        grid=grid,
        params=params,
        radius_cells=radius,
        patch=patch,
        c_gamma=c_gamma,
        xi=c_gamma - params.c_f,
        fft_shape=fft_shape,
        spectrum=spectrum,
    )


@lru_cache(maxsize=64)
def cached_stencil(
    n_interior: int, eps2: float, delta_hf: float, delta: float, c_f: float
) -> ConvolutionStencil:
    """Build (or reuse) the stencil for the given scalar parameters."""
    grid = build_grid(n_interior, delta_hf)
    params = KernelParams(eps2=eps2, delta_hf=delta_hf, delta=delta, c_f=c_f)
    return build_stencil(grid, params)


def convolve(stencil: ConvolutionStencil, padded: np.ndarray) -> np.ndarray:
    """Discrete convolution of the kernel with a padded field.

    Parameters
    ----------
    stencil:
        Precomputed stencil.
    padded:
        Field values on the full ``(n_side, n_side)`` node set.

    Returns
    -------
    numpy.ndarray
        Convolution values on the solution block,
        shape ``(n_solution, n_solution)``.
    """
    grid = stencil.grid
    padded = np.asarray(padded, dtype=float)
    if padded.shape != (grid.n_side, grid.n_side):
        raise ConfigError(
            f"field shape {padded.shape} does not match grid ({grid.n_side}, {grid.n_side})"
        )
    # The full linear convolution by the arithmetic of ``scipy.signal.fftconvolve``
    # (so results match it bit for bit); the solution block starts at
    # ``pad + radius`` in it.
    fshape = stencil.fft_shape
    full = irfftn(rfftn(padded, fshape) * stencil.spectrum, fshape)
    lo = grid.pad + stencil.radius_cells
    return np.ascontiguousarray(
        full[lo : lo + grid.n_solution, lo : lo + grid.n_solution]
    )

