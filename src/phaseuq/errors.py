"""Exception hierarchy.

Every error raised deliberately by this package derives from :class:`PhaseUQError`
and carries an ``exit_code`` used by the command-line interface:

* 2 -- configuration or input validation problem,
* 3 -- requested estimator cannot be built (infeasible subset / insufficient budget),
* 4 -- the nonlinear solver failed to converge.

:func:`as_int` and :func:`as_float` are the one check of an integer and of a
real-valued setting, index or id: a bool, a string or ``None`` is not a number,
a float is not an int, and a real number must be finite.  Both raise
:class:`ConfigError`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PhaseUQError",
    "ConfigError",
    "DegenerateStencilError",
    "DegenerateStatisticsError",
    "InfeasibleSubsetError",
    "InsufficientBudgetError",
    "ConvergenceError",
]


class PhaseUQError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(PhaseUQError):
    """Invalid configuration, parameters, or input data."""

    exit_code = 2


class DegenerateStencilError(ConfigError):
    """The interaction radius is too small for the grid spacing.

    The discrete convolution needs at least one neighbour inside the
    interaction disc, i.e. ``delta >= h``.
    """


class DegenerateStatisticsError(ConfigError):
    """Pilot statistics are unusable (e.g. a model output with zero variance)."""


class InfeasibleSubsetError(PhaseUQError):
    """The model subset does not satisfy the estimator's ordering conditions."""

    exit_code = 3


class InsufficientBudgetError(PhaseUQError):
    """The budget is too small to build any valid sample allocation."""

    exit_code = 3


class ConvergenceError(PhaseUQError):
    """The active-set solver did not converge within the sweep limit."""

    exit_code = 4


def as_int(value, name: str, low: int | None = None) -> int:
    """``value`` as a Python int, at least ``low`` if given; a bool or a
    float, even an integral one, is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value


def as_float(value, name: str, positive: bool | None = None) -> float:
    """``value`` as a finite Python float; ``positive=True`` also demands
    ``> 0`` and ``positive=False`` ``>= 0``.  An int is accepted, a bool is
    not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float") from None
    in_range = positive is None or (result > 0.0 if positive else result >= 0.0)
    if not (math.isfinite(result) and in_range):
        wanted = {None: "finite", True: "positive and finite", False: "non-negative and finite"}
        raise ConfigError(f"{name} must be {wanted[positive]}, got {value!r}")
    return result
