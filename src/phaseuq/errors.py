"""Exception hierarchy.

Every error raised deliberately by this package derives from :class:`PhaseUQError`
and carries an ``exit_code`` used by the command-line interface:

* 2 -- configuration or input validation problem,
* 3 -- requested estimator cannot be built (infeasible subset / insufficient budget),
* 4 -- the nonlinear solver failed to converge.
"""

from __future__ import annotations

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
