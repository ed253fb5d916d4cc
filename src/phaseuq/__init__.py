"""Nonlocal phase-change simulation with multifidelity Monte Carlo estimation.

The package has two halves:

* :mod:`phaseuq.grid` and :mod:`phaseuq.solver` -- a conserved nonlocal
  phase-field model with a double-obstacle potential on the unit square,
  integrated implicitly with an active-set strategy; the scalar output is the
  mass fraction of the ``+1`` phase at the final time.
* :mod:`phaseuq.mfmc`, :mod:`phaseuq.sampling`, and :mod:`phaseuq.campaign`
  -- multifidelity Monte Carlo estimation of that output over a family of
  coarsened models: pilot statistics, model subset selection, budget
  allocation (including budgets below the optimal-allocation minimum), and
  replicated error studies against a high-fidelity reference.
"""

from . import campaign, errors, grid, mfmc, sampling, solver
from .campaign import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .mfmc import *  # noqa: F401,F403
from .sampling import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *grid.__all__,
    *solver.__all__,
    *mfmc.__all__,
    *sampling.__all__,
    *campaign.__all__,
]
