"""Shared fixtures: the frozen nine-model statistics table, small configs, and
the junk values that no number setting accepts."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from phaseuq import CampaignConfig, KernelParams, ModelSpec, ModelStats, SimParams

#: Frozen pilot statistics of the production nine-model family
#: (correlation, cost relative to the high-fidelity model, output standard
#: deviation, grid spacing, truncation radius).  Costs are kept in relative
#: units: the high-fidelity cost is defined as 1 second for these tests.
TABLE_RHO = np.array(
    [
        1.0000000,
        0.9999999,
        0.9999613,
        0.9999612,
        0.9999465,
        0.9998767,
        0.9998020,
        0.9998010,
        0.9996606,
    ]
)
TABLE_COST = np.array(
    [1.0000, 0.7501, 0.2514, 0.3069, 0.5214, 0.2054, 0.1035, 0.1204, 0.0888]
)
TABLE_SIGMA = np.array(
    [6.694e-3, 6.679e-3, 6.604e-3, 6.620e-3, 6.494e-3, 6.437e-3, 6.506e-3, 6.525e-3, 6.331e-3]
)
TABLE_H = np.array(
    [1 / 128, 1 / 128, 1 / 88, 1 / 88, 1 / 128, 1 / 88, 1 / 64, 1 / 64, 1 / 64]
)
TABLE_DELTA = np.array(
    [0.25, 0.1875, 0.1875, 0.25, 0.125, 0.125, 0.1875, 0.25, 0.125]
)


#: Not numbers (a bool included) or not finite: every int and float setting,
#: id and index refuses these with a ConfigError.
_JUNK = (True, np.bool_(True), "0.5", None, math.nan, math.inf, -math.inf)


@pytest.fixture(scope="session")
def junk_floats() -> tuple:
    """Values that a real-valued setting refuses, an int too large for a float
    among them."""
    return (*_JUNK, 10**400)


@pytest.fixture(scope="session")
def junk_ints() -> tuple:
    """Values that an integer setting, id or index refuses, integral floats
    among them."""
    return (*_JUNK, 2.5, 8.0)


@pytest.fixture(scope="session")
def table_stats() -> ModelStats:
    return ModelStats(
        ids=tuple(range(1, 10)),
        rho=TABLE_RHO,
        cost=TABLE_COST,
        sigma=TABLE_SIGMA,
        h=TABLE_H,
        delta=TABLE_DELTA,
    )


@pytest.fixture()
def micro_config() -> CampaignConfig:
    """Three tiny models; every command finishes in seconds."""
    return CampaignConfig(
        master_seed=11,
        models=(
            ModelSpec(model_id=1, n_interior=12, delta=0.25, label="hf"),
            ModelSpec(model_id=2, n_interior=8, delta=0.25),
            ModelSpec(model_id=3, n_interior=6, delta=0.25),
        ),
        kernel=KernelParams(eps2=0.00178, delta_hf=0.25, delta=0.25, c_f=1.0),
        sim=SimParams(t_final=0.05),
        pilot_samples=8,
        replicates=3,
        budgets=(0.5, 1.0),
        cases=("min-V",),
        validation_samples=20,
        workers=1,
    )
