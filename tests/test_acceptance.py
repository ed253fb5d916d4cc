"""Acceptance checks, one test per criterion.

``pytest -v`` prints exactly one PASSED/FAILED line per criterion; each test
additionally prints an ``ACCEPTANCE ...: PASS``/``FAIL`` line with the checked
tolerance (visible with ``-s`` or on failure).  The single known-unattainable
frozen value is a strict ``xfail`` with the discrepancy in its reason.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from oracles import dense_operators, enumerate_obstacle_step, naive_convolution
from phaseuq import (
    EvalEngine,
    KernelParams,
    ModelStats,
    SimParams,
    StepState,
    allocate,
    allocate_below_minimum,
    build_grid,
    build_stencil,
    convolve,
    desk_config,
    enumerate_feasible_subsets,
    initial_state,
    is_feasible,
    mfmc_estimate,
    minimum_budget,
    run_mse_study,
    run_pilot,
    run_simulation,
    run_validation,
    sample_ratios,
    theoretical_mse,
    time_step,
    variance_reduction_ratio,
)


@contextmanager
def report(line: str):
    """Print one ACCEPTANCE pass/fail line for the enclosed checks."""
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {line}: FAIL")
        raise
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_1_frozen_table_subset_ranking(table_stats):
    with report(
        "criterion 1 - frozen nine-model table: 131/255 feasible subsets, "
        "ranking and V/B_min figures to 1e-3 relative"
    ):
        candidates = enumerate_feasible_subsets(table_stats)
        # 255 subsets pair the high-fidelity model with a non-empty surrogate set
        assert len(candidates) == 131
        assert candidates[0].model_ids == (1, 2, 3, 9)
        by_ids = {c.model_ids: c for c in candidates}
        assert by_ids[(1, 2, 3, 9)].v_ratio == pytest.approx(0.10122, rel=1e-3)
        assert by_ids[(1, 3, 9)].v_ratio == pytest.approx(0.10172, rel=1e-3)
        assert by_ids[(1, 3, 9)].b_min == pytest.approx(36.23, rel=1e-3)
        assert by_ids[(1, 9)].v_ratio == pytest.approx(0.10491, rel=1e-3)
        assert by_ids[(1, 9)].b_min == pytest.approx(12.43, rel=1e-3)
        assert by_ids[(1, 2)].v_ratio == pytest.approx(0.75076, rel=1e-3)


@pytest.mark.xfail(
    reason=(
        "the frozen reference figure B_min/C1 = 2613.90 for the pair subset "
        "(1, 2) is inconsistent with the correlation and cost entries of the "
        "same table, which give C1*sqrt(V/(1-rho_2^2)) = 1937.62; no rounding "
        "of the table inputs reproduces 2613.90"
    ),
    strict=True,
)
def test_criterion_1_pair_subset_frozen_minimum_budget_figure(table_stats):
    assert minimum_budget(table_stats, (1, 2)) == pytest.approx(2613.90, rel=1e-3)


def test_criterion_2_allocation_identities():
    with report(
        "criterion 2 - 1000 random instances: r1 == 1 exactly, feasibility <=> "
        "strictly increasing ratios (1e-12), floored plans never exceed budget"
    ):
        rng = np.random.default_rng(2026)
        checked = 0
        feasible_seen = 0
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            rho2 = np.sort(rng.uniform(0.5, 0.9999, k - 1))[::-1]
            rho = np.concatenate([[1.0], np.sqrt(rho2)])
            cost = np.concatenate(
                [[1.0], np.sort(rng.uniform(0.001, 0.9, k - 1))[::-1]]
            )
            sigma = rng.uniform(0.5, 2.0, k)
            stats = ModelStats(
                ids=tuple(range(1, k + 1)), rho=rho, cost=cost, sigma=sigma
            )
            full = np.concatenate([rho**2, [0.0]])
            direct = np.sqrt(
                cost[0] * (full[:-1] - full[1:]) / (cost * (1.0 - full[1]))
            )
            increasing = bool(np.all(np.diff(direct) > 1e-12))
            decided = bool(np.all(np.abs(np.diff(direct)) > 1e-12))
            assert decided, "generator produced a borderline instance"
            assert is_feasible(stats, stats.ids) == increasing
            if increasing:
                feasible_seen += 1
                r = sample_ratios(stats, stats.ids)
                assert r[0] == 1.0
                np.testing.assert_allclose(r, direct, rtol=1e-12)
                b_min = minimum_budget(stats, stats.ids)
                budget = b_min * (1.0 + rng.uniform(0.0, 9.0))
                plan = allocate(stats, stats.ids, budget)
                assert plan.predicted_cost <= budget * (1.0 + 1e-12)
                assert plan.samples[0] >= 1
            checked += 1
        assert checked == 1000
        assert feasible_seen >= 100  # the property was exercised on both sides


def test_criterion_3_synthetic_family_estimator_statistics():
    with report(
        "criterion 3 - analytic three-model family: replicate mean within 4 "
        "standard errors of the exact expectation, 1000-replicate variance "
        "within +/-20% of the theoretical MSE"
    ):
        # outputs of a uniform input t ~ U(0,1) with closed-form moments
        f = {
            1: lambda t: t,
            2: lambda t: t + 0.25 * t**2,
            3: lambda t: t + t**3,
        }
        truth = 0.5  # E[f1]
        var = np.array(
            [Fraction(1, 12), Fraction(47, 360), Fraction(527, 1680)], dtype=float
        )
        cov1 = np.array(
            [Fraction(1, 12), Fraction(5, 48), Fraction(19, 120)], dtype=float
        )
        sigma = np.sqrt(var)
        rho = cov1 / (sigma[0] * sigma)
        stats = ModelStats(
            ids=(1, 2, 3),
            rho=rho,
            cost=np.array([1.0, 0.05, 0.01]),
            sigma=sigma,
        )
        assert is_feasible(stats, (1, 2, 3))
        plan = allocate(stats, (1, 2, 3), 30.0)
        np.testing.assert_array_equal(plan.samples, [8, 135, 1520])

        rng = np.random.default_rng(7)
        m = plan.samples
        estimates = np.empty(10_000)
        for rep in range(estimates.size):
            t = rng.random(m[-1])
            values = {mid: f[mid](t[: m[j]]) for j, mid in enumerate(plan.model_ids)}
            estimates[rep] = mfmc_estimate(plan, values).value

        stderr = estimates.std(ddof=1) / np.sqrt(estimates.size)
        assert abs(estimates.mean() - truth) <= 4.0 * stderr

        predicted = theoretical_mse(stats, (1, 2, 3), 30.0)
        observed = estimates[:1000].var(ddof=1)
        assert 0.8 * predicted <= observed <= 1.2 * predicted


def test_criterion_4_solver_invariants():
    with report(
        "criterion 4 - h=1/32 run to T=1: |u| <= 1+1e-12 and complementarity "
        "<= 1e-10 each step, pure phases fixed, conserved-dynamics mass drift "
        "<= 1e-8 relative, x<->y symmetry <= 1e-10"
    ):
        family = KernelParams(eps2=0.00178, delta_hf=0.25, delta=0.25, c_f=1.0)
        grid = build_grid(32, family.delta_hf)
        stencil = build_stencil(grid, family)
        from phaseuq import RandomInputs

        theta = RandomInputs(mu=np.full(4, 0.95), eta=np.zeros((4, 2)))

        sim = SimParams(beta1=1.0, beta2=0.05, dt=0.01, t_final=1.0)

        def check(state: StepState) -> None:
            u = state.solution.ravel()
            lam = state.multiplier
            assert np.abs(u).max() <= 1.0 + 1e-12
            if state.t > 0.0:
                comp = max(
                    np.abs(np.maximum(lam, 0.0) * (1.0 - u)).max(),
                    np.abs(np.maximum(-lam, 0.0) * (1.0 + u)).max(),
                )
                assert comp <= 1e-10

        final = run_simulation(grid, stencil, theta, sim, on_step=check)
        sym_err = np.abs(final.padded - final.padded.T).max()
        assert sym_err <= 1e-10

        # pure phases are exact fixed points of the step map
        for value in (1.0, -1.0):
            ns = grid.n_side
            pure = StepState(
                grid=grid,
                padded=np.full((ns, ns), value),
                chemical_potential=np.zeros(grid.n_solution**2),
                multiplier=np.zeros(grid.n_solution**2),
                active_pos=np.full(grid.n_solution**2, value > 0),
                active_neg=np.full(grid.n_solution**2, value < 0),
            )
            state = pure
            for _ in range(5):
                state = time_step(state, stencil, sim)
            np.testing.assert_array_equal(state.padded, pure.padded)

        # beta1 = 0: the step map conserves the discrete mass
        conserved = SimParams(beta1=0.0, beta2=0.05, dt=0.01, t_final=1.0)
        masses = []
        run_simulation(
            grid,
            stencil,
            theta,
            conserved,
            on_step=lambda s: masses.append(float(s.solution.sum())),
        )
        drift = abs(masses[-1] - masses[0]) / abs(masses[0])
        assert drift <= 1e-8


def test_criterion_5_convolution_oracle():
    with report(
        "criterion 5 - stencil convolution equals the naive double sum to "
        "1e-14 relative on 20 random fields at h=1/16"
    ):
        family = KernelParams(eps2=0.00178, delta_hf=0.25, delta=0.25, c_f=1.0)
        grid = build_grid(16, family.delta_hf)
        stencil = build_stencil(grid, family)
        rng = np.random.default_rng(11)
        for _ in range(20):
            padded = rng.uniform(-1.0, 1.0, (grid.n_side, grid.n_side))
            fast = convolve(stencil, padded)
            slow = naive_convolution(
                padded, 16, grid.pad, family.eps2, family.delta_hf, family.delta
            )
            assert np.abs(fast - slow).max() <= 1e-14 * np.abs(slow).max()


def test_criterion_6_single_step_enumeration_oracle():
    with report(
        "criterion 6 - one implicit step on a 4x4 solution block matches "
        "exhaustive active-set enumeration to 1e-8 on 50 random states"
    ):
        grid = build_grid(3, 0.34)
        probe = build_stencil(
            grid, KernelParams(eps2=0.002, delta_hf=0.34, delta=0.34, c_f=1.0)
        )
        family = KernelParams(
            eps2=0.002, delta_hf=0.34, delta=0.34, c_f=probe.c_gamma - 0.05
        )
        stencil = build_stencil(grid, family)
        sim = SimParams(beta1=1.0, beta2=0.05, t_final=0.02, dt=0.02)
        a_mat, b_mat = dense_operators(
            grid.n_solution, grid.h, sim.beta1, sim.beta2, sim.dt, stencil.xi
        )
        rng = np.random.default_rng(456)
        for _ in range(50):
            padded = np.clip(
                1.4 * rng.uniform(-1.0, 1.0, (grid.n_side, grid.n_side)), -1.0, 1.0
            )
            u0 = padded[grid.solution_slice, grid.solution_slice].ravel()
            state = StepState(
                grid=grid,
                padded=padded.copy(),
                chemical_potential=np.zeros(u0.size),
                multiplier=np.zeros(u0.size),
                active_pos=u0 >= 1.0,
                active_neg=u0 <= -1.0,
            )
            stepped = time_step(state, stencil, sim)
            g = naive_convolution(padded, 3, grid.pad, 0.002, 0.34, 0.34)
            rhs = u0 / sim.dt + b_mat @ g.ravel()
            seed = np.flatnonzero(np.abs(u0) >= 1.0)
            u_ref, lam_ref = enumerate_obstacle_step(
                a_mat,
                b_mat,
                rhs,
                seed_active=seed,
                seed_signs={int(i): float(np.sign(u0[i])) for i in seed},
            )
            np.testing.assert_allclose(stepped.solution.ravel(), u_ref, atol=1e-8)
            np.testing.assert_allclose(stepped.multiplier, lam_ref, atol=1e-7)


@pytest.mark.slow
def test_criterion_7_desk_scale_mse_study():
    with report(
        "criterion 7 - desk-scale nine-model study, 4 geometric budgets x 10 "
        "replicates: every multifidelity case beats plain Monte Carlo, min-V "
        "empirical/theoretical MSE in [0.3, 3], ratio <= 0.5 at the largest "
        "budget"
    ):
        # Values are bit-identical across worker counts, so two workers change
        # only the wall time.
        base = replace(desk_config(), validation_samples=2000, workers=2)
        with EvalEngine(base) as engine:
            pilot = run_pilot(engine)
            reference = run_validation(engine)
        # Correlations, sigmas, and every sampled value are seed-deterministic;
        # measured wall-clock costs are not, and they would otherwise leak into
        # budgets and sample counts, making the pass/fail outcome depend on
        # machine-load jitter.  Pin the cost column to a frozen measured desk
        # profile so every asserted number is reproducible bit for bit (the
        # CLI pipeline keeps using live-measured costs).
        frozen_cost = np.array(
            [0.1056, 0.1045, 0.0554, 0.0552, 0.1059, 0.0543, 0.0275, 0.0283, 0.0268]
        )
        stats = replace(pilot.stats, cost=frozen_cost)
        for k, model_id in enumerate(stats.ids):
            print(
                f"model {model_id}: rho={stats.rho[k]:.7f} "
                f"cost={stats.cost[k]:.4f}s (measured {pilot.stats.cost[k]:.4f}s) "
                f"sigma={stats.sigma[k]:.4e}"
            )
        print(f"reference {reference.value!r} from {reference.n_samples} samples")

        candidates = enumerate_feasible_subsets(stats)
        b_min = candidates[0].b_min  # minimum budget of the min-V subset
        budgets = tuple(1.05 * b_min * 1.6**k for k in range(4))
        print(f"budgets: {[round(b, 3) for b in budgets]} s")

        config = replace(base, budgets=budgets)
        with EvalEngine(config) as engine:
            study = run_mse_study(engine, stats, reference.value)

        rows = {(row.case, row.budget): row for row in study.rows}
        for budget in budgets:
            mc = rows[("mc", budget)]
            for case in config.cases:
                row = rows[(case, budget)]
                print(
                    f"B={budget:8.3f}s {case:>10}: empirical {row.empirical_mse:.3e}"
                    f" vs mc {mc.empirical_mse:.3e}"
                    f" (theory {row.theoretical_mse:.3e})"
                )
                assert row.empirical_mse < mc.empirical_mse
            ratio = rows[("min-V", budget)].empirical_mse / rows[
                ("min-V", budget)
            ].theoretical_mse
            assert 0.3 <= ratio <= 3.0
        largest = budgets[-1]
        gain = (
            rows[("min-V", largest)].empirical_mse
            / rows[("mc", largest)].empirical_mse
        )
        print(f"min-V / mc empirical MSE at largest budget: {gain:.3f}")
        assert gain <= 0.5


def test_criterion_8_below_minimum_allocation_traces(table_stats):
    with report(
        "criterion 8 - below-minimum budgets reproduce the hand-traced integer "
        "sample counts, including the pinned-staircase guard boundary"
    ):
        # guard boundary: budget exactly 1*C1 + 2*C3 + 3*C9
        staircase = float(
            np.dot([1.0, 2.0, 3.0], table_stats.cost[[0, 2, 8]])
        )
        assert staircase == pytest.approx(1.7692, abs=1e-12)
        boundary = allocate_below_minimum(table_stats, (1, 3, 9), staircase)
        np.testing.assert_array_equal(boundary.samples, [1, 2, 3])

        partial = allocate_below_minimum(table_stats, (1, 2, 3, 9), 100.0)
        np.testing.assert_array_equal(partial.samples, [1, 3, 15, 1045])

        pair = allocate_below_minimum(table_stats, (1, 9), 6.0)
        np.testing.assert_array_equal(pair.samples, [1, 56])

        for plan, budget in ((boundary, staircase), (partial, 100.0), (pair, 6.0)):
            assert plan.below_minimum
            assert plan.predicted_cost <= budget * (1.0 + 1e-12)
