"""Model selection, budget allocation, and the control-variate estimator."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from phaseuq import mfmc
from phaseuq import (
    AllocationPlan,
    ConfigError,
    DegenerateStatisticsError,
    InfeasibleSubsetError,
    InsufficientBudgetError,
    ModelStats,
    allocate,
    empirical_mse,
    enumerate_feasible_subsets,
    estimator_variance,
    is_feasible,
    mc_estimate,
    mfmc_estimate,
    minimum_budget,
    order_subset,
    pilot_statistics,
    resolve_case,
    sample_ratios,
    theoretical_mse,
    variance_reduction_ratio,
)
from phaseuq.campaign import build_plan


def make_stats(rho, cost, sigma, ids=None):
    k = len(rho)
    return ModelStats(
        ids=tuple(ids) if ids else tuple(range(1, k + 1)),
        rho=np.asarray(rho, dtype=float),
        cost=np.asarray(cost, dtype=float),
        sigma=np.asarray(sigma, dtype=float),
    )


def random_stats(rng, k):
    rho2 = np.sort(rng.uniform(0.5, 0.9999, k - 1))[::-1]
    rho = np.concatenate([[1.0], np.sqrt(rho2)])
    cost = np.concatenate([[1.0], np.sort(rng.uniform(0.001, 0.9, k - 1))[::-1]])
    sigma = rng.uniform(0.5, 2.0, k)
    return make_stats(rho, cost, sigma)


class TestModelStats:
    def test_validation(self, junk_ints):
        with pytest.raises(ConfigError):
            make_stats([0.9, 0.8], [1, 0.1], [1, 1])  # no correlation-1 row
        with pytest.raises(ConfigError):
            make_stats([1.0, 1.0], [1, 0.1], [1, 1])  # two correlation-1 rows
        with pytest.raises(ConfigError):
            make_stats([1.0, 0.9], [1, 0.0], [1, 1])  # non-positive cost
        with pytest.raises(ConfigError):
            make_stats([1.0, 0.9], [1, 0.1], [1, 0.0])  # non-positive sigma
        with pytest.raises(ConfigError):
            make_stats([1.0, 1.1], [1, 0.1], [1, 1])  # correlation out of range
        with pytest.raises(ConfigError):
            make_stats([1.0, 0.9], [1, 0.1], [1, 1], ids=(1, 1))  # duplicate ids
        for rho, cost, sigma, name in (
            ([1.0, np.nan], [1, 0.1], [1, 1], "rho"),
            ([1.0, 0.9], [1, np.inf], [1, 1], "cost"),
            ([1.0, 0.9], [1, 0.1], [1, np.nan], "sigma"),
            ([1.0, 0.9], [1, 0.1], [np.inf, 1], "sigma"),
        ):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                make_stats(rho, cost, sigma)
        # an id is an int: a float or a bool is not truncated into one
        values = np.array([[0.5, 0.25, 0.75], [0.4, 0.2, 0.9]])
        for bad in (0, -1, 2.7, *junk_ints):
            with pytest.raises(ConfigError, match="model id must be"):
                make_stats([1.0, 0.9], [1, 0.1], [1, 1], ids=(1, bad))
            with pytest.raises(ConfigError, match="model id must be"):
                pilot_statistics((1, bad), values, np.ones((2, 3)))

    def test_hf_detection(self, table_stats):
        assert table_stats.hf_id == 1
        assert table_stats.c1 == 1.0
        assert table_stats.sigma1 == 6.694e-3
        shuffled = make_stats(
            [0.9, 1.0, 0.8], [0.1, 1.0, 0.05], [1.0, 2.0, 1.0], ids=(7, 2, 5)
        )
        assert shuffled.hf_id == 2
        assert shuffled.c1 == 1.0
        assert shuffled.sigma1 == 2.0

    def test_unknown_id_rejected(self, table_stats):
        with pytest.raises(ConfigError):
            table_stats.index(99)


class TestPilotStatistics:
    # 3 models x 4 shared samples with exactly representable values.
    VALUES = np.array(
        [
            [0.5, 0.25, 0.75, 1.0],
            [0.4, 0.2, 0.8, 0.9],
            [1 / 3, 0.5, 2 / 3, 5 / 6],
        ]
    )

    def test_frozen_statistics(self):
        stats = pilot_statistics(
            (1, 2, 3), self.VALUES, np.repeat([[2.0], [1.0], [0.5]], 4, axis=1)
        )
        # sample standard deviations with one delta degree of freedom:
        # variances 5/48, 131/1200, 5/108
        assert stats.sigma[0] == pytest.approx(0.3227486121839514, rel=1e-14)
        assert stats.sigma[1] == pytest.approx(0.3304037933599835, rel=1e-14)
        assert stats.sigma[2] == pytest.approx(0.2151657414559676, rel=1e-14)
        assert stats.rho[0] == 1.0
        assert stats.rho[1] == pytest.approx(0.9768308314557045, rel=1e-13)
        assert stats.rho[2] == pytest.approx(0.8, rel=1e-13)
        np.testing.assert_array_equal(stats.cost, [2.0, 1.0, 0.5])

    def test_per_sample_costs_averaged(self):
        seconds = np.array([[1.0, 3.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0], [0.5, 0.25, 0.5, 0.75]])
        stats = pilot_statistics((1, 2, 3), self.VALUES, seconds)
        np.testing.assert_allclose(stats.cost, [2.0, 1.0, 0.5])
        for shape in ((3,), (3, 3), (4, 4)):
            with pytest.raises(ConfigError, match="seconds must have shape"):
                pilot_statistics((1, 2, 3), self.VALUES, np.ones(shape))

    def test_hf_anchor_selectable(self):
        stats = pilot_statistics((4, 1, 6), self.VALUES, np.ones((3, 4)), hf_id=4)
        assert stats.hf_id == 4
        assert stats.rho[0] == 1.0

    def test_constant_output_rejected(self):
        values = self.VALUES.copy()
        values[1] = 0.7
        with pytest.raises(DegenerateStatisticsError):
            pilot_statistics((1, 2, 3), values, np.ones((3, 4)))

    def test_perfectly_correlated_surrogate_rejected(self):
        values = self.VALUES.copy()
        values[2] = 2.0 * values[0] + 1.0
        with pytest.raises(DegenerateStatisticsError):
            pilot_statistics((1, 2, 3), values, np.ones((3, 4)))

    def test_single_sample_rejected(self):
        with pytest.raises(DegenerateStatisticsError):
            pilot_statistics((1, 2), np.array([[1.0], [2.0]]), np.ones((2, 1)))


class TestOrdering:
    def test_table_order(self, table_stats):
        assert order_subset(table_stats, table_stats.ids) == tuple(range(1, 10))

    def test_shuffle_invariance(self, table_stats):
        rng = np.random.default_rng(0)
        perm = rng.permutation(9)
        shuffled = ModelStats(
            ids=tuple(table_stats.ids[p] for p in perm),
            rho=table_stats.rho[perm],
            cost=table_stats.cost[perm],
            sigma=table_stats.sigma[perm],
        )
        expected = order_subset(table_stats, table_stats.ids)
        assert order_subset(shuffled, shuffled.ids) == expected

    def test_ties_broken_by_cost_then_id(self):
        stats = make_stats(
            [1.0, 0.9, 0.9, 0.9], [1.0, 0.3, 0.2, 0.3], [1, 1, 1, 1], ids=(1, 5, 3, 2)
        )
        assert order_subset(stats, stats.ids) == (1, 3, 2, 5)

    def test_order_subset(self, table_stats, junk_ints):
        assert order_subset(table_stats, (9, 1, 3)) == (1, 3, 9)
        with pytest.raises(ConfigError):
            order_subset(table_stats, (3, 9))  # missing high-fidelity model
        with pytest.raises(ConfigError):
            order_subset(table_stats, (1, 3, 3))
        with pytest.raises(ConfigError):
            order_subset(table_stats, (1, 42))
        for bad in (2.9, *junk_ints):
            with pytest.raises(ConfigError, match="model id must be an int"):
                order_subset(table_stats, (1, bad))


class TestFeasibility:
    def test_known_feasible(self, table_stats):
        for ids in [(1, 2, 3, 9), (1, 3, 9), (1, 9), (1, 2), (1, 4, 8), (1, 2, 5)]:
            assert is_feasible(table_stats, ids)

    def test_equal_correlations_infeasible(self):
        stats = make_stats([1.0, 0.9, 0.9], [1.0, 0.3, 0.2], [1, 1, 1])
        assert not is_feasible(stats, (1, 2, 3))
        assert is_feasible(stats, (1, 2))

    def test_cost_condition_infeasible(self):
        # surrogate 3 barely less correlated but only marginally cheaper
        stats = make_stats([1.0, 0.98, 0.9799], [1.0, 0.5, 0.4999], [1, 1, 1])
        assert not is_feasible(stats, (1, 2, 3))
        # a cost ratio equal to its gap ratio (0.4375 / 0.3125, both exact)
        # gives two equal optimal counts
        tie = make_stats([1.0, 0.75, 0.5], [0.4375, 0.3125, 0.1], [1, 1, 1])
        assert not is_feasible(tie, (1, 2, 3))
        assert is_feasible(tie, (1, 2)) and is_feasible(tie, (1, 3))

    def test_feasibility_iff_ratios_increase(self):
        rng = np.random.default_rng(99)
        agree = 0
        for _ in range(300):
            stats = random_stats(rng, rng.integers(2, 7))
            ids = stats.ids
            rho2 = np.concatenate([stats.rho**2, [0.0]])
            denom = 1.0 - rho2[1]
            r = np.sqrt(stats.cost[0] * (rho2[:-1] - rho2[1:]) / (stats.cost * denom))
            increasing = bool(np.all(np.diff(r) > 0.0))
            assert is_feasible(stats, ids) == increasing
            agree += 1
        assert agree == 300

    def test_feasible_count_of_table(self, table_stats):
        assert len(enumerate_feasible_subsets(table_stats)) == 131

    def test_enumeration_orders_each_subset_once(self, table_stats, monkeypatch):
        calls = []
        order = mfmc.order_subset

        def counted(stats, model_ids):
            calls.append(tuple(model_ids))
            return order(stats, model_ids)

        monkeypatch.setattr(mfmc, "order_subset", counted)
        enumerate_feasible_subsets(table_stats)
        assert len(calls) == 2**8 - 1 == len(set(calls))


class TestFiguresOfMerit:
    @pytest.mark.parametrize(
        "ids,v,b",
        [
            ((1, 2, 3, 9), 0.101279, 711.6149),
            ((1, 3, 9), 0.101751, 36.2580),
            ((1, 9), 0.104940, 12.4347),
            ((1, 2), 0.750875, 1937.6206),
            ((1, 4, 8), 0.133694, 41.5078),
            ((1, 2, 5), 0.535003, 1635.5479),
            ((1, 5), 0.536389, 70.8033),
        ],
    )
    def test_frozen_table_values(self, table_stats, ids, v, b):
        assert variance_reduction_ratio(table_stats, ids) == pytest.approx(v, rel=1e-5)
        assert minimum_budget(table_stats, ids) == pytest.approx(b, rel=1e-5)

    def test_rankings(self, table_stats):
        cands = enumerate_feasible_subsets(table_stats)
        assert cands[0].model_ids == (1, 2, 3, 9)
        assert cands[27].model_ids == (1, 9)  # variance rank 28
        by_budget = min(cands, key=lambda c: c.b_min)
        assert by_budget.model_ids == (1, 9)

    def test_minimum_budget_identity(self, table_stats):
        rng = np.random.default_rng(5)
        for _ in range(50):
            stats = random_stats(rng, rng.integers(2, 7))
            if not is_feasible(stats, stats.ids):
                continue
            v = variance_reduction_ratio(stats, stats.ids)
            rho2_2 = float(stats.rho[1] ** 2)
            expected = stats.c1 * np.sqrt(v / (1.0 - rho2_2))
            assert minimum_budget(stats, stats.ids) == pytest.approx(expected, rel=1e-12)

    def test_single_model_subset(self, table_stats):
        # the high-fidelity model alone degenerates to plain Monte Carlo
        assert variance_reduction_ratio(table_stats, (1,)) == pytest.approx(1.0)
        assert minimum_budget(table_stats, (1,)) == pytest.approx(1.0)

    def test_infeasible_subset_raises(self):
        stats = make_stats([1.0, 0.9, 0.9], [1.0, 0.3, 0.2], [1, 1, 1])
        with pytest.raises(InfeasibleSubsetError):
            variance_reduction_ratio(stats, (1, 2, 3))
        with pytest.raises(InfeasibleSubsetError):
            minimum_budget(stats, (1, 2, 3))
        with pytest.raises(InfeasibleSubsetError):
            sample_ratios(stats, (1, 2, 3))


class TestResolveCase:
    def test_rules(self, table_stats):
        assert resolve_case(table_stats, "min-V").model_ids == (1, 2, 3, 9)
        assert resolve_case(table_stats, "min-budget").model_ids == (1, 9)
        assert resolve_case(table_stats, "rank:1").model_ids == (1, 2, 3, 9)
        assert resolve_case(table_stats, "rank:28").model_ids == (1, 9)
        explicit = resolve_case(table_stats, "ids:9+1+3")
        assert explicit.model_ids == (1, 3, 9)
        assert explicit.v_ratio == pytest.approx(0.101751, rel=1e-5)

    def test_errors(self, table_stats):
        with pytest.raises(ConfigError):
            resolve_case(table_stats, "rank:0")
        with pytest.raises(ConfigError):
            resolve_case(table_stats, "rank:999")
        with pytest.raises(ConfigError):
            resolve_case(table_stats, "bogus")
        with pytest.raises(ConfigError):
            resolve_case(table_stats, "ids:3+9")
        infeasible = make_stats([1.0, 0.9, 0.9], [1.0, 0.3, 0.2], [1, 1, 1])
        with pytest.raises(InfeasibleSubsetError):
            resolve_case(infeasible, "ids:1+2+3")


class TestAllocate:
    def test_frozen_allocation(self, table_stats):
        plan = allocate(table_stats, (1, 9), 1e4)
        np.testing.assert_array_equal(plan.samples, [804, 103556])
        assert plan.ratios[0] == 1.0
        assert plan.ratios[1] == pytest.approx(128.7692092386758, rel=1e-10)
        assert plan.alpha[0] == pytest.approx(1.0569780534512716, rel=1e-12)
        assert plan.predicted_cost == pytest.approx(9999.7728, abs=1e-8)
        assert plan.predicted_cost <= plan.budget
        assert not plan.below_minimum

    def test_at_exact_minimum_budget(self, table_stats):
        b_min = minimum_budget(table_stats, (1, 9))
        plan = allocate(table_stats, (1, 9), b_min)
        assert plan.samples[0] == 1
        assert plan.samples[1] == 128
        assert plan.predicted_cost <= b_min

    def test_below_minimum_rejected(self, table_stats):
        # below b_min the allocation is the staircase plan; only build_plan
        # refuses it, and only when asked to
        candidate = resolve_case(table_stats, "ids:1+9")
        assert 12.0 < candidate.b_min
        plan = allocate(table_stats, (1, 9), 12.0)
        assert plan.below_minimum
        assert build_plan(table_stats, candidate, 12.0).below_minimum
        with pytest.raises(InsufficientBudgetError, match="below the minimum budget"):
            build_plan(table_stats, candidate, 12.0, allow_below_minimum=False)

    def test_counts_non_decreasing(self, table_stats):
        for budget in (750.0, 2000.0, 12345.6):
            plan = allocate(table_stats, (1, 2, 3, 9), budget)
            assert np.all(np.diff(plan.samples) >= 0)
            assert plan.predicted_cost <= budget * (1 + 1e-12)

    def test_subset_order_normalized(self, table_stats):
        plan = allocate(table_stats, (9, 1), 1e4)
        assert plan.model_ids == (1, 9)

    @pytest.mark.filterwarnings("error")
    def test_enormous_budget_rejected(self, table_stats):
        # counts are int64: one that does not fit is refused before the cast
        for ids in ((1,), (1, 2), (1, 2, 3, 9)):
            with pytest.raises(ConfigError, match=r"budget 1e\+30 s asks for"):
                allocate(table_stats, ids, 1e30)
        largest = allocate(table_stats, (1,), table_stats.c1 * 2.0**62)
        assert largest.samples[0] == 2**62


class TestAllocateBelowMinimum:
    def test_staircase_boundary_trace(self, table_stats):
        # budget equal to the pinned staircase cost 1*C1 + 2*C3 + 3*C9
        plan = allocate(table_stats, (1, 3, 9), 1.7692)
        np.testing.assert_array_equal(plan.samples, [1, 2, 3])
        assert plan.below_minimum

    @pytest.mark.parametrize(
        "ids,budget,expected",
        [
            ((1, 2, 3, 9), 100.0, (1, 3, 15, 1045)),
            ((1, 9), 6.0, (1, 56)),
            ((1, 2, 3, 9), 600.0, (1, 19, 92, 6323)),
        ],
    )
    def test_frozen_traces(self, table_stats, ids, budget, expected):
        plan = allocate(table_stats, ids, budget)
        np.testing.assert_array_equal(plan.samples, expected)
        assert plan.below_minimum
        assert plan.predicted_cost <= budget * (1 + 1e-12)
        assert np.all(np.diff(plan.samples) >= 0)
        assert plan.samples[0] >= 1

    def test_below_staircase_rejected(self, table_stats):
        with pytest.raises(InsufficientBudgetError):
            allocate(table_stats, (1, 3, 9), 1.0)

    def test_alpha_unchanged_by_regime(self, table_stats):
        below = allocate(table_stats, (1, 9), 6.0)
        above = allocate(table_stats, (1, 9), 1e4)
        np.testing.assert_allclose(below.alpha, above.alpha, rtol=1e-14)


class TestErrorMeasures:
    def test_theoretical_mse_frozen(self, table_stats):
        assert theoretical_mse(table_stats, (1, 9), 1e4) == pytest.approx(
            4.7023025796701e-10, rel=1e-6
        )
        # plain Monte Carlo is the one-model subset
        assert theoretical_mse(table_stats, (1,), 1e4) == pytest.approx(
            4.4809636e-09, rel=1e-12
        )

    def test_optimum_identity(self, table_stats):
        # at the optimal allocation the MSE equals sigma1^2 * V * C1 / B
        v = variance_reduction_ratio(table_stats, (1, 2, 3, 9))
        got = theoretical_mse(table_stats, (1, 2, 3, 9), 500.0)
        assert got == pytest.approx(table_stats.sigma1**2 * v / 500.0, rel=1e-12)

    def test_estimator_variance_frozen(self):
        stats = make_stats([1.0, 0.9], [1.0, 0.1], [2.0, 1.0])
        plan = AllocationPlan(
            model_ids=(1, 2),
            alpha=np.array([1.8]),
            ratios=np.array([1.0, 4.0]),
            samples=np.array([4, 16]),
            budget=6.0,
            predicted_cost=5.6,
            below_minimum=False,
        )
        # sigma1^2/m1 + (1/m1 - 1/m2)(alpha^2 sigma2^2 - 2 alpha rho sigma1 sigma2)
        assert estimator_variance(stats, plan) == pytest.approx(0.3925, rel=1e-12)

    def test_estimator_variance_matches_theory_at_optimum(self, table_stats):
        # large budget: integer rounding becomes negligible
        budget = 1e7
        plan = allocate(table_stats, (1, 9), budget)
        exact = estimator_variance(table_stats, plan)
        predicted = theoretical_mse(table_stats, (1, 9), budget)
        assert exact == pytest.approx(predicted, rel=1e-3)

    def test_empirical_mse(self):
        assert empirical_mse([1.0, 2.0, 3.0], 2.0) == pytest.approx(2.0 / 3.0)
        assert empirical_mse([0.5, 0.5], 0.5) == 0.0
        with pytest.raises(ConfigError):
            empirical_mse([1.0], 1.0)

    def test_budget_validation(self, table_stats, junk_floats):
        with pytest.raises(ConfigError):
            theoretical_mse(table_stats, (1, 9), 0.0)
        with pytest.raises(ConfigError):
            theoretical_mse(table_stats, (1,), -1.0)
        # plain MC below c1 cannot be rescued by the below-minimum allocation
        with pytest.raises(InsufficientBudgetError, match="buys no high-fidelity sample"):
            allocate(table_stats, (1,), 0.5)
        # a two-model subset below b_min gets the staircase plan, which only
        # build_plan refuses
        assert allocate(table_stats, (1, 9), 5.0).below_minimum
        candidate = resolve_case(table_stats, "ids:1+9")
        with pytest.raises(InsufficientBudgetError, match="below the minimum budget"):
            build_plan(table_stats, candidate, 5.0, allow_below_minimum=False)
        # a non-finite budget is a ConfigError, whether or not refused below b_min
        for budget in (np.nan, np.inf, -np.inf):
            for allow in (True, False):
                with pytest.raises(ConfigError, match="budget must be finite"):
                    build_plan(table_stats, candidate, budget, allow_below_minimum=allow)
        for budget in junk_floats:
            with pytest.raises(ConfigError, match="budget"):
                allocate(table_stats, (1, 9), budget)
            with pytest.raises(ConfigError, match="budget"):
                theoretical_mse(table_stats, (1, 9), budget)


class TestEstimate:
    def test_frozen_two_level_combination(self):
        plan = AllocationPlan(
            model_ids=(1, 2),
            alpha=np.array([0.5]),
            ratios=np.array([1.0, 2.5]),
            samples=np.array([2, 5]),
            budget=10.0,
            predicted_cost=9.0,
            below_minimum=False,
        )
        values = {1: np.array([1.0, 2.0]), 2: np.array([2.0, 4.0, 6.0, 8.0, 10.0])}
        result = mfmc_estimate(plan, values)
        # 1.5 + 0.5 * (6 - 3) = 3.0
        assert result.value == 3.0
        np.testing.assert_allclose(result.level_terms, [1.5, 1.5])

    def test_single_model_plan_equals_mc(self):
        plan = AllocationPlan(
            model_ids=(1,),
            alpha=np.zeros(0),
            ratios=np.array([1.0]),
            samples=np.array([4]),
            budget=4.0,
            predicted_cost=4.0,
            below_minimum=False,
        )
        values = np.array([0.1, 0.2, 0.3, 0.4])
        result = mfmc_estimate(plan, {1: values})
        assert result.value == pytest.approx(mc_estimate(values), rel=1e-15)

    def test_extra_samples_ignored(self):
        plan = AllocationPlan(
            model_ids=(1, 2),
            alpha=np.array([1.0]),
            ratios=np.array([1.0, 2.0]),
            samples=np.array([2, 4]),
            budget=10.0,
            predicted_cost=8.0,
            below_minimum=False,
        )
        base = {1: np.array([1.0, 2.0]), 2: np.array([1.0, 2.0, 3.0, 4.0])}
        extended = {1: np.append(base[1], 99.0), 2: np.append(base[2], 99.0)}
        assert mfmc_estimate(plan, base).value == mfmc_estimate(plan, extended).value

    def test_missing_or_short_inputs_rejected(self):
        plan = AllocationPlan(
            model_ids=(1, 2),
            alpha=np.array([1.0]),
            ratios=np.array([1.0, 2.0]),
            samples=np.array([2, 4]),
            budget=10.0,
            predicted_cost=8.0,
            below_minimum=False,
        )
        with pytest.raises(ConfigError):
            mfmc_estimate(plan, {1: np.array([1.0, 2.0])})
        with pytest.raises(ConfigError):
            mfmc_estimate(plan, {1: np.array([1.0, 2.0]), 2: np.array([1.0, 2.0])})

    def test_mc_estimate(self):
        assert mc_estimate(np.array([1.0, 3.0])) == 2.0
        with pytest.raises(ConfigError):
            mc_estimate(np.array([]))


class TestPlanValidation:
    def test_invariants_enforced(self, junk_ints):
        with pytest.raises(ConfigError):
            AllocationPlan(
                model_ids=(1, 2),
                alpha=np.array([1.0]),
                ratios=np.array([1.0, 2.0]),
                samples=np.array([3, 2]),  # decreasing
                budget=10.0,
                predicted_cost=8.0,
                below_minimum=False,
            )
        with pytest.raises(ConfigError):
            AllocationPlan(
                model_ids=(1,),
                alpha=np.zeros(0),
                ratios=np.array([1.0]),
                samples=np.array([0]),  # no high-fidelity sample
                budget=10.0,
                predicted_cost=0.0,
                below_minimum=False,
            )
        with pytest.raises(ConfigError):
            AllocationPlan(
                model_ids=(1,),
                alpha=np.zeros(0),
                ratios=np.array([1.0]),
                samples=np.array([20]),
                budget=10.0,
                predicted_cost=20.0,  # over budget
                below_minimum=False,
            )
        # a count is an int: a float or a bool is not truncated into one
        for samples in ([3.7, 414.2], [True, 4], *([3, bad] for bad in junk_ints)):
            with pytest.raises(ConfigError, match="sample count must be an int"):
                AllocationPlan(
                    model_ids=(1, 2),
                    alpha=np.array([1.0]),
                    ratios=np.array([1.0, 2.0]),
                    samples=samples,
                    budget=10.0,
                    predicted_cost=8.0,
                    below_minimum=False,
                )


@hst.composite
def stats_tables(draw):
    """A statistics table of 2-5 models; model 1 is the high-fidelity one."""
    k = draw(hst.integers(2, 5))
    rho = [1.0] + [
        draw(hst.sampled_from((-1.0, 1.0))) * draw(hst.floats(0.05, 0.9999))
        for _ in range(k - 1)
    ]
    cost = [draw(hst.floats(1e-3, 10.0)) for _ in range(k)]
    sigma = [draw(hst.floats(0.01, 10.0)) for _ in range(k)]
    return make_stats(rho, cost, sigma)


@hst.composite
def tables_with_subset(draw):
    """A table and one of its feasible subsets of two or more models."""
    stats = draw(stats_tables())
    candidates = enumerate_feasible_subsets(stats)
    assume(candidates)
    return stats, draw(hst.sampled_from(candidates)).model_ids


def loop_feasible(stats, model_ids):
    """Reference test of both ordering conditions, one level at a time."""
    ordered = order_subset(stats, model_ids)
    rho2 = [float(stats.rho[stats.index(i)]) ** 2 for i in ordered] + [0.0]
    cost = [float(stats.cost[stats.index(i)]) for i in ordered]
    for j in range(1, len(cost)):
        gap_prev, gap_next = rho2[j - 1] - rho2[j], rho2[j] - rho2[j + 1]
        if gap_prev <= 0.0 or gap_next <= 0.0:
            return False
        if cost[j - 1] / cost[j] <= gap_prev / gap_next:
            return False
    return True


def staircase_cost(stats, model_ids):
    """Cost of the fully pinned below-minimum counts ``1, 2, ..., m``."""
    cost = stats.cost[[stats.index(i) for i in model_ids]]
    return float(np.dot(np.arange(1, len(cost) + 1), cost))


#: Budgets, in units of the high-fidelity cost, at which the old plain Monte
#: Carlo count ``int(B / c1 + 1e-9)`` sits on or next to a step.
MC_BOUNDARY_SCALES = (1.0 - 1e-10, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 2.0 - 1e-13, 2.0, 7.0)


class TestEstimatorProperties:
    """Invariants of the allocation algebra on generated statistics tables."""

    def check_plan(self, stats, plan, budget):
        cost = stats.cost[[stats.index(i) for i in plan.model_ids]]
        # floors are nudged by 1e-9 samples, which may cost that much more
        assert float(np.dot(cost, plan.samples)) <= budget * (1.0 + 1e-9)
        assert plan.predicted_cost == float(np.dot(cost, plan.samples))
        assert plan.samples[0] >= 1
        assert np.all(np.diff(plan.samples) >= 0)
        assert 0.0 < variance_reduction_ratio(stats, plan.model_ids)

    @settings(max_examples=150, deadline=None)
    @given(case=tables_with_subset(), scale=hst.floats(1.0, 1e4))
    def test_optimal_allocation(self, case, scale):
        stats, subset = case
        budget = minimum_budget(stats, subset) * scale
        plan = allocate(stats, subset, budget)
        self.check_plan(stats, plan, budget)
        assert not plan.below_minimum

    @settings(max_examples=150, deadline=None)
    @given(case=tables_with_subset(), fraction=hst.floats(0.0, 1.0, exclude_max=True))
    def test_below_minimum_allocation(self, case, fraction):
        stats, subset = case
        low, high = staircase_cost(stats, subset), minimum_budget(stats, subset)
        assume(low < high)
        budget = low + fraction * (high - low)
        assume(budget < high)  # fractions next to 1 can round up to b_min
        plan = allocate(stats, subset, budget)
        self.check_plan(stats, plan, budget)
        assert plan.below_minimum

    @settings(max_examples=150, deadline=None)
    @given(case=tables_with_subset(), data=hst.data())
    def test_regime_follows_minimum_budget(self, case, data):
        # the staircase is taken exactly below the minimum budget
        stats, subset = case
        low, b_min = staircase_cost(stats, subset), minimum_budget(stats, subset)
        budget = data.draw(
            hst.one_of(
                hst.just(b_min),
                hst.floats(low, max(low, b_min)),
                hst.floats(low, 1e4 * b_min),
            )
        )
        plan = allocate(stats, subset, budget)
        assert plan.below_minimum == (budget < b_min)
        self.check_plan(stats, plan, budget)

    @settings(max_examples=100, deadline=None)
    @given(stats=stats_tables())
    def test_enumeration_is_the_feasible_subsets(self, stats):
        # exactly the feasible subsets of two or more models, each scored bit
        # for bit as the one-subset functions score it
        surrogates = [i for i in stats.ids if i != stats.hf_id]
        subsets = [
            (stats.hf_id, *combo)
            for size in range(1, len(surrogates) + 1)
            for combo in combinations(surrogates, size)
        ]
        for s in subsets:
            assert is_feasible(stats, s) == loop_feasible(stats, s)
        feasible = [order_subset(stats, s) for s in subsets if is_feasible(stats, s)]
        candidates = enumerate_feasible_subsets(stats)
        assert sorted(c.model_ids for c in candidates) == sorted(feasible)
        for c in candidates:
            assert c.v_ratio == variance_reduction_ratio(stats, c.model_ids)
            assert c.b_min == minimum_budget(stats, c.model_ids)

    def test_frozen_table_subsets_beat_monte_carlo(self, table_stats):
        # V <= 1 is not implied by feasibility (rho2^2 = 0.5 and c2/c1 = 0.9
        # give a feasible pair with V = 1.9); it holds for this family
        candidates = enumerate_feasible_subsets(table_stats)
        assert len(candidates) == 131
        assert all(0.0 < c.v_ratio <= 1.0 for c in candidates)

    @settings(max_examples=150, deadline=None)
    @given(
        stats=stats_tables(),
        scale=hst.one_of(hst.sampled_from(MC_BOUNDARY_SCALES), hst.floats(1.0, 1e4)),
    )
    def test_one_model_plan_is_monte_carlo(self, stats, scale):
        # bit for bit the plain Monte Carlo formulas: n = int(B / c1 + 1e-9),
        # MSE sigma1^2 c1 / B at the budget and sigma1^2 / n at the plan
        c1, sigma1 = stats.c1, stats.sigma1
        budget = c1 * scale
        n = int(budget / c1 + 1e-9)
        assert variance_reduction_ratio(stats, (1,)) == 1.0
        assert minimum_budget(stats, (1,)) == c1
        assert theoretical_mse(stats, (1,), budget) == sigma1**2 * c1 / budget
        for plan in (
            allocate(stats, (1,), budget),
            build_plan(stats, resolve_case(stats, "ids:1"), budget),
        ):
            assert plan.model_ids == (1,)
            assert tuple(plan.samples) == (n,)
            assert not plan.below_minimum
            assert estimator_variance(stats, plan) == sigma1**2 / n

    @settings(max_examples=50, deadline=None)
    @given(stats=stats_tables(), scale=hst.floats(1e-6, 1.0 - 1e-8))
    def test_one_model_plan_needs_one_sample(self, stats, scale):
        candidate = resolve_case(stats, "ids:1")
        with pytest.raises(InsufficientBudgetError):
            allocate(stats, (1,), stats.c1 * scale)
        with pytest.raises(InsufficientBudgetError):
            build_plan(stats, candidate, stats.c1 * scale)
