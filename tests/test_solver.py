"""Simulation dynamics: initial condition, obstacle step, invariants."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.linalg import lapack
from scipy.ndimage import label

from oracles import dense_operators, enumerate_obstacle_step, naive_convolution
from phaseuq import (
    ConfigError,
    ConvergenceError,
    KernelParams,
    ModelSpec,
    RandomInputs,
    SimParams,
    build_grid,
    build_stencil,
    check_well_posed,
    convolve,
    desk_config,
    evaluate_model,
    initial_condition,
    initial_state,
    mass_fraction,
    reference_config,
    run_simulation,
    time_step,
)
from phaseuq import solver
from phaseuq.solver import StepState, model_stencil

FAMILY = KernelParams(eps2=0.00178, delta_hf=0.25, delta=0.25, c_f=1.0)

SYMMETRIC_THETA = RandomInputs(mu=np.full(4, 0.95), eta=np.zeros((4, 2)))
ASYM_THETA = RandomInputs(
    mu=np.array([0.9815, 0.9276, 0.9162, 0.9417]),
    eta=np.array([[0.0072, -0.0039], [0.0232, 0.0208], [-0.0220, 0.0041], [-0.0099, 0.0118]]),
)


def pure_state(grid, value: float) -> StepState:
    padded = np.full((grid.n_side, grid.n_side), value)
    n = grid.n_solution**2
    u0 = padded[grid.solution_slice, grid.solution_slice].ravel()
    return StepState(
        grid=grid,
        padded=padded,
        chemical_potential=np.zeros(n),
        multiplier=np.zeros(n),
        active_pos=u0 >= 1.0,
        active_neg=u0 <= -1.0,
    )


class TestParams:
    def test_model_spec_validation(self, junk_floats, junk_ints):
        with pytest.raises(ConfigError):
            ModelSpec(model_id=0, n_interior=8, delta=0.25)
        with pytest.raises(ConfigError):
            ModelSpec(model_id=1, n_interior=0, delta=0.25)
        for delta in (0.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="delta must be positive and finite"):
                ModelSpec(model_id=1, n_interior=8, delta=delta)
        for delta in junk_floats:
            with pytest.raises(ConfigError, match="delta"):
                ModelSpec(model_id=1, n_interior=8, delta=delta)
        assert ModelSpec(model_id=1, n_interior=8, delta=0.25).h == 0.125
        # an integer radius is held as the equal float, as its JSON form reads back
        assert type(ModelSpec(model_id=1, n_interior=8, delta=1).delta) is float
        # integer fields: a numpy integer is held as the equal int
        spec = ModelSpec(model_id=np.int64(2), n_interior=np.int32(8), delta=0.25)
        assert spec == ModelSpec(model_id=2, n_interior=8, delta=0.25)
        assert type(spec.model_id) is int and type(spec.n_interior) is int
        junk = [{name: bad} for name in ("model_id", "n_interior") for bad in junk_ints]
        for changes in ({"n_interior": 8.5}, {"n_interior": 8.0}, {"model_id": True},
                        {"model_id": np.bool_(True)}, {"model_id": "2"}, *junk):
            name = next(iter(changes))
            with pytest.raises(ConfigError, match=f"{name} must be an int"):
                ModelSpec(**{"model_id": 2, "n_interior": 8, "delta": 0.25, **changes})

    def test_sim_params_validation(self, junk_floats, junk_ints):
        with pytest.raises(ConfigError):
            SimParams(dt=0.0)
        with pytest.raises(ConfigError):
            SimParams(beta1=0.0, beta2=0.0)
        with pytest.raises(ConfigError):
            SimParams(t_final=0.05, dt=0.02)  # not an integer multiple
        with pytest.raises(ConfigError, match="t_final / dt must be finite"):
            SimParams(t_final=1e300, dt=1e-300)  # too many steps for a float
        with pytest.raises(ConfigError):
            SimParams(interaction_fill="bogus")
        with pytest.raises(ConfigError):
            SimParams(max_sweeps=0)
        for max_sweeps in (2.5, 3.0, True, "3", *junk_ints):
            with pytest.raises(ConfigError, match="max_sweeps must be an int"):
                SimParams(max_sweeps=max_sweeps)
        assert type(SimParams(max_sweeps=np.int64(3)).max_sweeps) is int
        reals = ("beta1", "beta2", "dt", "t_final", "solver_tol", "active_set_c")
        for name in reals:
            for bad in junk_floats:
                with pytest.raises(ConfigError, match=name):
                    SimParams(**{name: bad})
        # integer values are held as the equal floats, as their JSON form reads back
        held = SimParams(beta1=1, beta2=0, dt=1, t_final=2, solver_tol=1, active_set_c=2)
        assert all(type(getattr(held, name)) is float for name in reals)
        assert SimParams(t_final=0.1, dt=0.01).n_steps == 10
        assert SimParams(t_final=0.0).n_steps == 0

    def test_random_inputs_validation(self):
        with pytest.raises(ConfigError):
            RandomInputs(mu=np.full(4, 0.8), eta=np.zeros((4, 2)))
        with pytest.raises(ConfigError):
            RandomInputs(mu=np.full(4, 0.95), eta=np.full((4, 2), 0.03))
        with pytest.raises(ConfigError):
            RandomInputs(mu=np.full(3, 0.95), eta=np.zeros((4, 2)))

    def test_random_inputs_flat_round_trip(self):
        flat = ASYM_THETA.to_flat()
        assert flat.shape == (12,)
        back = RandomInputs.from_flat(flat)
        np.testing.assert_array_equal(back.mu, ASYM_THETA.mu)
        np.testing.assert_array_equal(back.eta, ASYM_THETA.eta)
        # flat layout: depth then the two shifts, nucleus by nucleus
        assert flat[0] == ASYM_THETA.mu[0]
        assert flat[1] == ASYM_THETA.eta[0, 0]
        assert flat[2] == ASYM_THETA.eta[0, 1]


class TestInitialCondition:
    def test_probe_values_frozen(self):
        grid = build_grid(4, 0.25)
        u = initial_condition(grid, SYMMETRIC_THETA)
        pad = grid.pad
        # (0.5, 0.5): all four wells contribute
        assert u[pad + 2, pad + 2] == pytest.approx(0.19896589332983095, rel=1e-14)
        # (0.25, 0.5): the center of well 1
        assert u[pad + 1, pad + 2] == pytest.approx(-0.9424486654730854, rel=1e-14)
        # (0, 0): far corner, nearly untouched
        assert u[pad, pad] == pytest.approx(0.9999505722681619, rel=1e-14)

    def test_asymmetric_probe_frozen(self):
        grid = build_grid(20, 0.25)
        u = initial_condition(grid, ASYM_THETA)
        pad = grid.pad
        # (0.3, 0.45) with the perturbed centers
        assert u[pad + 6, pad + 9] == pytest.approx(-0.865454980549172, rel=1e-13)

    def test_clamped_to_admissible_range(self):
        grid = build_grid(32, 0.25)
        theta = RandomInputs(mu=np.ones(4), eta=np.zeros((4, 2)))
        u = initial_condition(grid, theta)
        assert u.min() == -1.0
        assert u.max() <= 1.0

    def test_symmetric_theta_gives_transpose_symmetric_field(self):
        grid = build_grid(16, 0.25)
        u = initial_condition(grid, SYMMETRIC_THETA)
        np.testing.assert_allclose(u, u.T, atol=5e-15)

    def test_four_deep_cores(self):
        # The four wells merge through shallow bridges near zero but their
        # cores below -0.5 are separated.
        for n in (32, 128):
            grid = build_grid(n, 0.25)
            sol = grid.solution_slice
            u = initial_condition(grid, SYMMETRIC_THETA)[sol, sol]
            _, count = label(u < -0.5)
            assert count == 4
        _, shallow = label(u < 0.0)
        assert shallow == 1  # bridges connect all wells at this threshold

    def test_collar_fill_modes(self):
        grid = build_grid(8, 0.25)
        frozen = initial_state(grid, SYMMETRIC_THETA, SimParams(t_final=0.0))
        plus = initial_state(
            grid, SYMMETRIC_THETA, SimParams(t_final=0.0, interaction_fill="plus-one")
        )
        outside = ~grid.solution_mask()
        expected = initial_condition(grid, SYMMETRIC_THETA)
        np.testing.assert_array_equal(frozen.padded[outside], expected[outside])
        np.testing.assert_array_equal(plus.padded[outside], 1.0)
        np.testing.assert_array_equal(
            plus.padded[~outside], expected[~outside]
        )


class TestPurePhases:
    @pytest.mark.parametrize("beta1", [1.0, 0.0])
    def test_plus_one_is_stationary(self, beta1):
        grid = build_grid(8, 0.25)
        st = build_stencil(grid, FAMILY)
        sim = SimParams(beta1=beta1, t_final=0.05, dt=0.01)
        state = pure_state(grid, 1.0)
        for _ in range(3):
            state = time_step(state, st, sim)
        np.testing.assert_allclose(state.solution, 1.0, atol=1e-13)
        np.testing.assert_allclose(state.chemical_potential, 0.0 if beta1 else -FAMILY.c_f, atol=1e-10)
        if beta1:
            np.testing.assert_allclose(state.multiplier, FAMILY.c_f, atol=1e-10)
        else:
            np.testing.assert_allclose(state.multiplier, 0.0, atol=1e-10)

    def test_minus_one_is_stationary(self):
        grid = build_grid(8, 0.25)
        st = build_stencil(grid, FAMILY)
        sim = SimParams(t_final=0.05, dt=0.01)
        state = pure_state(grid, -1.0)
        for _ in range(3):
            state = time_step(state, st, sim)
        np.testing.assert_allclose(state.solution, -1.0, atol=1e-13)
        np.testing.assert_allclose(state.multiplier, -FAMILY.c_f, atol=1e-10)
        np.testing.assert_allclose(state.chemical_potential, 0.0, atol=1e-10)


class TestStepInvariants:
    def test_mass_conserved_without_bulk_relaxation(self):
        grid = build_grid(16, 0.25)
        st = build_stencil(grid, FAMILY)
        sim = SimParams(beta1=0.0, t_final=0.2, dt=0.01)
        masses = []
        run_simulation(
            grid,
            st,
            ASYM_THETA,
            sim,
            on_step=lambda s: masses.append(s.solution.sum() * grid.h**2),
        )
        drift = np.abs(np.diff(masses)).max()
        assert drift <= 1e-12

    def test_mass_moves_with_bulk_relaxation(self):
        grid = build_grid(16, 0.25)
        st = build_stencil(grid, FAMILY)
        sim = SimParams(beta1=1.0, t_final=0.1, dt=0.01)
        start = mass_fraction(grid, initial_state(grid, ASYM_THETA, sim).padded)
        end = mass_fraction(grid, run_simulation(grid, st, ASYM_THETA, sim).padded)
        assert abs(end - start) > 1e-3

    def test_admissibility_and_complementarity_each_step(self):
        grid = build_grid(16, 0.25)
        st = build_stencil(grid, FAMILY)
        sim = SimParams(t_final=0.1, dt=0.01)

        def check(state):
            if state.t == 0.0:
                return
            u = state.solution.ravel()
            lam = state.multiplier
            assert np.abs(u).max() <= 1.0 + 1e-12
            interior = np.abs(u) < 1.0 - 1e-9
            assert np.abs(lam[interior]).max(initial=0.0) <= 1e-10
            assert np.abs(lam * (1.0 - u)).max() <= 1e-10 or np.all(
                lam[u < 1.0 - 1e-9] <= 1e-10
            )
            assert lam[u >= 1.0 - 1e-9].min(initial=0.0) >= -1e-10
            assert lam[u <= -1.0 + 1e-9].max(initial=0.0) <= 1e-10
            assert state.residual <= sim.solver_tol

        run_simulation(grid, st, ASYM_THETA, sim, on_step=check)

    def test_collar_frozen_during_run(self):
        grid = build_grid(12, 0.25)
        st = build_stencil(grid, FAMILY)
        sim = SimParams(t_final=0.05, dt=0.01)
        ic = initial_condition(grid, ASYM_THETA)
        final = run_simulation(grid, st, ASYM_THETA, sim)
        outside = ~grid.solution_mask()
        np.testing.assert_array_equal(final.padded[outside], ic[outside])

    def test_transpose_symmetry_preserved(self):
        grid = build_grid(16, 0.25)
        st = build_stencil(grid, FAMILY)
        sim = SimParams(t_final=0.1, dt=0.01)
        final = run_simulation(grid, st, SYMMETRIC_THETA, sim)
        asym = np.abs(final.padded - final.padded.T).max()
        assert asym <= 1e-12

    def test_reflection_equivariance(self):
        # Mirroring the inputs across the vertical center line mirrors the field.
        grid = build_grid(16, 0.25)
        st = build_stencil(grid, FAMILY)
        sim = SimParams(t_final=0.05, dt=0.01)
        mirrored = RandomInputs(
            mu=ASYM_THETA.mu[[1, 0, 2, 3]],
            eta=ASYM_THETA.eta[[1, 0, 2, 3]] * np.array([-1.0, 1.0]),
        )
        a = run_simulation(grid, st, ASYM_THETA, sim).padded
        b = run_simulation(grid, st, mirrored, sim).padded
        assert np.abs(a - b[::-1, :]).max() <= 1e-11

    def test_chemical_potential_identity(self):
        grid = build_grid(12, 0.25)
        st = build_stencil(grid, FAMILY)
        sim = SimParams(t_final=0.02, dt=0.01)
        state = initial_state(grid, ASYM_THETA, sim)
        prev = state
        state = time_step(state, st, sim)
        g = convolve(st, prev.padded).ravel()
        expected = st.xi * state.solution.ravel() - g + state.multiplier
        np.testing.assert_allclose(state.chemical_potential, expected, atol=1e-12)


class TestOneStepOracle:
    def test_matches_exhaustive_enumeration(self):
        # Tiny 4x4 solution block; compare one implicit step against the
        # complementarity solution found by exhaustive active-set enumeration.
        grid = build_grid(3, 0.34)
        probe = build_stencil(grid, KernelParams(eps2=0.002, delta_hf=0.34, delta=0.34, c_f=1.0))
        family = KernelParams(
            eps2=0.002, delta_hf=0.34, delta=0.34, c_f=probe.c_gamma - 0.05
        )
        st = build_stencil(grid, family)
        assert st.xi == pytest.approx(0.05)
        sim = SimParams(beta1=1.0, beta2=0.05, t_final=0.02, dt=0.02)
        rng = np.random.default_rng(123)
        for _ in range(4):
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
            new = time_step(state, st, sim)

            a_mat, b_mat = dense_operators(
                grid.n_solution, grid.h, sim.beta1, sim.beta2, sim.dt, st.xi
            )
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
            np.testing.assert_allclose(new.solution.ravel(), u_ref, atol=1e-8)
            np.testing.assert_allclose(new.multiplier, lam_ref, atol=1e-7)


class TestRunAndEvaluate:
    def test_step_count_and_times(self):
        grid = build_grid(8, 0.25)
        st = build_stencil(grid, FAMILY)
        sim = SimParams(t_final=0.05, dt=0.01)
        times = []
        run_simulation(grid, st, SYMMETRIC_THETA, sim, on_step=lambda s: times.append(s.t))
        assert len(times) == 6
        np.testing.assert_allclose(times, 0.01 * np.arange(6), atol=1e-12)

    def test_zero_final_time(self):
        grid = build_grid(8, 0.25)
        st = build_stencil(grid, FAMILY)
        sim = SimParams(t_final=0.0)
        final = run_simulation(grid, st, SYMMETRIC_THETA, sim)
        np.testing.assert_array_equal(final.padded, initial_condition(grid, SYMMETRIC_THETA))

    def test_mass_fraction_values(self):
        grid = build_grid(8, 0.25)
        ns = grid.n_side
        assert mass_fraction(grid, np.ones((ns, ns))) == 1.0
        assert mass_fraction(grid, -np.ones((ns, ns))) == 0.0
        rng = np.random.default_rng(1)
        padded = rng.uniform(-1, 1, (ns, ns))
        sol = grid.solution_slice
        expected = 0.5 * (1.0 + padded[sol, sol].mean())
        assert mass_fraction(grid, padded) == pytest.approx(expected, rel=1e-15)

    def test_evaluate_model_deterministic(self):
        model = ModelSpec(model_id=1, n_interior=8, delta=0.25)
        sim = SimParams(t_final=0.03, dt=0.01)
        first = evaluate_model(model, ASYM_THETA, FAMILY, sim)
        second = evaluate_model(model, ASYM_THETA, FAMILY, sim)
        assert first.value == second.value
        assert 0.0 < first.value < 1.0
        assert first.seconds > 0.0

    def test_convergence_error_on_sweep_limit(self):
        grid = build_grid(8, 0.25)
        st = build_stencil(grid, FAMILY)
        sim = SimParams(t_final=0.01, dt=0.01, max_sweeps=1)
        theta = RandomInputs(mu=np.ones(4), eta=np.zeros((4, 2)))
        state = initial_state(grid, theta, sim)
        # discard the warm start so the first sweep must misclassify
        state.active_pos[:] = False
        state.active_neg[:] = False
        with pytest.raises(ConvergenceError,
                           match=r"did not stabilize in 1 sweeps .*\(last residual "):
            time_step(state, st, sim)

    def test_nan_solve_raises_convergence_error(self, monkeypatch):
        # A NaN solution gives a NaN residual, which compares false with any
        # tolerance; the step must still fail rather than return NaN state.
        class NanFactor:
            def solve(self, rhs):
                return np.full_like(rhs, np.nan)

        grid = build_grid(8, 0.25)
        st = build_stencil(grid, FAMILY)
        sim = SimParams(t_final=0.01, dt=0.01)
        monkeypatch.setattr(solver, "_factorize", lambda *args: NanFactor())
        solver._sweep_factorization.cache_clear()
        try:
            with pytest.raises(ConvergenceError, match="residual nan exceeds"):
                time_step(pure_state(grid, 0.5), st, sim)
        finally:
            solver._sweep_factorization.cache_clear()


def config_stencil(config, model):
    """The cached stencil of one model of ``config``."""
    return model_stencil(model, config.kernel_for(model))


class TestWellPosedness:
    def ill_posed(self, config) -> dict[int, str]:
        """The message of each model of ``config`` that the check rejects."""
        sim, messages = config.sim, {}
        for model in config.models:
            st = config_stencil(config, model)
            try:
                check_well_posed(
                    f"model {model.model_id}", st.grid.n_solution, st.grid.h, st.xi,
                    sim.beta1, sim.beta2, sim.dt,
                )
            except ConfigError as exc:
                messages[model.model_id] = str(exc)
        return messages

    def test_flags_exactly_the_delta_0125_reference_models(self):
        assert self.ill_posed(desk_config()) == {}
        messages = self.ill_posed(reference_config())
        assert sorted(messages) == [5, 6, 9]
        for model_id, a_min, dt_max in ((5, "-457", "0.001795"), (6, "-162.8", "0.003805"),
                                        (9, "-44.34", "0.006928")):
            assert messages[model_id].startswith(f"model {model_id} has an ill-posed")
            assert f"= {a_min} <= 0" in messages[model_id]
            assert f"dt must be below {dt_max}" in messages[model_id]

    def test_ill_posed_step_raises_before_solving(self):
        # Reference model 9 (n=64, delta=0.125) used to cycle through
        # max_sweeps and raise ConvergenceError at t=0.01.
        config = reference_config()
        st = config_stencil(config, config.model(9))
        state = initial_state(st.grid, ASYM_THETA, config.sim)
        with pytest.raises(ConfigError, match="n_interior=64 model .* ill-posed"):
            time_step(state, st, config.sim)


def model_operators(model_id: int, config=desk_config(), **sim_changes):
    """The stencil, step settings and :func:`solver._sweep_factorization`
    operator key of a model of ``config``, the desk family by default."""
    st = config_stencil(config, config.model(model_id))
    sim = replace(config.sim, **sim_changes)
    key = (st.grid.n_solution, st.grid.h, st.xi, sim.beta1, sim.beta2, sim.dt)
    return st, sim, key


class TestFactorizationReuse:
    def run(self, clear_every_step: bool):
        """Every time step of desk model 9 at ``ASYM_THETA``."""
        st, sim, _ = model_operators(9)
        solver._sweep_factorization.cache_clear()
        states = []

        def record(state):
            states.append(state)
            if clear_every_step:
                solver._sweep_factorization.cache_clear()

        run_simulation(st.grid, st, ASYM_THETA, sim, on_step=record)
        return states[1:]

    def test_step_boundary_reuses_the_last_factorization(self):
        steps = self.run(clear_every_step=False)
        sweeps = np.array([s.sweeps for s in steps])
        factorizations = np.array([s.factorizations for s in steps])
        assert len(sweeps) == 10 and sweeps.sum() > len(sweeps)
        assert factorizations[0] == sweeps[0]
        np.testing.assert_array_equal(factorizations[1:], sweeps[1:] - 1)

    def test_trajectory_unchanged_without_reuse(self):
        reused = self.run(clear_every_step=False)
        fresh = self.run(clear_every_step=True)
        assert [s.factorizations for s in fresh] == [s.sweeps for s in fresh]
        assert len(reused) == len(fresh)
        for a, b in zip(reused, fresh):
            assert_same_step(a, b)


def assert_same_step(a, b):
    """Two step states are equal bit for bit."""
    for name in ("padded", "multiplier", "chemical_potential", "active_pos", "active_neg"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.sweeps == b.sweeps and a.residual == b.residual


class CountedFactor:
    """Forwards ``solve`` to a factorization and counts the calls in
    ``counts``; the solve numbered ``counts["miss_at"]`` (from 0) is off by
    ``counts["miss"]`` at the middle node of the natural order."""

    def __init__(self, factor, counts):
        self.factor, self.counts = factor, counts

    def solve(self, rhs):
        x = self.factor.solve(rhs)
        if self.counts["solves"] == self.counts["miss_at"]:
            x[self.factor.plan.position[x.size // 2]] += self.counts["miss"]
        self.counts["solves"] += 1
        return x


class TestSolveCount:
    @staticmethod
    def desk_steps():
        """Every time step of the nine desk models at ``ASYM_THETA``."""
        config, states = desk_config(), []
        for model in config.models:
            st = config_stencil(config, model)
            run_simulation(st.grid, st, ASYM_THETA, config.sim, on_step=states.append)
        return [state for state in states if state.t > 0.0]

    def test_one_solve_per_sweep(self):
        steps = self.desk_steps()
        assert sum(state.sweeps for state in steps) > len(steps)
        assert [state.solves for state in steps] == [state.sweeps for state in steps]

    def test_one_b_product_per_sweep(self):
        # rhs0 once per step, r(pinned, 0) once per sweep, and r(u, lam) once
        # more in the sweep that repeats its active sets and accepts the step
        steps = self.desk_steps()
        assert sum(state.sweeps for state in steps) > len(steps)
        assert [state.b_products for state in steps] == [state.sweeps + 2 for state in steps]

    @pytest.mark.parametrize("model_id", [8, 9], ids=["cholesky", "lu"])
    def test_missed_residual_takes_one_refinement(self, monkeypatch, model_id):
        # Each solve of the step in turn is off by 1e-6.  A miss in a sweep
        # whose sets change is never checked and leaves the step as it was;
        # only the last sweep's miss costs one refinement.
        st, sim, _ = model_operators(model_id)
        prev = initial_state(st.grid, ASYM_THETA, sim)
        exact = time_step(prev, st, sim)
        assert exact.sweeps > 1 and exact.solves == exact.sweeps
        counts = {"solves": 0, "miss": 1e-6}
        factorize = solver._factorize
        monkeypatch.setattr(solver, "_factorize",
                            lambda *args: CountedFactor(factorize(*args), counts))
        solver._sweep_factorization.cache_clear()
        for miss_at in range(exact.sweeps):
            counts["solves"], counts["miss_at"] = 0, miss_at
            state = time_step(prev, st, sim)
            if miss_at < exact.sweeps - 1:
                assert_same_step(state, exact)
                assert (state.solves, state.b_products) == (exact.solves, exact.b_products)
        solver._sweep_factorization.cache_clear()
        assert state.solves == state.sweeps + 1
        assert state.residual <= sim.solver_tol

        u, u_prev, lam = state.solution.ravel(), prev.solution.ravel(), state.multiplier
        pos, neg = state.active_pos, state.active_neg
        free = ~(pos | neg)
        assert np.all(u[pos] == 1.0) and np.all(u[neg] == -1.0)
        assert np.abs(u).max() <= 1.0 + 1e-10
        assert np.all(lam[pos] >= 0.0) and np.all(lam[neg] <= 0.0)
        assert np.all(lam[free] == 0.0)
        a_mat, b_mat = dense_operators(st.grid.n_solution, st.grid.h, sim.beta1, sim.beta2,
                                       sim.dt, st.xi)
        g = convolve(st, prev.padded).ravel()
        residual = a_mat @ u + b_mat @ lam - u_prev / sim.dt - b_mat @ g
        assert np.abs(residual).max() <= sim.solver_tol
        collar = ~st.grid.solution_mask()
        np.testing.assert_array_equal(state.padded[collar], prev.padded[collar])

    def test_states_count_what_wrappers_count(self, monkeypatch):
        # The one test that counts the solver's work from outside, by wrapping
        # solver._factorize (once per factorization, a regularized one
        # included) and solver._matvec (the products by B), as the reference
        # for the work that each step reports in its state.
        work = ("factorizations", "solves", "b_products")
        counts = dict.fromkeys(work, 0) | {"b": None, "miss": 1e-6, "miss_at": -1}
        factorize, matvec = solver._factorize, solver._matvec

        def counted_factorize(*args):
            counts["factorizations"] += 1
            return CountedFactor(factorize(*args), counts)

        def counted_matvec(a, x):
            counts["b_products"] += a is counts["b"]
            return matvec(a, x)

        def step(state, st, sim, key):
            counts["b"], before = solver._step_matrices(*key)[0], [counts[n] for n in work]
            state = time_step(state, st, sim)
            assert [getattr(state, n) for n in work] == [counts[n] - b for n, b in zip(work, before)]
            return state

        monkeypatch.setattr(solver, "_factorize", counted_factorize)
        monkeypatch.setattr(solver, "_matvec", counted_matvec)
        solver._sweep_factorization.cache_clear()
        try:
            for model in desk_config().models:  # model 9 takes band LU, the others band Cholesky
                st, sim, key = model_operators(model.model_id)
                states = [initial_state(st.grid, ASYM_THETA, sim)]
                for _ in range(sim.n_steps):
                    states.append(step(states[-1], st, sim, key))
                # the second step again from an empty cache: its first sweep factorizes too
                solver._sweep_factorization.cache_clear()
                exact = step(states[1], st, sim, key)
                assert exact.factorizations == exact.sweeps
                # ... and with its last solve off by 1e-6: one more solve and product by B
                counts["miss_at"] = counts["solves"] + exact.sweeps - 1
                missed = step(states[1], st, sim, key)
                assert (missed.sweeps, missed.solves, missed.b_products) == (
                    exact.sweeps, exact.solves + 1, exact.b_products + 1)
            # B with beta1 = 0 is singular, and so is the sweep matrix of a pure
            # +1 state, whose nodes are all active: it is factored twice.
            st, sim, key = model_operators(8, beta1=0.0)
            recorder = RecordingLapack()
            monkeypatch.setattr(solver, "lapack", recorder)
            assert step(pure_state(st.grid, 1.0), st, sim, key).factorizations == 1
            assert len(recorder.bands) == 2
        finally:
            solver._sweep_factorization.cache_clear()


OPERATOR_DETAILS = {
    "desk": model_operators(9),
    "desk-n32": model_operators(1),
    "beta2=0": model_operators(9, beta2=0.0),
    "beta1=0": model_operators(9, beta1=0.0),
}
OPERATOR_CASES = {case: details[2] for case, details in OPERATOR_DETAILS.items()}
#: Cases with xi > 0 and beta1 > 0, whose sweep matrices band Cholesky factorizes.
CHOLESKY_CASES = {
    "desk-n32": OPERATOR_CASES["desk-n32"],
    "reference-n64": model_operators(8, reference_config())[2],
}
#: The n=128 high-fidelity reference grid, the one whose band is split.
REFERENCE_N128 = model_operators(1, reference_config())[2]
#: A grid with an even number of solution nodes per side; the desk and
#: reference grids all have an odd number.
EVEN_KEY = (66, 1.0 / 65, 0.02, 1.0, 0.05, 0.01)
FREE_FRACTIONS = (0.0, 0.3, 0.7, 1.0)


def sweep_key(case):
    """The :func:`solver._sweep_factorization` operator key of a case."""
    if case == "xi=0":
        return (9, 1.0 / 8, 0.0, 1.0, 0.05, 0.01)
    if case == "even-n66":
        return EVEN_KEY
    if case == "reference-n128":
        return REFERENCE_N128
    return (OPERATOR_CASES | CHOLESKY_CASES)[case]


def natural_b(key):
    """The solver's ``B`` of ``key``, permuted back from the red-black order."""
    b_mat, _, _, plan = solver._step_matrices(*key)
    return b_mat[plan.position][:, plan.position]


def red_black(key, vector):
    """``vector`` over the solution block gathered into the red-black order."""
    return vector[solver._step_matrices(*key)[3].order]


def sweep_matrix(key, free):
    """The sweep matrix ``A P_F + B P_A`` of the nodes ``free``, dense, with
    ``A = I / dt + xi B`` assembled from the solver's ``B``."""
    n_solution, h, xi, beta1, beta2, dt = key
    b_dense = natural_b(key).toarray()
    a_dense = np.eye(n_solution**2) / dt + xi * b_dense
    return a_dense * free + b_dense * ~free


def sparse_sweep_matrix(key, free):
    """:func:`sweep_matrix` in CSR form."""
    n_solution, h, xi, beta1, beta2, dt = key
    b_mat = natural_b(key)
    a_mat = sp.identity(n_solution**2) / dt + xi * b_mat
    return (a_mat @ sp.diags(free * 1.0) + b_mat @ sp.diags(~free * 1.0)).tocsr()


def checkerboard(n_solution):
    """The red nodes (``i + j`` even) in the natural order, and the black ones
    by anti-diagonal: ``i + j``, then ``i``."""
    i, j = np.divmod(np.arange(n_solution**2), n_solution)
    black = sorted(np.flatnonzero((i + j) % 2 == 1), key=lambda p: (i[p] + j[p], i[p]))
    return np.flatnonzero((i + j) % 2 == 0), np.array(black)


def black_schur_complement(m_sparse, n_solution):
    """``S = M_KK - M_KR M_RR^-1 M_RK``, dense, of a matrix on the solution
    block with red nodes ``R`` and black nodes ``K``, whose red-red block
    ``M_RR`` must be diagonal."""
    red, black = checkerboard(n_solution)
    m_sparse = sp.csr_matrix(m_sparse)
    m_rr = m_sparse[red][:, red]
    assert sp.triu(m_rr, 1).count_nonzero() == sp.tril(m_rr, -1).count_nonzero() == 0
    m_kr, m_rk = m_sparse[black][:, red], m_sparse[red][:, black]
    return (m_sparse[black][:, black] - m_kr @ sp.diags(1.0 / m_rr.diagonal()) @ m_rk).toarray()


def regularization_shift(key):
    """The ``eps`` that the solver adds to the diagonal of a singular sweep matrix."""
    n_solution, h, xi, beta1, beta2, dt = key
    return 1e-10 * (1.0 / dt + abs(xi) * (beta1 + 8.0 * beta2 / h**2))


def general_band(m_dense, k):
    """``m_dense`` in the ``dgbtrf`` layout with ``k`` sub- and superdiagonals."""
    n = len(m_dense)
    band = np.zeros((3 * k + 1, n))
    for offset in range(-k, k + 1):
        band[2 * k - offset, max(offset, 0):n + min(offset, 0)] = np.diagonal(m_dense, offset)
    return band


def lower_band(s_dense, k):
    """The lower triangle of ``s_dense`` in the ``dpbtrf`` layout with ``k``
    subdiagonals."""
    n = len(s_dense)
    band = np.zeros((k + 1, n))
    for offset in range(k + 1):
        band[offset, :n - offset] = np.diagonal(s_dense, -offset)
    return band


class RecordingLapack:
    """The solver's ``lapack`` with a copy kept of each band it factorizes."""

    def __init__(self):
        self.bands = []

    def dgbtrf(self, band, *args, **kwargs):
        self.bands.append(band.copy())
        return lapack.dgbtrf(band, *args, **kwargs)

    def dpbtrf(self, band, *args, **kwargs):
        self.bands.append(band.copy())
        return lapack.dpbtrf(band, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(lapack, name)


def sweep_factors(key, free):
    """Every factorization the sweep matrix of the nodes ``free`` (in the
    natural order) gets through :func:`solver._sweep_factorization`, by type,
    with the bands LAPACK was given for it: the one the solver chooses, and
    band LU, the one it would choose if band Cholesky were not there."""
    factors = {}
    with pytest.MonkeyPatch.context() as patch:
        for as_band_lu in (False, True):
            if as_band_lu:
                patch.setattr(solver, "_BandCholesky", solver._BandLU)
            recorder = RecordingLapack()
            patch.setattr(solver, "lapack", recorder)
            solver._sweep_factorization.cache_clear()
            factor = solver._sweep_factorization(*key, red_black(key, ~free).tobytes())
            factors[type(factor)] = factor, recorder.bands
    solver._sweep_factorization.cache_clear()
    return factors


def check_band_inputs(key, free):
    """The bands LAPACK is given for the sweep matrix of ``free`` are those of
    the black Schur complement of ``M = A P_F + B P_A`` (``dgbtrf``) and of
    ``M D`` (``dpbtrf``), to round-off, with ``eps`` on ``M``'s diagonal when
    it is regularized."""
    n_solution, h, xi, beta1 = key[:4]
    m_sparse = sparse_sweep_matrix(key, free)
    factors = sweep_factors(key, free)
    assert set(factors) == (
        {solver._BandLU, solver._BandCholesky} if xi > 0.0 and beta1 > 0.0 else {solver._BandLU}
    )
    shifts = (0.0, regularization_shift(key))
    for backend, (_, bands) in factors.items():
        # Only B alone with beta1 = 0 is singular.
        assert len(bands) == (2 if beta1 == 0.0 and not free.any() else 1)
        for band, shift in zip(bands, shifts):
            m_shifted = m_sparse + shift * sp.identity(n_solution**2)
            if backend is solver._BandLU:
                schur = black_schur_complement(m_shifted, n_solution)
                expected = general_band(schur, n_solution)
            else:
                m_d = m_shifted @ sp.diags(np.where(free, 1.0, xi))
                expected = lower_band(black_schur_complement(m_d, n_solution), n_solution)
            assert band.shape == expected.shape
            np.testing.assert_allclose(band, expected, rtol=1e-13,
                                       atol=1e-14 * np.abs(expected).max())


class TestMaskedAssembly:
    """Both band factorizations assemble the black Schur complement of the
    sweep matrix, ``A``'s columns at free nodes and ``B``'s at active ones,
    from ``B`` alone."""

    @pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
    def test_operators_share_a_sorted_pattern(self, case):
        # B, the operator of every residual, is exactly the sum of its five
        # diagonals, so its red-red and black-black blocks are diagonal, and
        # it matches the node-by-node assembly of the oracle.
        # Permuted back to the natural order, the red-black B's rows hold
        # their entries in the natural column order.
        n_solution, h, xi, beta1, beta2, dt = key = OPERATOR_CASES[case]
        b_mat = natural_b(key)
        diagonal = b_mat.diagonal()
        assert b_mat.format == "csr" and b_mat.has_sorted_indices
        np.testing.assert_array_equal(solver._step_matrices(*key)[2], red_black(key, diagonal))
        lower1, lower_k = b_mat.diagonal(-1), b_mat.diagonal(-n_solution)
        offsets = [-n_solution, -1, 0, 1, n_solution]
        rebuilt = sp.diags([lower_k, lower1, diagonal, lower1, lower_k], offsets)
        np.testing.assert_array_equal(b_mat.toarray(), rebuilt.toarray())
        _, b_oracle = dense_operators(n_solution, h, beta1, beta2, dt, xi)
        np.testing.assert_allclose(b_mat.toarray(), b_oracle, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("case", sorted(OPERATOR_CASES) + ["xi=0", "even-n66"])
    def test_a_is_identity_over_dt_plus_xi_b(self, case):
        key = sweep_key(case)
        rng = np.random.default_rng(11)
        for free_fraction in FREE_FRACTIONS:
            check_band_inputs(key, rng.random(key[0] ** 2) < free_fraction)

    @settings(max_examples=60, deadline=None)
    @given(
        case=hst.sampled_from(sorted(OPERATOR_CASES)),
        seed=hst.integers(0, 2**32 - 1),
        free_fraction=hst.floats(0.0, 1.0),
    )
    def test_selection_matches_masked_products(self, case, seed, free_fraction):
        key = OPERATOR_CASES[case]
        check_band_inputs(key, np.random.default_rng(seed).random(key[0] ** 2) < free_fraction)


def cholesky_entries(plan):
    """The black rows and columns of ``plan.t_map``'s entries, read back from
    their ``cholesky_slots``: each slot lies in one segment's band, inside
    its ``kd``, or in the coupling block between two consecutive segments."""
    slots = plan.cholesky_slots
    rows, cols = np.full(slots.size, -1), np.full(slots.size, -1)
    for s, segment in enumerate(plan.segments):
        width = segment.kd + 1
        inside = (slots >= segment.band.start) & (slots < segment.band.stop)
        local, offset = np.divmod(slots[inside] - segment.band.start, width)
        cols[inside] = segment.start + local
        rows[inside] = cols[inside] + offset
        assert np.all(rows[inside] < segment.stop)
        if segment.m:
            coupled = (slots >= segment.coupling.start) & (slots < segment.coupling.stop)
            tail, head = np.divmod(slots[coupled] - segment.coupling.start, segment.m)[::-1]
            cols[coupled] = segment.stop - segment.m + tail
            rows[coupled] = plan.segments[s + 1].start + head
            assert np.all(head < segment.r)
    assert np.all(rows >= 0) and len(set(slots)) == slots.size
    return rows, cols


class TestRedBlackPlan:
    """The per-grid plan of the red-node elimination."""

    KEYS = {"odd-n17": OPERATOR_CASES["desk"], "even-n66": EVEN_KEY}
    SEGMENTED_KEYS = KEYS | {"reference-n128": REFERENCE_N128}

    @pytest.mark.parametrize("case", sorted(SEGMENTED_KEYS))
    def test_t_map_rebuilds_the_reduced_coupling(self, case):
        n_solution = self.SEGMENTED_KEYS[case][0]
        plan = solver._step_matrices(*self.SEGMENTED_KEYS[case])[3]
        n_black = n_solution**2 - plan.n_red
        v = np.random.default_rng(29).standard_normal(plan.n_red)
        expected = sp.tril(plan.c_kr @ sp.diags(v) @ plan.c_rk).tocsr()
        # The entries' slots in the bands and couplings give their rows and
        # columns, the diagonal first.
        assert plan.kd == n_solution
        rows, cols = cholesky_entries(plan)
        np.testing.assert_array_equal(cols[:n_black], np.arange(n_black))
        np.testing.assert_array_equal(rows[:n_black], np.arange(n_black))
        rebuilt = sp.csr_matrix((plan.t_map @ v, (rows, cols)), shape=(n_black, n_black))
        assert rebuilt.nnz == rows.size
        gap = abs(rebuilt - expected).max()
        assert gap <= 1e-14 * abs(expected).max()

    @pytest.mark.parametrize("case", sorted(SEGMENTED_KEYS))
    def test_segments_cover_the_envelope(self, case):
        # In the anti-diagonal order the first column of each row of T's
        # lower triangle never decreases; the segments tile the black nodes
        # at anti-diagonal boundaries, and each band holds its rows'
        # envelope and the dense update on its first r rows.
        n_solution = self.SEGMENTED_KEYS[case][0]
        plan = solver._step_matrices(*self.SEGMENTED_KEYS[case])[3]
        n_black = n_solution**2 - plan.n_red
        rows, cols = cholesky_entries(plan)
        first = np.full(n_black, n_black)
        np.minimum.at(first, rows, cols)
        assert np.all(np.diff(first) >= 0)
        i, j = np.divmod(plan.order[plan.n_red:], n_solution)
        starts = [segment.start for segment in plan.segments]
        stops = [segment.stop for segment in plan.segments]
        assert starts[0] == 0 and stops[-1] == n_black and starts[1:] == stops[:-1]
        for start in starts[1:]:
            assert i[start] + j[start] > i[start - 1] + j[start - 1]
        for previous, segment in zip(plan.segments, plan.segments[1:]):
            assert previous.r - 1 <= segment.kd and previous.m - 1 <= previous.kd
        for segment in plan.segments:
            local = np.arange(segment.start, segment.stop)
            assert np.all(local - np.maximum(first[local], segment.start) <= segment.kd)

    @pytest.mark.parametrize("config, model_id, widths", [
        *[(desk_config(), model_id, None) for model_id in range(1, 10)],
        (reference_config(), 8, None),
        (reference_config(), 1, [32, 64, 96, 129, 96, 64, 32]),
    ], ids=[*[f"desk-m{m}" for m in range(1, 10)], "reference-n64", "reference-n128"])
    def test_segment_count_follows_the_band(self, config, model_id, widths):
        # Every desk grid and n=64 keep one band; only a band four dpbtrf
        # blocks wide is split, into segments whose bandwidths step by one
        # block from either end, with the widest anti-diagonals in the middle one.
        key = model_operators(model_id, config)[2]
        plan = solver._step_matrices(*key)[3]
        if widths is None:
            assert len(plan.segments) == 1 and plan.segments[0].kd == key[0]
            assert plan.segments[0].m == plan.segments[0].r == 0
        else:
            assert [segment.kd for segment in plan.segments] == widths

    @pytest.mark.parametrize("case", sorted(KEYS))
    def test_couplings_are_the_off_diagonals_of_b(self, case):
        n_solution = self.KEYS[case][0]
        plan, b_mat = solver._step_matrices(*self.KEYS[case])[3], natural_b(self.KEYS[case])
        red, black = checkerboard(n_solution)
        np.testing.assert_array_equal(plan.order, np.concatenate([red, black]))
        np.testing.assert_array_equal(plan.order[plan.position], np.arange(n_solution**2))
        assert plan.n_red == red.size
        np.testing.assert_array_equal(plan.c_rk.toarray(), b_mat[red][:, black].toarray())
        np.testing.assert_array_equal(plan.c_kr.toarray(), b_mat[black][:, red].toarray())
        for colour in (red, black):
            block = b_mat[colour][:, colour]
            assert sp.triu(block, 1).count_nonzero() == sp.tril(block, -1).count_nonzero() == 0


class TestDirectProducts:
    """:func:`solver._matvec` reaches scipy's private CSR kernel; a scipy
    release that changes it must fail here."""

    KEYS = {"desk": OPERATOR_CASES["desk"], "desk-n32": OPERATOR_CASES["desk-n32"],
            "reference-n64": CHOLESKY_CASES["reference-n64"], "even-n66": EVEN_KEY}

    @pytest.mark.parametrize("case", sorted(KEYS))
    def test_matches_matmul_bit_for_bit(self, case):
        # Every matrix a step multiplies by: B, the couplings and t_map.
        b_mat, _, _, plan = solver._step_matrices(*self.KEYS[case])
        rng = np.random.default_rng(31)
        for matrix in (b_mat, plan.c_kr, plan.c_rk, plan.t_map):
            x = rng.standard_normal(matrix.shape[1]) * 10.0 ** rng.integers(-8, 8, matrix.shape[1])
            y = solver._matvec(matrix, x)
            assert y.dtype == np.float64 and y.shape == (matrix.shape[0],)
            assert np.array_equal(y, matrix @ x)
            # the kernel would read past a short vector; the helper refuses it
            for size in (matrix.shape[1] - 1, matrix.shape[1] + 1):
                with pytest.raises(ValueError, match="cannot multiply"):
                    solver._matvec(matrix, x[:size] if size < x.size else np.append(x, 1.0))

    @pytest.mark.parametrize("case", sorted(KEYS))
    def test_red_black_b_sums_in_the_natural_order(self, case):
        # A product by the red-black B is the natural product gathered into
        # the red-black order, bit for bit, against an independent natural B.
        key = self.KEYS[case]
        b_mat, _, _, plan = solver._step_matrices(*key)
        natural = sp.csr_matrix(natural_b(key).toarray())
        assert natural.has_sorted_indices
        x = np.random.default_rng(37).standard_normal(b_mat.shape[1])
        assert np.array_equal(solver._matvec(b_mat, x[plan.order]), (natural @ x)[plan.order])


class TestFactorizationBackends:
    @pytest.mark.parametrize("case", sorted(OPERATOR_CASES) + ["xi=0"])
    def test_band_and_sparse_lu_agree(self, case):
        # Each backend against scipy's sparse LU of the dense sweep matrix.
        key = sweep_key(case)
        n_solution, beta1 = key[0], key[3]
        rng = np.random.default_rng(17)
        for free_fraction in FREE_FRACTIONS:
            free = rng.random(n_solution**2) < free_fraction
            m_dense = sweep_matrix(key, free)
            rhs = rng.standard_normal(n_solution**2)
            singular = beta1 == 0.0 and not free.any()
            if singular:
                m_dense += regularization_shift(key) * np.eye(n_solution**2)
            x_sparse = spla.splu(sp.csc_matrix(m_dense)).solve(rhs)
            position = solver._step_matrices(*key)[3].position
            for factor, _ in sweep_factors(key, free).values():
                x = factor.solve(red_black(key, rhs))[position]
                gap = np.linalg.norm(x - x_sparse) / np.linalg.norm(x_sparse)
                if not singular:
                    assert gap <= 1e-12
                    continue
                # B alone is singular, so the solver regularizes with a tiny
                # shift.  The shifted system's condition number is about 1e10,
                # so the two agree only to about 1e-8, but each solves it to
                # round-off.
                for y in (x, x_sparse):
                    backward = np.abs(m_dense @ y - rhs).max()
                    assert backward <= 1e-14 * np.abs(m_dense).sum(axis=1).max() * np.abs(y).max()
                assert gap <= 1e-6

    @pytest.mark.parametrize("case", sorted(CHOLESKY_CASES))
    def test_cholesky_agrees_with_lu(self, case):
        key = sweep_key(case)
        n_solution = key[0]
        rng = np.random.default_rng(23)
        for free_fraction in FREE_FRACTIONS:
            free = rng.random(n_solution**2) < free_fraction
            factors = sweep_factors(key, free)
            chosen, _ = factors[solver._BandCholesky]
            band, _ = factors[solver._BandLU]
            # M is column diagonally dominant, so band LU exchanges no rows
            # and its pivots are those of M's LU, which the pivot test reads.
            np.testing.assert_allclose(chosen.pivots, band.pivots, rtol=1e-12)
            rhs = rng.standard_normal(n_solution**2)
            x, x_lu = chosen.solve(rhs), band.solve(rhs)
            assert np.linalg.norm(x - x_lu) <= 1e-12 * np.linalg.norm(x_lu)

    @pytest.mark.parametrize("case", ["reference-n64", "reference-n128"])
    def test_segmented_solve_matches_sparse_lu(self, case):
        # The chosen factorization (one band at n=64, a chain of segments at
        # n=128) against scipy's sparse LU of the same red-black sweep
        # matrix, and its pivots against band LU's.
        key = sweep_key(case)
        n_solution, xi = key[0], key[2]
        _, a_diagonal, b_diagonal, plan = solver._step_matrices(*key)
        order = plan.order
        rng = np.random.default_rng(41)
        solver._sweep_factorization.cache_clear()
        try:
            for free_fraction in FREE_FRACTIONS:
                free = rng.random(n_solution**2) < free_fraction
                m_red_black = sparse_sweep_matrix(key, free)[order][:, order]
                rhs = rng.standard_normal(n_solution**2)
                x_sparse = spla.splu(m_red_black.tocsc()).solve(rhs)
                factor = solver._sweep_factorization(*key, (~free[order]).tobytes())
                assert isinstance(factor, solver._BandCholesky)
                x = factor.solve(rhs)
                assert np.linalg.norm(x - x_sparse) <= 1e-12 * np.linalg.norm(x_sparse)
                lu = solver._BandLU(plan, np.where(free[order], a_diagonal, b_diagonal),
                                    free[order], xi)
                np.testing.assert_allclose(factor.pivots, lu.pivots, rtol=1e-12)
        finally:
            solver._sweep_factorization.cache_clear()

    @pytest.mark.parametrize(
        ("xi", "beta1", "n_solution", "backend"),
        [
            (-0.08, 1.0, 17, solver._BandLU),
            (0.0, 1.0, 17, solver._BandLU),
            (0.0, 1.0, 66, solver._BandLU),
            (0.02, 0.0, 17, solver._BandLU),
            (0.02, 0.0, 66, solver._BandLU),
            (0.02, 1.0, 17, solver._BandCholesky),
            (0.02, 1.0, 65, solver._BandCholesky),
            (0.02, 1.0, 66, solver._BandCholesky),
            (0.02, 1.0, 129, solver._BandCholesky),
        ],
    )
    def test_backend_follows_definiteness(self, xi, beta1, n_solution, backend):
        # The backend depends on xi and beta1 alone, on every grid.
        key = (n_solution, 1.0 / (n_solution - 1), xi, beta1, 0.05, 0.01)
        solver._sweep_factorization.cache_clear()
        try:
            factor = solver._sweep_factorization(*key, bytes(n_solution**2))
        finally:
            solver._sweep_factorization.cache_clear()
        assert type(factor) is backend

    def test_reference_step_matches_sparse_lu(self, monkeypatch):
        # One step of the n=128 high-fidelity reference model, the grid the
        # desk family never reaches, against the same step on scipy's sparse
        # LU of the sweep matrix assembled from A and B.
        config = reference_config()
        st = config_stencil(config, config.model(1))
        sim, grid = config.sim, st.grid
        key = (grid.n_solution, grid.h, st.xi, sim.beta1, sim.beta2, sim.dt)
        b_mat = solver._step_matrices(*key)[0]
        a_mat = sp.identity(grid.n_solution**2) / sim.dt + st.xi * b_mat

        def sparse_lu(plan, diagonal, free, *args):
            m_mat = a_mat @ sp.diags(free * 1.0) + b_mat @ sp.diags(~free * 1.0)
            return spla.splu(m_mat.tocsc(), permc_spec="MMD_AT_PLUS_A")

        state = initial_state(grid, ASYM_THETA, sim)
        solver._sweep_factorization.cache_clear()
        try:
            step = time_step(state, st, sim)
            # The solver's B and its masks are in the red-black order, and so
            # is this sweep matrix.
            active = red_black(key, step.active_pos | step.active_neg).tobytes()
            assert isinstance(solver._sweep_factorization(*key, active), solver._BandCholesky)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_factorize", sparse_lu)
                solver._sweep_factorization.cache_clear()
                reference = time_step(state, st, sim)
        finally:
            solver._sweep_factorization.cache_clear()
        assert step.residual <= sim.solver_tol
        assert step.sweeps == reference.sweeps
        np.testing.assert_array_equal(step.active_pos, reference.active_pos)
        np.testing.assert_array_equal(step.active_neg, reference.active_neg)
        np.testing.assert_allclose(step.padded, reference.padded, rtol=0.0, atol=1e-12)
