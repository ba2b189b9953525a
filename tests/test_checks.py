"""Oracle harness: particle comparison, slope probe, closed-form co-density."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfpmp import (ControlSignal, TimeGrid, ball, constant_control, integrate_forward,
                   kuramoto_model)
from mfpmp import checks, forward
from mfpmp.checks import (
    fig1_slope_pair,
    increment_slope_check,
    local_adjoint_check,
    meanfield_vs_particles,
    reference,
    synthetic_control_pairs,
)

from conftest import fig1_row


class TestLocalAdjointCheck:
    def test_constant_drift(self):
        grid = TimeGrid(1.0, 1e-3)
        u1 = np.full(grid.n_steps + 1, 0.9)
        rep = local_adjoint_check(u1, fig1_row(128), np.pi, grid)
        assert rep["max_error"] < 1e-10

    def test_zero_drift_freezes_the_co_density(self):
        grid = TimeGrid(0.5, 2e-3)
        u1 = np.zeros(grid.n_steps + 1)
        rep = local_adjoint_check(u1, fig1_row(64), 1.2, grid)
        assert rep["max_error"] < 1e-11

    def test_sinusoidal_drift(self):
        grid = TimeGrid(1.0, 1e-3)
        t = grid.full_times()
        rep = local_adjoint_check(0.8 * np.sin(1.7 * t), fig1_row(128), np.pi, grid)
        assert rep["max_error"] < 1e-10

    def test_profile_length_is_validated(self):
        grid = TimeGrid(0.5, 2e-3)
        with pytest.raises(ValueError, match="node values"):
            local_adjoint_check(np.zeros(7), fig1_row(32), 0.0, grid)


class TestIncrementSlopeCheck:
    def test_first_order_match_on_a_generic_pair(self):
        grid = TimeGrid(0.8, 2e-3)
        model = kuramoto_model(0.0, np.pi, control_set=ball(np.sqrt(2.0)))
        rho = fig1_row(64)
        t = grid.full_times()
        u = ControlSignal(grid, np.column_stack([0.5 * np.sin(2 * t), 0.4 + 0 * t]))
        ubar = ControlSignal(grid, np.column_stack([0.2 + 0 * t, -0.6 * np.cos(t)]))
        ref = reference(integrate_forward(rho, u, model, grid), u, model)
        rep = increment_slope_check(rho, ref, ubar, model, grid, [1e-3, 2e-3, 4e-3, 8e-3])
        for ratio in rep["ratios"]:
            assert abs(ratio - 1.0) < 0.05
        assert rep["residual_order"] >= 1.8

    def test_the_ladder_marches_in_groups_of_the_row_budget(self, monkeypatch):
        grid = TimeGrid(0.4, 2e-3)
        model = kuramoto_model(0.0, np.pi, control_set=ball(np.sqrt(2.0)))
        rho = fig1_row(64)
        t = grid.full_times()
        u = ControlSignal(grid, np.column_stack([0.5 * np.sin(2 * t), 0.4 + 0 * t]))
        ubar = ControlSignal(grid, np.column_stack([0.2 + 0 * t, -0.6 * np.cos(t)]))
        ref = reference(integrate_forward(rho, u, model, grid), u, model)
        lambdas = [1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2]
        want = increment_slope_check(rho, ref, ubar, model, grid, lambdas)
        sizes = []

        def spy(rho0, controls, model, grid):
            sizes.append(len(controls))
            return forward.cost_of_control(rho0, controls, model, grid)

        monkeypatch.setattr(forward, "BATCH_COEFFS", 2 * len(rho))
        monkeypatch.setattr(checks, "cost_of_control", spy)
        got = increment_slope_check(rho, ref, ubar, model, grid, lambdas)
        assert sizes == [2, 2, 1]
        assert got == want

    def test_identical_pair_is_rejected_upstream_by_zero_slope(self):
        grid = TimeGrid(0.2, 2e-3)
        model = kuramoto_model(0.0, np.pi)
        rho = fig1_row(32)
        u = constant_control(grid, [0.4, 0.3])
        ref = reference(integrate_forward(rho, u, model, grid), u, model)
        rep = increment_slope_check(rho, ref, u, model, grid, [1e-3])
        assert rep["predicted_slope"] == 0.0
        assert rep["ratios"] == [None]

    def test_lambda_range_is_validated(self):
        grid = TimeGrid(0.2, 2e-3)
        model = kuramoto_model(0.0, np.pi)
        rho = fig1_row(32)
        u = constant_control(grid, [0.4, 0.3])
        ref = reference(integrate_forward(rho, u, model, grid), u, model)
        with pytest.raises(ValueError, match="lambdas"):
            increment_slope_check(rho, ref, u, model, grid, [0.0])


class TestMeanfieldVsParticles:
    def test_rigid_rotation_keeps_the_initial_sampling_error(self):
        # Both systems transport rigidly, so the moment mismatch never
        # grows beyond the (machine-level) sampling error of the start.
        grid = TimeGrid(1.0, 5e-3)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2.0))
        rho = fig1_row(64)
        u = constant_control(grid, [1.1, 0.0])
        [rep] = meanfield_vs_particles(integrate_forward(rho, u, model, grid), u, model, [700])
        gaps = [max(v.values()) for v in rep["per_time"].values()]
        assert max(gaps) < 1e-9
        assert rep["cost_gap"] < 1e-9

    def test_interacting_run_stays_close_for_moderate_ensembles(self):
        grid = TimeGrid(1.0, 5e-3)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2.0))
        rho = fig1_row(64)
        u = constant_control(grid, [0.3, 1.0])
        [rep] = meanfield_vs_particles(integrate_forward(rho, u, model, grid), u, model, [2000])
        assert rep["moment_discrepancy"] < 1e-5
        assert rep["cost_gap"] < 1e-5

    def test_one_spectral_solve_serves_every_ensemble(self):
        grid = TimeGrid(0.5, 5e-3)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2.0))
        rho = fig1_row(64)
        u = constant_control(grid, [0.3, 1.0])
        traj = integrate_forward(rho, u, model, grid)
        reps = meanfield_vs_particles(traj, u, model, [300, 1200])
        assert [r["n_particles"] for r in reps] == [300, 1200]
        for rep in reps:
            [alone] = meanfield_vs_particles(traj, u, model, [rep["n_particles"]])
            assert rep == alone


class TestPairGenerators:
    def test_synthetic_pairs_are_feasible_and_distinct(self):
        grid = TimeGrid(0.5, 5e-3)
        model = kuramoto_model(0.0, np.pi)
        pairs = synthetic_control_pairs(fig1_row(32), model, grid, 3)
        assert len(pairs) == 3
        for ref, ubar in pairs:
            assert not np.array_equal(ref.u.values, ubar.values)
            for row in np.vstack([ref.u.values, ubar.values]):
                assert model.control_set.admits(row)

    def test_experiment_pair_reaches_the_constraint_sphere(self):
        grid = TimeGrid(0.5, 5e-3)
        model = kuramoto_model(0.0, np.pi)
        rho = fig1_row(64)
        t = grid.full_times()
        u0 = ControlSignal(grid, np.column_stack([
            np.sqrt(2.0) * np.sin(2 * np.pi * t), np.sqrt(2.0) * np.cos(2 * np.pi * t)]))
        ref, ubar = fig1_slope_pair(integrate_forward(rho, u0, model, grid), u0, model)
        assert ref.u is u0
        norms = np.linalg.norm(ubar.values, axis=1)
        assert_allclose(norms, np.sqrt(2.0), atol=1e-12)
