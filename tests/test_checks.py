"""Oracle harness: particle comparison, slope probe, closed-form co-density."""

import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfpmp import (ControlSignal, TimeGrid, ball, box, constant_control, integrate_backward,
                   integrate_forward, kuramoto_model)
from mfpmp import adjoint, checks, forward
from mfpmp.checks import (
    fig1_slope_pair,
    increment_slope_check,
    local_adjoint_check,
    local_u1_profile,
    meanfield_vs_particles,
    reference,
    synthetic_control_pairs,
)
from mfpmp.config import parse_config
from mfpmp.spectral import grid_points, reconstruct_rows

from conftest import fig1_row


class TestLocalAdjointCheck:
    def test_constant_drift(self):
        grid = TimeGrid(1.0, 1e-3)
        u1 = np.full(grid.n_steps + 1, 0.9)
        rep = local_adjoint_check(u1, fig1_row(128), np.pi, grid, 1e-10)
        assert rep["max_error"] < 1e-10
        assert rep["passed"] is True and rep["tol"] == 1e-10

    def test_zero_drift_freezes_the_co_density(self):
        grid = TimeGrid(0.5, 2e-3)
        u1 = np.zeros(grid.n_steps + 1)
        rep = local_adjoint_check(u1, fig1_row(64), 1.2, grid, 1e-11)
        assert rep["max_error"] < 1e-11
        assert rep["passed"] is True

    def test_sinusoidal_drift(self):
        grid = TimeGrid(1.0, 1e-3)
        t = grid.full_times()
        rep = local_adjoint_check(0.8 * np.sin(1.7 * t), fig1_row(128), np.pi, grid, 1e-10)
        assert rep["max_error"] < 1e-10
        # The verdict is the gap against the tolerance it is given.
        assert rep["passed"] is True
        tight = local_adjoint_check(0.8 * np.sin(1.7 * t), fig1_row(128), np.pi, grid,
                                    0.5 * rep["max_error"])
        assert tight["passed"] is False and tight["max_error"] == rep["max_error"]

    def test_profile_length_is_validated(self):
        grid = TimeGrid(0.5, 2e-3)
        with pytest.raises(ValueError, match="node values"):
            local_adjoint_check(np.zeros(7), fig1_row(32), 0.0, grid, 1e-6)


def whole_horizon_error(u1, rho0, x0, grid):
    """The gap of `local_adjoint_check`, as one array over every full node at once."""
    u = ControlSignal(grid, np.column_stack([u1, np.zeros_like(u1)]))
    m = float(np.max(np.abs(u1)))
    model = kuramoto_model(0.0, x0, control_set=box([-m, 0.0], [m, 0.0]))
    traj = integrate_forward(rho0, u, model, grid)
    cotraj = integrate_backward(traj, u, model, keep=grid.full_times())
    # The rotation still to come, summed from T back one sub-step at a time.
    subs = (grid.tau / traj.substeps) * np.repeat(u1[:-1], traj.substeps)
    remaining = np.append(np.cumsum(subs[::-1])[::-1], 0.0)[::traj.substeps]
    accumulated = remaining[0] - remaining
    shifted = traj.rows(0, 1)[0] * np.exp(-1j * np.outer(accumulated, np.arange(traj.width)))
    x = grid_points(traj.n_modes)
    analytic = -np.sin(x[None, :] + remaining[:, None] - x0) * reconstruct_rows(shifted)
    return float(np.max(np.abs(reconstruct_rows(cotraj.coeffs) - analytic)))


class TestBlockedLocalAdjointCheck:
    """The oracle compares `forward.batch_rows` nodes at a time."""

    SINUSOIDAL = {"kind": "sinusoidal", "amplitude": 1.0, "frequency": 1.7}

    @pytest.mark.parametrize("T, tau, n_modes, spec, block", [
        (6.0, 5e-3, 256, SINUSOIDAL, 63),  # 1201 = 19*63 + 4 nodes
        (0.05, 1e-3, 2048, {"kind": "constant", "value": 0.9}, 8),  # 51 = 6*8 + 3 nodes
    ], ids=["desk", "wide-short"])
    def test_the_gap_has_the_bits_of_the_whole_horizon_array(self, T, tau, n_modes, spec, block,
                                                             monkeypatch):
        grid = TimeGrid(T, tau)
        assert forward.batch_rows(n_modes // 2 + 1) == block
        full, last = divmod(grid.n_steps + 1, block)
        assert last > 0  # the last block is short
        sizes = []
        monkeypatch.setattr(checks, "reconstruct_rows",
                            lambda rows: sizes.append(len(rows)) or reconstruct_rows(rows))
        u1, rho0 = local_u1_profile(spec, grid), fig1_row(n_modes)
        rep = local_adjoint_check(u1, rho0, np.pi, grid, 1e-6)
        # Every node once: the analytic and the solved rows of each block.
        assert sizes == [block] * (2 * full) + [last] * 2
        assert rep["max_error"] > 0.0
        assert rep["max_error"].hex() == whole_horizon_error(u1, rho0, np.pi, grid).hex()

    def test_the_peak_is_the_kept_rows_the_trajectory_and_a_few_blocks(self):
        # NumPy reports its buffers to tracemalloc, so the bound holds on any
        # host.  The forward buffer is allocated at its dense size; the
        # backward march's workspaces come to about seven of the blocks of
        # samples below.  Whole-horizon temporaries took 22.5 MB here.
        grid = TimeGrid(6.0, 5e-3)
        width = 129
        u1 = local_u1_profile(self.SINUSOIDAL, grid)
        kept = (grid.n_steps + 1) * width * 16
        trajectory = (forward.SUBSTEPS * grid.n_steps + 1) * width * 16
        block = forward.batch_rows(width) * 256 * 16
        tracemalloc.start()
        try:
            local_adjoint_check(u1, fig1_row(256), np.pi, grid, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < kept + trajectory + 12 * block


def _one_at_a_time(rho0, controls, model, grid):
    """`cost_of_control` with every control marched alone, as a one-row state."""
    solves = [forward.cost_of_control(rho0, [c], model, grid) for c in controls]
    return [s[0][0] for s in solves], [s[1][0] for s in solves]


def generic_pair(T):
    """(rho0, (reference, ubar), model, grid) of one smooth pair on a 64-mode grid."""
    grid = TimeGrid(T, 2e-3)
    model = kuramoto_model(0.0, np.pi, control_set=ball(np.sqrt(2.0)))
    rho = fig1_row(64)
    t = grid.full_times()
    u = ControlSignal(grid, np.column_stack([0.5 * np.sin(2 * t), 0.4 + 0 * t]))
    ubar = ControlSignal(grid, np.column_stack([0.2 + 0 * t, -0.6 * np.cos(t)]))
    ref = reference(integrate_forward(rho, u, model, grid), u, model)
    return rho, (ref, ubar), model, grid


class TestIncrementSlopeCheck:
    def test_first_order_match_on_a_generic_pair(self):
        rho, pair, model, grid = generic_pair(0.8)
        [rep] = increment_slope_check(rho, pair, [], model, grid,
                                      [1e-3, 2e-3, 4e-3, 8e-3], 0.05, 1.8)
        for ratio in rep["ratios"]:
            assert abs(ratio - 1.0) < 0.05
        assert rep["residual_order"] >= 1.8 and rep["passed"] is True

    def test_the_verdict_reads_the_two_smallest_steps(self):
        rho, pair, model, grid = generic_pair(0.4)
        [rep] = increment_slope_check(rho, pair, [], model, grid, [1e-3, 2e-3, 4e-3], 0.05, 1.8)
        r = rep["residuals"]
        assert rep["residual_order"] == pytest.approx(np.log(r[1] / r[0]) / np.log(2.0),
                                                      rel=1e-12)
        dev, order = abs(rep["ratios"][0] - 1.0), rep["residual_order"]

        def passed(lambdas, ratio_tol, order_min):
            [rep] = increment_slope_check(rho, pair, [], model, grid, lambdas, ratio_tol,
                                          order_min)
            return rep["passed"]

        # The bounds are met exactly at the smallest step and the pair of smallest steps,
        # whatever the order of the ladder and the ratios further out.
        for lambdas in ([1e-3, 2e-3, 4e-3], [4e-3, 1e-3, 2e-3], [2e-3, 1e-3, 0.5]):
            assert passed(lambdas, dev, order)
        assert not passed([1e-3, 2e-3, 4e-3], 0.99 * dev, order)
        assert not passed([1e-3, 2e-3, 4e-3], dev, np.nextafter(order, np.inf))

    def test_one_step_has_no_order_and_fails(self):
        rho, pair, model, grid = generic_pair(0.4)
        [rep] = increment_slope_check(rho, pair, [], model, grid, [1e-3], 0.05, 1.8)
        assert abs(rep["ratios"][0] - 1.0) < 0.05
        assert np.isnan(rep["residual_order"])
        assert rep["passed"] is False

    def test_the_whole_ladder_marches_as_one_state(self, monkeypatch):
        rho, (ref, ubar), model, grid = generic_pair(0.4)
        lambdas = [1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2]
        sizes = []

        def spy(rho0, controls, model, grid):
            sizes.append(len(controls))
            return forward.cost_of_control(rho0, controls, model, grid)

        monkeypatch.setattr(checks, "cost_of_control", _one_at_a_time)
        want = increment_slope_check(rho, (ref, ubar), [], model, grid, lambdas, 0.05, 1.8)
        # A row budget of 2 no longer splits the 5-step ladder.
        monkeypatch.setattr(forward, "BATCH_COEFFS", 2 * len(rho))
        monkeypatch.setattr(checks, "cost_of_control", spy)
        got = increment_slope_check(rho, (ref, ubar), [], model, grid, lambdas, 0.05, 1.8)
        assert sizes == [5]
        assert got == want and repr(got) == repr(want)  # repr tells -0.0 from 0.0

    def test_identical_pair_is_rejected_upstream_by_zero_slope(self):
        grid = TimeGrid(0.2, 2e-3)
        model = kuramoto_model(0.0, np.pi)
        rho = fig1_row(32)
        u = constant_control(grid, [0.4, 0.3])
        ref = reference(integrate_forward(rho, u, model, grid), u, model)
        [rep] = increment_slope_check(rho, (ref, u), [], model, grid, [1e-3], 0.05, 1.8)
        assert rep["predicted_slope"] == 0.0
        assert rep["ratios"] == [None]
        assert rep["passed"] is False

    def test_lambda_range_is_validated(self):
        grid = TimeGrid(0.2, 2e-3)
        model = kuramoto_model(0.0, np.pi)
        rho = fig1_row(32)
        u = constant_control(grid, [0.4, 0.3])
        ref = reference(integrate_forward(rho, u, model, grid), u, model)
        with pytest.raises(ValueError, match="lambdas"):
            increment_slope_check(rho, (ref, u), [], model, grid, [0.0], 0.05, 1.8)

    @pytest.mark.parametrize("bad", [np.nan, -1e-3, 1.5])
    def test_a_step_outside_the_range_names_lambdas(self, bad):
        # NaN fails every comparison, so only a check written as
        # `not 0 < l <= 1` catches it before the march.
        grid = TimeGrid(0.2, 2e-3)
        model = kuramoto_model(0.0, np.pi)
        rho = fig1_row(32)
        u = constant_control(grid, [0.4, 0.3])
        ref = reference(integrate_forward(rho, u, model, grid), u, model)
        with pytest.raises(ValueError, match="lambdas"):
            increment_slope_check(rho, (ref, u), [], model, grid, [1e-3, bad], 0.05, 1.8)


def desk_slope_reports(alpha: float) -> list[dict]:
    """The slope oracle of `mfpmp validate` on configs/validate_desk.json at this alpha."""
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "validate_desk.json",
                       [f"model.alpha={alpha}"])
    params = cfg.validate_params
    pair = fig1_slope_pair(integrate_forward(cfg.rho0, cfg.u0, cfg.model, cfg.grid), cfg.u0,
                           cfg.model)
    synthetic = synthetic_control_pairs(cfg.model, cfg.grid, params["extra_pairs"])
    return increment_slope_check(cfg.rho0, pair, synthetic, cfg.model, cfg.grid,
                                 params["lambdas"], params["ratio_tol"], params["order_min"])


class TestSlopeOracleOnTheDeskGrid:
    """The shipped ladder judged at its small-step end, where the expansion is asymptotic."""

    @pytest.mark.parametrize("alpha", [1.7, 2.2])
    def test_a_correct_gradient_passes_every_pair(self, alpha):
        # A fit over the whole ladder failed the experiment pair's order at 1.7
        # (1.51: the lam^3 term cancels the lam^2 one at the larger steps), and
        # the largest step's ratio failed the second synthetic pair at 2.2.
        reports = desk_slope_reports(alpha)
        assert len(reports) == 3
        assert all(rep["passed"] for rep in reports), reports

    @pytest.mark.parametrize("alpha", [0.31, 1.0, 1.7, 2.2])
    def test_swapped_source_phases_fail(self, alpha, monkeypatch):
        # e^{i alpha}/2 and e^{-i alpha}/2 exchanged: a wrong gradient that
        # the particle and closed-form oracles do not see.
        def swapped(width, model, _stencil=adjoint._stencil):
            factors = _stencil(width, model)
            return factors[:3] + (factors[4], factors[3])

        monkeypatch.setattr(adjoint, "_stencil", swapped)
        reports = desk_slope_reports(alpha)
        assert not all(rep["passed"] for rep in reports)
        if alpha in (1.0, 2.2):
            # Only a synthetic pair sees it here: `validate.extra_pairs` 0 passes it.
            assert reports[0]["passed"] and not all(rep["passed"] for rep in reports[1:])


class TestBatchedSlopeOracle:
    """Every pair's ladder and the synthetic reference controls march as one state."""

    LAMBDAS = [1e-3, 2e-3, 4e-3]

    def setup_method(self):
        self.grid = TimeGrid(0.4, 2e-3)
        self.model = kuramoto_model(0.0, np.pi, control_set=ball(np.sqrt(2.0)))
        self.rho = fig1_row(64)
        t = self.grid.full_times()
        u0 = ControlSignal(self.grid, np.column_stack([np.sin(3 * t), np.cos(3 * t)]))
        self.pair = fig1_slope_pair(integrate_forward(self.rho, u0, self.model, self.grid),
                                    u0, self.model)
        self.synthetic = synthetic_control_pairs(self.model, self.grid, 2)

    def check(self):
        return increment_slope_check(self.rho, self.pair, self.synthetic, self.model,
                                     self.grid, self.LAMBDAS, 0.05, 1.8)

    def test_one_lean_march_takes_every_row(self, monkeypatch):
        calls = []

        def spy(rho0, controls, model, grid):
            calls.append(controls)
            return forward.cost_of_control(rho0, controls, model, grid)

        monkeypatch.setattr(checks, "cost_of_control", spy)
        reports = self.check()
        assert len(reports) == 3
        [controls] = calls
        assert len(controls) == 2 + 3 * len(self.LAMBDAS)
        assert all(c is u for c, (u, _) in zip(controls, self.synthetic))  # references first

    def test_every_report_has_the_bits_of_rows_marched_alone(self, monkeypatch):
        got = self.check()
        # Each pair on its own, the synthetic references from cold stored solves.
        cold = [(reference(integrate_forward(self.rho, u, self.model, self.grid), u, self.model),
                 ubar) for u, ubar in self.synthetic]
        alone = [increment_slope_check(self.rho, pair, [], self.model, self.grid, self.LAMBDAS,
                                       0.05, 1.8)[0]
                 for pair in [self.pair] + cold]
        monkeypatch.setattr(checks, "cost_of_control", _one_at_a_time)
        want = self.check()
        assert repr(got) == repr(want) == repr(alone)  # repr tells -0.0 from 0.0

    def test_each_synthetic_reference_resumes_from_its_checkpoints(self, monkeypatch):
        resumed = []

        def spy(rho0, u, model, grid, starts=None):
            resumed.append(forward._resumable(starts, rho0, u, model))
            return forward.integrate_forward(rho0, u, model, grid, starts)

        monkeypatch.setattr(checks, "integrate_forward", spy)
        self.check()
        assert resumed == [True, True]

    def test_the_ladders_checkpoints_are_freed_before_the_stored_solves(self, monkeypatch):
        # Only the synthetic references resume: the ladders' checkpoints must
        # not stay alive through the references' stored solves and adjoints.
        ladders, alive = [], []

        def lean(rho0, controls, model, grid):
            costs, starts = forward.cost_of_control(rho0, controls, model, grid)
            ladders.extend(weakref.ref(s) for s in starts[len(self.synthetic):])
            return costs, starts

        def stored(rho0, u, model, grid, starts=None):
            alive.append(sum(ref() is not None for ref in ladders))
            return forward.integrate_forward(rho0, u, model, grid, starts)

        monkeypatch.setattr(checks, "cost_of_control", lean)
        monkeypatch.setattr(checks, "integrate_forward", stored)
        self.check()
        assert len(ladders) == 3 * len(self.LAMBDAS) and alive == [0, 0]


class TestMeanfieldVsParticles:
    def test_rigid_rotation_keeps_the_initial_sampling_error(self):
        # Both systems transport rigidly, so the moment mismatch never
        # grows beyond the (machine-level) sampling error of the start.
        grid = TimeGrid(1.0, 5e-3)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2.0))
        rho = fig1_row(64)
        u = constant_control(grid, [1.1, 0.0])
        block = meanfield_vs_particles(integrate_forward(rho, u, model, grid), u, model, [700],
                                       1e-9)
        [rep] = block["runs"].values()
        gaps = [max(v.values()) for v in rep["per_time"].values()]
        assert max(gaps) < 1e-9
        assert rep["cost_gap"] < 1e-9
        assert block["cost_gap"] == rep["cost_gap"] and block["passed"] is True

    def test_interacting_run_stays_close_for_moderate_ensembles(self):
        grid = TimeGrid(1.0, 5e-3)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2.0))
        rho = fig1_row(64)
        u = constant_control(grid, [0.3, 1.0])
        block = meanfield_vs_particles(integrate_forward(rho, u, model, grid), u, model, [2000],
                                       1e-5)
        [rep] = block["runs"].values()
        assert rep["moment_discrepancy"] < 1e-5
        assert rep["cost_gap"] < 1e-5
        assert block["passed"] is True

    def test_one_spectral_solve_serves_every_ensemble(self):
        grid = TimeGrid(0.5, 5e-3)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2.0))
        rho = fig1_row(64)
        u = constant_control(grid, [0.3, 1.0])
        traj = integrate_forward(rho, u, model, grid)
        block = meanfield_vs_particles(traj, u, model, [300, 1200], 1e-5)
        reps = list(block["runs"].values())
        assert [r["n_particles"] for r in reps] == [300, 1200]
        assert list(block["runs"]) == ["300", "1200"]
        for rep in reps:
            [alone] = meanfield_vs_particles(traj, u, model, [rep["n_particles"]],
                                             1e-5)["runs"].values()
            assert rep == alone

    def test_the_verdict_reads_the_largest_ensemble_against_the_tolerance(self):
        grid = TimeGrid(0.5, 5e-3)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2.0))
        u = constant_control(grid, [0.3, 1.0])
        traj = integrate_forward(fig1_row(64), u, model, grid)
        block = meanfield_vs_particles(traj, u, model, [1200, 300], 1.0)
        gap = block["runs"]["1200"]["cost_gap"]
        assert block["cost_gap"] == gap and block["cost_tol"] == 1.0 and block["passed"] is True
        discrepancies = [r["moment_discrepancy"] for r in block["runs"].values()]
        assert block["moment_monotone"] is bool(discrepancies[1] <= discrepancies[0])
        assert meanfield_vs_particles(traj, u, model, [1200, 300], 0.5 * gap)["passed"] is False


class TestPairGenerators:
    def test_synthetic_pairs_are_feasible_and_distinct(self):
        grid = TimeGrid(0.5, 5e-3)
        model = kuramoto_model(0.0, np.pi)
        pairs = synthetic_control_pairs(model, grid, 3)
        assert len(pairs) == 3
        for u, ubar in pairs:
            assert not np.array_equal(u.values, ubar.values)
            for row in np.vstack([u.values, ubar.values]):
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
