"""Forward transport solver: coefficient system, RK4 march, diagnostics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfpmp import (
    ControlSignal,
    DivergenceError,
    TimeGrid,
    ball,
    constant_control,
    cost_of_control,
    integrate_backward,
    density_min,
    field_from_harmonics,
    hermitian_defect,
    integrate_forward,
    kuramoto_model,
    rhs_continuity,
    terminal_state,
)
from mfpmp import adjoint, forward
from mfpmp.adjoint import _rk4_backward_step, _source_phases, terminal_adjoint
from mfpmp.forward import _mode_numbers, _rk4_forward_step, _terminal_rows, mass_drift
from mfpmp.descent import switching_function
from mfpmp.presets import fig1_control, fig1_density
from mfpmp.spectral import FourierField, constant_field, grid_points

from conftest import random_hermitian


def literal_coefficient_rhs(a, u, alpha):
    """Hand-coded coefficient system, written with explicit index shifts."""
    half = (len(a) - 1) // 2
    e = np.exp(1j * alpha)
    a1, am1 = a[half + 1], a[half - 1]
    out = np.zeros_like(a)
    for i in range(len(a)):
        n = i - half
        anm1 = a[i - 1] if i - 1 >= 0 else 0.0
        anp1 = a[i + 1] if i + 1 < len(a) else 0.0
        out[i] = (-1j * n * u[0] * a[i]
                  + np.pi * n * u[1] * (a1 * anm1 * e - am1 * anp1 * np.conj(e)))
    return out


class TestContinuityRhs:
    def test_matches_literal_index_formula(self, rng):
        model = kuramoto_model(0.31, np.pi, control_set=ball(4.0))
        for _ in range(5):
            a = random_hermitian(24, rng)
            u = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            got = rhs_continuity(0.0, a, u, model).coeffs
            want = literal_coefficient_rhs(np.array(a.coeffs), u, 0.31)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_mass_mode_is_exactly_static(self, rng):
        model = kuramoto_model(0.0, np.pi)
        a = random_hermitian(16, rng)
        out = rhs_continuity(0.0, a, np.array([0.9, 0.9]), model)
        assert out[0] == 0.0

    def test_rotation_reduces_to_diagonal_system(self, rng):
        model = kuramoto_model(0.0, np.pi, control_set=ball(3.0))
        a = random_hermitian(16, rng)
        c = 1.7
        out = rhs_continuity(0.0, a, np.array([c, 0.0]), model).coeffs
        assert_allclose(out, -1j * _mode_numbers(17) * c * a.coeffs, atol=1e-15)

    def test_initial_growth_rate_of_first_harmonic(self):
        # Near-uniform state with unit coupling: the first harmonic's time
        # derivative equals a_1 / 2 at t = 0 (second harmonic still empty).
        rho = field_from_harmonics(32, {0: 1.0 / (2.0 * np.pi), 1: 0.05 / (2.0 * np.pi)})
        model = kuramoto_model(0.0, np.pi)
        out = rhs_continuity(0.0, rho, np.array([0.0, 1.0]), model)
        assert_allclose(out[1], 0.5 * rho[1], atol=1e-15)


class TestIntegrateForward:
    def test_rotation_closed_form(self):
        rho = fig1_density(64)
        grid = TimeGrid(1.0, 1e-3)
        c = 1.3
        model = kuramoto_model(0.0, np.pi, control_set=ball(2.0))
        traj = integrate_forward(rho, constant_control(grid, [c, 0.0]), model, grid)
        closed = rho.coeffs * np.exp(-1j * _mode_numbers(65) * c)
        assert np.max(np.abs(traj.terminal_field().coeffs - closed)) < 1e-8

    def test_zero_control_keeps_the_state_bitwise(self):
        rho = fig1_density(32)
        grid = TimeGrid(0.5, 5e-3)
        model = kuramoto_model(0.0, np.pi)
        traj = integrate_forward(rho, constant_control(grid, [0.0, 0.0]), model, grid)
        assert np.array_equal(traj.coeffs[0], traj.coeffs[-1])

    def test_short_time_exponential_growth(self):
        # |a_1(t)| follows exp(t/2) to first order while the higher
        # harmonics are still empty.
        rho = field_from_harmonics(64, {0: 1.0 / (2.0 * np.pi), 1: 0.05 / (2.0 * np.pi)})
        grid = TimeGrid(0.1, 1e-3)
        model = kuramoto_model(0.0, np.pi)
        traj = integrate_forward(rho, constant_control(grid, [0.0, 1.0]), model, grid)
        center = 32
        for s in (40, 120, 200):
            t = s * 0.5 * grid.tau
            ratio = abs(traj.coeffs[s, center + 1]) / abs(rho[1])
            assert abs(ratio - np.exp(0.5 * t)) < 1e-4

    def test_mass_coefficient_is_bitwise_constant(self):
        rho = fig1_density(64)
        grid = TimeGrid(2.0, 5e-3)
        model = kuramoto_model(0.0, np.pi)
        u = ControlSignal(grid, np.column_stack([
            np.sqrt(2.0) * np.sin(2 * np.pi * grid.full_times()),
            np.sqrt(2.0) * np.cos(2 * np.pi * grid.full_times()),
        ]))
        traj = integrate_forward(rho, u, model, grid)
        assert mass_drift(traj) == 0.0

    def test_hermitian_symmetry_along_random_steps(self, rng):
        model = kuramoto_model(0.4, np.pi, control_set=ball(3.0))
        dn = -1j * _mode_numbers(33)
        a = np.stack([random_hermitian(32, rng).coeffs for _ in range(5)])
        u = rng.uniform(-1, 1, (5, 2)).astype(complex)  # one control per row
        for _ in range(20):
            a = _rk4_forward_step(a, 1e-3, u, model, dn)
        defect = np.max(np.abs(a - np.conj(a[:, ::-1])))
        assert defect < 1e-12

    def test_rotation_equivariance_of_the_coupled_system(self):
        # Adding a constant drift equals solving without it and rotating
        # the result (zero phase shift makes the coupling frame-invariant).
        rho = fig1_density(64)
        grid = TimeGrid(1.0, 1e-3)
        model = kuramoto_model(0.0, np.pi, control_set=ball(3.0))
        c, u2 = 0.8, 1.1
        with_drift = integrate_forward(rho, constant_control(grid, [c, u2]), model, grid)
        without = integrate_forward(rho, constant_control(grid, [0.0, u2]), model, grid)
        rotated = without.terminal_field().coeffs * np.exp(-1j * _mode_numbers(65) * c)
        assert np.max(np.abs(with_drift.terminal_field().coeffs - rotated)) < 1e-8

    def test_rk4_global_order_on_rotation(self):
        rho = field_from_harmonics(32, {0: 1.0 / (2.0 * np.pi),
                                        1: 0.04 + 0.02j, 4: 0.03 - 0.05j})
        model = kuramoto_model(0.0, np.pi, control_set=ball(3.0))
        c = 2.0
        errs = []
        taus = [4e-3, 2e-3, 1e-3]
        for tau in taus:
            grid = TimeGrid(1.0, tau)
            traj = integrate_forward(rho, constant_control(grid, [c, 0.0]), model, grid)
            closed = rho.coeffs * np.exp(-1j * _mode_numbers(33) * c)
            errs.append(np.max(np.abs(traj.terminal_field().coeffs - closed)))
        order = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert order >= 3.7

    def test_divergence_guard_fires(self):
        rho = fig1_density(64)
        grid = TimeGrid(10.0, 0.1)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2000.0))
        with pytest.raises(DivergenceError, match="reduce the time step"):
            integrate_forward(rho, constant_control(grid, [1500.0, 0.0]), model, grid)

    def test_unnormalized_initial_density_rejected(self):
        bad = constant_field(16, 0.9)
        grid = TimeGrid(0.1, 1e-2)
        model = kuramoto_model(0.0, np.pi)
        with pytest.raises(ValueError, match="normalized"):
            integrate_forward(bad, constant_control(grid, [0.0, 0.0]), model, grid)

    def test_grid_mismatch_rejected(self):
        rho = fig1_density(16)
        model = kuramoto_model(0.0, np.pi)
        u = constant_control(TimeGrid(1.0, 1e-2), [0.0, 0.0])
        with pytest.raises(ValueError, match="grid"):
            integrate_forward(rho, u, model, TimeGrid(2.0, 1e-2))

    def test_lean_and_stored_paths_agree_bitwise(self):
        rho = fig1_density(32)
        grid = TimeGrid(0.3, 3e-3)
        model = kuramoto_model(0.0, np.pi)
        t = grid.full_times()
        u = ControlSignal(grid, np.column_stack([np.sin(t), np.cos(t)]))
        stored = integrate_forward(rho, u, model, grid).terminal_field().coeffs
        lean = terminal_state(rho, u, model, grid).coeffs
        assert np.array_equal(stored, lean)


def ladder_setup(alpha):
    """A descent-like ladder u -> target at theta = 1/2, plus a row with u_2 = -0.0."""
    rho = fig1_density(32)
    grid = TimeGrid(0.3, 3e-3)
    model = kuramoto_model(alpha, np.pi, control_set=ball(2.0))
    t = grid.full_times()
    u = ControlSignal(grid, np.column_stack([np.sin(3 * t), 0.9 * np.cos(t)]))
    target = ControlSignal(grid, np.column_stack([np.cos(t), -np.sin(2 * t)]))
    ladder = [u.toward(target, 0.5 ** j) for j in range(11)]
    ladder.insert(5, ControlSignal(grid, np.column_stack([0.4 + 0.0 * t, np.full_like(t, -0.0)])))
    return rho, grid, model, u, ladder


class TestBatchedMarch:
    @pytest.mark.parametrize("alpha", [0.0, 0.31, 1.7])
    @pytest.mark.parametrize("rows", [None, 5])
    def test_ladder_rows_equal_one_row_marches(self, alpha, rows, monkeypatch):
        if rows is not None:  # march the 12 controls in groups of 5, 5 and 2
            monkeypatch.setattr(forward, "BATCH_COEFFS", rows * 33)
        rho, grid, model, _, ladder = ladder_setup(alpha)
        costs = cost_of_control(rho, ladder, model, grid)
        singles = [terminal_state(rho, trial, model, grid) for trial in ladder]
        want = [model.cost.eval(one) for one in singles]
        assert np.array(costs).tobytes() == np.array(want).tobytes()
        stacked = _terminal_rows(rho, ladder, model, grid)
        assert stacked.tobytes() == np.stack([one.coeffs for one in singles]).tobytes()

    def test_a_diverging_row_raises(self):
        rho = fig1_density(64)
        grid = TimeGrid(10.0, 0.1)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2000.0))
        calm = constant_control(grid, [0.0, 0.0])
        wild = constant_control(grid, [1500.0, 0.0])
        with pytest.raises(DivergenceError, match="reduce the time step"):
            cost_of_control(rho, [calm, wild, calm], model, grid)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_blocked_quarter_steps_match_the_per_step_adjoint(self, rows, monkeypatch):
        monkeypatch.setattr(forward, "BATCH_COEFFS", rows * 33)
        rho, grid, model, u, _ = ladder_setup(0.31)
        traj = integrate_forward(rho, u, model, grid)
        cotraj = integrate_backward(traj, u, model)
        # Reference: one quarter-step state per backward step, as a one-row state.
        h = 0.5 * grid.tau
        dn = -1j * _mode_numbers(33)
        phases = _source_phases(model)
        want = np.empty_like(traj.coeffs)
        b = terminal_adjoint(traj.terminal_field(), model).coeffs
        last = 2 * grid.n_steps
        want[last] = b
        for s in range(last, 0, -1):
            uk = u.values[(s - 1) >> 1]
            a_mid = _rk4_forward_step(traj.coeffs[s - 1:s], 0.5 * h,
                                      uk[None].astype(complex), model, dn)[0]
            b = _rk4_backward_step(b, h, uk, traj.coeffs[s], a_mid, traj.coeffs[s - 1],
                                   model, dn, phases)
            want[s - 1] = b
        assert cotraj.coeffs.tobytes() == want.tobytes()

    def test_one_infeasible_node_is_rejected_by_both_solvers(self):
        rho, grid, model, u, _ = ladder_setup(0.0)
        traj = integrate_forward(rho, u, model, grid)
        values = np.array(u.values)
        values[50] = [2.0, 2.0]
        bad = ControlSignal(grid, values)
        with pytest.raises(ValueError, match="node 50"):
            integrate_forward(rho, bad, model, grid)
        with pytest.raises(ValueError, match="node 50"):
            cost_of_control(rho, [u, bad], model, grid)
        with pytest.raises(ValueError, match="node 50"):
            integrate_backward(traj, bad, model)


def subnormal_parts(coeffs):
    """How many real or imaginary parts lie strictly between 0 and finfo.tiny."""
    parts = np.abs(np.asarray(coeffs).view(float))
    return int(np.count_nonzero((parts > 0) & (parts < np.finfo(float).tiny)))


def fig1_gradient():
    """Forward, adjoint and switching function of the fig1 problem at 512 harmonics, T = 0.5."""
    grid = TimeGrid(0.5, 1e-3)
    model = kuramoto_model(0.0, np.pi, control_set=ball(np.sqrt(2.0)))
    u = fig1_control(grid)
    traj = integrate_forward(fig1_density(512), u, model, grid)
    cotraj = integrate_backward(traj, u, model)
    return model, traj, cotraj, switching_function(traj, cotraj, model)


@pytest.fixture(scope="module")
def flushed_gradient():
    return fig1_gradient()


class TestSubnormalFlush:
    """Parts below finfo.tiny are set to zero after every step of both marches."""

    def test_no_stored_row_has_a_subnormal_part(self, flushed_gradient):
        _, traj, cotraj, _ = flushed_gradient
        assert subnormal_parts(traj.coeffs) == 0
        assert subnormal_parts(cotraj.coeffs) == 0
        assert mass_drift(traj) == 0.0

    def test_flush_matches_the_unflushed_solve(self, flushed_gradient, monkeypatch):
        def bound_only(a, t):
            peak = float(np.max(np.abs(a.view(float))))
            if not peak <= forward.DIVERGENCE_LIMIT:
                raise DivergenceError(f"part {peak} at t = {t}; reduce the time step")

        monkeypatch.setattr(forward, "_settle", bound_only)
        monkeypatch.setattr(adjoint, "_settle", bound_only)
        model, ref_traj, ref_cotraj, ref_d = fig1_gradient()
        # Without the flush, both trajectories carry subnormal parts.
        assert subnormal_parts(ref_traj.coeffs) > 0.01 * 2 * ref_traj.coeffs.size
        assert subnormal_parts(ref_cotraj.coeffs) > 0.001 * 2 * ref_cotraj.coeffs.size

        _, traj, cotraj, d = flushed_gradient
        ref_cost = model.cost.eval(ref_traj.terminal_field())
        assert abs(model.cost.eval(traj.terminal_field()) - ref_cost) <= 1e-12 * abs(ref_cost)
        assert np.max(np.abs(d.values - ref_d.values)) <= 1e-12 * np.max(np.abs(ref_d.values))
        for got, want in ((cotraj.coeffs[0], ref_cotraj.coeffs[0]),
                          (traj.coeffs[-1], ref_traj.coeffs[-1])):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_a_diverging_row_of_a_batched_march_raises(self):
        rho = fig1_density(512)
        grid = TimeGrid(1.0, 0.05)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2000.0))
        assert forward.batch_rows(513) >= 3  # the three controls share one march
        calm = constant_control(grid, [0.0, 0.0])
        wild = constant_control(grid, [0.0, 1500.0])
        with pytest.raises(DivergenceError, match="reduce the time step"):
            cost_of_control(rho, [calm, wild, calm], model, grid)

    def test_a_nan_part_raises_and_mass_is_never_flushed(self):
        a = np.zeros((2, 5), dtype=complex)
        a[:, 2] = 1.0 / (2.0 * np.pi)
        a[0, 0] = complex(1e-310, -1e-320)
        a[1, 4] = complex(3e-308, 2e-308)  # 3e-308 is normal, 2e-308 is not
        forward._settle(a, 0.0)
        assert np.array_equal(a[:, 2], np.full(2, 1.0 / (2.0 * np.pi)))
        assert a[0, 0] == 0 and a[1, 4] == 3e-308
        a[1, 1] = complex(0.0, np.nan)
        with pytest.raises(DivergenceError, match="reduce the time step"):
            forward._settle(a, 0.0)


class TestDensityMin:
    def test_uniform_density(self):
        rho = constant_field(64, 1.0 / (2.0 * np.pi))
        grid = TimeGrid(0.1, 1e-2)
        model = kuramoto_model(0.0, np.pi)
        traj = integrate_forward(rho, constant_control(grid, [0.0, 0.0]), model, grid)
        assert_allclose(density_min(traj), 1.0 / (2.0 * np.pi), atol=1e-14)

    def test_experiment_density_matches_fine_grid_minimum(self):
        rho = fig1_density(256)
        grid = TimeGrid(0.02, 1e-2)
        model = kuramoto_model(0.0, np.pi)
        traj = integrate_forward(rho, constant_control(grid, [0.0, 0.0]), model, grid)
        fine = np.linspace(0.0, 2.0 * np.pi, 2000001)
        target = ((2.0 + np.sin(fine) + 0.8 * np.cos(2 * fine)
                   - 0.2 * np.sin(2 * fine)) / (4.0 * np.pi)).min()
        assert target > 0.0
        # the reported minimum samples the 256-point grid, which misses the
        # exact minimizer by up to half a cell
        assert abs(density_min(traj) - target) < 1e-5

    def test_negative_undershoots_are_reported_not_clipped(self):
        # A hard truncation of a near-delta state rings negative.
        n = 32
        c = {0: 1.0 / (2.0 * np.pi)}
        c.update({k: 1.0 / (2.0 * np.pi) for k in range(1, 17)})
        rho = field_from_harmonics(n, c)
        grid = TimeGrid(0.02, 1e-2)
        model = kuramoto_model(0.0, np.pi)
        traj = integrate_forward(rho, constant_control(grid, [0.0, 0.0]), model, grid)
        assert density_min(traj) < 0.0
