"""Forward transport solver: coefficient system, RK4 march, diagnostics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfpmp import (
    ControlSignal,
    DivergenceError,
    TimeGrid,
    ball,
    box,
    constant_control,
    cost_of_control,
    integrate_backward,
    density_min,
    integrate_forward,
    kuramoto_model,
    rhs_continuity,
)
from mfpmp import adjoint, forward
from mfpmp.adjoint import _rk4_backward_step, _source_phases
from mfpmp.forward import _rk4_forward_step, _terminal_rows, mass_drift
from mfpmp.descent import switching_function
from mfpmp.presets import fig1_control

from conftest import (fig1_row, full_rows, half_row, harmonic, hermitian_defect, mode_numbers,
                      random_hermitian, uniform_field)


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


def full_layout_rhs(a, u, model, dn):
    """The continuity kernel on full-layout rows (rows, N + 1), n = -N/2 .. N/2.

    The reference for the half rows: the arithmetic of
    `forward._continuity_rhs`, with the coupling read at the full layout's
    harmonic +1 and `dn` = -1j * n over the whole range.
    """
    first = a.shape[1] // 2 + 1
    if a.shape[0] == 1:
        v = forward._coupling_value(complex(a[0, first]), float(u[0, 1].real), model)
        vc = v.conjugate()
    else:
        vr, vi = model.coupling(a[:, first])
        v = np.empty((a.shape[0], 1), dtype=complex)
        v.real[:, 0] = u[:, 1].real * vr
        v.imag[:, 0] = u[:, 1].real * vi
        vc = np.conj(v)
    va = np.zeros_like(a)
    va += u[:, :1] * a
    va[:, 1:] += v * a[:, :-1]
    va[:, :-1] += vc * a[:, 1:]
    return dn * va


def full_layout_step(a, h, u, model, dn):
    """One classical RK4 step of full-layout rows."""
    k1 = full_layout_rhs(a, u, model, dn)
    k2 = full_layout_rhs(a + (0.5 * h) * k1, u, model, dn)
    k3 = full_layout_rhs(a + (0.5 * h) * k2, u, model, dn)
    k4 = full_layout_rhs(a + h * k3, u, model, dn)
    return a + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def full_layout_march(rho0, controls, model, grid):
    """Full-layout rows at every half-step node, one row per control: (nodes, rows, N + 1).

    The controls are marched as the rows of one state and settled after
    every step, as the solver does with its half rows.
    """
    h = 0.5 * grid.tau
    full = full_rows(rho0)
    dn = -1j * mode_numbers(full.size)
    u = np.stack([c.values for c in controls], axis=1).astype(complex)
    a = np.array(np.broadcast_to(full, (len(controls), full.size)), order="C")
    forward._settle(a, 0.0)
    nodes = [a]
    for s in range(2 * grid.n_steps):
        a = full_layout_step(a, h, u[s >> 1], model, dn)
        forward._settle(a, (s + 1) * h)
        nodes.append(a)
    return np.stack(nodes)


def n_ge_0_half(full):
    return np.ascontiguousarray(full[..., (full.shape[-1] - 1) // 2:])


class TestContinuityRhs:
    def test_matches_literal_index_formula(self, rng):
        model = kuramoto_model(0.31, np.pi, control_set=ball(4.0))
        for _ in range(5):
            a = random_hermitian(24, rng)
            u = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            got = full_rows(rhs_continuity(0.0, a, u, model))
            want = literal_coefficient_rhs(full_rows(a), u, 0.31)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_mass_mode_is_exactly_static(self, rng):
        model = kuramoto_model(0.0, np.pi)
        a = random_hermitian(16, rng)
        out = rhs_continuity(0.0, a, np.array([0.9, 0.9]), model)
        assert harmonic(out, 0) == 0.0

    def test_rotation_reduces_to_diagonal_system(self, rng):
        model = kuramoto_model(0.0, np.pi, control_set=ball(3.0))
        a = random_hermitian(16, rng)
        c = 1.7
        out = rhs_continuity(0.0, a, np.array([c, 0.0]), model)
        assert_allclose(out, -1j * np.arange(9) * c * a, atol=1e-15)

    def test_initial_growth_rate_of_first_harmonic(self):
        # Near-uniform state with unit coupling: the first harmonic's time
        # derivative equals a_1 / 2 at t = 0 (second harmonic still empty).
        rho = half_row(32, {0: 1.0 / (2.0 * np.pi), 1: 0.05 / (2.0 * np.pi)})
        model = kuramoto_model(0.0, np.pi)
        out = rhs_continuity(0.0, rho, np.array([0.0, 1.0]), model)
        assert_allclose(harmonic(out, 1), 0.5 * harmonic(rho, 1), atol=1e-15)


class TestIntegrateForward:
    def test_rotation_closed_form(self):
        rho = fig1_row(64)
        grid = TimeGrid(1.0, 1e-3)
        c = 1.3
        model = kuramoto_model(0.0, np.pi, control_set=ball(2.0))
        traj = integrate_forward(rho, constant_control(grid, [c, 0.0]), model, grid)
        closed = full_rows(rho) * np.exp(-1j * mode_numbers(65) * c)
        assert np.max(np.abs(full_rows(traj.terminal_field()) - closed)) < 1e-8

    def test_zero_control_keeps_the_state_bitwise(self):
        rho = fig1_row(32)
        grid = TimeGrid(0.5, 5e-3)
        model = kuramoto_model(0.0, np.pi)
        traj = integrate_forward(rho, constant_control(grid, [0.0, 0.0]), model, grid)
        assert np.array_equal(traj.coeffs[0], traj.coeffs[-1])

    def test_short_time_exponential_growth(self):
        # |a_1(t)| follows exp(t/2) to first order while the higher
        # harmonics are still empty.
        rho = half_row(64, {0: 1.0 / (2.0 * np.pi), 1: 0.05 / (2.0 * np.pi)})
        grid = TimeGrid(0.1, 1e-3)
        model = kuramoto_model(0.0, np.pi)
        traj = integrate_forward(rho, constant_control(grid, [0.0, 1.0]), model, grid)
        for s in (40, 120, 200):
            t = s * 0.5 * grid.tau
            ratio = abs(traj.coeffs[s, 1]) / abs(harmonic(rho, 1))
            assert abs(ratio - np.exp(0.5 * t)) < 1e-4

    def test_mass_coefficient_is_bitwise_constant(self):
        rho = fig1_row(64)
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
        full = np.stack([full_rows(random_hermitian(32, rng)) for _ in range(5)])
        a = n_ge_0_half(full)
        u = rng.uniform(-1, 1, (5, 2)).astype(complex)  # one control per row
        dn = -1j * mode_numbers(33)
        for _ in range(20):
            a = _rk4_forward_step(a, 1e-3, u, model, forward._factor(17))
            full = full_layout_step(full, 1e-3, u, model, dn)
        # A full-layout march keeps the symmetry to rounding; the half rows
        # hold it by construction, and they are the n >= 0 half of that march.
        assert np.max(np.abs(full - np.conj(full[:, ::-1]))) < 1e-12
        assert all(hermitian_defect(full_rows(row)) == 0.0 for row in a)
        assert a.tobytes() == n_ge_0_half(full).tobytes()

    def test_rotation_equivariance_of_the_coupled_system(self):
        # Adding a constant drift equals solving without it and rotating
        # the result (zero phase shift makes the coupling frame-invariant).
        rho = fig1_row(64)
        grid = TimeGrid(1.0, 1e-3)
        model = kuramoto_model(0.0, np.pi, control_set=ball(3.0))
        c, u2 = 0.8, 1.1
        with_drift = integrate_forward(rho, constant_control(grid, [c, u2]), model, grid)
        without = integrate_forward(rho, constant_control(grid, [0.0, u2]), model, grid)
        rotated = full_rows(without.terminal_field()) * np.exp(-1j * mode_numbers(65) * c)
        assert np.max(np.abs(full_rows(with_drift.terminal_field()) - rotated)) < 1e-8

    def test_rk4_global_order_on_rotation(self):
        rho = half_row(32, {0: 1.0 / (2.0 * np.pi), 1: 0.04 + 0.02j, 4: 0.03 - 0.05j})
        model = kuramoto_model(0.0, np.pi, control_set=ball(3.0))
        c = 2.0
        errs = []
        taus = [4e-3, 2e-3, 1e-3]
        for tau in taus:
            grid = TimeGrid(1.0, tau)
            traj = integrate_forward(rho, constant_control(grid, [c, 0.0]), model, grid)
            closed = full_rows(rho) * np.exp(-1j * mode_numbers(33) * c)
            errs.append(np.max(np.abs(full_rows(traj.terminal_field()) - closed)))
        order = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert order >= 3.7

    def test_divergence_guard_fires(self):
        rho = fig1_row(64)
        grid = TimeGrid(10.0, 0.1)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2000.0))
        with pytest.raises(DivergenceError, match="reduce the time step"):
            integrate_forward(rho, constant_control(grid, [1500.0, 0.0]), model, grid)

    def test_unnormalized_initial_density_rejected(self):
        bad = uniform_field(16, 0.9)
        grid = TimeGrid(0.1, 1e-2)
        model = kuramoto_model(0.0, np.pi)
        with pytest.raises(ValueError, match="normalized"):
            integrate_forward(bad, constant_control(grid, [0.0, 0.0]), model, grid)

    def test_grid_mismatch_rejected(self):
        rho = fig1_row(16)
        model = kuramoto_model(0.0, np.pi)
        u = constant_control(TimeGrid(1.0, 1e-2), [0.0, 0.0])
        with pytest.raises(ValueError, match="grid"):
            integrate_forward(rho, u, model, TimeGrid(2.0, 1e-2))

    def test_lean_and_stored_paths_agree_bitwise(self):
        rho = fig1_row(32)
        grid = TimeGrid(0.3, 3e-3)
        model = kuramoto_model(0.0, np.pi)
        t = grid.full_times()
        u = ControlSignal(grid, np.column_stack([np.sin(t), np.cos(t)]))
        stored = integrate_forward(rho, u, model, grid).terminal_field()
        terminal, _ = _terminal_rows(rho, [u], model, grid)
        assert terminal[0].tobytes() == stored.tobytes()
        lean_cost, _ = cost_of_control(rho, [u], model, grid)
        assert np.array(lean_cost).tobytes() == np.array([model.cost.eval(stored)]).tobytes()


def ladder_setup(alpha):
    """A descent-like ladder u -> target at theta = 1/2, plus a row with u_2 = -0.0."""
    rho = fig1_row(32)
    grid = TimeGrid(0.3, 3e-3)
    model = kuramoto_model(alpha, np.pi, control_set=ball(2.0))
    t = grid.full_times()
    u = ControlSignal(grid, np.column_stack([np.sin(3 * t), 0.9 * np.cos(t)]))
    target = ControlSignal(grid, np.column_stack([np.cos(t), -np.sin(2 * t)]))
    ladder = [u.toward(target, 0.5 ** j) for j in range(11)]
    ladder.insert(5, ControlSignal(grid, np.column_stack([0.4 + 0.0 * t, np.full_like(t, -0.0)])))
    return rho, grid, model, u, ladder


def march_rows(monkeypatch):
    """The row count of every `forward._march` call from here on."""
    rows = []
    march = forward._march

    def spy(a0, *args, **kwargs):
        rows.append(a0.shape[0])
        return march(a0, *args, **kwargs)

    monkeypatch.setattr(forward, "_march", spy)
    return rows


class TestBatchedMarch:
    @pytest.mark.parametrize("alpha", [0.0, 0.31, 1.7])
    @pytest.mark.parametrize("rows", [None, 5])
    def test_ladder_rows_equal_one_row_marches(self, alpha, rows, monkeypatch):
        if rows is not None:  # S = 5 checkpoints of the 100 steps, not 100
            monkeypatch.setattr(forward, "BATCH_COEFFS", rows * 17)
        rho, grid, model, _, ladder = ladder_setup(alpha)
        costs, _ = cost_of_control(rho, ladder, model, grid)
        singles = [integrate_forward(rho, trial, model, grid).coeffs[-1] for trial in ladder]
        want = [model.cost.eval(one) for one in singles]
        assert np.array(costs).tobytes() == np.array(want).tobytes()
        stacked, _ = _terminal_rows(rho, ladder, model, grid)
        assert stacked.tobytes() == np.stack(singles).tobytes()

    @pytest.mark.parametrize("rows", [None, 1, 5])
    def test_all_controls_march_as_one_state(self, rows, monkeypatch):
        # The row budget bounds only the checkpoints, never the trials.
        if rows is not None:
            monkeypatch.setattr(forward, "BATCH_COEFFS", rows * 17)
        rho, grid, model, _, ladder = ladder_setup(0.31)
        calls = march_rows(monkeypatch)
        cost_of_control(rho, ladder, model, grid)
        assert calls == [12]

    def test_a_cold_solve_marches_one_row(self, monkeypatch):
        rho, grid, model, u, _ = ladder_setup(0.31)
        calls = march_rows(monkeypatch)
        integrate_forward(rho, u, model, grid)
        assert calls == [1]

    def test_a_diverging_row_raises(self):
        rho = fig1_row(64)
        grid = TimeGrid(10.0, 0.1)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2000.0))
        calm = constant_control(grid, [0.0, 0.0])
        wild = constant_control(grid, [1500.0, 0.0])
        with pytest.raises(DivergenceError, match="reduce the time step"):
            cost_of_control(rho, [calm, wild, calm], model, grid)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_blocked_quarter_steps_match_the_per_step_adjoint(self, rows, monkeypatch):
        monkeypatch.setattr(forward, "BATCH_COEFFS", rows * 17)
        rho, grid, model, u, _ = ladder_setup(0.31)
        traj = integrate_forward(rho, u, model, grid)
        cotraj = integrate_backward(traj, u, model)
        # Reference: one quarter-step state per backward step, as a one-row state.
        h = 0.5 * grid.tau
        stencil = adjoint._stencil(17)
        phases = _source_phases(model)
        want = np.empty_like(traj.coeffs)
        b = adjoint.terminal_adjoint(traj.terminal_field(), model)
        last = 2 * grid.n_steps
        want[last] = b
        for s in range(last, 0, -1):
            uk = u.values[(s - 1) >> 1]
            a_mid = _rk4_forward_step(traj.coeffs[s - 1:s], 0.5 * h,
                                      uk[None].astype(complex), model, stencil[0])[0]
            b = _rk4_backward_step(b, h, uk, traj.coeffs[s], a_mid, traj.coeffs[s - 1],
                                   model, stencil, phases)
            want[s - 1] = b
        assert cotraj.coeffs.tobytes() == want[::2].tobytes()

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


def segment_setup(n_modes, T, kind, alpha=0.31):
    """Two descent-like trials on a grid of tau 5e-3, feasible in a ball or a box."""
    grid = TimeGrid(T, 5e-3)
    control_set = ball(2.0) if kind == "ball" else box([-1.0, -1.0], [1.0, 1.0])
    model = kuramoto_model(alpha, np.pi, control_set=control_set)
    t = grid.full_times()
    u = ControlSignal(grid, np.column_stack([np.sin(3 * t), 0.9 * np.cos(t)]))
    target = ControlSignal(grid, np.column_stack([np.cos(t), -np.sin(2 * t)]))
    return fig1_row(n_modes), grid, model, [u.toward(target, lam) for lam in (0.5, 0.125)]


class TestTimeSegments:
    """A stored solve re-marched from a lean march's checkpoints keeps every bit."""

    # The desk width on 300 steps, and the benchmark self-test's grid (100 steps).
    @pytest.mark.parametrize("n_modes, T", [(256, 1.5), (32, 0.5)])
    @pytest.mark.parametrize("rows", [1, 2, 15, 100])
    @pytest.mark.parametrize("kind", ["ball", "box"])
    def test_segmented_solve_equals_the_one_row_march(self, n_modes, T, rows, kind,
                                                      monkeypatch):
        rho, grid, model, trials = segment_setup(n_modes, T, kind)
        monkeypatch.setattr(forward, "BATCH_COEFFS", rows * len(rho))
        n_seg = forward.segment_count(grid.n_steps, len(rho))
        assert n_seg == (10 if (rows, grid.n_steps) == (15, 100) else rows)
        _, starts = cost_of_control(rho, trials, model, grid)
        for trial, mark in zip(trials, starts):
            assert mark.states.shape == (n_seg, len(rho))
            assert forward._resumable(mark, rho, trial)
            one_row = integrate_forward(rho, trial, model, grid)
            segmented = integrate_forward(rho, trial, model, grid, mark)
            assert segmented.coeffs.tobytes() == one_row.coeffs.tobytes()

    def test_checkpoints_are_the_stored_rows_at_their_nodes(self):
        rho, grid, model, trials = segment_setup(256, 1.5, "ball")
        assert forward.segment_count(grid.n_steps, len(rho)) == 15
        _, starts = cost_of_control(rho, trials, model, grid)
        nodes = 2 * (grid.n_steps // 15) * np.arange(15)
        for trial, mark in zip(trials, starts):
            traj = integrate_forward(rho, trial, model, grid)
            assert mark.states.tobytes() == traj.coeffs[nodes].tobytes()
            assert mark.controls is trial.values

    def test_checkpoints_of_another_control_or_density_are_ignored(self, monkeypatch):
        rho, grid, model, (trial, _) = segment_setup(256, 1.5, "ball")
        _, (mark,) = cost_of_control(rho, [trial], model, grid)
        values = np.array(trial.values)
        values[37, 1] = np.nextafter(values[37, 1], np.inf)
        near = ControlSignal(grid, values)
        assert not forward._resumable(mark, rho, near)
        assert not forward._resumable(mark, half_row(256, {0: 1.0 / (2.0 * np.pi)}), trial)
        rows = march_rows(monkeypatch)
        got = integrate_forward(rho, near, model, grid, mark)
        assert rows == [1]  # the one-row march from rho0
        assert got.coeffs.tobytes() == integrate_forward(rho, near, model, grid).coeffs.tobytes()

    def test_a_diverging_segment_reports_its_absolute_time(self):
        rho, grid, model, (trial, _) = segment_setup(256, 1.5, "ball")
        _, (mark,) = cost_of_control(rho, [trial], model, grid)
        states = np.array(mark.states)
        states[[4, 9], 2] = 2e6  # above the guard; segment 4 starts at k = 80, t = 0.4
        bad = forward.Checkpoints(grid, mark.controls, states)
        with pytest.raises(DivergenceError, match=r"at t = 0\.4 exceeds"):
            integrate_forward(rho, trial, model, grid, bad)


class TestHalfRowMarch:
    """The half rows march with the bits of the n >= 0 half of full-layout marches."""

    @staticmethod
    def density(kind, rng):
        return fig1_row(32) if kind == "fig1" else random_hermitian(32, rng, scale=0.03)

    @pytest.mark.parametrize("alpha", [0.0, 0.31, 1.7])
    @pytest.mark.parametrize("kind", ["fig1", "random"])
    def test_stored_march(self, alpha, kind, rng):
        _, grid, model, u, _ = ladder_setup(alpha)
        rho = self.density(kind, rng)
        traj = integrate_forward(rho, u, model, grid)
        want = full_layout_march(rho, [u], model, grid)[:, 0]
        assert traj.coeffs.tobytes() == n_ge_0_half(want).tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.31, 1.7])
    @pytest.mark.parametrize("kind", ["fig1", "random"])
    def test_lean_and_batched_marches(self, alpha, kind, rng):
        _, grid, model, _, ladder = ladder_setup(alpha)
        rho = self.density(kind, rng)
        batched, _ = _terminal_rows(rho, ladder, model, grid)  # the 12 controls in one march
        assert batched.tobytes() == n_ge_0_half(full_layout_march(rho, ladder, model, grid)[-1]).tobytes()
        for trial in ladder[:4]:
            lean = _terminal_rows(rho, [trial], model, grid)[0][0]
            want = full_layout_march(rho, [trial], model, grid)[-1, 0]
            assert lean.tobytes() == n_ge_0_half(want).tobytes()


def subnormal_parts(coeffs):
    """How many real or imaginary parts lie strictly between 0 and finfo.tiny."""
    parts = np.abs(np.asarray(coeffs).view(float))
    return int(np.count_nonzero((parts > 0) & (parts < np.finfo(float).tiny)))


def fig1_gradient():
    """Forward, adjoint and switching function of the fig1 problem at 512 harmonics, T = 0.5."""
    grid = TimeGrid(0.5, 1e-3)
    model = kuramoto_model(0.0, np.pi, control_set=ball(np.sqrt(2.0)))
    u = fig1_control(grid)
    traj = integrate_forward(fig1_row(512), u, model, grid)
    cotraj = integrate_backward(traj, u, model)
    return model, traj, cotraj, switching_function(traj, cotraj, model)


@pytest.fixture(scope="module")
def flushed_gradient():
    return fig1_gradient()


@pytest.fixture(scope="module")
def settled_per_step_adjoint(flushed_gradient):
    """The fig1 co-density at every full node from a literal backward march.

    One quarter-step state per backward step, as a one-row state; the
    terminal row and every step are settled, as the solver does.
    """
    model, traj, _, _ = flushed_gradient
    grid = traj.grid
    u = fig1_control(grid)
    h = 0.5 * grid.tau
    stencil = adjoint._stencil(traj.coeffs.shape[1])
    phases = _source_phases(model)
    b = adjoint.terminal_adjoint(traj.terminal_field(), model)
    forward._settle(b, grid.T)
    nodes = [b]
    for s in range(2 * grid.n_steps, 0, -1):
        uk = u.values[(s - 1) >> 1]
        a_mid = _rk4_forward_step(traj.coeffs[s - 1:s], 0.5 * h,
                                  uk[None].astype(complex), model, stencil[0])[0]
        b = _rk4_backward_step(b, h, uk, traj.coeffs[s], a_mid, traj.coeffs[s - 1],
                               model, stencil, phases)
        forward._settle(b, (s - 1) * h)
        if s % 2 == 1:
            nodes.append(b)
    return np.stack(nodes[::-1])


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

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_full_nodes_match_a_literal_settled_march(self, rows, flushed_gradient,
                                                      settled_per_step_adjoint, monkeypatch):
        # The settle matters at this width: unflushed, the co-density carries
        # subnormal parts (see the test above).
        monkeypatch.setattr(forward, "BATCH_COEFFS", rows * 257)
        model, traj, _, _ = flushed_gradient
        cotraj = integrate_backward(traj, fig1_control(traj.grid), model)
        assert cotraj.coeffs.shape == (traj.grid.n_steps + 1, 257)
        assert cotraj.coeffs.tobytes() == settled_per_step_adjoint.tobytes()

    def test_a_diverging_row_of_a_batched_march_raises(self):
        rho = fig1_row(512)
        grid = TimeGrid(1.0, 0.05)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2000.0))
        calm = constant_control(grid, [0.0, 0.0])
        wild = constant_control(grid, [0.0, 1500.0])
        with pytest.raises(DivergenceError, match="reduce the time step"):
            cost_of_control(rho, [calm, wild, calm], model, grid)

    def test_a_nan_part_raises_and_mass_is_never_flushed(self):
        a = np.zeros((2, 3), dtype=complex)  # two half rows, n = 0 .. 2
        a[:, 0] = 1.0 / (2.0 * np.pi)
        a[0, 1] = complex(1e-310, -1e-320)
        a[1, 2] = complex(3e-308, 2e-308)  # 3e-308 is normal, 2e-308 is not
        forward._settle(a, 0.0)
        assert np.array_equal(a[:, 0], np.full(2, 1.0 / (2.0 * np.pi)))
        assert a[0, 1] == 0 and a[1, 2] == 3e-308
        a[1, 1] = complex(0.0, np.nan)
        with pytest.raises(DivergenceError, match="reduce the time step"):
            forward._settle(a, 0.0)


class TestDensityMin:
    def test_uniform_density(self):
        rho = uniform_field(64)
        grid = TimeGrid(0.1, 1e-2)
        model = kuramoto_model(0.0, np.pi)
        traj = integrate_forward(rho, constant_control(grid, [0.0, 0.0]), model, grid)
        assert_allclose(density_min(traj), 1.0 / (2.0 * np.pi), atol=1e-14)

    def test_experiment_density_matches_fine_grid_minimum(self):
        rho = fig1_row(256)
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
        rho = half_row(n, c)
        grid = TimeGrid(0.02, 1e-2)
        model = kuramoto_model(0.0, np.pi)
        traj = integrate_forward(rho, constant_control(grid, [0.0, 0.0]), model, grid)
        assert density_min(traj) < 0.0
