"""Forward transport solver: coefficient system, RK4 march, diagnostics."""

import tracemalloc

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
from mfpmp.forward import _terminal_rows, mass_drift
from mfpmp.descent import switching_function
from mfpmp.presets import fig1_control

from conftest import (dense, fig1_row, full_rows, full_width_adjoint, half_row,
                      harmonic, hermitian_defect, mode_numbers, pack, poisoned_workspace,
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
        v, vc = forward._coupling(a[0, first - 1:], u[:, 1:].real, model)
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
    """Full-layout rows at every sub-step node, one row per control: (nodes, rows, N + 1).

    The controls are marched as the rows of one state, m = `forward.SUBSTEPS`
    RK4 steps of tau/m per control step, and settled after every step, as
    the solver does with its half rows.
    """
    m = forward.SUBSTEPS
    h = grid.tau / m
    full = full_rows(rho0)
    dn = -1j * mode_numbers(full.size)
    u = np.stack([c.values for c in controls], axis=1).astype(complex)
    a = np.array(np.broadcast_to(full, (len(controls), full.size)), order="C")
    settle(a, 0.0)
    nodes = [a]
    for s in range(m * grid.n_steps):
        a = full_layout_step(a, h, u[s // m], model, dn)
        settle(a, (s + 1) * h)
        nodes.append(a)
    return np.stack(nodes)


def settle(a, t):
    """`forward._settle` of the C-ordered state a, of any shape, through a workspace of its size."""
    forward._settle(a.reshape(-1), t, forward.Workspace.of(a.size))


def continuity_rhs(work, drive, model, dn):
    """The `rhs` of `Workspace.step` for the continuity kernel, with the shift products in `work`."""
    return lambda x, i, k: forward._continuity_rhs(x, drive, model, dn, k, work.prod)


def flat_step(a, h, drive, model, dn):
    """One RK4 step of the flat state a through a workspace of its own, into a new array."""
    work = forward.Workspace.of(a.size)
    return work.step(a, h, continuity_rhs(work, drive, model, dn), np.empty_like(a))


def one_row_step(a, h, u, model):
    """One RK4 step of the half row a under the complex control u (2,), as a one-row state."""
    return flat_step(a, h, forward._drive(u[None], len(a)), model, forward._factor(len(a)))


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
        assert np.array_equal(traj.rows(0, 1)[0], traj.terminal_field())

    def test_short_time_exponential_growth(self):
        # |a_1(t)| follows exp(t/2) to first order while the higher
        # harmonics are still empty.
        rho = half_row(64, {0: 1.0 / (2.0 * np.pi), 1: 0.05 / (2.0 * np.pi)})
        grid = TimeGrid(0.1, 1e-3)
        model = kuramoto_model(0.0, np.pi)
        traj = integrate_forward(rho, constant_control(grid, [0.0, 1.0]), model, grid)
        for s in (40, 120, 200):
            t = s * grid.tau / traj.substeps
            ratio = abs(traj.column(1)[s]) / abs(harmonic(rho, 1))
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
        flat, drive = a.reshape(-1), forward._drive(u, 17)
        for _ in range(20):
            flat = flat_step(flat, 1e-3, drive, model, np.tile(forward._factor(17), 5))
            full = full_layout_step(full, 1e-3, u, model, dn)
        a = flat.reshape(5, 17)
        # A full-layout march keeps the symmetry to rounding; the half rows
        # hold it by construction, and they are the n >= 0 half of that march.
        assert np.max(np.abs(full - np.conj(full[:, ::-1]))) < 1e-12
        assert all(hermitian_defect(full_rows(row)) == 0.0 for row in a)
        assert a.tobytes() == n_ge_0_half(full).tobytes()

    def test_rotation_equivariance_of_the_coupled_system(self):
        # Adding a constant drift equals solving without it and rotating
        # the result, at any alpha: the coupling's phase e^{i*alpha}
        # multiplies a_1, which rotates with the state.
        rho = fig1_row(64)
        grid = TimeGrid(1.0, 1e-3)
        c, u2 = 0.8, 1.1
        for alpha in (0.0, 1.7):
            model = kuramoto_model(alpha, np.pi, control_set=ball(3.0))
            with_drift = integrate_forward(rho, constant_control(grid, [c, u2]), model, grid)
            without = integrate_forward(rho, constant_control(grid, [0.0, u2]), model, grid)
            rotated = full_rows(without.terminal_field()) * np.exp(-1j * mode_numbers(65) * c)
            assert np.max(np.abs(full_rows(with_drift.terminal_field()) - rotated)) < 1e-8

    @pytest.mark.parametrize("alpha", [0.0, 1.7])
    def test_the_drift_reaches_the_state_only_through_its_integral(self, alpha):
        # In the frame turning with theta(t) = integral of u_1 the system is
        # the u_1 = 0 one, so the terminal state sees u_1 only through
        # theta(T).  Reversing u_1 in time or flattening it to its mean keeps
        # theta(T); shifting it does not.  The value at node K never drives.
        grid = TimeGrid(6.0, 5e-3)
        model = kuramoto_model(alpha, np.pi, control_set=ball(np.sqrt(2.0)))
        u, K = 0.5 * fig1_control(grid).values, grid.n_steps  # the fig1 control at half radius
        reversed_, flat, shifted = u.copy(), u.copy(), u.copy()
        reversed_[:K, 0] = u[K - 1::-1, 0]
        flat[:K, 0] = u[:K, 0].mean()
        shifted[:, 0] += 0.1
        controls = [ControlSignal(grid, v) for v in (u, reversed_, flat, shifted)]
        rho = fig1_row(256)
        costs, _ = cost_of_control(rho, controls, model, grid)
        terminal, _ = _terminal_rows(rho, controls, model, grid)
        assert_allclose(costs[1:3], costs[0], rtol=0.0, atol=1e-12)
        assert np.max(np.abs(terminal[1:3] - terminal[0])) <= 1e-12
        assert abs(costs[3] - costs[0]) > 0.1

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
        singles = [integrate_forward(rho, trial, model, grid).terminal_field() for trial in ladder]
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

    def test_each_control_owns_its_checkpoints(self):
        # A view of the march's (S, rows, width) records would keep every
        # row's checkpoints alive for as long as any one control's are.
        rho, grid, model, _, ladder = ladder_setup(0.31)
        _, starts = cost_of_control(rho, ladder, model, grid)
        for i, mark in enumerate(starts):
            assert mark.states.flags.c_contiguous and mark.states.flags.owndata
            assert not any(np.shares_memory(mark.states, other.states) for other in starts[:i])

    def test_a_diverging_row_raises(self):
        rho = fig1_row(64)
        grid = TimeGrid(10.0, 0.1)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2000.0))
        calm = constant_control(grid, [0.0, 0.0])
        wild = constant_control(grid, [1500.0, 0.0])
        with pytest.raises(DivergenceError, match="reduce the time step"):
            cost_of_control(rho, [calm, wild, calm], model, grid)

    @pytest.mark.parametrize("rows", [1, 7, 64, 256])  # 256 rows: one block of 2K = 200
    def test_blocked_quarter_steps_match_the_per_step_adjoint(self, rows, monkeypatch):
        monkeypatch.setattr(forward, "BATCH_COEFFS", rows * 17)
        monkeypatch.setattr(adjoint, "_BLOCK_ROWS", rows)
        rho, grid, model, u, _ = ladder_setup(0.31)
        traj = integrate_forward(rho, u, model, grid)
        cotraj = integrate_backward(traj, u, model, keep=grid.full_times())
        want = full_width_adjoint(dense(traj), u.values[:-1], grid, model)
        assert cotraj.coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [1, 7, 64, 256])
    def test_the_thin_co_trajectory_matches_the_per_step_adjoint(self, rows, monkeypatch):
        # b_0, b_1, max_n |b_n| and |b_{N/2}| at every full node, and the kept
        # rows, are those of the literal march and of a solve keeping every row.
        monkeypatch.setattr(forward, "BATCH_COEFFS", rows * 17)
        monkeypatch.setattr(adjoint, "_BLOCK_ROWS", rows)
        rho, grid, model, u, _ = ladder_setup(0.31)
        traj = integrate_forward(rho, u, model, grid)
        want = full_width_adjoint(dense(traj), u.values[:-1], grid, model)
        every = integrate_backward(traj, u, model, keep=grid.full_times())
        thin = integrate_backward(traj, u, model, keep=[0.15])
        assert thin.nodes == (0, 50) and thin.coeffs.tobytes() == want[[0, 50]].tobytes()
        for got in (thin, every):
            assert got.head.tobytes() == np.ascontiguousarray(want[:, :2]).tobytes()
            assert got.scale.tobytes() == np.abs(want).max(axis=1).tobytes()
            assert got.tail.tobytes() == np.abs(want[:, -1]).tobytes()

    def test_the_march_holds_no_co_density_array(self):
        # On the desk grid the solve's own allocations, workspaces and
        # quarter-step block included, stay below one (K + 1) x W array.
        grid = TimeGrid(6.0, 5e-3)
        model = kuramoto_model(0.0, np.pi)
        u = fig1_control(grid)
        traj = integrate_forward(fig1_row(256), u, model, grid)
        tracemalloc.start()
        try:
            integrate_backward(traj, u, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (grid.n_steps + 1) * 129 * 16

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


def distinct_rows(rows, width, rng):
    """Normalized half rows with random harmonics up to the last; row 0 ends near 1e3.

    A large last harmonic is what the next row's n = 0 entry would read
    across the seam of the flat state.
    """
    a = (rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width))) * 0.02
    a[:, 0] = 1.0 / (2.0 * np.pi)
    a[0, -1] = complex(600.0, -800.0)
    return a


def recorder(marks):
    """A `forward._march` record keeping the states of the nodes i < len(marks) in marks[i].

    Every state comes with its flush mask, True exactly at its zero parts.
    """
    def record(i, a, flushed):
        assert flushed.tobytes() == (a.view(float) == 0.0).tobytes()
        if i < len(marks):
            marks[i] = a
    return record


class TestFlatSeams:
    """Several rows march as one flat array; no row reads another across a seam."""

    @pytest.mark.parametrize("alpha", [0.0, 0.31, 1.7])
    @pytest.mark.parametrize("rows", [2, 8, 15])
    def test_distinct_rows_equal_their_one_row_marches(self, alpha, rows, rng):
        width, grid = 17, TimeGrid(5e-3, 5e-3)  # `_march` reads only tau and m of its grid
        model = kuramoto_model(alpha, np.pi, control_set=ball(2.0))
        a0 = distinct_rows(rows, width, rng)
        u = rng.uniform(-1.0, 1.0, (20, rows, 2))
        u[:, rows // 2, 1] = -0.0
        marks = np.empty((5, rows, width), dtype=complex)  # sub-step nodes 0, 8, .., 32
        end = forward._march(a0, u, grid, model, recorder(marks), every=8)
        assert np.abs(end[0]).max() > 100.0  # the large harmonic survives the march
        for r in range(rows):
            one = np.empty((5, 1, width), dtype=complex)
            want = forward._march(a0[r:r + 1], u[:, r:r + 1], grid, model, recorder(one), every=8)
            assert end[r].tobytes() == want[0].tobytes()
            assert marks[:, r].tobytes() == one[:, 0].tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.31, 1.7])
    def test_multi_row_coupling_equals_the_one_row_value(self, alpha, rng):
        model = kuramoto_model(alpha, np.pi)
        width = 5
        a = distinct_rows(6, width, rng)
        a[:4, 1] = [complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, 0.03),
                    complex(0.02, -0.0)]
        u2 = np.array([[0.7], [-0.0], [-1.3], [-0.0], [0.0], [0.4]])
        v, vc = forward._coupling(a.reshape(-1), u2, model)
        for r in range(6):
            want, _ = forward._coupling(a[r], u2[r:r + 1], model)
            assert v[r * width:(r + 1) * width].tobytes() == np.full(width, want).tobytes()
            # conj(v) is zero at the row's n = 0 entry: its last entry reads nothing
            # from the next row.
            want_c = np.full(width, want.conjugate())
            want_c[0] = 0.0
            assert vc[r * width:(r + 1) * width].tobytes() == want_c.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("width", [3, 9])
    def test_a_non_finite_row_fails_its_own_step(self, bad, width, rng):
        # NaN may cross a seam or two within the step, never further, and the
        # step fails the bound on the bad row itself: the march raises anyway.
        h = 1e-3
        model = kuramoto_model(0.31, np.pi, control_set=ball(2.0))
        a = distinct_rows(7, width, rng)
        a[3, [0, -1]] = bad  # both seams of row 3
        u = rng.uniform(-1.0, 1.0, (7, 2)).astype(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            step = flat_step(a.reshape(-1), h, forward._drive(u, width), model,
                             np.tile(forward._factor(width), 7)).reshape(7, width)
            for r in (0, 6):
                assert step[r].tobytes() == one_row_step(a[r], h, u[r], model).tobytes()
            assert not np.isfinite(one_row_step(a[3], h, u[3], model)).all()
        with pytest.raises(DivergenceError, match="reduce the time step"):
            settle(step, h)

    def test_an_overflowing_row_between_healthy_rows_raises(self):
        # u_2 = 1e150 overflows row 3 to inf inside its first step.
        rho = fig1_row(32)
        grid = TimeGrid(0.3, 3e-3)
        model = kuramoto_model(0.31, np.pi, control_set=ball(1e151))
        calm = constant_control(grid, [0.3, 0.5])
        wild = constant_control(grid, [0.0, 1e150])
        with pytest.raises(DivergenceError, match="at t = 0.0015 exceeds"):
            cost_of_control(rho, [calm, calm, calm, wild, calm, calm, calm, calm], model, grid)


def fresh_forward_step(a, h, drive, model, dn):
    """The RK4 step of the flat state a with a fresh temporary for every operation."""
    u1, u2 = drive

    def rhs(x):
        v, vc = forward._coupling(x, u2, model)
        va = u1 * x
        shifted = v * x
        va[1:] += shifted[:-1]
        shifted = vc * x
        va[:-1] += shifted[1:]
        va *= dn
        return va

    k1 = rhs(a)
    k2 = rhs(a + (0.5 * h) * k1)
    k3 = rhs(a + (0.5 * h) * k2)
    k4 = rhs(a + h * k3)
    return a + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


class TestWorkspace:
    """A step through the buffers of one workspace has the bits of fresh temporaries."""

    @pytest.mark.parametrize("alpha", [0.0, 0.31, 1.7])
    @pytest.mark.parametrize("rows", [1, 8])
    @pytest.mark.parametrize("width", [17, 1025])
    def test_buffered_step_equals_fresh_temporaries(self, alpha, rows, width, rng):
        h = 2.5e-3
        model = kuramoto_model(alpha, np.pi, control_set=ball(2.0))
        a = distinct_rows(rows, width, rng).reshape(-1)
        u = rng.uniform(-1.0, 1.0, (rows, 2)).astype(complex)
        drive, dn = forward._drive(u, width), np.tile(forward._factor(width), rows)
        want = fresh_forward_step(a, h, drive, model, dn)
        work = poisoned_workspace(a.size)
        got = work.step(a, h, continuity_rhs(work, drive, model, dn), np.full_like(a, np.nan))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [1, 8])
    def test_two_steps_through_one_workspace(self, rows, rng):
        # The second step reads another state under other controls: a stage
        # left over from the first would show in its bits.
        width, h = 1025, 2.5e-3
        model = kuramoto_model(0.31, np.pi, control_set=ball(2.0))
        a = distinct_rows(rows, width, rng).reshape(-1)
        before = a.copy()
        drives = [forward._drive(rng.uniform(-1.0, 1.0, (rows, 2)).astype(complex), width)
                  for _ in range(2)]
        dn = np.tile(forward._factor(width), rows)
        work, spare = poisoned_workspace(a.size), np.full_like(a, np.nan)
        first = work.step(a, h, continuity_rhs(work, drives[0], model, dn), spare)
        assert first is spare and a.tobytes() == before.tobytes()
        want = fresh_forward_step(fresh_forward_step(before, h, drives[0], model, dn), h,
                                  drives[1], model, dn)
        second = work.step(first, h, continuity_rhs(work, drives[1], model, dn), a)  # back into a
        assert second is a and second.tobytes() == want.tobytes()
        assert first.tobytes() == fresh_forward_step(before, h, drives[0], model, dn).tobytes()

    def test_settle_through_the_workspace_equals_a_fresh_settle(self):
        a = np.zeros((2, 3), dtype=complex)
        a[:, 0] = 1.0 / (2.0 * np.pi)
        a[0, 1] = complex(1e-200, -1e-320)
        a[1, 2] = complex(2e-154, 1e-154)  # either side of the bound 2^-511 = 1.49e-154
        fresh, flat = a.copy(), a.reshape(-1).copy()
        parts = fresh.view(float)
        parts[np.abs(parts) < 2.0 ** -511] = 0.0
        forward._settle(flat, 0.0, poisoned_workspace(flat.size))
        assert flat.tobytes() == fresh.tobytes()


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
            assert forward._resumable(mark, rho, trial, model)
            one_row = integrate_forward(rho, trial, model, grid)
            segmented = integrate_forward(rho, trial, model, grid, mark)
            assert dense(segmented).tobytes() == dense(one_row).tobytes()

    def test_checkpoints_are_the_stored_rows_at_their_nodes(self):
        rho, grid, model, trials = segment_setup(256, 1.5, "ball")
        assert forward.segment_count(grid.n_steps, len(rho)) == 60
        _, starts = cost_of_control(rho, trials, model, grid)
        nodes = 2 * (grid.n_steps // 60) * np.arange(60)
        for trial, mark in zip(trials, starts):
            traj = integrate_forward(rho, trial, model, grid)
            assert mark.states.tobytes() == dense(traj)[nodes].tobytes()
            assert mark.u is trial

    def test_checkpoints_of_another_control_or_density_are_ignored(self, monkeypatch):
        rho, grid, model, (trial, _) = segment_setup(256, 1.5, "ball")
        _, (mark,) = cost_of_control(rho, [trial], model, grid)
        values = np.array(trial.values)
        values[37, 1] = np.nextafter(values[37, 1], np.inf)
        near = ControlSignal(grid, values)
        assert not forward._resumable(mark, rho, near, model)
        assert not forward._resumable(mark, half_row(256, {0: 1.0 / (2.0 * np.pi)}), trial,
                                      model)
        rows = march_rows(monkeypatch)
        got = integrate_forward(rho, near, model, grid, mark)
        assert rows == [1]  # the one-row march from rho0
        assert dense(got).tobytes() == dense(integrate_forward(rho, near, model, grid)).tobytes()

    def test_checkpoints_of_an_equal_control_object_are_ignored(self, monkeypatch):
        # Checkpoints resume only the object they marched: an equal control
        # built again, bit for bit, takes the one-row march from rho0.
        rho, grid, model, (trial, _) = segment_setup(256, 1.5, "ball")
        _, (mark,) = cost_of_control(rho, [trial], model, grid)
        twin = ControlSignal(grid, trial.values)
        assert twin is not trial and twin.values.tobytes() == trial.values.tobytes()
        assert forward._resumable(mark, rho, trial, model)
        assert not forward._resumable(mark, rho, twin, model)
        rows = march_rows(monkeypatch)
        got = integrate_forward(rho, twin, model, grid, mark)
        assert rows == [1]
        want = integrate_forward(rho, trial, model, grid, mark)
        assert dense(got).tobytes() == dense(want).tobytes()

    def test_checkpoints_of_another_model_are_ignored(self):
        # The same density and control under another coupling phase: resuming
        # from the first model's states would carry them into the second's
        # trajectory (4e-3 off in the coefficients, cost 0.9066 for 0.8951).
        # An equal model built again, box and all, may resume.
        grid = TimeGrid(0.6, 5e-3)
        rho, u = fig1_row(32), fig1_control(grid)
        model_of = lambda alpha: kuramoto_model(alpha, np.pi, box([-2, -2], [2, 2]))  # noqa: E731
        _, (mark,) = cost_of_control(rho, [u], model_of(0.0), grid)
        assert forward._resumable(mark, rho, u, model_of(0.0))
        assert not forward._resumable(mark, rho, u, model_of(1.0))
        got = integrate_forward(rho, u, model_of(1.0), grid, mark)
        want = integrate_forward(rho, u, model_of(1.0), grid)
        assert dense(got).tobytes() == dense(want).tobytes()


class TestPackedStorage:
    """A stored solve keeps each step's rows only up to the last harmonic any of them keeps."""

    @staticmethod
    def wide_solve():
        """The fig1 problem at 2048 harmonics on T = 0.5, tau 1e-3: 1001 half rows of 1025."""
        grid = TimeGrid(0.5, 1e-3)
        model = kuramoto_model(0.0, np.pi, control_set=ball(np.sqrt(2.0)))
        return fig1_row(2048), grid, model, fig1_control(grid)

    def test_most_of_a_cold_wide_solve_is_never_stored(self):
        rho, grid, model, u = self.wide_solve()
        traj = integrate_forward(rho, u, model, grid)
        assert traj.coeffs.size <= 0.3 * 1001 * 1025
        # A cold solve marches one row, so each row is cut right after its last nonzero.
        assert traj.index[:, 1].tolist() == pack(grid, dense(traj)).index[:, 1].tolist()

    def test_resumed_and_cold_solves_read_the_same_rows(self):
        rho, grid, model, u = self.wide_solve()
        _, (mark,) = cost_of_control(rho, [u], model, grid)
        assert mark.states.shape == (5, 1025)  # 500 steps: S = 5 segments of at most 8
        cold = integrate_forward(rho, u, model, grid)
        resumed = integrate_forward(rho, u, model, grid, mark)
        assert dense(resumed).tobytes() == dense(cold).tobytes()
        # Each step's rectangle is as wide as the widest of its five rows; T is cut alone.
        lengths = resumed.index[:-1, 1].reshape(5, -1)
        assert (lengths == cold.index[:-1, 1].reshape(5, -1).max(axis=0)).all()
        assert resumed.index[-1, 1] == cold.index[-1, 1]
        assert cold.coeffs.size < resumed.coeffs.size < 0.3 * 1001 * 1025


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
        assert dense(traj).tobytes() == n_ge_0_half(want).tobytes()

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
    cotraj = integrate_backward(traj, u, model, keep=grid.full_times())
    return model, traj, cotraj, switching_function(traj, cotraj, model)


@pytest.fixture(scope="module")
def flushed_gradient():
    return fig1_gradient()


@pytest.fixture(scope="module")
def settled_per_step_adjoint(flushed_gradient):
    """The fig1 co-density at every full node from a literal backward march.

    One quarter-step state per backward step, as a one-row state; the
    terminal row and every step are settled, as the solver does
    (`conftest.full_width_adjoint`).
    """
    model, traj, _, _ = flushed_gradient
    grid = traj.grid
    return full_width_adjoint(dense(traj), fig1_control(grid).values[:-1], grid, model)


class TestSubnormalFlush:
    """Parts below 2^-511 are set to zero after every step of both marches."""

    def test_no_stored_row_has_a_subnormal_part(self, flushed_gradient):
        _, traj, cotraj, _ = flushed_gradient
        assert subnormal_parts(dense(traj)) == 0
        assert subnormal_parts(cotraj.coeffs) == 0
        assert mass_drift(traj) == 0.0

    def test_flush_matches_the_unflushed_solve(self, flushed_gradient, monkeypatch):
        def bound_only(a, t, work):
            peak = float(np.max(np.abs(a.view(float))))
            if not peak <= forward.DIVERGENCE_LIMIT:
                raise DivergenceError(f"part {peak} at t = {t}; reduce the time step")
            work.mask.fill(False)  # no part flushed: a stored solve keeps every harmonic

        monkeypatch.setattr(forward, "_settle", bound_only)
        monkeypatch.setattr(adjoint, "_settle", bound_only)
        model, ref_traj, ref_cotraj, ref_d = fig1_gradient()
        # Without the flush, both trajectories carry subnormal parts.
        assert subnormal_parts(dense(ref_traj)) > 0.01 * 2 * dense(ref_traj).size
        assert subnormal_parts(ref_cotraj.coeffs) > 0.001 * 2 * ref_cotraj.coeffs.size

        _, traj, cotraj, d = flushed_gradient
        ref_cost = model.cost.eval(ref_traj.terminal_field())
        assert abs(model.cost.eval(traj.terminal_field()) - ref_cost) <= 1e-12 * abs(ref_cost)
        assert np.max(np.abs(d.values - ref_d.values)) <= 1e-12 * np.max(np.abs(ref_d.values))
        for got, want in ((cotraj.coeffs[0], ref_cotraj.coeffs[0]),
                          (traj.terminal_field(), ref_traj.terminal_field())):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_full_nodes_match_a_literal_settled_march(self, rows, flushed_gradient,
                                                      settled_per_step_adjoint, monkeypatch):
        # The settle matters at this width: unflushed, the co-density carries
        # subnormal parts (see the test above).
        monkeypatch.setattr(forward, "BATCH_COEFFS", rows * 257)
        model, traj, _, _ = flushed_gradient
        cotraj = integrate_backward(traj, fig1_control(traj.grid), model,
                                    keep=traj.grid.full_times())
        assert cotraj.coeffs.shape == (traj.grid.n_steps + 1, 257)
        assert cotraj.coeffs.tobytes() == settled_per_step_adjoint.tobytes()

    def test_flushed_dust_is_inert(self, monkeypatch):
        # At 1024 harmonics and T = 1 the smallest normal float keeps parts
        # the bound 2^-511 flushes; the gradient keeps every bit without them.
        grid = TimeGrid(1.0, 2e-3)
        model = kuramoto_model(0.0, np.pi, control_set=ball(np.sqrt(2.0)))
        u = fig1_control(grid)

        def gradient():
            traj = integrate_forward(fig1_row(1024), u, model, grid)
            cotraj = integrate_backward(traj, u, model)
            return traj, cotraj, switching_function(traj, cotraj, model)

        traj, cotraj, d = gradient()
        with monkeypatch.context() as m:
            m.setattr(forward, "_FLUSH", np.finfo(float).tiny)
            ref_traj, ref_cotraj, ref_d = gradient()
        parts = np.abs(dense(ref_traj).view(float))
        assert np.count_nonzero((parts > 0.0) & (parts < 2.0 ** -511)) > 0
        assert d.values.tobytes() == ref_d.values.tobytes()
        assert cotraj.head.tobytes() == ref_cotraj.head.tobytes()
        assert cotraj.scale.tobytes() == ref_cotraj.scale.tobytes()
        cost, ref = (np.float64(model.cost.eval(t.terminal_field())) for t in (traj, ref_traj))
        assert cost.tobytes() == ref.tobytes()
        assert 2 * traj.coeffs.nbytes <= ref_traj.coeffs.nbytes
        parts = np.abs(traj.coeffs.view(float))
        assert np.count_nonzero((parts > 0.0) & (parts < 2.0 ** -511)) == 0

    def test_a_diverging_row_of_a_batched_march_raises(self):
        rho = fig1_row(512)
        grid = TimeGrid(1.0, 0.05)
        model = kuramoto_model(0.0, np.pi, control_set=ball(2000.0))
        calm = constant_control(grid, [0.0, 0.0])
        wild = constant_control(grid, [0.0, 1500.0])
        with pytest.raises(DivergenceError, match="reduce the time step"):
            cost_of_control(rho, [calm, wild, calm], model, grid)

    def test_a_nan_part_raises_and_mass_is_never_flushed(self):
        bound = 2.0 ** -511
        below = np.nextafter(bound, 0.0)
        a = np.zeros((2, 3), dtype=complex)  # two half rows, n = 0 .. 2
        a[:, 0] = 1.0 / (2.0 * np.pi)
        a[0, 1] = complex(-1e-310, 3e-308)  # subnormal and normal, both below the bound
        a[0, 2] = complex(-bound, -below)
        a[1, 2] = complex(bound, below)  # a part of exactly the bound stays
        settle(a, 0.0)
        assert np.array_equal(a[:, 0], np.full(2, 1.0 / (2.0 * np.pi)))
        want = np.array([[0.0, 0.0, -bound, 0.0], [0.0, 0.0, bound, 0.0]])
        assert a[:, 1:].view(float).tobytes() == want.tobytes()  # flushed parts are +0.0
        a[1, 1] = complex(0.0, np.nan)
        with pytest.raises(DivergenceError, match="reduce the time step"):
            settle(a, 0.0)


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
