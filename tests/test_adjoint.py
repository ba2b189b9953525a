"""Backward balance-law solver: terminal data, sources, closed forms, duality."""

import tracemalloc
import warnings

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
    integrate_forward,
    kuramoto_model,
    rhs_adjoint,
    terminal_adjoint,
)
from mfpmp import adjoint, forward
from mfpmp.presets import fig1_control

from conftest import (backward_rhs, dense, fig1_row, full_rows, full_width_adjoint, half_row,
                      harmonic, hermitian_defect, literal_sync_cost_dmu, pack, poison,
                      poisoned_workspace, random_hermitian, uniform_field, zero_pads)


def literal_adjoint_rhs(b, a, u, alpha):
    """Hand-coded coefficient system for the backward balance law.

    Transport and stretch terms follow the assembled field; the nonlocal
    source enters with a minus sign, as required by the weak duality
    identity (and certified against brute-force cost derivatives below).
    """
    half = (len(a) - 1) // 2
    e = np.exp(1j * alpha)
    a1, am1 = a[half + 1], a[half - 1]
    b1, bm1 = b[half + 1], b[half - 1]
    out = np.zeros_like(b)
    for i in range(len(a)):
        n = i - half
        anm1 = a[i - 1] if i - 1 >= 0 else 0.0
        anp1 = a[i + 1] if i + 1 < len(a) else 0.0
        bnm1 = b[i - 1] if i - 1 >= 0 else 0.0
        bnp1 = b[i + 1] if i + 1 < len(a) else 0.0
        transport = -1j * n * u[0] * b[i] + np.pi * n * u[1] * (
            a1 * bnm1 * e - am1 * bnp1 * np.conj(e))
        stretch = np.pi * u[1] * (a1 * bnm1 * e + am1 * bnp1 * np.conj(e))
        source = np.pi * u[1] * (bm1 * anp1 * e + b1 * anm1 * np.conj(e))
        out[i] = transport + stretch - source
    return out


class TestTerminalCondition:
    def test_uniform_terminal_density(self):
        model = kuramoto_model(0.0, x0=0.8)
        z = terminal_adjoint(uniform_field(32), model)
        assert_allclose(harmonic(z, 1), 1j * np.exp(-1j * 0.8) / (4.0 * np.pi), atol=1e-15)
        assert_allclose(harmonic(z, -1), np.conj(harmonic(z, 1)), atol=1e-16)
        assert abs(harmonic(z, 0)) == 0.0

    def test_matches_shifted_harmonic_formula(self, rng):
        # b_n(T) = (i/2) (a_{n-1} e^{-i x0} - a_{n+1} e^{i x0})
        x0 = 2.1
        model = kuramoto_model(0.0, x0=x0)
        mu = random_hermitian(24, rng)
        z = full_rows(terminal_adjoint(mu, model))
        a = full_rows(mu)
        for i in range(25):
            lo = a[i - 1] if i - 1 >= 0 else 0.0
            hi = a[i + 1] if i + 1 < 25 else 0.0
            want = 0.5j * (lo * np.exp(-1j * x0) - hi * np.exp(1j * x0))
            assert abs(z[i] - want) < 1e-15

    def test_first_harmonic_only_gives_real_total_co_mass(self, rng):
        v = 0.07 - 0.02j
        mu = half_row(32, {0: 1.0 / (2.0 * np.pi), 1: v})
        model = kuramoto_model(0.0, x0=0.3)
        z = terminal_adjoint(mu, model)
        want = 0.5j * (np.conj(v) * np.exp(-1j * 0.3) - v * np.exp(1j * 0.3))
        assert_allclose(harmonic(z, 0), want, atol=1e-16)
        assert abs(harmonic(z, 0).imag) < 1e-16

    def test_half_turn_target_negates_the_uniform_terminal_field(self):
        uni = uniform_field(32)
        z0 = terminal_adjoint(uni, kuramoto_model(0.0, x0=0.8))
        z1 = terminal_adjoint(uni, kuramoto_model(0.0, x0=0.8 + np.pi))
        assert_allclose(z1, -z0, atol=1e-15)

    def test_closed_form_keeps_the_bits_of_the_callable_derivative(self, rng):
        # The callable cost read the coefficient from its derivative row
        # (`literal_sync_cost_dmu`); the closed form must give the same bits.
        def callable_route(aT, x0):
            hi = -literal_sync_cost_dmu(aT, x0)[1]
            lo = np.conj(hi)
            b = np.zeros_like(aT)
            b[:-1] += lo * aT[1:]
            b[1:] += hi * aT[:-1]
            b[0] = lo * aT[1] + hi * aT[1].conjugate()
            return b

        x0s = [0.0, -0.0, np.pi / 2.0, np.pi, *rng.uniform(-10.0, 10.0, 12)]
        for n_modes in (4, 32, 256):
            mu = random_hermitian(n_modes, rng)
            for x0 in x0s:  # the model holds x0 reduced to [-pi, pi]
                model = kuramoto_model(0.0, x0)
                got = terminal_adjoint(mu, model)
                assert got.tobytes() == callable_route(mu, model.x0).tobytes(), (n_modes, x0)

    def test_terminal_adjoint_of_the_terminal_field_is_the_solved_terminal_row(self):
        # One function serves the public call and the backward solve.
        grid = TimeGrid(0.3, 3e-3)
        model = kuramoto_model(0.31, 2.0)
        u = constant_control(grid, [0.4, 0.9])
        traj = integrate_forward(fig1_row(32), u, model, grid)
        got = terminal_adjoint(traj.terminal_field(), model)
        cotraj = integrate_backward(traj, u, model, keep=grid.full_times())
        assert got.tobytes() == cotraj.coeffs[-1].tobytes()


class TestAdjointRhs:
    def test_matches_literal_index_formula(self, rng):
        model = kuramoto_model(0.47, np.pi, control_set=ball(4.0))
        for _ in range(5):
            a = random_hermitian(24, rng)
            b = random_hermitian(24, rng, scale=0.3, mass=rng.standard_normal() * 0.2)
            u = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            got = full_rows(rhs_adjoint(0.0, b, a, u, model))
            want = literal_adjoint_rhs(full_rows(b), full_rows(a), u, 0.47)
            assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("n_modes, alpha", [(4, 0.47), (24, 0.47), (24, 1.9), (64, 0.0)])
    def test_fused_stencil_on_half_rows_matches_the_literal_formula(self, n_modes, alpha, rng):
        model = kuramoto_model(alpha, np.pi, control_set=ball(4.0))
        stencil = adjoint._stencil(n_modes // 2 + 1, model)
        controls = [rng.uniform(-1, 1, 2) for _ in range(5)] + [np.array([0.3, -0.0])]
        for u in controls:
            a = random_hermitian(n_modes, rng)
            b = random_hermitian(n_modes, rng, scale=0.3, mass=rng.standard_normal() * 0.2)
            got = adjoint._rhs(b, a, u, model, stencil, np.empty_like(b))
            want = literal_adjoint_rhs(full_rows(b), full_rows(a), u, alpha)
            assert np.max(np.abs(got - want[n_modes // 2:])) < 1e-14  # n = 0 included
            assert got[0].imag == 0.0  # the n = 0 entry sums conjugate pairs

    def test_rotation_only_transport(self, rng):
        model = kuramoto_model(0.0, np.pi, control_set=ball(3.0))
        a = random_hermitian(16, rng)
        b = random_hermitian(16, rng, mass=0.1)
        c = 1.9
        out = rhs_adjoint(0.0, b, a, np.array([c, 0.0]), model)
        assert_allclose(out, -1j * np.arange(9) * c * b, atol=1e-15)

    def test_co_mass_static_without_coupling(self, rng):
        model = kuramoto_model(0.2, np.pi, control_set=ball(3.0))
        a = random_hermitian(16, rng)
        b = random_hermitian(16, rng, mass=0.4)
        out = rhs_adjoint(0.0, b, a, np.array([1.1, 0.0]), model)
        assert harmonic(out, 0) == 0.0

    def test_zero_co_state_stays_zero(self, rng):
        model = kuramoto_model(0.2, np.pi)
        a = random_hermitian(16, rng)
        zero = np.zeros(9, complex)
        out = rhs_adjoint(0.0, zero, a, np.array([0.5, 0.5]), model)
        assert np.max(np.abs(out)) == 0.0


class TestIntegrateBackward:
    def test_rotation_closed_form(self):
        # Uniform density, pure drift: the co-density is the rotated sine
        # wave -sin(x + c (T - t) - x0) / (2 pi).
        n = 64
        grid = TimeGrid(1.0, 1e-3)
        c, x0 = 1.3, np.pi
        model = kuramoto_model(0.0, x0, control_set=ball(2.0))
        rho = uniform_field(n)
        traj = integrate_forward(rho, constant_control(grid, [c, 0.0]), model, grid)
        cotraj = integrate_backward(traj, constant_control(grid, [c, 0.0]), model,
                                    keep=grid.full_times())
        worst = 0.0
        for k in (0, 333, 500, 1000):
            t = k * grid.tau
            b1 = 1j * np.exp(-1j * (x0 - c * (1.0 - t))) / (4.0 * np.pi)
            want = np.zeros(n + 1, complex)
            want[n // 2 + 1] = b1
            want[n // 2 - 1] = np.conj(b1)
            worst = max(worst, np.max(np.abs(full_rows(cotraj.coeffs[k]) - want)))
        assert worst < 1e-8

    def test_the_co_trajectory_keeps_node_0_and_the_nodes_asked_for(self):
        grid = TimeGrid(0.3, 3e-3)
        model = kuramoto_model(0.0, np.pi)
        u = constant_control(grid, [0.4, 0.9])
        traj = integrate_forward(fig1_row(32), u, model, grid)
        every = integrate_backward(traj, u, model, keep=grid.full_times())
        m = traj.substeps
        assert dense(traj).shape == (m * grid.n_steps + 1, 17)
        assert traj.column(1)[::m].tobytes() == dense(traj)[::m, 1].tobytes()
        assert every.nodes == tuple(range(grid.n_steps + 1)) and every.n_modes == 32
        assert every.coeffs.shape == (grid.n_steps + 1, 17)
        assert every.head.shape == (grid.n_steps + 1, 2)
        assert every.scale.shape == every.tail.shape == (grid.n_steps + 1,)
        # Times near the half node t = 0.0045 snap to full nodes 1 and 2.
        assert m == 2 and grid.nearest_node(0.0045, m) == 3
        for keep, nodes in (((), (0,)), ((0.0046, 0.0044, 0.0), (0, 1, 2))):
            cotraj = integrate_backward(traj, u, model, keep=keep)
            assert cotraj.nodes == nodes
            assert cotraj.coeffs.tobytes() == every.coeffs[list(nodes)].tobytes()
        with pytest.raises(ValueError, match="outside the stored lattice"):
            integrate_backward(traj, u, model, keep=[0.31])

    @pytest.mark.parametrize("tau, half, want", [
        (0.005, False, {0.0025: 0.0, 0.0075: 0.005, 0.0125: 0.01, 6.0: 6.0}),
        (3e-3, False, {0.0015: 0.0, 0.0045: 0.003, 6.0: 6.0}),
        (0.005, True, {0.00125: 0.0, 0.00375: 0.0025, 0.00625: 0.005, 6.0: 6.0}),
        (3e-3, True, {0.00075: 0.0, 0.00225: 0.0015, 0.0045: 0.0045, 6.0: 6.0}),
    ])
    def test_a_time_between_two_nodes_goes_to_the_earlier_one(self, tau, half, want):
        # One rule on both lattices, whatever t / spacing rounds to.
        grid = TimeGrid(6.0, tau)
        per_step = 2 if half else 1
        spacing = tau / per_step
        got = {t: grid.nearest_node(t, per_step) for t in want}
        assert got == {t: round(node / spacing) for t, node in want.items()}
        for t in (-0.6 * spacing, 6.0 + 0.6 * spacing):
            with pytest.raises(ValueError, match="outside the stored lattice"):
                grid.nearest_node(t, per_step)

    def test_zero_terminal_condition_stays_zero(self):
        grid = TimeGrid(0.3, 3e-3)
        model = kuramoto_model(0.0, np.pi)
        rho = fig1_row(32)
        u = constant_control(grid, [0.4, 0.9])
        traj = integrate_forward(rho, u, model, grid)
        zero = np.zeros(17, complex)
        cotraj = integrate_backward(traj, u, model, terminal=zero, keep=grid.full_times())
        assert np.max(np.abs(cotraj.coeffs)) == 0.0

    def test_superposition_in_the_terminal_condition(self, rng):
        grid = TimeGrid(0.5, 2.5e-3)
        model = kuramoto_model(0.4, 1.0)
        rho = half_row(16, {0: 1.0 / (2.0 * np.pi), 1: 0.02 + 0.03j, 2: -0.01j})
        t = grid.full_times()
        u = ControlSignal(grid, np.column_stack([0.5 * np.sin(t), 0.7 * np.cos(2 * t)]))
        traj = integrate_forward(rho, u, model, grid)
        z1 = random_hermitian(16, rng, mass=0.3)
        z2 = random_hermitian(16, rng, mass=-0.1)
        c1, c2 = 0.7, -1.3
        every = grid.full_times()
        s1 = integrate_backward(traj, u, model, terminal=z1, keep=every)
        s2 = integrate_backward(traj, u, model, terminal=z2, keep=every)
        combo = c1 * z1 + c2 * z2
        s12 = integrate_backward(traj, u, model, terminal=combo, keep=every)
        gap = np.max(np.abs(s12.coeffs - c1 * s1.coeffs - c2 * s2.coeffs))
        assert gap < 1e-10

    def test_hermitian_symmetry_preserved(self):
        grid = TimeGrid(0.5, 2.5e-3)
        model = kuramoto_model(0.3, 2.0)
        rho = fig1_row(32)
        u = constant_control(grid, [0.3, 1.0])
        traj = integrate_forward(rho, u, model, grid)
        cotraj = integrate_backward(traj, u, model, keep=grid.full_times())
        # Half rows make the symmetry exact: b_0 stays real at every node.
        worst = max(hermitian_defect(full_rows(row)) for row in cotraj.coeffs)
        assert worst == 0.0

    def test_a_trajectory_without_its_half_nodes_is_rejected_when_constructed(self):
        # The quarter steps and the stages read the forward state at every sub-step node.
        grid = TimeGrid(0.5, 1e-2)
        model = kuramoto_model(0.0, np.pi)
        u = constant_control(grid, [0.4, 0.9])
        traj = integrate_forward(fig1_row(32), u, model, grid)
        m = traj.substeps
        rows = f"expected {m * grid.n_steps + 1} rows, got {grid.n_steps + 1}"
        with pytest.raises(ValueError, match=f"not every sub-step node: {rows}"):
            pack(grid, dense(traj)[::m])

    def test_an_overflowing_step_is_a_divergence_without_warnings(self):
        # A drift of 1e90 overflows inside the first RK4 step; `_settle` reports it.
        grid = TimeGrid(0.1, 1e-2)
        model = kuramoto_model(0.0, np.pi, control_set=ball(1e100))
        traj = integrate_forward(fig1_row(32), constant_control(grid, [0.0, 0.0]), model, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match="at t = 0.095 exceeds"):
                integrate_backward(traj, constant_control(grid, [1e90, 0.0]), model)


def fresh_backward_step(b, h, u, a_hi, a_mid, a_lo, model, stencil):
    """The backward RK4 step of the half row b with a fresh temporary for every operation."""
    hb = -h

    def rhs(x, a):
        return adjoint._rhs(x, a, u, model, stencil, np.empty_like(x))

    k1 = rhs(b, a_hi)
    k2 = rhs(b + (0.5 * hb) * k1, a_mid)
    k3 = rhs(b + (0.5 * hb) * k2, a_mid)
    k4 = rhs(b + hb * k3, a_lo)
    return b + (hb / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def backward_step_setup(width, alpha, rng):
    """A co-density half row, three forward half rows, a control and the step's constants."""
    model = kuramoto_model(alpha, np.pi, control_set=ball(2.0))
    b, a_hi, a_mid, a_lo = (random_hermitian(2 * (width - 1), rng) for _ in range(4))
    return model, b, (a_hi, a_mid, a_lo), adjoint._stencil(width, model)


class TestBufferedBackwardStep:
    """A backward step through the buffers of one workspace has the bits of fresh temporaries."""

    @pytest.mark.parametrize("alpha", [0.0, 0.31, 1.7])
    @pytest.mark.parametrize("width", [17, 1025])
    def test_buffered_step_equals_fresh_temporaries(self, alpha, width, rng):
        model, b, nodes, stencil = backward_step_setup(width, alpha, rng)
        u = np.array([0.6, -1.1])
        want = fresh_backward_step(b, 2.5e-3, u, *nodes, model, stencil)
        got = poisoned_workspace(width).step(b, -2.5e-3,
                                             backward_rhs(u, *nodes, model, stencil),
                                             np.full_like(b, np.nan))
        assert got.tobytes() == want.tobytes()

    def test_two_steps_through_one_workspace(self, rng):
        # The second step reads other forward rows under another control: a
        # stage left over from the first would show in its bits.
        model, b, nodes, stencil = backward_step_setup(1025, 0.31, rng)
        before = b.copy()
        u1, u2 = np.array([0.6, -1.1]), np.array([-0.2, 0.9])
        later = tuple(random_hermitian(2048, rng) for _ in range(3))
        work, spare = poisoned_workspace(1025), np.full_like(b, np.nan)
        first = work.step(b, -2.5e-3, backward_rhs(u1, *nodes, model, stencil), spare)
        assert first is spare and b.tobytes() == before.tobytes()
        want_first = fresh_backward_step(before, 2.5e-3, u1, *nodes, model, stencil)
        want = fresh_backward_step(want_first, 2.5e-3, u2, *later, model, stencil)
        second = work.step(first, -2.5e-3, backward_rhs(u2, *later, model, stencil),
                           b)  # back into b
        assert second is b and second.tobytes() == want.tobytes()
        assert first.tobytes() == want_first.tobytes()

    def test_an_overlapping_lowest_block_at_2048_harmonics_equals_one_row_blocks(self,
                                                                                 monkeypatch):
        # 2K = 60 half steps in blocks of 16 rows (the cap: the band alone
        # would allow more): three, then the lowest block, which starts at
        # node 0 and recomputes 4 rows of the block above.
        grid = TimeGrid(0.03, 1e-3)
        model = kuramoto_model(0.31, np.pi, control_set=ball(np.sqrt(2.0)))
        u = fig1_control(grid)
        traj = integrate_forward(fig1_row(2048), u, model, grid)
        wide = forward.band(int(traj.index[:, 1].max()), 1025)
        assert forward.batch_rows(wide) > adjoint._BLOCK_ROWS == 16
        assert traj.substeps == 2 and (traj.substeps * grid.n_steps) % 16 == 12
        blocked = integrate_backward(traj, u, model, keep=grid.full_times())
        monkeypatch.setattr(adjoint, "_BLOCK_ROWS", 1)
        one_row = integrate_backward(traj, u, model, keep=grid.full_times())
        assert blocked.coeffs.tobytes() == one_row.coeffs.tobytes()


def widening_case(alpha, rng):
    """A solve in which b widens inside a quarter-step block: (traj, u, model, terminal).

    The stored rows keep harmonics 0 .. 3 of 64, so the forward band is 16
    of the 65 columns, and the terminal co-density reaches harmonic 27: b
    starts on 32 columns and widens to 48, 64 and 65 within the first of
    three blocks of 16 steps.
    """
    grid = TimeGrid(0.12, 5e-3)
    rows = np.array([random_hermitian(128, rng, max_mode=3, scale=0.01)
                     for _ in range(forward.SUBSTEPS * grid.n_steps + 1)])
    return (pack(grid, rows), fig1_control(grid),
            kuramoto_model(alpha, np.pi, control_set=ball(2.0)),
            random_hermitian(128, rng, max_mode=27))


def cold_case(n_modes, T, tau):
    """The cold fig1 solve at n_modes harmonics: (traj, u, model, None)."""
    grid = TimeGrid(T, tau)
    model = kuramoto_model(0.0, np.pi, control_set=ball(np.sqrt(2.0)))
    u = fig1_control(grid)
    return integrate_forward(fig1_row(n_modes), u, model, grid), u, model, None


class TestStageBuffers:
    """The stage kernel's buffers: written before every read, zero elsewhere, sized by the band."""

    @pytest.mark.parametrize("alpha", [0.0, 0.31, 1.7])
    def test_poisoned_buffers_give_the_bits_of_fresh_ones(self, alpha, rng, monkeypatch):
        # b widens three times inside the first block, so the buffers of
        # each new width get the factors of the block's lower steps in mid-block.
        traj, u, model, terminal = widening_case(alpha, rng)
        keep, wa = traj.grid.full_times(), forward.band(4, 65)
        fresh = integrate_backward(traj, u, model, terminal=terminal, keep=keep)
        made, steps = [], []
        monkeypatch.setattr(adjoint._Stages, "of", lambda w, block, of=adjoint._Stages.of:
                            made.append(poison(of(w, block), wa)) or made[-1])
        monkeypatch.setattr(adjoint, "_fill", lambda *args, f=adjoint._fill:
                            steps.append(len(args[2])) or f(*args))
        poisoned = integrate_backward(traj, u, model, terminal=terminal, keep=keep)
        for name in ("head", "scale", "tail", "coeffs"):
            assert getattr(poisoned, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert [stages.pair.shape[1] - 2 for stages in made] == [32, 48, 64, 65]
        assert all(zero_pads(stages, wa) for stages in made)
        assert min(steps) < max(steps) == 16  # a refill of fewer steps than a block

    @pytest.mark.parametrize("case", ["desk", "2048", "widening"])
    def test_one_fill_per_block_and_per_width_change_inside_one(self, case, rng, monkeypatch):
        traj, u, model, terminal = {
            "desk": lambda: cold_case(256, 6.0, 5e-3),
            "2048": lambda: cold_case(2048, 0.05, 1e-3),
            "widening": lambda: widening_case(0.31, rng)}[case]()
        events = []  # "block" per quarter-step block, "of" per width of b, "fill" per fill
        for name, mark in (("_drive", "block"), ("_fill", "fill")):
            monkeypatch.setattr(adjoint, name, lambda *args, f=getattr(adjoint, name), mark=mark:
                                events.append(mark) or f(*args))
        monkeypatch.setattr(adjoint._Stages, "of", lambda *args, of=adjoint._Stages.of:
                            events.append("of") or of(*args))
        integrate_backward(traj, u, model, terminal=terminal)
        last = traj.substeps * traj.grid.n_steps
        block = min(forward.batch_rows(forward.band(int(traj.index[:, 1].max()), traj.width)),
                    adjoint._BLOCK_ROWS, last)
        inside = sum(e == "of" and before != "block" for before, e in zip(events, events[1:]))
        assert events.count("block") == len(range(last, 0, -block))
        assert events.count("fill") == events.count("block") + inside
        assert inside == (3 if case == "widening" else 0)

    def test_narrow_rows_under_wide_ones_give_the_bits_of_a_full_width_march(self, rng):
        # Three blocks of 16 rows over stored rows with 30 harmonics after
        # node 16 and 3 up to it: every block marches its quarter steps on
        # the trajectory's one band, the lowest one over rows that are zero
        # past harmonic 3 (b marches at full width throughout).  The literal
        # march takes fresh buffers every step.
        grid = TimeGrid(0.12, 5e-3)
        model = kuramoto_model(0.31, np.pi, control_set=ball(2.0))
        u = fig1_control(grid)
        rows = np.array([random_hermitian(64, rng, max_mode=3 if s <= 16 else 30, scale=0.01)
                         for s in range(forward.SUBSTEPS * grid.n_steps + 1)])
        got = integrate_backward(pack(grid, rows), u, model, keep=grid.full_times())
        want = full_width_adjoint(rows, u.values[:-1], grid, model)
        assert got.coeffs.tobytes() == want.tobytes()

    def test_the_buffers_stay_on_the_band(self, monkeypatch):
        # NumPy reports its buffers to tracemalloc, so the bound holds on any
        # host.  A quarter-step block takes about twelve arrays of its rows on
        # the trajectory's widest band (the workspace, the stored rows, the
        # states, the mode factors and u_1, the couplings briefly), the
        # full-width row about ten rows (the terminal rows, the terminal
        # row's workspace until b gets its own, the kept row), and b its
        # stage buffers, a slot per step of a block, with its workspace, on
        # its band: two sets where it changes width, or one and the
        # iterator buffers of a fill, about as large: 1.0 MB here.  Blocks
        # of full rows would take 3 MB more, and full-width stage buffers
        # 2.5 MB more a set.
        traj, u, model, _ = cold_case(2048, 0.05, 1e-3)
        wide = forward.band(int(traj.index[:, 1].max()), 1025)
        block = min(forward.batch_rows(wide), adjoint._BLOCK_ROWS)
        widths = []
        monkeypatch.setattr(adjoint._Stages, "of", lambda w, steps, of=adjoint._Stages.of:
                            widths.append(w) or of(w, steps))
        tracemalloc.start()
        try:
            integrate_backward(traj, u, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stages, work = adjoint._Stages.of(max(widths), block), forward.Workspace.of(max(widths))
        stage = sum(buf.nbytes for buf in (stages.pair, stages.factors, stages.sources,
                                           stages.prod, stages.col, *work.k, work.prod,
                                           work.mag, work.mask))
        assert max(widths) < 1025 // 8 and block == 16
        assert peak < 16 * block * wide * 16 + 10 * 1025 * 16 + 2 * stage


class TestDualityWithTheCost:
    def test_total_co_mass_is_constant_for_any_phase_shift(self):
        # A rigid rotation commutes with the coupled flow, so the cost's
        # sensitivity to the drift channel cannot depend on when the drift
        # acts: the co-density's total mass must be constant in time.
        grid = TimeGrid(0.5, 2.5e-3)
        rho = fig1_row(48)
        t = grid.full_times()
        u = ControlSignal(grid, np.column_stack([0.4 * np.sin(2 * np.pi * t), 0.9 + 0 * t]))
        for alpha in (0.0, 0.7):
            model = kuramoto_model(alpha, np.pi, control_set=ball(3.0))
            traj = integrate_forward(rho, u, model, grid)
            cotraj = integrate_backward(traj, u, model, keep=grid.full_times())
            co_mass = cotraj.coeffs[:, 0].real
            assert np.max(np.abs(co_mass - co_mass[-1])) < 1e-10

    def test_gradient_against_brute_force_differences(self):
        # The decisive oracle for the backward system: perturbing one
        # control node must change the cost by -tau * d_j(t_k) to first
        # order, for both channels and several nodes.
        from mfpmp.descent import switching_function
        grid = TimeGrid(0.5, 2.5e-3)
        rho = fig1_row(48)
        model = kuramoto_model(0.0, np.pi, control_set=ball(10.0))
        t = grid.full_times()
        u = ControlSignal(grid, np.column_stack([0.4 * np.sin(2 * np.pi * t), 0.9 + 0 * t]))
        traj = integrate_forward(rho, u, model, grid)
        cotraj = integrate_backward(traj, u, model)
        d = switching_function(traj, cotraj, model)
        eps = 1e-6
        for k in (0, 57, 140, 199):
            for j in (0, 1):
                plus = np.array(u.values)
                plus[k, j] += eps
                minus = np.array(u.values)
                minus[k, j] -= eps
                (cost_plus, cost_minus), _ = cost_of_control(
                    rho, [ControlSignal(grid, plus), ControlSignal(grid, minus)], model, grid)
                fd = (cost_plus - cost_minus) / (2.0 * eps)
                pred = -grid.tau * d.values[k, j]
                assert abs(fd - pred) < 5e-6 * max(1.0, abs(pred))
