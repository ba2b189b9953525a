"""Switching function, target control, line search, and the outer loop."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfpmp import (
    ControlSignal,
    DescentConfig,
    DivergenceError,
    TimeGrid,
    backtracking_step,
    ball,
    box,
    constant_control,
    integrate_backward,
    integrate_forward,
    kuramoto_model,
    non_extremality,
    run_descent,
    switching_function,
    target_control,
)
from mfpmp import descent, forward
from mfpmp.descent import STATUS_EXTREMAL, SwitchingFunction
from mfpmp.spectral import reconstruct_rows
from mfpmp.timegrid import Trajectory

from conftest import fig1_row, full_rows, uniform_field


def small_setup(T=0.4, tau=2e-3, n=32, alpha=0.0, radius=2.0):
    grid = TimeGrid(T, tau)
    model = kuramoto_model(alpha, np.pi, control_set=ball(radius))
    rho = fig1_row(n)
    return grid, model, rho


class TestSwitchingFunction:
    def test_zero_co_state_gives_zero(self):
        grid, model, rho = small_setup()
        u = constant_control(grid, [0.3, 0.5])
        traj = integrate_forward(rho, u, model, grid)
        zeros = Trajectory(grid, np.zeros_like(traj.coeffs))
        d = switching_function(traj, zeros, model)
        assert np.max(np.abs(d.values)) == 0.0

    def test_uniform_state_has_no_coupling_channel(self):
        grid, model, _ = small_setup()
        rho = uniform_field(32)
        u = constant_control(grid, [0.7, 0.4])
        traj = integrate_forward(rho, u, model, grid)
        cotraj = integrate_backward(traj, u, model)
        d = switching_function(traj, cotraj, model)
        assert np.max(np.abs(d.values[:, 1])) < 1e-14

    def test_drift_channel_equals_grid_quadrature_of_the_co_density(self):
        grid, model, rho = small_setup()
        u = constant_control(grid, [0.2, 0.9])
        traj = integrate_forward(rho, u, model, grid)
        cotraj = integrate_backward(traj, u, model)
        d = switching_function(traj, cotraj, model)
        for k in (0, 50, 200):
            zeta = reconstruct_rows(cotraj.coeffs[k])[0]
            quad = 2.0 * np.pi / zeta.size * zeta.sum()
            assert_allclose(d.values[k, 0], quad, atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.31, 1.7])
    def test_coupling_channel_matches_the_pairing_formula(self, alpha):
        # d_2(t_k) = 2*pi * Re(v b_{-1} + conj(v) b_{+1}), v = i*pi*a_1*e^{i*alpha}.
        grid, model, rho = small_setup(alpha=alpha)
        t = grid.full_times()
        u = ControlSignal(grid, np.column_stack([0.5 * np.sin(3 * t), 0.9 * np.cos(t)]))
        traj = integrate_forward(rho, u, model, grid)
        cotraj = integrate_backward(traj, u, model)
        got = switching_function(traj, cotraj, model).values[:, 1]
        # The full fields at the full nodes: b_{-1} is read at its own index.
        a = full_rows(traj.coeffs[::2])
        b = full_rows(cotraj.coeffs)
        c = traj.n_modes // 2
        v = 1j * np.pi * a[:, c + 1] * np.exp(1j * alpha)
        literal = 2.0 * np.pi * (v * b[:, c - 1] + np.conj(v) * b[:, c + 1]).real
        assert np.max(np.abs(literal)) > 1e-3
        assert_allclose(got, literal, rtol=1e-12, atol=1e-15)
        # Bit for bit the per-node scalar arithmetic: NumPy's array complex
        # multiply can round one ulp away from it, and that moves the descent.
        phase = complex(np.exp(1j * alpha))
        scalar = np.empty_like(got)
        for k in range(got.size):
            vk = 1j * np.pi * a[k, c + 1] * phase
            pair = 0 + vk * b[k, c - 1] + vk.conjugate() * b[k, c + 1]
            scalar[k] = float((2.0 * np.pi * pair).real)
        assert got.tobytes() == scalar.tobytes()


class TestTargetControl:
    def test_ball_maximizer_is_the_scaled_direction(self):
        grid = TimeGrid(0.1, 0.05)
        d = SwitchingFunction(grid, np.array([[3.0, 4.0], [3.0, 4.0], [0.6, -0.8]]))
        u = constant_control(grid, [0.0, 0.0])
        ubar = target_control(d, ball(np.sqrt(2.0)), u)
        assert_allclose(ubar.values[0], [3.0 * np.sqrt(2.0) / 5.0, 4.0 * np.sqrt(2.0) / 5.0])
        assert_allclose(np.linalg.norm(ubar.values, axis=1), np.sqrt(2.0))

    def test_vanishing_direction_keeps_the_current_control(self):
        grid = TimeGrid(0.1, 0.05)
        d = SwitchingFunction(grid, np.array([[0.0, 0.0], [1e-16, 0.0], [1.0, 0.0]]))
        u = constant_control(grid, [0.3, -0.4])
        ubar = target_control(d, ball(np.sqrt(2.0)), u)
        assert_allclose(ubar.values[0], [0.3, -0.4])
        assert_allclose(ubar.values[1], [0.3, -0.4])
        assert_allclose(ubar.values[2], [np.sqrt(2.0), 0.0])

    def test_box_sign_rule(self):
        grid = TimeGrid(0.1, 0.05)
        d = SwitchingFunction(grid, np.array([[0.5, -2.0], [0.0, 1.0], [-0.1, 0.0]]))
        u = constant_control(grid, [0.25, -0.25])
        ubar = target_control(d, box([-1.0, -1.0], [1.0, 1.0]), u)
        assert_allclose(ubar.values[0], [1.0, -1.0])
        assert_allclose(ubar.values[1], [0.25, 1.0])   # zero component keeps u
        assert_allclose(ubar.values[2], [-1.0, -0.25])


class TestNonExtremality:
    def test_identical_controls_give_zero(self):
        grid = TimeGrid(0.2, 0.01)
        d = SwitchingFunction(grid, np.ones((grid.n_steps + 1, 2)))
        u = constant_control(grid, [0.4, 0.1])
        assert non_extremality(u, u, d) == 0.0

    def test_pointwise_maximal_control_scores_zero(self):
        grid = TimeGrid(0.2, 0.01)
        vals = np.column_stack([np.cos(grid.full_times()), np.sin(grid.full_times())])
        d = SwitchingFunction(grid, vals)
        s = ball(1.5)
        u = ControlSignal(grid, 1.5 * vals / np.linalg.norm(vals, axis=1)[:, None])
        ubar = target_control(d, s, u)
        assert abs(non_extremality(u, ubar, d)) < 1e-12

    def test_rectangle_rule_matches_refined_quadrature(self):
        # The discrete objects are step functions, so quadrature on any
        # aligned refinement reproduces the same integral exactly.
        grid = TimeGrid(1.0, 0.05)
        t = grid.full_times()
        d = SwitchingFunction(grid, np.column_stack([np.sin(3 * t), np.cos(2 * t)]))
        u = ControlSignal(grid, np.column_stack([0.2 * t, -0.1 + 0 * t]))
        ubar = ControlSignal(grid, np.column_stack([np.cos(t), np.sin(t)]))
        value = non_extremality(u, ubar, d)
        refined = 0.0
        sub = 100
        for k in range(grid.n_steps):
            integrand = np.dot(ubar.values[k] - u.values[k], d.values[k])
            refined += (grid.tau / sub) * sub * integrand
        assert_allclose(value, refined, atol=1e-10)

    def test_nonnegative_for_target_directions(self, rng):
        grid, model, rho = small_setup()
        for _ in range(5):
            t = grid.full_times()
            u = ControlSignal(grid, np.column_stack([
                rng.uniform(-0.8, 0.8) * np.sin(t + rng.uniform(0, 6)),
                rng.uniform(-0.8, 0.8) * np.cos(t + rng.uniform(0, 6)),
            ]))
            traj = integrate_forward(rho, u, model, grid)
            cotraj = integrate_backward(traj, u, model)
            d = switching_function(traj, cotraj, model)
            ubar = target_control(d, model.control_set, u)
            energy = non_extremality(u, ubar, d)
            assert energy >= -1e-12
            # the target beats random feasible candidates
            for _ in range(3):
                cand = ControlSignal(grid, np.stack([
                    model.control_set.project(rng.standard_normal(2) * 2.0)
                    for _ in range(grid.n_steps + 1)]))
            assert non_extremality(u, cand, d) <= energy + 1e-12


def unit_ladder():
    """u = 0 toward ubar = 1 with E[u] = 1: a trial's step size is its first value."""
    grid = TimeGrid(1.0, 0.5)
    d = SwitchingFunction(grid, np.array([[1.0, 0.0]] * 3))
    return constant_control(grid, [0.0, 0.0]), constant_control(grid, [1.0, 0.0]), d


def ladder_evaluator(cost_of_lam, diverging=(), calls=None):
    """List-in, lists-out evaluator; raises if any trial step lies in `diverging`.

    Each trial's checkpoints are stood in for by ("starts", lam), so a test
    can tell whose the search returns.
    """
    def evaluator(trials):
        lams = [trial.values[0, 0] for trial in trials]
        if calls is not None:
            calls.append(len(trials))
        if any(lam in diverging for lam in lams):
            raise DivergenceError("a trial diverged")
        return [cost_of_lam(lam) for lam in lams], [("starts", lam) for lam in lams]
    return evaluator


def sequential_search(u, ubar, d, cost_u, cfg, evaluator):
    """The one-trial-at-a-time search the chunked one must reproduce."""
    slope = -non_extremality(u, ubar, d)
    lam = 1.0
    for j in range(cfg.j_max + 1):
        (trial_cost,), (starts,) = evaluator([u.toward(ubar, lam)])
        if trial_cost - cost_u <= cfg.c * lam * slope < 0.0:
            return lam, trial_cost, j, True, starts
        lam *= cfg.theta
    return 0.0, cost_u, cfg.j_max + 1, False, None


class TestBacktracking:
    def test_quadratic_toy_accepts_the_hand_computed_step(self):
        # cost(lam) = cost_u - 2 E lam (1 - lam) with E = 1: lam = 1 fails
        # the sufficient-decrease test, lam = 1/2 passes it.
        u, ubar, d = unit_ladder()
        energy = non_extremality(u, ubar, d)
        assert_allclose(energy, 1.0, atol=1e-15)
        evaluator = ladder_evaluator(lambda lam: 5.0 - 2.0 * energy * lam * (1.0 - lam))
        cfg = DescentConfig(c=0.01, theta=0.5)
        lam, new_cost, j, ok, starts = backtracking_step(u, ubar, energy, 5.0, cfg, evaluator)
        assert ok and j == 1 and lam == 0.5 and starts == ("starts", 0.5)
        assert_allclose(new_cost, 5.0 - 0.5, atol=1e-15)

    def test_full_step_accepted_when_it_suffices(self):
        u, ubar, d = unit_ladder()
        energy = non_extremality(u, ubar, d)
        evaluator = ladder_evaluator(lambda lam: 5.0 - lam)  # linear decrease
        lam, _, j, ok, _ = backtracking_step(u, ubar, energy, 5.0, DescentConfig(), evaluator)
        assert ok and j == 0 and lam == 1.0

    def test_flat_landscape_fails_with_a_flag(self):
        # j_max = 12 is not a multiple of the chunk: 13 trials in chunks of 8 and 5.
        u, ubar, d = unit_ladder()
        energy = non_extremality(u, ubar, d)
        cfg = DescentConfig(j_max=12)
        calls = []
        got = backtracking_step(u, ubar, energy, 5.0, cfg, ladder_evaluator(lambda lam: 5.0, calls=calls))
        lam, cost, j, ok, starts = got
        assert not ok and lam == 0.0 and j == cfg.j_max + 1 and starts is None
        assert got == sequential_search(u, ubar, d, 5.0, cfg, ladder_evaluator(lambda lam: 5.0))
        assert calls == [8, 5]

    def test_the_deepest_step_keeps_a_nonzero_sufficient_decrease(self):
        # Past j = 1015 at c = 0.01, theta = 0.5, c * theta^j leaves the normal
        # floats and the bound c * theta^j * slope rounds toward -0.0, which an
        # equal-cost trial passes: at the parent, j_max = 1200 accepted j = 1069.
        for j_max in (1200, 1016):
            with pytest.raises(ValueError, match="j_max"):
                DescentConfig(j_max=j_max)
        u, ubar, d = unit_ladder()
        energy = non_extremality(u, ubar, d)
        got = backtracking_step(u, ubar, energy, 5.0, DescentConfig(j_max=1015),
                                ladder_evaluator(lambda lam: 5.0))
        assert got == (0.0, 5.0, 1016, False, None)

    def test_an_underflowing_bound_passes_no_equal_cost_trial(self):
        # With E[u] = 1e-300 the bound c * theta^j * slope underflows to -0.0
        # from j = 72 on, which an equal-cost trial would pass.
        grid = TimeGrid(1.0, 0.5)
        u, ubar = constant_control(grid, [0.0, 0.0]), constant_control(grid, [1.0, 0.0])
        d = SwitchingFunction(grid, np.array([[1e-300, 0.0]] * 3))
        energy = non_extremality(u, ubar, d)
        cfg = DescentConfig(j_max=100, eps_tol=0.0)
        got = backtracking_step(u, ubar, energy, 5.0, cfg, ladder_evaluator(lambda lam: 5.0))
        assert got == (0.0, 5.0, cfg.j_max + 1, False, None)


class TestChunkedBacktracking:
    def test_acceptance_past_a_chunk_boundary(self):
        # cost(lam) - 5 = lam * (1500 lam - 1) passes the test at c = 0.01
        # for lam <= 0.99 / 1500, so first at j = 11, in the second chunk.
        u, ubar, d = unit_ladder()
        energy = non_extremality(u, ubar, d)
        cfg = DescentConfig(c=0.01, theta=0.5)
        calls = []
        evaluator = ladder_evaluator(lambda lam: 5.0 + lam * (1500.0 * lam - 1.0), calls=calls)
        got = backtracking_step(u, ubar, energy, 5.0, cfg, evaluator)
        assert got == sequential_search(u, ubar, d, 5.0, cfg, evaluator)
        assert got[2] == 11 and got[3]
        assert calls[:2] == [8, 8]

    def test_divergence_after_the_accepted_step_is_ignored(self):
        # lam = 1 fails, lam = 1/2 passes, lam = 1/4 diverges.
        u, ubar, d = unit_ladder()
        energy = non_extremality(u, ubar, d)
        cfg = DescentConfig(c=0.01, theta=0.5)
        cost = lambda lam: 5.0 + lam * (1.5 * lam - 1.0)  # noqa: E731
        got = backtracking_step(u, ubar, energy, 5.0, cfg,
                                ladder_evaluator(cost, diverging={0.25}))
        assert got == sequential_search(u, ubar, d, 5.0, cfg, ladder_evaluator(cost))
        assert got[2] == 1

    def test_divergence_before_the_accepted_step_raises(self):
        u, ubar, d = unit_ladder()
        energy = non_extremality(u, ubar, d)
        cost = lambda lam: 5.0 + lam * (1.5 * lam - 1.0)  # noqa: E731
        with pytest.raises(DivergenceError):
            backtracking_step(u, ubar, energy, 5.0, DescentConfig(c=0.01, theta=0.5),
                              ladder_evaluator(cost, diverging={1.0}))


class TestRunDescent:
    def test_extremal_start_returns_immediately(self):
        # A uniform density feels no coupling, and the drift channel's
        # switching value vanishes with it, so any control is extremal.
        grid = TimeGrid(0.3, 3e-3)
        model = kuramoto_model(0.0, np.pi)
        rho = uniform_field(32)
        u0 = constant_control(grid, [0.9, 0.0])
        result = run_descent(rho, u0, model, grid, DescentConfig())
        assert result.status == STATUS_EXTREMAL
        assert result.iterations == 1
        assert_allclose(result.final_cost, 1.0, atol=1e-12)
        assert np.array_equal(result.u_final.values, u0.values)

    def test_descent_bookkeeping_on_a_short_horizon(self):
        grid, model, rho = small_setup(T=0.6, tau=3e-3, radius=np.sqrt(2.0))
        t = grid.full_times()
        u0 = ControlSignal(grid, np.column_stack([
            np.sqrt(2.0) * np.sin(2 * np.pi * t), np.sqrt(2.0) * np.cos(2 * np.pi * t)]))
        cfg = DescentConfig(k_max=12)
        result = run_descent(rho, u0, model, grid, cfg)

        costs = [r.cost for r in result.history] + [result.final_cost]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        for rec, nxt in zip(result.history, costs[1:]):
            if rec.lam > 0.0:
                assert rec.cost - nxt >= cfg.c * rec.lam * rec.non_extremality - 1e-12
            assert rec.non_extremality >= -1e-12
        for row in result.u_final.values:
            assert model.control_set.admits(row)

    def test_runs_are_deterministic(self):
        grid, model, rho = small_setup(T=0.3, tau=3e-3)
        t = grid.full_times()
        u0 = ControlSignal(grid, np.column_stack([np.sin(t), np.cos(t)]))
        cfg = DescentConfig(k_max=6)
        a = run_descent(rho, u0, model, grid, cfg)
        b = run_descent(rho, u0, model, grid, cfg)
        assert a.final_cost == b.final_cost
        assert np.array_equal(a.u_final.values, b.u_final.values)
        assert [r.cost for r in a.history] == [r.cost for r in b.history]
        assert [r.lam for r in a.history] == [r.lam for r in b.history]

    def test_checkpoint_reuse_leaves_the_result_bitwise_unchanged(self, monkeypatch):
        # Steps j = 0, 1, 0, 1, ...: a full step is re-rounded by the
        # projection, so only the forward solves after the j = 1 steps reuse.
        grid, model, rho = small_setup(T=1.0, tau=5e-3, radius=np.sqrt(2.0))
        t = grid.full_times()
        u0 = ControlSignal(grid, np.column_stack([
            np.sqrt(2.0) * np.sin(2 * np.pi * t), np.sqrt(2.0) * np.cos(2 * np.pi * t)]))
        cfg = DescentConfig(k_max=6)
        reused = []

        def spy(rho0, u, model, grid, starts=None):
            reused.append(forward._resumable(starts, rho0, u))
            return forward.integrate_forward(rho0, u, model, grid, starts)

        monkeypatch.setattr(descent, "integrate_forward", spy)
        got = run_descent(rho, u0, model, grid, cfg)
        monkeypatch.setattr(descent, "integrate_forward",
                            lambda rho0, u, model, grid, starts=None:
                            forward.integrate_forward(rho0, u, model, grid))
        want = run_descent(rho, u0, model, grid, cfg)

        assert reused == [False, False, True, False, True, False]
        assert_same_result(got, want)

    @pytest.mark.parametrize("rows", [None, 3, 1])
    def test_trials_per_lean_march_follow_the_row_budget(self, monkeypatch, rows):
        # TRIAL_CHUNK trials per lean march, fewer when forward.batch_rows is
        # smaller; the result is that of marching the trials one at a time.
        grid, model, rho = small_setup(T=1.0, tau=5e-3, radius=np.sqrt(2.0))
        t = grid.full_times()
        u0 = ControlSignal(grid, np.column_stack([
            np.sqrt(2.0) * np.sin(2 * np.pi * t), np.sqrt(2.0) * np.cos(2 * np.pi * t)]))
        cfg = DescentConfig(k_max=6)
        sizes = []

        def chunked(rho0, controls, model, grid):
            sizes.append(len(controls))
            return forward.cost_of_control(rho0, controls, model, grid)

        def one_at_a_time(rho0, controls, model, grid):
            pairs = [forward.cost_of_control(rho0, [u], model, grid) for u in controls]
            return [c for (c,), _ in pairs], [s for _, (s,) in pairs]

        if rows is not None:
            monkeypatch.setattr(forward, "BATCH_COEFFS", rows * len(rho))
        monkeypatch.setattr(descent, "cost_of_control", one_at_a_time)
        want = run_descent(rho, u0, model, grid, cfg)
        monkeypatch.setattr(descent, "cost_of_control", chunked)
        got = run_descent(rho, u0, model, grid, cfg)

        assert sizes and set(sizes) == {rows or descent.TRIAL_CHUNK}
        assert_same_result(got, want)


def assert_same_result(got, want):
    """Two DescentResults agree bitwise, apart from the iterations' wall times."""
    assert got.u_final.values.tobytes() == want.u_final.values.tobytes()
    assert (got.status, got.final_cost) == (want.status, want.final_cost)
    untimed = lambda result: [(r.k, r.cost, r.non_extremality, r.lam,  # noqa: E731
                               r.backtrack_count) for r in result.history]
    assert untimed(got) == untimed(want)
    assert got.starts.states.tobytes() == want.starts.states.tobytes()
    assert got.starts.controls.tobytes() == want.starts.controls.tobytes()
