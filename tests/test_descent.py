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
from mfpmp.descent import STATUS_EXTREMAL, STATUS_MAX_ITER, STATUS_STEP
from mfpmp.spectral import reconstruct_rows

from conftest import dense, fig1_row, full_rows, random_hermitian, uniform_field


def small_setup(T=0.4, tau=2e-3, n=32, alpha=0.0, radius=2.0):
    grid = TimeGrid(T, tau)
    model = kuramoto_model(alpha, np.pi, control_set=ball(radius))
    rho = fig1_row(n)
    return grid, model, rho


class TestSwitching:
    def test_is_a_control_signal_with_its_shape_rules(self):
        # d(t) has the control's two channels and K + 1 nodes.
        grid = TimeGrid(1.0, 0.5)
        with pytest.raises(ValueError, match="shape"):
            ControlSignal(grid, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            ControlSignal(grid, np.full((3, 2), np.nan))

    def test_zero_co_state_gives_zero(self):
        grid, model, rho = small_setup()
        u = constant_control(grid, [0.3, 0.5])
        traj = integrate_forward(rho, u, model, grid)
        zeros = integrate_backward(traj, u, model, terminal=np.zeros_like(traj.terminal_field()))
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
        cotraj = integrate_backward(traj, u, model, keep=grid.full_times())
        d = switching_function(traj, cotraj, model)
        for k in (0, 50, 200):
            zeta = reconstruct_rows(cotraj.coeffs[k])[0]
            quad = 2.0 * np.pi / zeta.size * zeta.sum()
            assert_allclose(d.values[k, 0], quad, atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 1.7])
    def test_the_drift_channel_is_constant_in_time(self, alpha):
        # d_1 = 2*pi*Re b_0 is the cost's sensitivity to a rigid rotation,
        # which commutes with the flow at any alpha, so it cannot depend on
        # when the rotation acts.
        grid, model, rho = small_setup(alpha=alpha)
        t = grid.full_times()
        u = ControlSignal(grid, np.column_stack([0.5 * np.sin(3 * t), 0.9 * np.cos(t)]))
        traj = integrate_forward(rho, u, model, grid)
        d1 = switching_function(traj, integrate_backward(traj, u, model), model).values[:, 0]
        assert np.abs(d1).max() > 1e-2
        assert np.ptp(d1) <= 1e-14 * np.abs(d1).max()

    @pytest.mark.parametrize("alpha", [0.31, 1.7])
    def test_coupling_channel_matches_the_pairing_formula(self, alpha):
        # d_2(t_k) = 2*pi * Re(v b_{-1} + conj(v) b_{+1}), v = i*pi*a_1*e^{i*alpha}.
        grid, model, rho = small_setup(alpha=alpha)
        t = grid.full_times()
        u = ControlSignal(grid, np.column_stack([0.5 * np.sin(3 * t), 0.9 * np.cos(t)]))
        traj = integrate_forward(rho, u, model, grid)
        cotraj = integrate_backward(traj, u, model, keep=grid.full_times())
        got = switching_function(traj, cotraj, model).values[:, 1]
        # The full fields at the full nodes: b_{-1} is read at its own index.
        a = full_rows(dense(traj)[::traj.substeps])
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
        d = ControlSignal(grid, np.array([[3.0, 4.0], [3.0, 4.0], [0.6, -0.8]]))
        u = constant_control(grid, [0.0, 0.0])
        ubar = target_control(d, ball(np.sqrt(2.0)), u)
        assert_allclose(ubar.values[0], [3.0 * np.sqrt(2.0) / 5.0, 4.0 * np.sqrt(2.0) / 5.0])
        assert_allclose(np.linalg.norm(ubar.values, axis=1), np.sqrt(2.0))

    def test_vanishing_direction_keeps_the_current_control(self):
        grid = TimeGrid(0.1, 0.05)
        d = ControlSignal(grid, np.array([[0.0, 0.0], [1e-16, 0.0], [1.0, 0.0]]))
        u = constant_control(grid, [0.3, -0.4])
        ubar = target_control(d, ball(np.sqrt(2.0)), u)
        assert_allclose(ubar.values[0], [0.3, -0.4])
        assert_allclose(ubar.values[1], [0.3, -0.4])
        assert_allclose(ubar.values[2], [np.sqrt(2.0), 0.0])

    def test_box_sign_rule(self):
        grid = TimeGrid(0.1, 0.05)
        d = ControlSignal(grid, np.array([[0.5, -2.0], [0.0, 1.0], [-0.1, 0.0]]))
        u = constant_control(grid, [0.25, -0.25])
        ubar = target_control(d, box([-1.0, -1.0], [1.0, 1.0]), u)
        assert_allclose(ubar.values[0], [1.0, -1.0])
        assert_allclose(ubar.values[1], [0.25, 1.0])   # zero component keeps u
        assert_allclose(ubar.values[2], [-1.0, -0.25])


class TestNonExtremality:
    def test_identical_controls_give_zero(self):
        grid = TimeGrid(0.2, 0.01)
        d = ControlSignal(grid, np.ones((grid.n_steps + 1, 2)))
        u = constant_control(grid, [0.4, 0.1])
        assert non_extremality(u, u, d) == 0.0

    def test_pointwise_maximal_control_scores_zero(self):
        grid = TimeGrid(0.2, 0.01)
        vals = np.column_stack([np.cos(grid.full_times()), np.sin(grid.full_times())])
        d = ControlSignal(grid, vals)
        s = ball(1.5)
        u = ControlSignal(grid, 1.5 * vals / np.linalg.norm(vals, axis=1)[:, None])
        ubar = target_control(d, s, u)
        assert abs(non_extremality(u, ubar, d)) < 1e-12

    def test_rectangle_rule_matches_refined_quadrature(self):
        # The discrete objects are step functions, so quadrature on any
        # aligned refinement reproduces the same integral exactly.
        grid = TimeGrid(1.0, 0.05)
        t = grid.full_times()
        d = ControlSignal(grid, np.column_stack([np.sin(3 * t), np.cos(2 * t)]))
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
    d = ControlSignal(grid, np.array([[1.0, 0.0]] * 3))
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
            return lam, j, starts, True
        lam *= cfg.theta
    return 0.0, cfg.j_max + 1, None, False


class TestBacktracking:
    def test_quadratic_toy_accepts_the_hand_computed_step(self):
        # cost(lam) = cost_u - 2 E lam (1 - lam) with E = 1: lam = 1 fails
        # the sufficient-decrease test, lam = 1/2 passes it.
        u, ubar, d = unit_ladder()
        energy = non_extremality(u, ubar, d)
        assert_allclose(energy, 1.0, atol=1e-15)
        evaluator = ladder_evaluator(lambda lam: 5.0 - 2.0 * energy * lam * (1.0 - lam))
        cfg = DescentConfig(c=0.01, theta=0.5)
        lam, j, starts, ok = backtracking_step(u, ubar, energy, 5.0, cfg, evaluator)
        assert ok and j == 1 and lam == 0.5 and starts == ("starts", 0.5)

    def test_full_step_accepted_when_it_suffices(self):
        u, ubar, d = unit_ladder()
        energy = non_extremality(u, ubar, d)
        evaluator = ladder_evaluator(lambda lam: 5.0 - lam)  # linear decrease
        lam, j, _, ok = backtracking_step(u, ubar, energy, 5.0, DescentConfig(), evaluator)
        assert ok and j == 0 and lam == 1.0

    def test_flat_landscape_fails_with_a_flag(self):
        # j_max = 12 is not a multiple of the chunk: 13 trials in chunks of 8 and 5.
        u, ubar, d = unit_ladder()
        energy = non_extremality(u, ubar, d)
        cfg = DescentConfig(j_max=12)
        calls = []
        got = backtracking_step(u, ubar, energy, 5.0, cfg, ladder_evaluator(lambda lam: 5.0, calls=calls))
        lam, j, starts, ok = got
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
        assert got == (0.0, 1016, None, False)

    def test_an_underflowing_bound_passes_no_equal_cost_trial(self):
        # With E[u] = 1e-300 the bound c * theta^j * slope underflows to -0.0
        # from j = 72 on, which an equal-cost trial would pass.
        grid = TimeGrid(1.0, 0.5)
        u, ubar = constant_control(grid, [0.0, 0.0]), constant_control(grid, [1.0, 0.0])
        d = ControlSignal(grid, np.array([[1e-300, 0.0]] * 3))
        energy = non_extremality(u, ubar, d)
        cfg = DescentConfig(j_max=100, eps_tol=0.0)
        got = backtracking_step(u, ubar, energy, 5.0, cfg, ladder_evaluator(lambda lam: 5.0))
        assert got == (0.0, cfg.j_max + 1, None, False)


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
        assert got[1] == 11 and got[3]
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
        assert got[1] == 1

    @pytest.mark.parametrize("cost, diverging, accepted", [
        (lambda lam: 5.0 - lam, (), True),  # from a chunk
        (lambda lam: 5.0 + lam * (1.5 * lam - 1.0), {0.25}, True),  # on the one-trial retry
        (lambda lam: 5.0, (), False),  # no exponent qualifies
    ])
    def test_checkpoints_come_back_exactly_with_an_accepted_step(self, cost, diverging, accepted):
        u, ubar, d = unit_ladder()
        energy = non_extremality(u, ubar, d)
        got = backtracking_step(u, ubar, energy, 5.0, DescentConfig(j_max=12),
                                ladder_evaluator(cost, diverging=diverging))
        assert len(got) == 4 and got[3] is accepted is (got[2] is not None)

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
        # Steps j = 0, 1, 0, 1, ...: each accepted trial is the next iterate
        # bit for bit, full steps included, so every stored solve after the
        # cold one resumes from the trial's checkpoints.
        grid, model, rho = small_setup(T=1.0, tau=5e-3, radius=np.sqrt(2.0))
        t = grid.full_times()
        u0 = ControlSignal(grid, np.column_stack([
            np.sqrt(2.0) * np.sin(2 * np.pi * t), np.sqrt(2.0) * np.cos(2 * np.pi * t)]))
        cfg = DescentConfig(k_max=6)
        reused = spy_on_stored_solves(monkeypatch)
        got = run_descent(rho, u0, model, grid, cfg)
        monkeypatch.setattr(descent, "integrate_forward",
                            lambda rho0, u, model, grid, starts=None:
                            forward.integrate_forward(rho0, u, model, grid))
        want = run_descent(rho, u0, model, grid, cfg)

        assert reused == [False] + [True] * got.iterations
        assert_same_result(got, want)

    def test_a_box_model_descends_on_admitted_iterates(self, monkeypatch):
        grid, _, rho = small_setup(T=1.0, tau=5e-3)
        model = kuramoto_model(0.0, np.pi, control_set=box([-1.5, -1.0], [1.5, 1.2]))
        t = grid.full_times()
        u0 = ControlSignal(grid, np.column_stack([1.5 * np.sin(2 * np.pi * t),
                                                  np.cos(2 * np.pi * t)]))
        iterates = []
        monkeypatch.setattr(descent, "non_extremality",
                            lambda u, ubar, d: iterates.append(u) or non_extremality(u, ubar, d))
        reused = spy_on_stored_solves(monkeypatch)
        result = run_descent(rho, u0, model, grid, DescentConfig(k_max=6))

        costs = [r.cost for r in result.history] + [result.final_cost]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert len(iterates) == result.iterations >= 2
        assert all(model.control_set.admits(u.values).all() for u in iterates)
        assert model.control_set.admits(result.u_final.values).all()
        assert reused == [False] + [True] * (len(reused) - 1)
        assert len(reused) == result.iterations + (result.history[-1].lam > 0.0)

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


def zigzag_setup():
    """A descent whose accepted steps alternate: exponents j = 0 2 0 1 3 0 2 2 2 ..."""
    grid, model, rho = small_setup(T=2.0, tau=1e-2, radius=np.sqrt(2.0))
    t = grid.full_times()
    u0 = ControlSignal(grid, np.column_stack([
        np.sqrt(2.0) * np.sin(2 * np.pi * t), np.sqrt(2.0) * np.cos(2 * np.pi * t)]))
    return rho, u0, model, grid


def spy_on_accepted_steps(monkeypatch) -> list:
    """The step size of each trial `run_descent`'s line search accepts, in order."""
    lams = []
    search = descent.backtracking_step

    def spy(*args):
        got = search(*args)
        if got[3]:
            lams.append(got[0])
        return got

    monkeypatch.setattr(descent, "backtracking_step", spy)
    return lams


class TestStoppingRules:
    def test_small_steps_must_come_in_a_row(self, monkeypatch):
        # lambda_tol = 0.3 makes j >= 2 small.  The run stops at the third
        # small step in a row, not at the third small step overall: a larger
        # step in between starts the count again.
        lams = spy_on_accepted_steps(monkeypatch)
        cfg = DescentConfig(lambda_tol=0.3, lambda_patience=3, k_max=30)
        result = run_descent(*zigzag_setup(), cfg)
        assert result.status == STATUS_STEP
        assert lams == [r.lam for r in result.history]
        small = [lam < cfg.lambda_tol for lam in lams]
        assert small[-3:] == [True] * 3
        assert not any(small[i:i + 3] == [True] * 3 for i in range(len(small) - 3))
        assert sum(small[:-1]) >= 3  # without the resets the run would have stopped earlier

    def test_a_patience_of_one_stops_at_the_first_small_step(self, monkeypatch):
        lams = spy_on_accepted_steps(monkeypatch)
        cfg = DescentConfig(lambda_tol=0.3, lambda_patience=1, k_max=30)
        result = run_descent(*zigzag_setup(), cfg)
        assert result.status == STATUS_STEP
        assert lams[-1] < cfg.lambda_tol and all(lam >= cfg.lambda_tol for lam in lams[:-1])
        assert result.iterations == len(lams) >= 2

    def test_the_iteration_cap_ends_an_accepted_step(self, monkeypatch):
        # lambda_tol = 0 never stops on the step size; the accepted step is
        # still taken and solved before k_max = 1 ends the run.
        lams = spy_on_accepted_steps(monkeypatch)
        result = run_descent(*zigzag_setup(), DescentConfig(lambda_tol=0.0, k_max=1))
        assert result.status == STATUS_MAX_ITER
        assert result.iterations == 1 and lams == [result.history[0].lam] == [1.0]
        assert result.final_cost < result.history[0].cost


def spy_on_stored_solves(monkeypatch) -> list:
    """Whether each stored solve of `run_descent` resumes from checkpoints, in call order."""
    reused = []

    def spy(rho0, u, model, grid, starts=None):
        reused.append(forward._resumable(starts, rho0, u, model))
        return forward.integrate_forward(rho0, u, model, grid, starts)

    monkeypatch.setattr(descent, "integrate_forward", spy)
    return reused


def assert_same_result(got, want):
    """Two DescentResults agree bitwise, apart from the iterations' wall times."""
    assert got.u_final.values.tobytes() == want.u_final.values.tobytes()
    assert (got.status, got.final_cost) == (want.status, want.final_cost)
    untimed = lambda result: [(r.k, r.cost, r.non_extremality, r.lam,  # noqa: E731
                               r.backtrack_count) for r in result.history]
    assert untimed(got) == untimed(want)
    assert dense(got.trajectory).tobytes() == dense(want.trajectory).tobytes()


PHI = 1.234  # the rotation angle of TestEquivariance


def mirrored(rho, u, model):
    """The problem reflected by x -> -x: conj(c_n), -u_1, -alpha and -x0."""
    return (np.conj(rho), ControlSignal(u.grid, u.values * [-1.0, 1.0]),
            kuramoto_model(-model.alpha, -model.x0, model.control_set))


def rotated(rho, u, model):
    """The problem rotated by x -> x + PHI: c_n e^{-i n PHI} and x0 + PHI."""
    return (rho * np.exp(-1j * PHI * np.arange(len(rho))), u,
            kuramoto_model(model.alpha, model.x0 + PHI, model.control_set))


def costs(result):
    return [r.cost for r in result.history] + [result.final_cost]


def steps(result):
    """Each iteration's step size and backtrack count, which fix its exponent j."""
    return [(r.lam, r.backtrack_count) for r in result.history]


class TestEquivariance:
    """The descent commutes with the reflection and the rotations of the circle.

    Mirroring only negates and conjugates, which no rounding sees, so the
    mirrored run has the same bits; a rotation multiplies by e^{-i n PHI} and
    rounds.  Through the line search's multi-row marches this ties the
    coupling's alpha phase to the signs of the adjoint, the switching
    function and the target control.
    """

    @pytest.mark.parametrize("T, tau, alpha", [(1.0, 2e-2, 0.31), (0.5, 1e-2, 0.0)])
    def test_the_descent_commutes_with_both_maps(self, T, tau, alpha):
        grid, model, rho = small_setup(T=T, tau=tau, alpha=alpha, radius=np.sqrt(2.0))
        t = grid.full_times()
        u0 = ControlSignal(grid, np.column_stack([
            np.sqrt(2.0) * np.sin(2 * np.pi * t), np.sqrt(2.0) * np.cos(2 * np.pi * t)]))
        cfg = DescentConfig(k_max=60)
        want = run_descent(rho, u0, model, grid, cfg)
        assert want.iterations >= 5

        got = run_descent(*mirrored(rho, u0, model), grid, cfg)
        assert (got.status, costs(got), steps(got)) == (want.status, costs(want), steps(want))
        assert got.u_final.values.tobytes() == (want.u_final.values * [-1.0, 1.0]).tobytes()

        got = run_descent(*rotated(rho, u0, model), grid, cfg)
        assert (got.status, steps(got)) == (want.status, steps(want))
        assert_allclose(costs(got), costs(want), rtol=1e-12, atol=0.0)

    def test_the_gradient_commutes_with_both_maps(self, rng):
        grid = TimeGrid(0.5, 5e-3)
        rho = random_hermitian(32, rng, scale=0.02)
        u = ControlSignal(grid, rng.uniform(-1.0, 1.0, (grid.n_steps + 1, 2)))
        model = kuramoto_model(1.7, 0.4, control_set=ball(2.0))

        def gradient(rho, u, model):
            traj = integrate_forward(rho, u, model, grid)
            cotraj = integrate_backward(traj, u, model, keep=grid.full_times())
            return dense(traj), cotraj.coeffs, switching_function(traj, cotraj, model).values

        a, b, d = gradient(rho, u, model)
        # Equal values: conj turns a stored 0.0 into -0.0.  The co-density
        # starts from sin(x - x0), which the mirror maps to its negative.
        am, bm, dm = gradient(*mirrored(rho, u, model))
        assert np.array_equal(am, np.conj(a))
        assert np.array_equal(bm, -np.conj(b))
        assert np.array_equal(dm, d * [-1.0, 1.0])

        phase = np.exp(-1j * PHI * np.arange(len(rho)))
        ar, br, dr = gradient(*rotated(rho, u, model))
        assert_allclose(ar, a * phase, rtol=0.0, atol=1e-12 * np.abs(a).max())
        assert_allclose(br, b * phase, rtol=0.0, atol=1e-12 * np.abs(b).max())
        assert_allclose(dr, d, rtol=0.0, atol=1e-12 * np.abs(d).max())
