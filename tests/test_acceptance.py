"""Acceptance suite: the shipped criteria, each at its stated tolerance.

Every test prints one `ACCEPTANCE <n> PASS/FAIL` line so a log scrape shows
the criterion scoreboard.  The full-resolution rerun of criterion 1 is slow
and therefore gated behind MFPMP_FULL_SCALE=1; everything else runs in CI.
"""

import json
import os
import time

import numpy as np
import pytest

from mfpmp import (
    ControlSignal,
    DescentConfig,
    TimeGrid,
    ball,
    constant_control,
    integrate_backward,
    integrate_forward,
    kuramoto_model,
    non_extremality,
    run_descent,
    switching_function,
    target_control,
    terminal_adjoint,
)
from mfpmp.checks import (
    fig1_slope_pair,
    increment_slope_check,
    local_adjoint_check,
    meanfield_vs_particles,
    synthetic_control_pairs,
)
from mfpmp.cli import main as cli_main
from mfpmp.forward import mass_drift
from mfpmp.presets import fig1_control

from conftest import dense, fig1_row, full_rows, half_row, hermitian_defect, mode_numbers


def report(num, name, passed, detail):
    print(f"ACCEPTANCE {num} {'PASS' if passed else 'FAIL'} - {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def desk_problem():
    grid = TimeGrid(6.0, 5e-3)
    model = kuramoto_model(0.0, np.pi)
    return grid, model, fig1_row(256), fig1_control(grid)


@pytest.fixture(scope="module")
def desk_run():
    """The scaled rerun of the synchronization experiment, shared by several criteria."""
    grid, model, rho0, u0 = desk_problem()
    t0 = time.perf_counter()
    result = run_descent(rho0, u0, model, grid, DescentConfig())
    duration = time.perf_counter() - t0
    cotraj = integrate_backward(result.trajectory, result.u_final, model, keep=grid.full_times())
    return {
        "grid": grid, "model": model, "rho0": rho0, "u0": u0,
        "result": result, "duration": duration,
        "traj": result.trajectory, "cotraj": cotraj,
    }


class TestCriterion1Reproduction:
    def test_desk_scale_experiment(self, desk_run):
        result = desk_run["result"]
        initial = result.history[0].cost
        ok = (abs(initial - 1.0) <= 1e-2
              and result.final_cost <= 2e-2
              and desk_run["duration"] <= 300.0)
        report(1, "desk-scale synchronization run", ok,
               f"initial {initial:.4f} (target 1 +- 1e-2), "
               f"final {result.final_cost:.3e} (limit 2e-2), "
               f"{desk_run['duration']:.0f}s (limit 300s), "
               f"{result.iterations} iterations, status {result.status}")

    @pytest.mark.skipif(not os.environ.get("MFPMP_FULL_SCALE"),
                        reason="full-resolution preset is slow; set MFPMP_FULL_SCALE=1")
    def test_full_resolution_experiment(self):
        grid = TimeGrid(6.0, 1e-3)
        model = kuramoto_model(0.0, np.pi)
        rho0 = fig1_row(2048)
        result = run_descent(rho0, fig1_control(grid), model, grid, DescentConfig())
        ok = result.final_cost <= 1.2e-2
        report(1, "full-resolution synchronization run", ok,
               f"final {result.final_cost:.3e} (limit 1.2e-2)")


class TestCriterion2Monotonicity:
    def test_cost_sequence_and_armijo_inequality(self, desk_run):
        result = desk_run["result"]
        cfg = DescentConfig()
        costs = [r.cost for r in result.history] + [result.final_cost]
        monotone = all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        armijo = all(
            rec.cost - nxt >= cfg.c * rec.lam * rec.non_extremality - 1e-12
            for rec, nxt in zip(result.history, costs[1:]) if rec.lam > 0.0)
        report(2, "monotone costs with certified decrease", monotone and armijo,
               f"{len(costs)} costs non-increasing: {monotone}, "
               f"accepted-step inequality: {armijo}")


class TestCriterion3MassConservation:
    def test_mode_zero_fixed_along_the_horizon(self, desk_run):
        grid, model, rho0, u0 = desk_problem()
        drift_initial = mass_drift(integrate_forward(rho0, u0, model, grid))
        drift_final = mass_drift(desk_run["traj"])
        ok = max(drift_initial, drift_final) < 1e-13
        report(3, "mass conservation", ok,
               f"max |a_0 - 1/(2 pi)| = {max(drift_initial, drift_final):.2e} (limit 1e-13)")


class TestCriterion4RotationOracle:
    def test_forward_and_adjoint_match_transported_closed_forms(self):
        n, c, x0 = 256, 1.3, np.pi
        grid = TimeGrid(1.0, 1e-3)
        model = kuramoto_model(0.0, x0, control_set=ball(2.0))
        rho0 = fig1_row(n)
        u = constant_control(grid, [c, 0.0])
        modes = mode_numbers(n + 1)

        traj = integrate_forward(rho0, u, model, grid)
        fwd_err = 0.0
        for s in (0, 777, 1400, 2000):
            t = s * grid.tau / traj.substeps
            closed = full_rows(rho0) * np.exp(-1j * modes * c * t)
            fwd_err = max(fwd_err, np.max(np.abs(full_rows(traj.rows(s, s + 1)[0]) - closed)))

        cotraj = integrate_backward(traj, u, model, keep=grid.full_times())
        zT = full_rows(terminal_adjoint(traj.terminal_field(), model))
        adj_err = 0.0
        for k in (0, 389, 700, 1000):
            t = k * grid.tau
            closed = zT * np.exp(1j * modes * c * (1.0 - t))
            adj_err = max(adj_err, np.max(np.abs(full_rows(cotraj.coeffs[k]) - closed)))

        ok = fwd_err < 1e-8 and adj_err < 1e-8
        report(4, "rotation closed-form oracle", ok,
               f"forward err {fwd_err:.2e}, adjoint err {adj_err:.2e} (limit 1e-8)")


class TestCriterion5LocalCaseAdjoint:
    def test_constant_and_sinusoidal_drifts(self):
        grid = TimeGrid(6.0, 1e-3)
        rho0 = fig1_row(256)
        t = grid.full_times()
        rep_const = local_adjoint_check(np.full(t.shape, 0.9), rho0, np.pi, grid, 1e-6)
        rep_sin = local_adjoint_check(0.8 * np.sin(1.7 * t), rho0, np.pi, grid, 1e-6)
        worst = max(rep_const["max_error"], rep_sin["max_error"])
        ok = worst < 1e-6 and rep_const["passed"] and rep_sin["passed"]
        report(5, "measure-independent co-density closed form", ok,
               f"max pointwise err {worst:.2e} (limit 1e-6, 256 harmonics, tau 1e-3)")


class TestCriterion6IncrementSlope:
    def test_three_control_pairs(self):
        grid = TimeGrid(6.0, 1e-3)
        model = kuramoto_model(0.0, np.pi)
        rho0 = fig1_row(256)
        u0 = fig1_control(grid)
        lambdas = [1e-3, 2e-3, 4e-3, 8e-3]
        pair = fig1_slope_pair(integrate_forward(rho0, u0, model, grid), u0, model)
        reps = increment_slope_check(rho0, pair, synthetic_control_pairs(model, grid, 2),
                                     model, grid, lambdas, 0.05, 1.8)

        details = []
        ok = True
        for label, rep in zip(("experiment", "synthetic-1", "synthetic-2"), reps, strict=True):
            ratios_ok = all(np.isfinite(r) and abs(r - 1.0) <= 0.05
                            for r in rep["ratios"])
            order_ok = rep["residual_order"] >= 1.8
            ok = ok and ratios_ok and order_ok and rep["passed"]
            spread = max(abs(r - 1.0) for r in rep["ratios"])
            details.append(f"{label}: ratio dev {spread:.3f}, "
                           f"order {rep['residual_order']:.2f}")
        report(6, "first-order decrement oracle", ok, "; ".join(details))


class TestCriterion7ParticleOracle:
    def test_optimized_control_replayed_through_particles(self, desk_run):
        grid, model = desk_run["grid"], desk_run["model"]
        rho0, u_opt = desk_run["rho0"], desk_run["result"].u_final
        reps = list(meanfield_vs_particles(integrate_forward(rho0, u_opt, model, grid), u_opt,
                                           model, [1000, 10000, 100000], 0.02)["runs"].values())
        discrepancies = [rep["moment_discrepancy"] for rep in reps]
        cost_gap_1e4 = reps[1]["cost_gap"]
        monotone = all(b < a for a, b in zip(discrepancies, discrepancies[1:]))
        ok = cost_gap_1e4 <= 0.02 and monotone
        report(7, "stratified particle oracle", ok,
               f"cost gap at 1e4 particles {cost_gap_1e4:.2e} (limit 0.02), "
               f"moment discrepancies {['%.2e' % d for d in discrepancies]} monotone: {monotone}")


class TestCriterion8Rk4Order:
    def test_global_error_scales_at_fourth_order(self):
        rho = half_row(32, {0: 1.0 / (2.0 * np.pi), 1: 0.04 + 0.02j, 4: 0.03 - 0.05j})
        model = kuramoto_model(0.0, np.pi, control_set=ball(3.0))
        c = 2.0
        taus = [4e-3, 2e-3, 1e-3]
        errs = []
        for tau in taus:
            grid = TimeGrid(1.0, tau)
            traj = integrate_forward(rho, constant_control(grid, [c, 0.0]), model, grid)
            closed = full_rows(rho) * np.exp(-1j * mode_numbers(33) * c)
            errs.append(np.max(np.abs(full_rows(traj.terminal_field()) - closed)))
        order = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
        ok = order >= 3.7
        report(8, "integrator convergence order", ok,
               f"fitted order {order:.2f} (limit 3.7), errors {['%.1e' % e for e in errs]}")


class TestCriterion9PropertySuites:
    def test_non_extremality_sign(self, desk_run, rng):
        values = [r.non_extremality for r in desk_run["result"].history]
        grid, model, rho0, _ = desk_problem()
        small = TimeGrid(0.4, 5e-3)
        for _ in range(3):
            t = small.full_times()
            u = ControlSignal(small, np.column_stack([
                rng.uniform(-0.9, 0.9) * np.sin(t + rng.uniform(0, 6)),
                rng.uniform(-0.9, 0.9) * np.cos(2 * t + rng.uniform(0, 6))]))
            traj = integrate_forward(rho0, u, model, small)
            cotraj = integrate_backward(traj, u, model)
            d = switching_function(traj, cotraj, model)
            values.append(non_extremality(u, target_control(d, model.control_set, u), d))
        floor = min(values)
        ok = floor >= -1e-12
        report(9, "non-extremality sign", ok, f"min value {floor:.2e} (limit -1e-12)")

    def test_adjoint_superposition(self, rng):
        from conftest import random_hermitian
        grid = TimeGrid(0.5, 2.5e-3)
        model = kuramoto_model(0.4, 1.0)
        rho = half_row(32, {0: 1.0 / (2.0 * np.pi), 1: 0.02 + 0.03j})
        t = grid.full_times()
        u = ControlSignal(grid, np.column_stack([0.5 * np.sin(t), 0.7 * np.cos(2 * t)]))
        traj = integrate_forward(rho, u, model, grid)
        z1 = random_hermitian(32, rng, mass=0.3)
        z2 = random_hermitian(32, rng, mass=-0.2)
        every = grid.full_times()
        s1 = integrate_backward(traj, u, model, terminal=z1, keep=every)
        s2 = integrate_backward(traj, u, model, terminal=z2, keep=every)
        combo = 0.6 * z1 - 1.4 * z2
        s12 = integrate_backward(traj, u, model, terminal=combo, keep=every)
        gap = float(np.max(np.abs(s12.coeffs - 0.6 * s1.coeffs + 1.4 * s2.coeffs)))
        ok = gap < 1e-10
        report(9, "adjoint superposition", ok, f"defect {gap:.2e} (limit 1e-10)")

    def test_hermitian_symmetry_through_the_full_run(self, desk_run):
        worst = 0.0
        for rows in (dense(desk_run["traj"]), desk_run["cotraj"].coeffs):
            for s in range(0, len(rows), 100):
                worst = max(worst, hermitian_defect(full_rows(rows[s])))
        # Every stored half row expands to an exactly Hermitian field.
        ok = worst == 0.0
        report(9, "Hermitian symmetry through optimize", ok,
               f"max defect {worst:.2e} (required: exactly 0)")

    def test_summary_determinism(self, tmp_path):
        doc = {
            "command": "optimize",
            "model": {"alpha": 0.0, "x0": np.pi,
                      "constraint": {"kind": "ball", "radius": np.sqrt(2.0)}},
            "grid": {"T": 0.5, "tau": 0.005, "n_modes": 64},
            "initial_density": "fig1",
            "initial_control": "fig1",
            "descent": {"k_max": 6},
            "output_dir": "",
            "snapshot_times": [0.0, 0.5],
        }
        summaries = []
        for tag in ("a", "b"):
            doc["output_dir"] = str(tmp_path / tag)
            path = tmp_path / f"{tag}.json"
            path.write_text(json.dumps(doc))
            assert cli_main(["optimize", "--config", str(path)]) == 0
            summary = json.loads((tmp_path / tag / "summary.json").read_text())
            summary.pop("timings")
            summaries.append(summary)
        ok = summaries[0] == summaries[1]
        report(9, "summary determinism", ok,
               "repeated runs agree" if ok else f"{summaries[0]} != {summaries[1]}")
