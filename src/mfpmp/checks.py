"""Independent oracles for the solver chain, reported as JSON-ready dicts.

Three cross-checks back the solver stack:

* a finite oscillator ensemble integrated with its own RK4 march, compared
  against the spectral solution through trigonometric moments and cost;
* a finite-difference probe of the first-order cost expansion: the decrease
  predicted through the adjoint pairing must match actual forward solves to
  first order in the step, with a second-order residual;
* the measure-independent (pure rotation) case, where the co-density has a
  closed form along characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import integrate_backward
from .descent import non_extremality, switching_function, target_control
from .forward import batch_rows, cost_of_control, integrate_forward
from .models import ModelSpec, box, kuramoto_model
from .particles import particle_cost, simulate_particles, stratified_ensemble
from .spectral import grid_points, reconstruct_rows
from .timegrid import ControlSignal, TimeGrid, Trajectory


def meanfield_vs_particles(traj: Trajectory, u: ControlSignal, model: ModelSpec,
                           ensemble_sizes, cost_tol: float) -> dict:
    """Compare the stored spectral solve `traj` of u with a stratified particle run of each size.

    All systems see the identical control and start from the trajectory's
    initial row, and the one spectral solve serves every ensemble.  Reports,
    per ensemble (`runs`, keyed by its size as a string), the largest
    mismatch of the first two trigonometric moments at t in {0, T/2, T}
    (T/2 rounded down to a full node) and the terminal cost gap; whether
    the mismatches fall as the ensembles grow; and the verdict: the largest
    ensemble's cost gap must be at most cost_tol.
    """
    grid, m = traj.grid, traj.substeps
    check_nodes = sorted({0, grid.n_steps // 2, grid.n_steps})
    mf_cost = model.cost.eval(traj.terminal_field())
    nodes = {k: traj.rows(m * k, m * k + 1)[0] for k in check_nodes}

    runs = {}
    for n_particles in ensemble_sizes:
        ensemble0 = stratified_ensemble(nodes[0], n_particles)
        terminal, snaps = simulate_particles(ensemble0, u, model.alpha, grid, check_nodes)
        per_time = {}
        worst = 0.0
        for k in check_nodes:
            a = nodes[k]
            phases = snaps[k]
            entry = {}
            for n in (1, 2):
                moment = np.mean(np.exp(1j * n * phases))
                spectral = 2.0 * np.pi * np.conj(a[n])
                gap = abs(moment - spectral)
                entry[f"moment_{n}"] = gap
                worst = max(worst, gap)
            per_time[f"t={k * grid.tau:g}"] = entry
        pc_cost = particle_cost(terminal, model.x0)
        runs[str(n_particles)] = {
            "n_particles": n_particles,
            "moment_discrepancy": worst,
            "per_time": per_time,
            "meanfield_cost": mf_cost,
            "particle_cost": pc_cost,
            "cost_gap": abs(mf_cost - pc_cost),
        }
    discrepancies = [run["moment_discrepancy"] for run in runs.values()]
    cost_gap = runs[str(max(ensemble_sizes))]["cost_gap"]
    return {
        "runs": runs,
        "cost_gap": cost_gap,
        "cost_tol": cost_tol,
        "moment_monotone": all(b <= a for a, b in zip(discrepancies, discrepancies[1:])),
        "passed": bool(cost_gap <= cost_tol),
    }


@dataclass(frozen=True)
class Reference:
    """A control with its cost and switching function, but not its trajectories."""

    u: ControlSignal
    cost: float
    d: ControlSignal


def reference(traj: Trajectory, u: ControlSignal, model: ModelSpec) -> Reference:
    """The reference of u from its stored solve `traj`: one adjoint solve."""
    cotraj = integrate_backward(traj, u, model)
    return Reference(u, model.cost.eval(traj.terminal_field()),
                     switching_function(traj, cotraj, model))


def increment_slope_check(rho0: np.ndarray, pair: tuple[Reference, ControlSignal],
                          synthetic, model: ModelSpec, grid: TimeGrid, lambdas,
                          ratio_tol: float, order_min: float) -> list[dict]:
    """Probe the first-order cost expansion along u + lam * (ubar - u) for every pair.

    `pair` is the experiment's (reference, ubar); `synthetic` holds (u, ubar)
    control pairs.  The adjoint route predicts cost(u^lam) - cost(u) = -lam * S
    with S = <ubar - u, d>.  One lean march takes each synthetic u and every
    ladder as the rows of one state; then each synthetic u's stored solve
    resumes from its checkpoints for its reference, one at a time.
    Reports per pair, the experiment's first, the per-lambda ratios
    actual/predicted (None where the predicted decrease is 0), the residuals,
    and the verdict: the ratio at the smallest step must lie within ratio_tol
    of 1, and the log-log order of the residual between the two smallest
    steps (NaN for one step) must reach order_min; it approaches 2.  Larger
    steps are not asymptotic: their lam^3 term can cancel the lam^2 one.
    """
    lambdas = [float(l) for l in lambdas]
    if any(not 0.0 < l <= 1.0 for l in lambdas):
        raise ValueError("lambdas must lie in (0, 1]")
    ladders = [u.toward(ubar, lam) for u, ubar in [(pair[0].u, pair[1]), *synthetic]
               for lam in lambdas]
    costs, starts = cost_of_control(rho0, [u for u, _ in synthetic] + ladders, model, grid)
    del starts[len(synthetic):]  # the ladders' checkpoints are never resumed
    probes = [pair] + [(reference(integrate_forward(rho0, u, model, grid, marks), u, model), ubar)
                       for (u, ubar), marks in zip(synthetic, starts)]
    smallest = np.argsort(lambdas)[:2]
    log_lams = np.log(lambdas)[smallest]

    reports = []
    for i, (ref, ubar) in enumerate(probes):
        slope = non_extremality(ref.u, ubar, ref.d)
        ratios, residuals = [], []
        first = len(synthetic) + i * len(lambdas)  # where this pair's ladder costs begin
        for lam, cost in zip(lambdas, costs[first:]):
            actual = cost - ref.cost
            predicted = -lam * slope
            ratios.append(actual / predicted if predicted != 0.0 else None)
            residuals.append(abs(actual - predicted))

        logs = np.log(np.maximum(residuals, 1e-300))[smallest]
        order = float(np.diff(logs)[0] / np.diff(log_lams)[0]) if len(logs) == 2 else np.nan
        ratio = ratios[smallest[0]]
        reports.append({
            "lambdas": lambdas,
            "predicted_slope": slope,
            "ratios": ratios,
            "residuals": residuals,
            "residual_order": order,
            "passed": bool(ratio is not None and abs(ratio - 1.0) <= ratio_tol
                           and order >= order_min),
        })
    return reports


# The drift profiles of the closed-form co-density oracle, with their parameter defaults.
LOCAL_U1 = {"constant": {"value": 1.0},
            "sinusoidal": {"amplitude": 1.0, "frequency": 1.0}}


def local_u1_profile(spec: dict, grid: TimeGrid) -> np.ndarray:
    """Drift profile of the closed-form check; `spec` names every parameter of its kind."""
    t = grid.full_times()
    if spec["kind"] == "constant":
        return np.full(t.shape, float(spec["value"]))
    return float(spec["amplitude"]) * np.sin(float(spec["frequency"]) * t)


def local_adjoint_check(u1_values, rho0: np.ndarray, x0: float, grid: TimeGrid,
                        tol: float) -> dict:
    """Closed-form co-density check for the measure-independent case.

    With the coupling channel off (u_2 = 0) the field is a rigid rotation
    and the co-density factorizes as

        zeta_t(x) = -sin(x + s(t) - x0) * rho_0(x - c(t)),

    where s(t) is the remaining rotation integral of u_1 and c(t) the
    accumulated one (both exact for piecewise-constant controls).  The
    solve keeps the K + 1 full-step rows of the co-density and lets the
    forward trajectory go; the rows are compared with the closed form
    `forward.batch_rows` nodes at a time, so the temporaries stay one
    block in size.  Reports the largest pointwise gap between the solved
    and analytic co-densities over all full-step nodes and grid points,
    and the verdict: the gap must be at most tol.
    """
    u1 = np.asarray(u1_values, dtype=float)
    if u1.shape != (grid.n_steps + 1,):
        raise ValueError(f"u1 profile must have {grid.n_steps + 1} node values")
    u = ControlSignal(grid, np.column_stack([u1, np.zeros_like(u1)]))
    # Every finite profile fits the least box admitting it; the closed form does not read it.
    m = float(np.max(np.abs(u1)))
    model = kuramoto_model(alpha=0.0, x0=x0, control_set=box([-m, 0.0], [m, 0.0]))
    traj = integrate_forward(rho0, u, model, grid)
    cotraj = integrate_backward(traj, u, model, keep=grid.full_times())
    # rho_0 as the solver marched it: the stored initial half row.
    initial, width, m = traj.rows(0, 1)[0], traj.width, traj.substeps
    del traj

    # Remaining and accumulated rotation per sub-step, summed backward in
    # order as the march steps (np.cumsum is sequential), exact for the
    # piecewise-constant control class; read at the full nodes, all of which
    # the co-trajectory keeps.
    steps = (grid.tau / m) * np.repeat(u1[:-1], m)
    remaining = np.append(np.cumsum(steps[::-1])[::-1], 0.0)[::m]
    accumulated = remaining[0] - remaining

    x = grid_points(cotraj.n_modes)
    modes = np.arange(width)
    rows, err = batch_rows(width), 0.0  # np.maximum keeps a NaN, as one np.max would
    for lo in range(0, grid.n_steps + 1, rows):
        rho_t = reconstruct_rows(initial * np.exp(-1j * np.outer(accumulated[lo:lo + rows],
                                                                  modes)))
        analytic = -np.sin(x[None, :] + remaining[lo:lo + rows, None] - x0) * rho_t
        solved = reconstruct_rows(cotraj.coeffs[lo:lo + rows])
        err = float(np.maximum(err, np.max(np.abs(solved - analytic))))
    return {"max_error": err, "n_modes": cotraj.n_modes, "tau": grid.tau, "tol": tol,
            "passed": err <= tol}


_PAIR_RECIPES = (
    (lambda t: np.column_stack([0.4 * np.sin(t), 0.3 * np.cos(2.0 * t)]),
     lambda t: np.column_stack([0.7 * np.cos(t), -0.5 * np.sin(t)])),
    (lambda t: np.column_stack([0.2 + 0.0 * t, -0.3 + 0.0 * t]),
     lambda t: np.column_stack([-0.6 * np.cos(3.0 * t), 0.5 + 0.0 * t])),
    (lambda t: np.column_stack([0.5 * np.sin(2.0 * t), 0.1 + 0.0 * t]),
     lambda t: np.column_stack([0.2 + 0.0 * t, 0.6 * np.sin(t)])),
)
MAX_EXTRA_PAIRS = len(_PAIR_RECIPES)


def synthetic_control_pairs(model: ModelSpec, grid: TimeGrid,
                            count: int) -> list[tuple[ControlSignal, ControlSignal]]:
    """Deterministic feasible (u, ubar) control pairs for slope probes, unsolved."""
    if not 0 <= count <= MAX_EXTRA_PAIRS:
        raise ValueError(f"count must lie in 0..{MAX_EXTRA_PAIRS}, got {count}")
    t = grid.full_times()
    return [tuple(ControlSignal(grid, model.control_set.project(fn(t))) for fn in recipe)
            for recipe in _PAIR_RECIPES[:count]]


def fig1_slope_pair(traj: Trajectory, u0: ControlSignal,
                    model: ModelSpec) -> tuple[Reference, ControlSignal]:
    """The (reference of the initial control, its target control) pair of the experiment.

    `traj` is the stored forward solve of u0, which the particle oracle
    also reads.
    """
    ref = reference(traj, u0, model)
    return ref, target_control(ref.d, model.control_set, u0)
