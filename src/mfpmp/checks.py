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
from .descent import SwitchingFunction, non_extremality, switching_function, target_control
from .forward import batch_rows, cost_of_control, integrate_forward
from .models import ModelSpec, box, kuramoto_model
from .particles import particle_cost, simulate_particles, stratified_ensemble
from .spectral import grid_points, reconstruct_rows
from .timegrid import ControlSignal, TimeGrid, Trajectory


def meanfield_vs_particles(traj: Trajectory, u: ControlSignal, model: ModelSpec,
                           ensemble_sizes) -> list[dict]:
    """Compare the stored spectral solve `traj` of u with a stratified particle run of each size.

    All systems see the identical control and start from the trajectory's
    initial row, and the one spectral solve serves every ensemble.  Reports,
    per ensemble, the largest mismatch of the first two trigonometric
    moments at t in {0, T/2, T} (T/2 rounded down to a full node) and the
    terminal cost gap.
    """
    grid = traj.grid
    check_nodes = sorted({0, grid.n_steps // 2, grid.n_steps})
    mf_cost = model.cost.eval(traj.terminal_field())
    nodes = traj.full_nodes()

    reports = []
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
        reports.append({
            "n_particles": n_particles,
            "moment_discrepancy": worst,
            "per_time": per_time,
            "meanfield_cost": mf_cost,
            "particle_cost": pc_cost,
            "cost_gap": abs(mf_cost - pc_cost),
        })
    return reports


@dataclass(frozen=True)
class Reference:
    """A control with its cost and switching function, but not its trajectories."""

    u: ControlSignal
    cost: float
    d: SwitchingFunction


def reference(traj: Trajectory, u: ControlSignal, model: ModelSpec) -> Reference:
    """The reference of u from its stored solve `traj`: one adjoint solve."""
    cotraj = integrate_backward(traj, u, model)
    return Reference(u, model.cost.eval(traj.terminal_field()),
                     switching_function(traj, cotraj, model))


def increment_slope_check(rho0: np.ndarray, ref: Reference, ubar: ControlSignal,
                          model: ModelSpec, grid: TimeGrid, lambdas) -> dict:
    """Probe the first-order cost expansion along u + lam * (ubar - u), u = ref.u.

    The adjoint route predicts cost(u^lam) - cost(u) = -lam * S with
    S = <ubar - u, d>; actual differences come from fresh forward solves of
    the ladder, `batch_rows` controls at a time.
    Reports per-lambda ratios actual/predicted (None where the predicted
    decrease is 0) and the log-log slope of the residual, which must
    approach 2.
    """
    lambdas = [float(l) for l in lambdas]
    if any(l <= 0 or l > 1 for l in lambdas):
        raise ValueError("lambdas must lie in (0, 1]")
    u = ref.u
    slope = non_extremality(u, ubar, ref.d)

    ratios = []
    residuals = []
    ladder = [u.toward(ubar, lam) for lam in lambdas]
    rows = batch_rows(len(rho0))
    costs = [c for i in range(0, len(ladder), rows)
             for c in cost_of_control(rho0, ladder[i:i + rows], model, grid)[0]]
    for lam, cost in zip(lambdas, costs):
        actual = cost - ref.cost
        predicted = -lam * slope
        ratios.append(actual / predicted if predicted != 0.0 else None)
        residuals.append(abs(actual - predicted))

    logs = np.log(np.maximum(residuals, 1e-300))
    order = float(np.polyfit(np.log(lambdas), logs, 1)[0]) if len(lambdas) >= 2 else np.nan
    return {
        "lambdas": lambdas,
        "predicted_slope": slope,
        "ratios": ratios,
        "residuals": residuals,
        "residual_order": order,
    }


def local_adjoint_check(u1_values, rho0: np.ndarray, x0: float, grid: TimeGrid) -> dict:
    """Closed-form co-density check for the measure-independent case.

    With the coupling channel off (u_2 = 0) the field is a rigid rotation
    and the co-density factorizes as

        zeta_t(x) = -sin(x + s(t) - x0) * rho_0(x - c(t)),

    where s(t) is the remaining rotation integral of u_1 and c(t) the
    accumulated one (both exact for piecewise-constant controls).  Reports
    the largest pointwise gap between the solved and analytic co-densities
    over all full-step nodes and grid points.
    """
    u1 = np.asarray(u1_values, dtype=float)
    if u1.shape != (grid.n_steps + 1,):
        raise ValueError(f"u1 profile must have {grid.n_steps + 1} node values")
    u = ControlSignal(grid, np.column_stack([u1, np.zeros_like(u1)]))
    # Every finite profile fits the least box admitting it; the closed form does not read it.
    m = float(np.max(np.abs(u1)))
    model = kuramoto_model(alpha=0.0, x0=x0, control_set=box([-m, 0.0], [m, 0.0]))
    traj = integrate_forward(rho0, u, model, grid)
    cotraj = integrate_backward(traj, u, model)

    # Remaining and accumulated rotation per half step, summed as the march
    # steps, exact for the piecewise-constant control class; read at the
    # full nodes, where the co-trajectory is stored.
    n_half = 2 * grid.n_steps
    h = 0.5 * grid.tau
    remaining = np.zeros(n_half + 1)
    for s in range(n_half - 1, -1, -1):
        remaining[s] = remaining[s + 1] + h * u1[s >> 1]
    accumulated = remaining[0] - remaining

    x = grid_points(traj.n_modes)
    modes = np.arange(traj.coeffs.shape[1])
    # rho_0 as the solver marched it: the stored initial half row.
    shifted = traj.coeffs[0] * np.exp(-1j * np.outer(accumulated[::2], modes))
    rho_t = reconstruct_rows(shifted)
    analytic = -np.sin(x[None, :] + remaining[::2, None] - x0) * rho_t
    solved = reconstruct_rows(cotraj.coeffs)
    err = float(np.max(np.abs(solved - analytic)))
    return {"max_error": err, "n_modes": traj.n_modes, "tau": grid.tau}


_PAIR_RECIPES = (
    (lambda t: np.column_stack([0.4 * np.sin(t), 0.3 * np.cos(2.0 * t)]),
     lambda t: np.column_stack([0.7 * np.cos(t), -0.5 * np.sin(t)])),
    (lambda t: np.column_stack([0.2 + 0.0 * t, -0.3 + 0.0 * t]),
     lambda t: np.column_stack([-0.6 * np.cos(3.0 * t), 0.5 + 0.0 * t])),
    (lambda t: np.column_stack([0.5 * np.sin(2.0 * t), 0.1 + 0.0 * t]),
     lambda t: np.column_stack([0.2 + 0.0 * t, 0.6 * np.sin(t)])),
)
MAX_EXTRA_PAIRS = len(_PAIR_RECIPES)


def synthetic_control_pairs(rho0: np.ndarray, model: ModelSpec, grid: TimeGrid,
                            count: int) -> list[tuple[Reference, ControlSignal]]:
    """Deterministic feasible (reference, target) pairs for slope probes."""
    if not 0 <= count <= MAX_EXTRA_PAIRS:
        raise ValueError(f"count must lie in 0..{MAX_EXTRA_PAIRS}, got {count}")
    t = grid.full_times()
    pairs = []
    for ref_fn, tgt_fn in _PAIR_RECIPES[:count]:
        ref, tgt = (ControlSignal(grid, model.control_set.project(fn(t)))
                    for fn in (ref_fn, tgt_fn))
        pairs.append((reference(integrate_forward(rho0, ref, model, grid), ref, model), tgt))
    return pairs


def fig1_slope_pair(traj: Trajectory, u0: ControlSignal,
                    model: ModelSpec) -> tuple[Reference, ControlSignal]:
    """The (reference of the initial control, its target control) pair of the experiment.

    `traj` is the stored forward solve of u0, which the particle oracle
    also reads.
    """
    ref = reference(traj, u0, model)
    return ref, target_control(ref.d, model.control_set, u0)
