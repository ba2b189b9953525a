"""Adjoint-based descent over controls with backtracking line search.

One outer iteration runs: forward solve, backward adjoint solve, switching
function d(t) (the pairing of each control channel's field with the
co-density), pointwise maximization of v . d(t) over the admissible set to
get the target control, the non-extremality value

    E[u] = <target - u, d>_{L2}  >=  0,

and a backtracking search over convex steps toward the target that accepts
the largest theta^j satisfying the sufficient-decrease test

    cost(u + theta^j (target - u)) - cost(u) <= -c * theta^j * E[u].

E[u] = 0 characterizes controls satisfying the pointwise maximum condition,
so it doubles as the convergence measure; the accepted step size gives the
stopping rule used in the experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .adjoint import integrate_backward
from .errors import DivergenceError
from .forward import Checkpoints, batch_rows, cost_of_control, integrate_forward
from .models import ModelSpec
from .timegrid import ControlSignal, TimeGrid, Trajectory

# Ball directions shorter than this are treated as ties (current control kept).
_TIE_NORM = 1e-14

# Trial steps per forward solve in the line search.  A march of B trials at
# 256 harmonics takes about 0.15 + 0.05 B seconds (fitted to B = 1..16 on
# one core); over the accepted exponents of the desk run that cost is lowest
# at 8 among 2..16.  Wider rows march fewer at once (`forward.batch_rows`):
# a chunk also marches the trials past the accepted one, and at 2048
# harmonics sharing a march saves too little per row to pay for them.
TRIAL_CHUNK = 8

STATUS_EXTREMAL = "non-extremality-converged"
STATUS_STEP = "step-size-converged"
STATUS_MAX_ITER = "max-iterations"
STATUS_LINE_SEARCH = "line-search-failed"


@dataclass(frozen=True)
class SwitchingFunction:
    """Per-node coefficients d(t) of the cost's linear response to the control.

    `values` has shape (K + 1, 2): one column per control channel.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_steps + 1, 2):
            raise ValueError("switching values must be (n_nodes, 2)")
        if not np.all(np.isfinite(v)):
            raise ValueError("switching values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class DescentConfig:
    """Backtracking and stopping parameters.

    c and theta live in (0, 1); lambda_tol is the accepted-step stopping
    threshold, eps_tol the non-extremality stopping threshold, j_max the
    deepest backtracking exponent, k_max the outer iteration cap.  c * theta^j_max
    must be a normal float, or the deepest sufficient decreases would round
    toward zero (j_max <= 1015 at c = 0.01, theta = 0.5).

    lambda_patience is the number of consecutive below-threshold steps
    required before the step-size rule terminates the run.  Accepted step
    sizes oscillate strongly along curved valleys (the target control lives
    on the constraint boundary, so iterates zigzag), and a single tiny step
    is routinely followed by full-length ones; a patience of 1 reproduces
    the raw stop-at-first-small-step rule.
    """

    c: float = 0.01
    theta: float = 0.5
    lambda_tol: float = 1e-2
    j_max: int = 40
    k_max: int = 200
    eps_tol: float = 1e-8
    lambda_patience: int = 3

    def __post_init__(self):
        if not (0.0 < self.c < 1.0 and 0.0 < self.theta < 1.0):
            raise ValueError("c and theta must lie in (0, 1)")
        if self.lambda_tol < 0 or self.eps_tol < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.j_max < 0 or self.k_max < 1:
            raise ValueError("j_max must be >= 0 and k_max >= 1")
        if self.c * self.theta ** self.j_max < np.finfo(float).tiny:
            raise ValueError(f"c * theta**j_max must stay a normal float (>= "
                             f"{np.finfo(float).tiny:.3e}); reduce j_max = {self.j_max}")
        if self.lambda_patience < 1:
            raise ValueError("lambda_patience must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    cost: float
    non_extremality: float
    lam: float
    backtrack_count: int
    wall_time: float


@dataclass(frozen=True)
class DescentResult:
    """The final control, one record per iteration, and how the run stopped.

    `starts` are the checkpoints of the last accepted trial (None if no
    step was accepted), so a stored solve of `u_final` can reuse them.
    """

    u_final: ControlSignal
    history: tuple
    status: str
    final_cost: float
    starts: Checkpoints | None = None

    @property
    def iterations(self) -> int:
        return len(self.history)


def switching_function(traj: Trajectory, cotraj: Trajectory,
                       model: ModelSpec) -> SwitchingFunction:
    """Pair each control channel's field with the co-density at full nodes.

    d_j(t_k) = integral V^j(x, mu_{t_k}) zeta_{t_k}(x) dx, that is
    d_1 = 2*pi * Re b_0 and d_2 = 2*pi * Re(v b_{-1} + conj(v) b_{+1}) with
    v = i*pi*a_1*e^{i*alpha}, for all nodes at once.  The half rows give
    b_{-1} = conj(b_1), so the two terms of d_2 have one real part.
    """
    if traj.grid != cotraj.grid:
        raise ValueError("trajectories must share a grid")
    if traj.n_modes != cotraj.n_modes:
        raise ValueError("trajectory resolutions differ")
    a = traj.full_nodes()
    b = cotraj.full_nodes()
    vr, vi = model.coupling(a[:, 1])
    b1 = b[:, 1]
    # Re(conj(v)*b_{+1}), in real arithmetic like v itself, counted twice;
    # the leading 0.0 + turns an exact -0.0 sum into 0.0.
    coupling = 0.0 + 2.0 * (vr * b1.real + vi * b1.imag)
    drift = 0.0 + b[:, 0].real
    vals = (2.0 * np.pi) * np.column_stack([drift, coupling])
    return SwitchingFunction(traj.grid, vals)


def target_control(d: SwitchingFunction, admissible, u: ControlSignal) -> ControlSignal:
    """Pointwise maximizer of v . d(t) over the admissible set.

    Ball: radius * d/|d|.  Box: the bound selected by the sign of each
    component.  Where the direction vanishes every point maximizes, and the
    current control value is kept (ties contribute nothing to the
    non-extremality integral and avoid spurious direction changes).
    """
    if d.grid != u.grid:
        raise ValueError("switching function and control live on different grids")
    dv = d.values
    out = np.array(u.values, dtype=float)
    if admissible.kind == "ball":
        norms = np.linalg.norm(dv, axis=1)
        active = norms > _TIE_NORM
        out[active] = dv[active] * (admissible.radius / norms[active])[:, None]
    else:
        pos = dv > 0.0
        neg = dv < 0.0
        upper = np.broadcast_to(admissible.upper, dv.shape)
        lower = np.broadcast_to(admissible.lower, dv.shape)
        out[pos] = upper[pos]
        out[neg] = lower[neg]
    return ControlSignal(u.grid, out)


def non_extremality(u: ControlSignal, ubar: ControlSignal, d: SwitchingFunction) -> float:
    """L2 pairing <ubar - u, d>; nonnegative whenever ubar is the target.

    Rectangle rule over the K control steps; the node at t = T carries no
    weight because controls are constant on [t_k, t_{k+1}).
    """
    if u.grid != ubar.grid or u.grid != d.grid:
        raise ValueError("grids differ")
    a = ubar.values - u.values
    return float(u.grid.tau * np.sum(a[:-1] * d.values[:-1]))


def backtracking_step(u: ControlSignal, ubar: ControlSignal, energy: float,
                      cost_u: float, cfg: DescentConfig, evaluator, chunk: int = TRIAL_CHUNK):
    """Largest theta^j (smallest j) passing the sufficient-decrease test.

    `energy` is the non-extremality E[u] = <ubar - u, d> of the step.

    `evaluator` maps a list of trial controls to their costs and
    checkpoints, two lists, by fresh forward solves (`cost_of_control`),
    raising DivergenceError if any of them diverges.  The
    ladder theta^0 .. theta^{j_max} goes to it `chunk` trials at a time, and
    the smallest passing j is accepted, so the result is that of trying one
    step after the other: a trial past the accepted one may diverge without
    effect, one before it raises.  The ladder is never held whole.
    Returns (lam, new_cost, j, accepted, starts), `starts` being the
    accepted trial's checkpoints; lam = 0 with accepted = False and
    starts = None when no exponent up to j_max qualifies.
    """
    slope = -energy
    lam = 1.0
    for start in range(0, cfg.j_max + 1, chunk):
        lams = []
        for _ in range(min(chunk, cfg.j_max + 1 - start)):
            lams.append(lam)
            lam *= cfg.theta
        trials = [u.toward(ubar, step) for step in lams]
        try:
            costs, starts = evaluator(trials)
        except DivergenceError:
            costs = None  # retried one trial at a time, up to the first passing one
        for i, trial in enumerate(trials):
            if costs is None:
                (trial_cost,), (trial_starts,) = evaluator([trial])
            else:
                trial_cost, trial_starts = costs[i], starts[i]
            # A bound that underflows to -0.0 would pass a trial that decreases nothing.
            if trial_cost - cost_u <= cfg.c * lams[i] * slope < 0.0:
                return lams[i], trial_cost, start + i, True, trial_starts
    return 0.0, cost_u, cfg.j_max + 1, False, None


def run_descent(rho0: np.ndarray, u0: ControlSignal, model: ModelSpec,
                grid: TimeGrid, cfg: DescentConfig,
                progress=None) -> DescentResult:
    """Outer descent loop.

    Per iteration: forward solve, adjoint solve, switching function, target
    control, non-extremality, backtracking, convex update (re-projected to
    absorb round-off).  The next forward solve gets the accepted trial's
    checkpoints, which it uses if the projection kept the trial's bits.
    Stops when the non-extremality drops below eps_tol, when the accepted
    step has stayed below lambda_tol for lambda_patience consecutive
    iterations, on k_max, or on a failed line search.  The recorded costs
    are non-increasing.

    Args:
        rho0: half row of the initial density.
        progress: optional callable receiving each IterationRecord.
    """
    u = ControlSignal(u0.grid, model.control_set.project(u0.values))
    history: list[IterationRecord] = []
    status = STATUS_MAX_ITER
    small_steps = 0
    starts = None

    def evaluator(trials: list) -> tuple[list, list]:
        return cost_of_control(rho0, trials, model, grid)

    chunk = min(TRIAL_CHUNK, batch_rows(len(rho0)))

    for k in range(cfg.k_max):
        t0 = time.perf_counter()
        traj = integrate_forward(rho0, u, model, grid, starts)
        cost = model.cost.eval(traj.terminal_field())
        cotraj = integrate_backward(traj, u, model)
        d = switching_function(traj, cotraj, model)
        ubar = target_control(d, model.control_set, u)
        energy = non_extremality(u, ubar, d)

        extremal = energy < cfg.eps_tol
        if extremal:
            lam, j, accepted = 0.0, 0, False
        else:
            lam, new_cost, j, accepted, trial_starts = backtracking_step(
                u, ubar, energy, cost, cfg, evaluator, chunk)
        record = IterationRecord(k, cost, energy, lam, j, time.perf_counter() - t0)
        history.append(record)
        if progress is not None:
            progress(record)

        if not accepted:
            status = STATUS_EXTREMAL if extremal else STATUS_LINE_SEARCH
            final_cost = cost
            break

        u = ControlSignal(u.grid, model.control_set.project(u.toward(ubar, lam).values))
        final_cost = new_cost
        starts = trial_starts
        small_steps = small_steps + 1 if lam < cfg.lambda_tol else 0
        if small_steps >= cfg.lambda_patience:
            status = STATUS_STEP
            break

    return DescentResult(u, tuple(history), status, float(final_cost), starts)
