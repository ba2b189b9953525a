"""Forward integration of the nonlocal continuity equation in Fourier space.

The transport PDE becomes the coefficient system

    d a_n / dt = -i * n * (u_1 a_n + v a_{n-1} + conj(v) a_{n+1}),

where v = u_2 * i*pi*a_1*e^{i*alpha} is the coupling channel's harmonic +1
and out-of-range harmonics count as zero (series truncation).  The density
is real, so a_{-n} = conj(a_n), and the solver takes, stores and marches
only the half rows n = 0 .. N/2 (see `spectral`).  Row n >= 1 reads only
harmonics >= 0, and the n = 0 row is multiplied by n = 0, so the half march
has the bits of the n >= 0 half of a full-layout march, and a_0 stays
real, which makes the field Hermitian exactly, not to rounding.  Time
stepping is classical RK4 at half the control step, so the trajectory
lands on every half-step node; controls are piecewise constant per full
step, hence every RK4 stage sees a single control value.  The n = 0
equation has an explicit factor n, so the mass coefficient is conserved
bit-for-bit.

On the initial state and after every step, real and imaginary parts below
the smallest normal float (`np.finfo(float).tiny`, about 2.2e-308) are set
to zero (`_settle`).  High harmonics decay geometrically, and arithmetic on
subnormal floats takes the slow path of the processor; the flushed parts
lie over 300 orders of magnitude below the mass coefficient 1/(2*pi),
which the flush never touches.

The kernels march a stack of state rows, each under its own control: the
trial steps of a line search, the adjoint's quarter-step states, or the S
time segments of one stored solve.  Rows never mix, so every row gets the
bits of a one-row march.

A lean march (`cost_of_control`) records the settled state of each row at
the full nodes k = i*K/S, i = 0 .. S-1 (`Checkpoints`).  A stored solve of
bitwise the same control marches the S segments from those states as the
rows of one state, straight into its trajectory; a cold solve is the one
segment from rho0.  S is the largest divisor of K not above `batch_rows`:
15 for the 1200 steps of 256 harmonics on the desk grid, 1 at 2048 harmonics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .models import ModelSpec
from .spectral import reconstruct_rows, require_normalized, require_row
from .timegrid import ControlSignal, TimeGrid, Trajectory

# Generous blow-up guard; healthy probability densities keep |a_n| below
# 1/(2*pi) * O(1), so anything near this limit means tau is too large.
DIVERGENCE_LIMIT = 1e6

# The IEEE bound of the normal floats: smaller parts are flushed to zero.
_TINY = np.finfo(float).tiny

# Rows marched as one state share the per-call overhead, which dominates
# narrow rows: at 256 harmonics (half rows of 129, one CPU) one RK4 step
# costs about 80 us per row for 1 row, 23-31 us for 8 and 18-20 us for 15.
# Temporaries past glibc's default 128 KiB mmap and trim thresholds have
# their pages faulted in again on every step: at 2048 harmonics (half rows
# of 1025) 8 rows cost 0.75-0.8x as much per row as one, 16 rows 1.7x.
# A budget of 2048 half-row coefficients (32 KiB) per temporary gives 15
# rows at 256 harmonics and 1 at 2048.  It bounds the S time segments of a
# stored solve, the adjoint's quarter-step blocks and, by their callers'
# choice, the controls of one `cost_of_control` call.
BATCH_COEFFS = 2048

# Diagnostics sweep a stored trajectory this many rows at a time, so their
# temporaries stay small next to the trajectory (at 2048 harmonics one
# whole-trajectory reconstruction took 376 MB).
DIAGNOSTIC_ROWS = 256


def batch_rows(width: int) -> int:
    """How many half rows of `width` coefficients to march as one state."""
    return max(1, BATCH_COEFFS // width)


def segment_count(n_steps: int, width: int) -> int:
    """S: the largest divisor of the step count K that is at most `batch_rows(width)`."""
    return max(s for s in range(1, batch_rows(width) + 1) if n_steps % s == 0)


@dataclass(frozen=True)
class Checkpoints:
    """Settled states of a forward march at the full nodes k = i*K/S, i = 0 .. S-1.

    `controls` are the values (K + 1, 2) the march ran under and `states`
    the (S, width) half rows; row 0 is the settled initial density.
    """

    grid: TimeGrid
    controls: np.ndarray
    states: np.ndarray


def _coupling_value(a1: complex, u2: float, model: ModelSpec) -> complex:
    """v = u_2 * i*pi*a_1*e^{i*alpha} for one coefficient row, in Python floats."""
    vr, vi = model.coupling(a1)
    return complex(u2 * vr, u2 * vi)


def _coupling(a: np.ndarray, u: np.ndarray, model: ModelSpec):
    """(v, conj(v)) for every row of a (rows, modes) state under complex controls u (rows, 2).

    Returns (rows, 1) columns, or Python complexes for a single row: the
    arithmetic is the same, and the array route costs about 13 us more per
    call, which the one-row stored solves would pay on every stage.
    """
    if a.shape[0] == 1:
        v = _coupling_value(complex(a[0, 1]), float(u[0, 1].real), model)
        return v, v.conjugate()
    vr, vi = model.coupling(a[:, 1])
    u2 = u[:, 1].real
    v = np.empty((a.shape[0], 1), dtype=complex)
    v.real[:, 0] = u2 * vr
    v.imag[:, 0] = u2 * vi
    return v, np.conj(v)


def _continuity_rhs(a: np.ndarray, u: np.ndarray, model: ModelSpec,
                    dn: np.ndarray) -> np.ndarray:
    """Coefficient derivative of each half row of a (rows, modes) under its control row.

    `u` is complex (rows, 2): a real control broadcast against the complex
    state would make NumPy cast on every call, which costs more than the
    arithmetic.  `dn` is `-1j * n` for n = 0 .. N/2, computed once per march.
    Row 0 misses v a_{-1}, but its factor n is 0.
    """
    v, vc = _coupling(a, u, model)
    va = u[:, :1] * a  # an exact zero may come out -0.0; `_settle` stores it as 0.0
    va[:, 1:] += v * a[:, :-1]
    va[:, :-1] += vc * a[:, 1:]
    va *= dn
    return va


def _rk4_forward_step(a: np.ndarray, h: float, u: np.ndarray,
                      model: ModelSpec, dn: np.ndarray) -> np.ndarray:
    k1 = _continuity_rhs(a, u, model, dn)
    k2 = _continuity_rhs(a + (0.5 * h) * k1, u, model, dn)
    k3 = _continuity_rhs(a + (0.5 * h) * k2, u, model, dn)
    k4 = _continuity_rhs(a + h * k3, u, model, dn)
    return a + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _settle(a: np.ndarray, t) -> None:
    """Flush the subnormal parts of a new complex state to zero, in place, and bound it.

    One look at the float view serves both: parts with |x| < tiny become
    0.0, and the largest |x| must stay within DIVERGENCE_LIMIT (NaN fails).
    `t` is the state's time, or an array of one time per row when the rows
    are time segments; a divergence reports the earliest failing row's.
    """
    parts = a.view(float)
    mag = np.abs(parts)
    peak = float(mag.max())
    if not peak <= DIVERGENCE_LIMIT:
        if np.ndim(t):
            t = float(np.min(t[~(mag.max(axis=-1) <= DIVERGENCE_LIMIT)]))
        raise DivergenceError(
            f"coefficient part {peak:.3e} at t = {t:.6g} exceeds "
            f"{DIVERGENCE_LIMIT:.0e}; reduce the time step"
        )
    parts[mag < _TINY] = 0.0


def rhs_continuity(t: float, a: np.ndarray, u, model: ModelSpec) -> np.ndarray:
    """Half row of the coefficient time derivative of the density half row a under control u.

    The model is autonomous; `t` is accepted for the usual ODE signature.
    """
    u = model.require_feasible(u)
    a = require_row(a, "density")
    return _continuity_rhs(a[None], u.astype(complex)[None], model, _factor(a.shape[0]))[0]


def _factor(width: int) -> np.ndarray:
    """-i*n for the half-row harmonics n = 0 .. width - 1."""
    return -1j * np.arange(width)


def _march(a0: np.ndarray, u_values: np.ndarray, h: float, model: ModelSpec,
           out: np.ndarray, every: int = 1, first: int | np.ndarray = 0) -> np.ndarray:
    """March the half rows of a0 (rows, modes), row r under the controls u_values[:, r].

    `u_values` holds the controls of the K full steps, each marched as two
    RK4 steps of `h`.  `out[i]` receives the state at half-step node
    i*every, for the len(out) nodes i = 0, 1, ...: every node of a stored
    solve, or the checkpoints of a lean one.  `first` is the half-step
    index of the rows' first node (an array for time segments), which times
    a divergence.  The initial state and every step are settled (`_settle`)
    before they are stored or marched on, so stored and lean marches keep
    equal bits.  Returns the final state.
    """
    dn = _factor(a0.shape[1])
    controls = u_values.astype(complex)
    a = np.array(a0, dtype=complex, order="C")  # rows contiguous, even from a broadcast
    _settle(a, first * h)
    out[0] = a
    # An overflow inside a step is reported once, by `_settle`, as a divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, 2 * controls.shape[0] + 1):
            a = _rk4_forward_step(a, h, controls[(s - 1) >> 1], model, dn)
            _settle(a, (first + s) * h)
            i, off = divmod(s, every)
            if not off and i < len(out):
                out[i] = a
    return a


def _check_inputs(rho0: np.ndarray, controls, model: ModelSpec, grid: TimeGrid) -> np.ndarray:
    """Where a density enters a solve: check its half row, returned, and every control, once."""
    rho0 = require_normalized(rho0, "initial density")
    for u in controls:
        if u.grid != grid:
            raise ValueError("control signal grid does not match the solver grid")
        model.require_feasible(u.values)
    return rho0


def _resumable(starts: Checkpoints | None, rho0: np.ndarray, u: ControlSignal) -> bool:
    """Whether `starts` were marched from rho0 under bitwise the control values of u."""
    if starts is None or starts.grid != u.grid:
        return False
    a = np.array(rho0[None], dtype=complex)
    _settle(a, 0.0)
    return (starts.controls.tobytes() == u.values.tobytes()
            and starts.states[:1].tobytes() == a.tobytes())


def integrate_forward(rho0: np.ndarray, u: ControlSignal, model: ModelSpec,
                      grid: TimeGrid, starts: Checkpoints | None = None) -> Trajectory:
    """Solve the continuity equation and record the half row of every half-step node.

    Args:
        rho0: half row of the normalized initial density (mode-0
            coefficient 1/(2*pi)).
        u: feasible control signal on the same grid.
        model: vector-field specification.
        grid: time lattice.
        starts: optional checkpoints of a lean march (`cost_of_control`).
            If they were marched from rho0 under bitwise the values of u,
            their S time segments are marched as the rows of one state;
            otherwise they are ignored and rho0 is the one segment.  Either
            way each segment goes straight into its stretch of the
            trajectory, with the same bits.

    Raises:
        DivergenceError: if any coefficient part passes the guard.
    """
    rho0 = _check_inputs(rho0, [u], model, grid)
    states = starts.states if _resumable(starts, rho0, u) else rho0[None]
    n_seg = states.shape[0]
    seg = 2 * grid.n_steps // n_seg  # half steps per segment
    out = np.empty((2 * grid.n_steps + 1, rho0.shape[0]), dtype=complex)
    # Row i of node s is the trajectory's node i*seg + s; a segment's last
    # node is the next one's first, and both hold the same bits.
    nodes = np.lib.stride_tricks.as_strided(
        out, (seg + 1, n_seg, out.shape[1]),
        (out.strides[0], seg * out.strides[0], out.strides[1]))
    u_values = u.values[:-1].reshape(n_seg, grid.n_steps // n_seg, 2).swapaxes(0, 1)
    _march(states, u_values, 0.5 * grid.tau, model, nodes, first=seg * np.arange(n_seg))
    return Trajectory(grid, out)


def _terminal_rows(rho0: np.ndarray, controls, model: ModelSpec, grid: TimeGrid):
    """Terminal half rows and (S, rows, width) checkpoints of lean solves marched as one state."""
    rho0 = _check_inputs(rho0, controls, model, grid)
    rows = np.broadcast_to(rho0, (len(controls), rho0.shape[0]))
    u_values = np.stack([u.values[:-1] for u in controls], axis=1)
    n_seg = segment_count(grid.n_steps, rho0.shape[0])
    marks = np.empty((n_seg, len(controls), rho0.shape[0]), dtype=complex)
    terminal = _march(rows, u_values, 0.5 * grid.tau, model, marks,
                      every=2 * grid.n_steps // n_seg)
    return terminal, marks


def cost_of_control(rho0: np.ndarray, controls, model: ModelSpec,
                    grid: TimeGrid) -> tuple[list[float], list[Checkpoints]]:
    """Terminal costs of lean forward solves, one per control (the line-search evaluator).

    The controls (callers pass at most `batch_rows`) march as the rows of
    one state; each cost reads the bits of its own one-row solve's terminal
    half row, which are those of `integrate_forward`.  Each control's
    checkpoints at the full nodes k = i*K/S (`segment_count`) come along,
    so that a stored solve of it can march its time segments together.

    Raises:
        DivergenceError: if the solve of any control diverges.
    """
    terminal, marks = _terminal_rows(rho0, controls, model, grid)
    return ([model.cost.eval(row) for row in terminal],
            [Checkpoints(grid, u.values, marks[:, r]) for r, u in enumerate(controls)])


def row_blocks(coeffs: np.ndarray):
    """Views of consecutive blocks of DIAGNOSTIC_ROWS rows of a stored trajectory."""
    return (coeffs[i:i + DIAGNOSTIC_ROWS] for i in range(0, coeffs.shape[0], DIAGNOSTIC_ROWS))


def density_min(traj: Trajectory) -> float:
    """Minimum reconstructed density over all snapshots and grid points.

    Spectral truncation can push concentrated states slightly negative;
    the value is reported as computed, never clipped.
    """
    return float(min(reconstruct_rows(block).min() for block in row_blocks(traj.coeffs)))


def mass_drift(traj: Trajectory) -> float:
    """Largest deviation of the mode-0 coefficient from 1/(2*pi)."""
    return float(np.max(np.abs(traj.coeffs[:, 0] - 1.0 / (2.0 * np.pi))))
