"""Forward integration of the nonlocal continuity equation in Fourier space.

The transport PDE becomes the coefficient system

    d a_n / dt = -i * n * (u_1 a_n + v a_{n-1} + conj(v) a_{n+1}),

where v = u_2 * i*pi*a_1*e^{i*alpha} is the coupling channel's harmonic +1
(u_2 times `ModelSpec.coupling`, its one definition, for any number of rows)
and out-of-range harmonics count as zero (series truncation).  The density is
real, so a_{-n} = conj(a_n), and the solver takes, stores and marches only
the half rows n = 0 .. N/2 (see `spectral`).  Row n >= 1 reads only
harmonics >= 0, and the n = 0 row is multiplied by n = 0, so the half march
has the bits of the n >= 0 half of a full-layout march, and a_0 stays
real, which makes the field Hermitian exactly, not to rounding.  Time
stepping is classical RK4 at the sub-step tau/m of `SUBSTEPS`, so the
trajectory lands on every sub-step node; controls are piecewise constant
per full step, hence every RK4 stage sees a single control value.  The n = 0
equation has an explicit factor n, so the mass coefficient is conserved bit-for-bit.

On the initial state and after every step, real and imaginary parts below
`_FLUSH` = 2^-256 (about 8.6e-78) are set to zero (`_settle`).  High
harmonics decay geometrically, and the bound has two reasons.  The product
of two kept parts is at least 2^-512, a normal float (the smallest is
`np.finfo(float).tiny`, 2^-1022), so no RK4 stage does arithmetic on
subnormal floats, which takes the slow path of the processor.  And the
flushed parts are too small to move a reported number: they lie 201 binary
orders (about 60 decades) below the ulp 2^-55 of the mass coefficient
1/(2*pi), which the flush never touches.  The desk descent keeps every
artifact byte with the bound at 2^-1022, 2^-511, 2^-300, 2^-256 or 2^-232;
its bytes move at 2^-224, 2^-216, 2^-208 and 2^-200, and at 2^-200, after
the same 17 iterations and step exponents, its final cost moves by 3.3e-13
relative.  At 2048 harmonics most of what a smaller bound would keep is
dust: a cold solve's density rows keep 58.3 columns on average with this
bound, 146 with 2^-511 and 424 with the smallest normal float.

The kernels march a stack of state rows, each under its own control: the
trial steps of a line search, the adjoint's quarter-step states, or the S
time segments of one stored solve.  The rows of the C-ordered stack march
as one flat array, so that every NumPy call of a stage runs on contiguous
memory, and the shifts run over the seams between rows.  Rows still never
mix: the shift by +1 brings a row's n = 0 entry the previous row's
v a_{w-1}, which that entry's factor n = 0 turns into zero, and the shift by
-1 brings a row's last entry conj(v) a_0 of the next row with conj(v)
zeroed there.  So every row gets the bits of a one-row march.  A part that
is infinite or NaN crosses a seam as NaN, but its own row then fails the
bound in that step, so the march raises anyway; so would a seam product
v a_{w-1} that overflows from finite parts, which takes parts past 1e150.

Every march steps its rows on a working width w, the band of harmonics
the next step can reach, not on all W = N/2 + 1 columns (`band`).  Each
RK4 stage reaches one harmonic further, so a step from rows whose
harmonics from L on are zero stays within L + 4 columns, and a column
past them reads only zeros in every stage.  w is L + 4 rounded up to a
multiple of 16 and capped at W; L comes from the flush mask that `_settle`
computes anyway.  What a full-width march adds past the band are sums of
products with a zero factor: exact zeros, perhaps -0.0, which `_settle`
stores as +0.0, and every other entry takes the same operations on the same
values.  So the band keeps every bit.  The flat state is repacked when w
changes, 3 times in a cold full-scale solve; the `Workspace` is
allocated at full width and used through its head.  Records see the rows
on their band; trajectories, checkpoints and terminal rows are full rows,
zero-padded.  A march that reaches full width stays there and stops looking.
A band may also narrow again: a cold desk solve of the fig1 control keeps
at most 61 of its 129 columns, and its band moves between 64 and 80
columns, narrowing 4 times in 2400 sub-steps; the line search's marches of
the later desk iterates fill all 129 columns after 392 to 1148 sub-steps.
At 2048 harmonics a cold solve keeps 58.3 of the 1025 on average (60 at
most), and its band only widens.

A march allocates its buffers once (`Workspace`): the four RK4 stages, the
shift product and the flush's magnitudes and mask.  The one RK4 step of
both equations, `Workspace.step`, overwrites them with `out=` ufuncs in the
operation order of fresh temporaries, so the bits are theirs; its stage
states and its result go into the state array that the step before left,
and back.  Fresh temporaries of a wide state would pass glibc's 128 KiB
mmap and trim thresholds and fault their pages in on every step.

A lean march (`cost_of_control`) records the settled state of each row at
the full nodes k = i*K/S, i = 0 .. S-1 (`Checkpoints`).  A stored solve of
the same model, density and control object marches the S segments from
those states as the rows of one state, straight into its trajectory; a cold
solve is the one segment from rho0.  S is the largest divisor of K up to
`batch_rows`: 60 for the desk grid's 1200 steps of 256 harmonics, 8 for the
6000 steps of 2048 harmonics at tau 1e-3.

A stored solve keeps each step's rows as one rectangle of its trajectory's
buffer, cut after the last harmonic that any of them keeps (`Trajectory`):
the flushed high harmonics of a cold full-scale solve are 94% of its
12001 x 1025 coefficients.  The flush mask of `_settle` tells where to
cut, so the state is not compared again.  The buffer is allocated at the
dense size and only its used head is written, which is all of it that the
operating system backs with memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .models import ModelSpec
from .spectral import reconstruct_rows, require_normalized, require_row
from .timegrid import ControlSignal, TimeGrid, Trajectory

# m, the RK4 steps of tau/m per control step: the forward march's choice, which
# its `Trajectory` records for the backward march and every other reader.
SUBSTEPS = 2

# Generous blow-up guard; healthy probability densities keep |a_n| below
# 1/(2*pi) * O(1), so anything near this limit means tau is too large.
DIVERGENCE_LIMIT = 1e6

# Smaller parts are flushed to zero, in both marches: 2^-256, so that a
# product of two kept parts is at least 2^-512, a normal float, and a flushed
# part lies 201 binary orders below the ulp of the mass coefficient.
_FLUSH = 2.0 ** -256

# Working widths are multiples of this many columns (`band`), so that a
# cold full-scale solve changes width 3 times in 12000 forward steps (16 to
# 64 columns) and its adjoint's co-density keeps the one width of its first
# step (80 columns).
_BAND_STEP = 16

# Rows marched as one state share the per-call overhead, which dominates
# narrow rows.  With the buffers of one `Workspace` per march, a lean march
# (one CPU of a shared 2-vCPU host, best of three) costs per row and RK4
# step, at 256 harmonics (half rows of 129): 71 us for 1 row, 25 us for 8,
# 17 us for 15, 13 us for 32 and 8.6 us for 63; at 2048 harmonics (half
# rows of 1025): 105 us for 1 row, 75 us for 4, 64 us for 8, 62 us for 12
# and 63 us for 16.  Fresh temporaries in place of the buffers cost 103 us
# for 8 rows of 1025 and 160 us for 16 in the same run.  A budget of 8200
# half-row coefficients gives 63 rows at 256 harmonics and 8 at 2048, where
# the per-row cost levels off.  It bounds the S time segments of a stored
# solve, the adjoint's quarter-step blocks (one size per solve, counted on
# the widest band the trajectory keeps, 64 columns in a cold full-scale
# solve, and capped at `adjoint._BLOCK_ROWS`),
# the line search's trials per lean march (with `descent.TRIAL_CHUNK`), and
# the row blocks of a diagnostic sweep (`density_min`).
BATCH_COEFFS = 8200


def batch_rows(width: int) -> int:
    """How many half rows of `width` coefficients to march as one state."""
    return max(1, BATCH_COEFFS // width)


def segment_count(n_steps: int, width: int) -> int:
    """S: the largest divisor of the step count K that is at most `batch_rows(width)`."""
    return max(s for s in range(1, batch_rows(width) + 1) if n_steps % s == 0)


@dataclass(frozen=True)
class Checkpoints:
    """Settled states of a forward march at the full nodes k = i*K/S, i = 0 .. S-1.

    The march ran under `model` and the control `u` (read-only values);
    `states` are the (S, width) half rows, row 0 the settled initial density,
    copied out of the march's records so that no other row stays alive with them.
    """

    u: ControlSignal
    model: ModelSpec
    states: np.ndarray


def _coupling(a: np.ndarray, u2: np.ndarray, model: ModelSpec):
    """(v, conj(v)) of every row of the flat state a under the u_2 column u2 (rows, 1).

    v is `ModelSpec.coupling` of the row's a_1, scaled by u_2: one
    definition for every row count.  One row gives Python complexes: every
    full-pass march is one row, and timed in turn on one CPU of a shared
    2-vCPU host a 2400-step one-row march took 0.077 s this way against
    0.137 s on the array route at 256 harmonics, 0.127 s against 0.200 s at
    2048.  Several rows give flat arrays holding each row's value at each of
    its entries (`ModelSpec.coupling_rows` of the float parts of the a_1
    column), with conj(v) zeroed at every row's n = 0 entry (see
    `_continuity_rhs`).
    """
    if len(u2) == 1:
        scale, (vr, vi) = float(u2[0, 0]), model.coupling(complex(a[1]))
        v = complex(scale * vr, scale * vi)
        return v, v.conjugate()
    width = len(a) // len(u2)
    v = model.coupling_rows(a.view(float).reshape(len(u2), -1)[:, 2:4], u2)
    v = v.view(complex).repeat(width)
    vc = v.conj()
    vc[::width] = 0.0
    return v, vc


def _drive(u: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """u_1 at every entry and u_2 as a (rows, 1) column, for complex controls u (rows, 2).

    A march takes it once per control step, for its flat state of half rows
    of `width`.
    """
    return u[:, 0].repeat(width), u.real[:, 1:]


def _continuity_rhs(a: np.ndarray, drive, model: ModelSpec, dn: np.ndarray,
                    out: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """Coefficient derivative of the flat state a: its half rows, each under its own control.

    `drive` is `_drive(u, width)` for the complex controls u (rows, 2): a
    real control broadcast against the complex state would make NumPy cast
    on every call, which costs more than the arithmetic.  `dn` holds -1j*n
    of every entry, tiled once per march.  The result goes into `out` and
    the shift products into `prod`, arrays of a's size.  Every call runs
    on contiguous arrays.  A row's n = 0 entry gets the previous row's
    v a_{W-1}, or nothing, in place of v a_{-1}; its factor n is 0.
    """
    u1, u2 = drive
    v, vc = _coupling(a, u2, model)
    va = np.multiply(u1, a, out=out)  # an exact zero may come out -0.0; `_settle` stores it as 0.0
    shifted = np.multiply(v, a, out=prod)
    va[1:] += shifted[:-1]
    shifted = np.multiply(vc, a, out=shifted)
    va[:-1] += shifted[1:]
    va *= dn
    return va


@dataclass(frozen=True)
class Workspace:
    """The flat buffers of one march, allocated once and overwritten by every step.

    `k` holds the four RK4 stages (rows of one array), `prod` a right-hand
    side's shift products, and `mag` and `mask` the float parts' magnitudes
    and flush mask of `_settle`.
    """

    k: tuple[np.ndarray, ...]
    prod: np.ndarray
    mag: np.ndarray
    mask: np.ndarray

    @classmethod
    def of(cls, size: int) -> Workspace:
        """Buffers for a flat state of `size` complex entries."""
        return cls(tuple(np.empty((4, size), dtype=complex)), np.empty(size, dtype=complex),
                   np.empty(2 * size), np.empty(2 * size, dtype=bool))

    def prefix(self, size: int) -> Workspace:
        """The heads of the buffers, for a flat state of `size` entries: a march on its band."""
        return Workspace(tuple(k[:size] for k in self.k), self.prod[:size],
                         self.mag[:2 * size], self.mask[:2 * size])

    def step(self, a: np.ndarray, h: float, rhs, out: np.ndarray) -> np.ndarray:
        """One classical RK4 step of the flat state a, a + (h/6)*(k1 + 2*(k2 + k3) + k4).

        `rhs(x, i, k)` writes the derivative of stage i = 0 .. 3 at the state
        x into k.  The stage states and then the step go into `out`, which
        must not be a, and the sum overwrites k2, in the operations and order
        of fresh temporaries, so the step has their bits.
        """
        k1, k2, k3, k4 = self.k
        rhs(a, 0, k1)
        rhs(np.add(a, np.multiply(0.5 * h, k1, out=out), out=out), 1, k2)
        rhs(np.add(a, np.multiply(0.5 * h, k2, out=out), out=out), 2, k3)
        rhs(np.add(a, np.multiply(h, k3, out=out), out=out), 3, k4)
        np.add(k2, k3, out=k2)
        np.multiply(2.0, k2, out=k2)
        np.add(k1, k2, out=k2)
        np.add(k2, k4, out=k2)
        return np.add(a, np.multiply(h / 6.0, k2, out=k2), out=out)


def _settle(a: np.ndarray, t: float, work: Workspace) -> None:
    """Flush the parts below `_FLUSH` of the new flat complex state a to zero, in place; bound it.

    One look at the float view serves both: parts with |x| < `_FLUSH` become
    0.0, and the largest |x| must stay within DIVERGENCE_LIMIT (NaN fails);
    `t` is the state's time, which a divergence reports.  The magnitudes
    and the mask go into the buffers of `work`, a workspace of a's size.
    """
    parts = a.view(float)
    mag = np.abs(parts, out=work.mag)
    peak = float(mag.max())
    if not peak <= DIVERGENCE_LIMIT:
        raise DivergenceError(f"coefficient part {peak:.3e} at t = {t:.6g} exceeds "
                              f"{DIVERGENCE_LIMIT:.0e}; reduce the time step")
    np.putmask(parts, np.less(mag, _FLUSH, out=work.mask), 0.0)


def band(kept: int, width: int) -> int:
    """The working width of a step from a state whose columns from `kept` on are zero.

    Each RK4 stage reaches one column further, so a step stays within
    kept + 4 columns, and a column past them reads only zeros in every
    stage.  The width is rounded up to a multiple of `_BAND_STEP`, so that
    it changes rarely, and capped at the row width.
    """
    return min(-(-(kept + 4) // _BAND_STEP) * _BAND_STEP, width)


def _kept(flushed: np.ndarray) -> int:
    """Columns up to the last part that any row keeps, from the (rows, 2*w) mask of `_settle`.

    `bytes.rfind` finds the last False, a kept part, in one C call.
    """
    mask = flushed if len(flushed) == 1 else np.logical_and.reduce(flushed)
    return (mask.tobytes().rfind(0) + 2) // 2


def _repack(a: np.ndarray, rows: int, w: int, out: np.ndarray) -> np.ndarray:
    """The flat state a of `rows` rows repacked at width w into the head of `out`, as a flat view.

    Columns that a's rows lack become zeros; the columns they lose must be zeros.
    """
    src = a.reshape(rows, -1)
    dst = out[:rows * w].reshape(rows, w)
    n = min(w, src.shape[1])
    dst[:, :n] = src[:, :n]
    dst[:, n:] = 0.0
    return dst.reshape(-1)


def rhs_continuity(t: float, a: np.ndarray, u, model: ModelSpec) -> np.ndarray:
    """Half row of the coefficient time derivative of the density half row a under control u.

    The model is autonomous; `t` is accepted for the usual ODE signature.
    """
    u = model.require_feasible(u)
    a = require_row(a, "density")
    return _continuity_rhs(a, _drive(u.astype(complex)[None], len(a)), model, _factor(len(a)),
                           np.empty_like(a), np.empty_like(a))


def _factor(width: int) -> np.ndarray:
    """-i*n for the half-row harmonics n = 0 .. width - 1."""
    return -1j * np.arange(width)


def _march(a0: np.ndarray, u_values: np.ndarray, grid: TimeGrid, model: ModelSpec,
           record, every: int = 1) -> np.ndarray:
    """March the half rows of a0 (rows, modes), row r under the controls u_values[:, r].

    `u_values` holds the controls of the full steps, each marched as m RK4
    steps of tau/m (`SUBSTEPS`).  `record(i, a, flushed)` receives the
    state at sub-step node i*every, for i = 0, 1, .. up to the last step: the
    (rows, w) state on its working width w (`band`; the harmonics from w
    on are zero) and the flush mask of its float parts, (rows, 2*w), True
    where a part is zero.  It sees every node of a stored solve, or the
    checkpoints of a lean one.  The initial state and every step are
    settled (`_settle`) before they are recorded or marched on, so stored
    and lean marches keep equal bits.  Returns the final state, zero-padded
    to full rows.
    """
    rows, width = a0.shape
    controls, m = u_values.astype(complex), SUBSTEPS
    h = grid.tau / m
    full = Workspace.of(rows * width)
    pair = np.empty((2, rows * width), dtype=complex)  # each step goes into the other row
    a, spare, held = pair[0], pair[1], 0
    np.copyto(a.reshape(rows, width), a0)  # one copy, even of a broadcast
    _settle(a, 0.0, full)
    flushed = full.mask.reshape(rows, 2 * width)
    record(0, a.reshape(rows, width), flushed)
    w, fit = 0, band(_kept(flushed), width)  # the first step packs the rows at their band

    def rhs(x, i, k):
        _continuity_rhs(x, drive, model, dn, k, work.prod)

    # An overflow inside a step is reported once, by `_settle`, as a divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, m * controls.shape[0] + 1):
            if fit != w:  # the rows move to their new width, in the other buffer
                a, spare = _repack(a, rows, fit, pair[1 - held]), pair[held, :rows * fit]
                w, held = fit, 1 - held
                work, dn, drive = full.prefix(rows * w), np.tile(_factor(w), rows), None
                flushed = work.mask.reshape(rows, 2 * w)
            if (s - 1) % m == 0 or drive is None:
                drive = _drive(controls[(s - 1) // m], w)
            a, spare, held = work.step(a, h, rhs, spare), a, 1 - held
            _settle(a, s * h, work)
            i, off = divmod(s, every)
            if not off:
                record(i, a.reshape(rows, w), flushed)
            if w < width:  # a full-width march stays full
                fit = band(_kept(flushed), width)
    end = np.zeros((rows, width), dtype=complex)
    end[:, :w] = a.reshape(rows, w)
    return end


def _check_inputs(rho0: np.ndarray, controls, model: ModelSpec, grid: TimeGrid) -> np.ndarray:
    """Where a density enters a solve: check its half row, returned, and every control, once."""
    rho0 = require_normalized(rho0, "initial density")
    for u in controls:
        if u.grid != grid:
            raise ValueError("control signal grid does not match the solver grid")
        model.require_feasible(u.values)
    return rho0


def _resumable(starts: Checkpoints | None, rho0: np.ndarray, u: ControlSignal,
               model: ModelSpec) -> bool:
    """Whether `starts` were marched from rho0 under `model` and the control u itself."""
    if starts is None or starts.u is not u or starts.model != model:
        return False
    a = np.array(rho0, dtype=complex)
    _settle(a, 0.0, Workspace.of(len(a)))
    return starts.states[:1].tobytes() == a.tobytes()


def integrate_forward(rho0: np.ndarray, u: ControlSignal, model: ModelSpec,
                      grid: TimeGrid, starts: Checkpoints | None = None) -> Trajectory:
    """Solve the continuity equation and record the half row of every sub-step node.

    Args:
        rho0: half row of the normalized initial density (mode-0
            coefficient 1/(2*pi)).
        u: feasible control signal on the same grid.
        model: vector-field specification.
        grid: time lattice.
        starts: optional checkpoints of a lean march (`cost_of_control`),
            as the line search hands over its accepted trial.  If they were
            marched from rho0 under `model` and the object u itself, their
            S time segments re-march, as the rows of one state, steps the
            lean march already settled; otherwise rho0 is the one segment.
            Either way each step's S rows go straight into the trajectory,
            cut after the last harmonic any of them keeps, and every row
            reads back with the same bits.

    Raises:
        DivergenceError: if any coefficient part passes the guard.
    """
    rho0 = _check_inputs(rho0, [u], model, grid)
    states = starts.states if _resumable(starts, rho0, u, model) else rho0[None]
    segments, width = states.shape
    last = SUBSTEPS * grid.n_steps
    steps = last // segments
    buf = np.empty((last + 1) * width, dtype=complex)  # only the used head is ever written
    index, used = np.empty((last + 1, 2), dtype=np.intp), 0

    def record(i, a, flushed):
        # Step i holds node j*steps + i of every segment j; a segment's end is
        # the next one's start, with the same bits, so the last step keeps only T.
        nonlocal used
        nodes = index[i:last:steps]
        if i == steps:
            a, flushed, nodes = a[-1:], flushed[-1:], index[last:]
        n = _kept(flushed)
        np.copyto(buf[used:used + len(a) * n].reshape(-1, n), a[:, :n])
        nodes[:, 0] = np.arange(used, used + len(a) * n, n)
        nodes[:, 1] = n
        used += len(a) * n

    u_values = u.values[:-1].reshape(segments, -1, 2).swapaxes(0, 1)
    _march(states, u_values, grid, model, record)
    return Trajectory(grid, SUBSTEPS, width, buf[:used], index)


def _terminal_rows(rho0: np.ndarray, controls, model: ModelSpec, grid: TimeGrid):
    """Terminal half rows and (S, rows, width) checkpoints of lean solves marched as one state."""
    rho0 = _check_inputs(rho0, controls, model, grid)
    rows = np.broadcast_to(rho0, (len(controls), rho0.shape[0]))
    u_values = np.stack([u.values[:-1] for u in controls], axis=1)
    n_seg = segment_count(grid.n_steps, rho0.shape[0])
    marks = np.zeros((n_seg, len(controls), rho0.shape[0]), dtype=complex)

    def record(i, a, flushed):
        if i < n_seg:  # the end is the terminal row
            marks[i, :, :a.shape[1]] = a

    terminal = _march(rows, u_values, grid, model, record,
                      every=SUBSTEPS * grid.n_steps // n_seg)
    return terminal, marks


def cost_of_control(rho0: np.ndarray, controls, model: ModelSpec,
                    grid: TimeGrid) -> tuple[list[float], list[Checkpoints]]:
    """Terminal costs of lean forward solves, one per control (the line-search evaluator).

    The controls (line-search trials, or a slope-oracle ladder) march as
    the rows of one state; each cost reads the bits of its own one-row
    solve's terminal half row, which are those of `integrate_forward`.
    Each control's checkpoints at the full nodes k = i*K/S (`segment_count`)
    come along, so that a stored solve of it can march its segments together.

    Raises:
        DivergenceError: if the solve of any control diverges.
    """
    terminal, marks = _terminal_rows(rho0, controls, model, grid)
    return ([model.cost.eval(row) for row in terminal],
            [Checkpoints(u, model, marks[:, r].copy()) for r, u in enumerate(controls)])


def density_min(traj: Trajectory) -> float:
    """Minimum reconstructed density over all snapshots and grid points.

    Spectral truncation can push concentrated states slightly negative;
    the value is reported as computed, never clipped.  The rows are swept
    `batch_rows` at a time, so the temporaries stay small next to the
    trajectory (one whole reconstruction at 2048 harmonics: 376 MB).
    """
    total, rows = len(traj.index), batch_rows(traj.width)
    block = np.empty((rows, traj.width), dtype=complex)
    return float(min(reconstruct_rows(traj.rows(lo, min(lo + rows, total),
                                                 block[:total - lo])).min()
                     for lo in range(0, total, rows)))


def mass_drift(traj: Trajectory) -> float:
    """Largest deviation of the mode-0 coefficient from 1/(2*pi)."""
    return float(np.max(np.abs(traj.column(0) - 1.0 / (2.0 * np.pi))))
