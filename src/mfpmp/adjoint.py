"""Backward integration of the adjoint nonlocal balance law in Fourier space.

The adjoint state is a signed-measure density zeta with coefficients b_n
driven backward from t = T by

    d b_n / dt = -i*n*(V b)_n  -  ((dV/dx) b)_n  -  (q a)_n,

where V is the assembled vector field along the stored forward trajectory,
the middle term stretches the co-density by the velocity gradient, and the
nonlocal source q(x) = integral D_mu V(y, mu, u, x) dnu(y) is, for the
Kuramoto coupling, u_2 * integral cos(y - x + alpha) dnu(y).  Both source pieces enter with a minus sign;
that is what the weak duality identity dictates, and it is what makes the
total co-mass constant in time for translation-equivariant fields (a rigid
phase shift commutes with such flows, so the sensitivity of the terminal
cost to a shift cannot depend on when the shift is applied).  The terminal
condition pairs the cost's intrinsic derivative with the terminal density:

    zeta_T = -D_mu l(mu_T) * rho_T,

where D_mu l is the field sin(x - x0) of the phase-mismatch cost.

Unlike the density, the co-density conserves no mass: the n = 0 source is
generally nonzero.

The co-density is real, so b_{-n} = conj(b_n): like the forward solver,
the march takes, stores and steps only the half rows n = 0 .. N/2.  Transport and
stretch share their shifts, so the right-hand side is one three-term
stencil plus the source,

    -i n u_1 b_n - i(n+1) v b_{n-1} - i(n-1) conj(v) b_{n+1}
        - q_{-1} a_{n+1} - q_{+1} a_{n-1},

with v = u_2 * i*pi*a_1*e^{i*alpha} and the source harmonics q_{-+1} of
q(x).  Its mode factors and source phases come from one place
(`_stencil`).  Only the n = 0 entry and q_{-1} read b_{-1} and a_{-1},
which are conj(b_1) and conj(a_1); that entry adds its conjugate pairs in
scalar arithmetic, so b_0 stays real and the field is Hermitian exactly.

A stage of the march is three NumPy calls (`_stage`), because the march is
bound by the cost per call, not by arithmetic.  b lives between two zero
pad columns, so b_{n-1}, b_n and b_{n+1} are the rows of one (3, w) view of
its buffer; one multiply takes them by the three stencil rows
v*(-i(n+1)), -i n u_1 and conj(v)*(-i(n-1)), one multiply takes the
source rows a_{n+1} and a_{n-1}, zero past the forward row, by the column
(-q_{-1}, -q_{+1}), and one `np.add.reduce` sums the five products row
by row, in the order of the stencil above.  Each product takes its
operands in the stencil's order, since NumPy's complex multiply can round
x*y and y*x differently, and x + (-y) rounds as x - y.  The pad products
are exact zeros, which change no sum but perhaps the sign of a zero, and
`forward._settle` stores a zero as +0.0; so a stage has the bits of the
stencil summed term by term into one array.  The factors depend only
on the forward rows and the control, so one call (`_fill`) writes those
of all the steps of a quarter-step block, with their couplings v
(`ModelSpec.coupling_rows`), into the stage kernel's buffers: one slot
per step, allocated with b's workspace at b's band, anew when the band
changes (`_Stages`).

The march runs at the stored solve's sub-step tau/m (`Trajectory.substeps`),
so every stage reads a forward state either straight from storage or, for
the midpoint stage times, from a single local RK4 quarter-step (half a
sub-step) off the stored node (fourth-order consistent, no interpolation).
The quarter steps of a block of backward steps march as the rows of one
forward state; each block reads its stored rows and the one above straight
into one buffer on the one band of the solve, `forward.band` of the longest
row the trajectory kept (`Trajectory.rows` zero-pads each row up to the band only).  A block has
`forward.batch_rows` rows of that band, at most `_BLOCK_ROWS` (16) and at
most mK, one size per solve: 16 rows both at 2048 harmonics and on the
desk grid.  Its buffers are allocated once per solve at that band, not at
the full row.  Both the quarter and the backward steps are
`forward.Workspace.step`.

The co-density marches on a band too, for the same reason as the density
(see `forward`): past it every stage reads only zeros, and what a
full-width march would put there are exact zeros that `forward._settle`
stores as +0.0, so the band keeps every bit.  Its width covers b's own
reach and also the forward rows' band, since the source terms read
a_{n-1} and reach one harmonic past the forward rows: it is the band of
whichever reaches further, so the rows b reads are at least four columns
narrower than b, or as wide at full width.  The forward band is the
solve's one band, so b never marches narrower than it: on a trajectory
whose band narrows again, b marches at the widest forward band
throughout.  No shipped config or benchmark workload has such a
trajectory.  In the cold full-scale solve
each co-density row ends in its 154th to 164th column, and b steps 176 of
the 1025 columns throughout; the quarter steps run on 160.

The switching function reads only b_0 and b_1, at the full-step nodes
where the controls live, and the resolution diagnostics only max_n |b_n|
and |b_{N/2}|, so the march records those as it lands on each full node
and keeps whole half rows, zero-padded past the band, only at node 0 and
at the nodes asked for (`CoTrajectory`).  |b_{N/2}| is exactly 0.0 while
the band stops short of N/2.

The co-density's high harmonics decay geometrically, and at wide
resolutions a large share of its float parts would fall below the normal
range; as in the forward march, every backward step flushes the parts
below 2^-511, the square root of the smallest normal float, to zero
(`forward._settle`).  The reasons are the forward march's: a product of
two kept parts is a normal float, and the flushed parts are too small to
move a reported number.  With the smallest normal float as the bound, a
cold full-scale co-density row would keep 540 to 566 columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .forward import (Workspace, _continuity_rhs, _drive, _factor, _kept, _repack, _settle,
                      band, batch_rows)
from .models import ModelSpec
from .spectral import require_row
from .timegrid import ControlSignal, TimeGrid, Trajectory

# The most quarter-step rows a block marches as one state.  Blocks sized by
# the band alone would reach 51 rows at full scale and 512 in a u_2 = 0
# solve that keeps harmonics 0 .. 2, while the per-row cost of a quarter
# step levels off and the block's buffers, which it fills on every page,
# keep growing.  In the full-pass benchmark (one CPU of a shared 2-vCPU
# host, 3 runs each) 12, 16 and 24 rows gave `wall_ref_s` 1.63, 1.59 and
# 1.58 s and `peak_rss_mb` 69.07, 69.21 and 69.31 MB; 64 rows measured
# about 2% faster than 24 but 1.4 MB more.
_BLOCK_ROWS = 16

# The stage row that each RK4 stage of a backward step reads: the stored
# node above, the quarter-step state (twice), the stored node below.
_ROW = (0, 1, 1, 2)


@dataclass(frozen=True)
class CoTrajectory:
    """What the backward march keeps of the co-density at the full-step nodes t = k*tau.

    `head` holds b_0 and b_1 of every node, shape (K + 1, 2), which is all
    the switching function reads; `scale` holds max_n |b_n| and `tail`
    |b_{N/2}| of every node.  Whole half rows are kept only at the full
    nodes `nodes`, increasing from node 0: `coeffs[j]` is node `nodes[j]`.
    """

    grid: TimeGrid
    n_modes: int
    head: np.ndarray
    scale: np.ndarray
    tail: np.ndarray
    nodes: tuple
    coeffs: np.ndarray


def _stencil(width: int, model: ModelSpec) -> tuple:
    """The mode factors -i*n, -i*(n+1), -i*(n-1) of b_n, b_{n-1}, b_{n+1}, then e^{+-i*alpha}/2.

    Each factor row covers n = 0 .. width - 1.  e^{i*alpha}/2 and
    e^{-i*alpha}/2 are the source's factors of b_{-1} and b_1.
    """
    n = np.arange(width)
    return (_factor(width), -1j * (n + 1), -1j * (n - 1),
            0.5 * model.phase, 0.5 * model.phase.conjugate())


class _Stages(NamedTuple):
    """The buffers of the stage kernel for a co-density on a band of w columns, a slot per step.

    `pair` holds b and the stage states (each step goes into the other
    row) at its columns 1 .. w, between two pad columns, and `windows` are
    its rows as (3, w) views of b_{n-1}, b_n and b_{n+1}.  Slot j of
    `factors` (steps, 7, w) holds the stencil rows of step j (`_fill`):
    v*(-i*(n+1)) of its stage rows 0, 1, 2, then -i*n*u_1, then
    conj(v)*(-i*(n-1)) of its stage rows 2, 1, 0, so that
    `stencils[j][r]`, the rows r, 3 and 6 - r, is the (3, w) stencil of
    stage row r.  `sources[j, r]` holds the forward row of stage row r in
    the same padded layout as b, and `source_rows[j][r]` is its (2, w)
    view of a_{n+1} and a_{n-1}.  `pair` and `sources` are allocated as
    zeros and the march writes only b and the forward rows, so their pads,
    a_{-1} among them, which only the scalar n = 0 entry reads, and the
    source columns past the forward rows stay zero.  `prod` takes a
    stage's five products, `terms` and `sourced` being its first three and
    last two rows, and `col` the column (-q_{-1}, -q_{+1}).  A named
    tuple, which a module builds faster than a dataclass.
    """

    pair: np.ndarray
    windows: tuple
    factors: np.ndarray
    stencils: tuple
    sources: np.ndarray
    source_rows: tuple
    prod: np.ndarray
    terms: np.ndarray
    sourced: np.ndarray
    col: np.ndarray

    @classmethod
    def of(cls, w: int, steps: int) -> _Stages:
        pair, prod = np.zeros((2, w + 2), dtype=complex), np.empty((5, w), dtype=complex)
        factors = np.empty((steps, 7, w), dtype=complex)
        sources = np.zeros((steps, 3, w + 2), dtype=complex)
        entry, row = factors.strides[1:][::-1]
        return cls(pair, tuple(as_strided(p, (3, w), (entry, entry)) for p in pair),
                   factors, tuple(tuple(as_strided(f[r:], (3, w), ((3 - r) * row, entry))
                                        for r in range(3)) for f in factors),
                   sources, tuple(tuple(as_strided(a[2:], (2, w), (-2 * entry, entry))
                                        for a in slot) for slot in sources),
                   prod, prod[:3], prod[3:], np.empty((2, 1), dtype=complex))


def _fill(stages: _Stages, stencil, uk: np.ndarray, nodes, model: ModelSpec):
    """The stage factors and sources of g steps into slots 0 .. g-1 of `stages`; returns their scalars.

    `uk` holds the steps' controls (g, 2) and `nodes` the three forward
    rows (g, wa) that their stage rows read (`_ROW`), where wa is at most
    the band w of `stages`, and the same at every call on the same
    buffers: nothing clears the source columns past it (`_Stages`).  One
    `ModelSpec.coupling_rows` call gives the couplings v of all the stage
    rows, with the bits of `ModelSpec.coupling`.  Each stage row's scalars
    are the source weights u_2*2*pi*e^{+-i*alpha}/2, -i*v, i*conj(v), a_1
    and conj(a_1), in Python numbers, for the source column and the n = 0
    entry (`_stage`).
    """
    g, wa = len(uk), nodes[0].shape[1]
    parts = np.empty((g, 3, 2))
    for r, a in enumerate(nodes):
        parts[:, r] = a.view(float)[:, 2:4]
        stages.sources[:g, r, 1:wa + 1] = a
    v = model.coupling_rows(parts.reshape(-1, 2), np.repeat(uk[:, 1:], 3, axis=0))
    v, a1 = v.view(complex).reshape(g, 3), parts.view(complex).reshape(g, 3)
    f = stages.factors[:g]
    for r in range(3):  # row by row: a broadcast into the strided slots buffers every operand
        np.multiply(v[:, r, None], stencil[1], out=f[:, r])
        np.multiply(v[:, 2 - r, None].conj(), stencil[2], out=f[:, 4 + r])
    np.multiply(uk[:, :1].astype(complex), stencil[0], out=f[:, 3])
    scalars = []
    for u2, vs, a1s in zip(uk[:, 1].tolist(), v.tolist(), a1.tolist()):
        w = u2 * 2.0 * np.pi
        lo, hi = w * stencil[3], w * stencil[4]
        scalars.append([(lo, hi, -1j * x, 1j * x.conjugate(), y, y.conjugate())
                        for x, y in zip(vs, a1s)])
    return scalars


def _stage(x: np.ndarray, window: np.ndarray, factors: np.ndarray, sources: np.ndarray,
           scalars, stages: _Stages, out: np.ndarray) -> np.ndarray:
    """Co-density derivative of the half row x at one stage row, into `out`: three NumPy calls.

    `window` is the (3, w) view of x's row of `stages.pair` (b_{n-1}, b_n,
    b_{n+1}), and `factors`, `sources` and `scalars` are one stage row's
    from `_fill`.  The five products sum in the order of the stencil, and
    the n = 0 entry adds its conjugate pairs in scalar arithmetic.
    """
    lo, hi, mv, pvc, a1, a_m1 = scalars
    b1 = complex(x[1])  # Python scalars: cheaper than NumPy's
    b_m1 = b1.conjugate()
    # Source harmonics of q(x) = u_2 * integral cos(y - x + alpha) zeta(y) dy:
    # q_{-1} = 2*pi*u_2*(e^{i*alpha}/2)*b_{-1} and its conjugate partner q_{+1}.
    q_lo, q_hi = lo * b_m1, hi * b1
    col = stages.col
    col[0, 0] = -q_lo
    col[1, 0] = -q_hi
    np.multiply(factors, window, out=stages.terms)
    np.multiply(col, sources, out=stages.sourced)
    np.add.reduce(stages.prod, axis=0, out=out)
    # n = 0: the factor of b_0 is 0, and each conjugate pair sums to a real number.
    out[0] = (mv * b_m1 + pvc * b1) - (q_lo * a1 + q_hi * a_m1)
    return out


def _rhs(b: np.ndarray, a: np.ndarray, u: np.ndarray, model: ModelSpec, stencil,
         out: np.ndarray) -> np.ndarray:
    """The stage kernel on one co-density half row b at the forward half row a, into `out`.

    `stencil` is `_stencil(len(b), model)`; a is as wide as b, or, on a
    band, narrower, its harmonics past it being zero.
    """
    stages = _Stages.of(len(b), 1)
    stages.pair[0, 1:-1] = b
    scalars = _fill(stages, stencil, np.asarray(u, dtype=float)[None], (a[None],) * 3,
                    model)[0][0]
    return _stage(b, stages.windows[0], stages.stencils[0][0], stages.source_rows[0][0], scalars,
                  stages, out)


def terminal_adjoint(muT: np.ndarray, model: ModelSpec) -> np.ndarray:
    """Half row of the terminal co-density (-D_mu l(mu_T)) * rho_T at the density half row muT.

    The mismatch cost's intrinsic derivative is the field sin(x - x0),
    whose harmonic 1 is -(i/2) e^{-i x0}, so
    b_n(T) = (i/2) * (a_{n-1} e^{-i x0} - a_{n+1} e^{i x0}).
    """
    aT = require_row(muT, "terminal density")
    hi = 0.5j * np.exp(-1j * model.x0)
    lo = np.conj(hi)
    b = np.zeros_like(aT)
    b[:-1] += lo * aT[1:]
    b[1:] += hi * aT[:-1]
    # n = 0 reads a_{-1} = conj(a_1); hi = conj(lo), so the two terms are a conjugate pair.
    b[0] = lo * aT[1] + hi * aT[1].conjugate()
    return b


def rhs_adjoint(t: float, b: np.ndarray, a: np.ndarray, u, model: ModelSpec) -> np.ndarray:
    """Half row of the co-density's time derivative at co-density half row b, density half row a.

    The model is autonomous; `t` is accepted for the usual ODE signature.
    """
    u = model.require_feasible(u)
    b, a = require_row(b, "co-density"), require_row(a, "density")
    if b.shape != a.shape:
        raise ValueError("state and co-state mode counts differ")
    return _rhs(b, a, u, model, _stencil(b.shape[0], model), np.empty_like(b))


def integrate_backward(traj: Trajectory, u: ControlSignal, model: ModelSpec,
                       terminal: np.ndarray | None = None, keep=()) -> CoTrajectory:
    """Solve the adjoint system backward along a stored forward trajectory.

    Args:
        traj: forward trajectory.
        u: the control that produced `traj`.
        model: vector-field specification.
        terminal: optional half row overriding the terminal co-density;
            defaults to `terminal_adjoint`.  Linearity in this argument is a
            tested property of the system.
        keep: times whose nearest full node (`TimeGrid.nearest_node`) keeps
            its whole half row, besides node 0.

    Returns:
        The march's `CoTrajectory`; the march keeps the sub-step of
        `traj`.  The terminal row and every backward step are settled
        (`forward._settle`) before they are recorded or marched on.

    Raises:
        ValueError: if a time in `keep` lies outside [0, T].
        DivergenceError: if any co-density part passes the guard.
    """
    if u.grid != traj.grid:
        raise ValueError("control signal grid does not match the trajectory")
    grid, m = traj.grid, traj.substeps
    last = m * grid.n_steps
    model.require_feasible(u.values)
    if terminal is None:
        terminal = terminal_adjoint(traj.terminal_field(), model)
    else:
        terminal = require_row(terminal, "terminal co-density")  # copied and settled below
        if terminal.shape[0] != traj.width:
            raise ValueError("terminal co-density resolution does not match the trajectory")

    h = grid.tau / m
    width = traj.width
    # Quarter-step blocks of one size, on the widest band the trajectory keeps.
    wa = band(int(traj.index[:, 1].max()), width)
    block = min(batch_rows(wa), _BLOCK_ROWS, last)
    qwork, mids = Workspace.of(block * wa), np.empty(block * wa, dtype=complex)
    stored = np.empty((block + 1, wa), dtype=complex)  # the block's rows on the band
    dn, subs = np.tile(_factor(wa), block), np.arange(block)
    b = np.array(terminal, dtype=complex)

    def quarter_rhs(x, i, k):
        _continuity_rhs(x, drive, model, dn, k, qwork.prod)

    def back_rhs(x, i, k):
        r = _ROW[i]
        _stage(x, windows[i > 0], factors[r], sources[r], scalars[r], stages, k)

    slot = {k: j for j, k in enumerate(sorted({0, *(grid.nearest_node(t) for t in keep)}))}
    head = np.empty((grid.n_steps + 1, 2), dtype=complex)
    scale, tail, mag = np.empty(grid.n_steps + 1), np.empty(grid.n_steps + 1), np.empty(width)
    kept = np.zeros((len(slot), width), dtype=complex)

    def land(b, k):  # record the settled half row b at full node k
        head[k] = b[:2]
        scale[k] = np.abs(b, out=mag[:len(b)]).max()
        tail[k] = mag[-1] if len(b) == width else 0.0  # the band stops short of N/2
        if k in slot:
            kept[slot[k], :len(b)] = b

    bwork = Workspace.of(width)  # the terminal row's; b's own comes with its band
    _settle(b, last * h, bwork)
    land(b, grid.n_steps)
    # b marches on its band, which also covers the forward rows' band: the
    # source reaches one harmonic past them.  A full-width march stays full.
    wb, reach = 0, _kept(bwork.mask[None])
    # An overflow inside a step is reported once, by `_settle`, as a divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        for top in range(last, 0, -block):
            # The block's quarter-step states read only the stored trajectory, so
            # they march as one state; the lowest block re-marches rows above it.
            lo = max(top - block, 0)
            rows = traj.rows(lo, lo + block + 1, stored)
            uk = u.values[(lo + subs) // m]  # the control of each sub-step
            drive = _drive(uk.astype(complex), wa)
            a_mids = qwork.step(rows[:block].reshape(-1), 0.5 * h, quarter_rhs,
                                mids).reshape(block, wa)
            # Step j of the block, from node lo + j + 1 to lo + j, reads these rows.
            nodes = (rows[1:], a_mids, rows[:-1])
            for s in range(top, lo, -1):
                j = s - 1 - lo
                refill = s == top
                if wb < width and (fit := band(max(reach, wa), width)) != wb:
                    # b moves to its new width, into new buffers that steps 0 .. j refill
                    stages, stencil = _Stages.of(fit, block), _stencil(fit, model)
                    b, spare = _repack(b, 1, fit, stages.pair[0, 1:]), stages.pair[1, 1:fit + 1]
                    wb, held, bwork, refill = fit, 0, Workspace.of(fit), True
                if refill:
                    filled = _fill(stages, stencil, uk[:j + 1], [a[:j + 1] for a in nodes],
                                   model)
                factors, sources, scalars = stages.stencils[j], stages.source_rows[j], filled[j]
                windows = stages.windows[held], stages.windows[1 - held]
                b, spare, held = bwork.step(b, -h, back_rhs, spare), b, 1 - held
                _settle(b, (s - 1) * h, bwork)
                if wb < width:
                    reach = _kept(bwork.mask[None])
                if (s - 1) % m == 0:  # landed on the full node s - 1 = mk
                    land(b, (s - 1) // m)
    return CoTrajectory(grid, traj.n_modes, head, scale, tail, tuple(slot), kept)
