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
q(x).  Its mode factors and source phases are computed once per solve
(`_stencil`).  Only the n = 0 entry and q_{-1} read b_{-1} and a_{-1},
which are conj(b_1) and conj(a_1); that entry adds its conjugate pairs in
scalar arithmetic, so b_0 stays real and the field is Hermitian exactly.

The march runs at the same half step as the forward solver, so every stage
reads a forward state either straight from storage or, for quarter-step
stage times, from a single local RK4 quarter-step off the stored node
(fourth-order consistent, no interpolation).  The quarter steps of
`forward.batch_rows` backward steps, 8 at 2048 harmonics (all 2K if fewer),
march as the rows of one forward state, in blocks of that one size; each
block reads its stored rows and the one above straight into one buffer on
the block's band (`forward.band` of the longest row the trajectory kept;
`Trajectory.rows` zero-pads each row up to the band only).  Both the
quarter and the backward steps are `forward.Workspace.step`, and the
buffers are allocated once per solve, at full width, and used through
their heads.

The co-density marches on a band too, for the same reason as the density
(see `forward`): past it every stage reads only zeros, and what a
full-width march would put there are exact zeros that `forward._settle`
stores as +0.0, so the band keeps every bit.  Its width covers b's own
reach and also the forward rows' band, since the source terms read
a_{n-1} and reach one harmonic past the forward rows: it is the band of
whichever reaches further, so the rows b reads are at least four columns
narrower than b, or as wide at full width (`_adjoint_rhs`).  In the cold
full-scale solve each co-density row ends in its 154th to 164th column,
and b steps 176 of the 1025 columns throughout; the quarter steps run on
the forward rows' bands, 48 to 160 columns.

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

import numpy as np

from .forward import (Workspace, _continuity_rhs, _coupling_value, _drive, _factor, _kept,
                      _repack, _settle, band, batch_rows)
from .models import ModelSpec
from .spectral import require_row
from .timegrid import ControlSignal, TimeGrid, Trajectory


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

    The first covers n = 0 .. width - 1, the second the rows n >= 1 and the
    third the rows n <= width - 2, where the shifted harmonic is stored.
    e^{i*alpha}/2 and e^{-i*alpha}/2 are the source's factors of b_{-1} and b_1.
    """
    n = np.arange(width)
    return (_factor(width), -1j * (n[1:] + 1), -1j * (n[:-1] - 1),
            0.5 * model.phase, 0.5 * model.phase.conjugate())


def _adjoint_rhs(b: np.ndarray, a: np.ndarray, u: np.ndarray, model: ModelSpec,
                 drift: np.ndarray, stencil, out: np.ndarray, shifts) -> np.ndarray:
    """Co-density derivative of the half row b at the forward half row a, into `out`.

    `drift` is `-1j * n * u_1` and `stencil` is `_stencil(len(b), model)`;
    `out` is an array of b's size and `shifts` two arrays of one entry less,
    which take the shift products.  a is as wide as b, or, on a band, at
    least one column narrower, its harmonics past it being zero: the source
    reads a_{n-1} up to n = len(a).
    """
    u2 = float(u[1])
    a1, b1 = complex(a[1]), complex(b[1])  # Python scalars: cheaper than NumPy's
    a_m1, b_m1 = a1.conjugate(), b1.conjugate()
    v = _coupling_value(a1, u2, model)
    vc = v.conjugate()
    # Source harmonics of q(x) = u_2 * integral cos(y - x + alpha) zeta(y) dy:
    # q_{-1} = 2*pi*u_2*(e^{i*alpha}/2)*b_{-1} and its conjugate partner q_{+1}.
    w = u2 * 2.0 * np.pi
    q_lo = w * stencil[3] * b_m1
    q_hi = w * stencil[4] * b1
    up, down = shifts
    out = np.multiply(drift, b, out)
    out[1:] += np.multiply(np.multiply(v, stencil[1], up), b[:-1], up)
    out[:-1] += np.multiply(np.multiply(vc, stencil[2], down), b[1:], down)
    n, m = len(a) - 1, min(len(a), len(b) - 1)
    out[:n] -= np.multiply(q_lo, a[1:], up[:n])
    out[1:m + 1] -= np.multiply(q_hi, a[:m], down[:m])
    # n = 0: the factor of b_0 is 0, and each conjugate pair sums to a real number.
    out[0] = ((-1j * v) * b_m1 + (1j * vc) * b1) - (q_lo * a1 + q_hi * a_m1)
    return out


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
    stencil = _stencil(b.shape[0], model)
    return _adjoint_rhs(b, a, u, model, complex(u[0]) * stencil[0], stencil, np.empty_like(b),
                        np.empty((2, b.shape[0] - 1), dtype=complex))


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
        The march's `CoTrajectory`; the march keeps the half step of
        `traj`.  The terminal row and every backward step are settled
        (`forward._settle`) before they are recorded or marched on.

    Raises:
        ValueError: if a time in `keep` lies outside [0, T].
        DivergenceError: if any co-density part passes the guard.
    """
    if u.grid != traj.grid:
        raise ValueError("control signal grid does not match the trajectory")
    grid = traj.grid
    last = 2 * grid.n_steps
    model.require_feasible(u.values)
    if terminal is None:
        terminal = terminal_adjoint(traj.terminal_field(), model)
    else:
        terminal = require_row(terminal, "terminal co-density")  # copied and settled below
        if terminal.shape[0] != traj.width:
            raise ValueError("terminal co-density resolution does not match the trajectory")

    h = 0.5 * grid.tau
    width = traj.width
    # Complex control of the step that starts at each half node.
    controls = np.repeat(u.values[:-1], 2, axis=0).astype(complex)
    block = min(batch_rows(width), last)
    lengths = traj.index[:, 1]
    # Every buffer is allocated once at full width and read through its head.
    quarter, mids = Workspace.of(block * width), np.empty(block * width, dtype=complex)
    stored = np.empty((block + 1) * width, dtype=complex)  # the block's rows on their band
    back, shifts = Workspace.of(width), np.empty((2, width - 1), dtype=complex)
    pair = np.empty((2, width), dtype=complex)  # each step goes into the other row
    b, held = pair[0], 0
    b[:] = terminal

    def quarter_rhs(x, i, k):
        _continuity_rhs(x, drive, model, dn, k, qwork.prod)

    def back_rhs(x, i, k):
        _adjoint_rhs(x, nodes[i], uk, model, drift, stencil, k, prods)

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

    _settle(b, last * h, back)
    land(b, grid.n_steps)
    # b marches on its band, which also covers the forward rows' band: the
    # source reaches one harmonic past them.  A full-width march stays full.
    wb, wa, reach = 0, 0, _kept(back.mask[None])
    # An overflow inside a step is reported once, by `_settle`, as a divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        for top in range(last, 0, -block):
            # The block's quarter-step states read only the stored trajectory, so
            # they march as one state; the lowest block re-marches rows above it.
            lo = max(top - block, 0)
            fit = band(int(lengths[lo:lo + block + 1].max()), width)
            if fit != wa:
                wa, dn = fit, np.tile(_factor(fit), block)
                qwork = quarter.prefix(block * wa)
            rows = traj.rows(lo, lo + block + 1, stored[:(block + 1) * wa].reshape(-1, wa))
            drive = _drive(controls[lo:lo + block], wa)
            a_mids = qwork.step(rows[:block].reshape(-1), 0.5 * h, quarter_rhs,
                                mids[:block * wa]).reshape(block, wa)
            for s in range(top, lo, -1):
                if wb < width and (fit := band(max(reach, wa), width)) != wb:
                    # b moves to its new width, in the other buffer
                    b, spare = _repack(b, 1, fit, pair[1 - held]), pair[held, :fit]
                    wb, held, stencil = fit, 1 - held, _stencil(fit, model)
                    bwork, prods = back.prefix(wb), (shifts[0, :wb - 1], shifts[1, :wb - 1])
                uk = u.values[(s - 1) >> 1]
                drift = complex(uk[0]) * stencil[0]
                nodes = (rows[s - lo], a_mids[s - 1 - lo], a_mids[s - 1 - lo], rows[s - 1 - lo])
                b, spare, held = bwork.step(b, -h, back_rhs, spare), b, 1 - held
                _settle(b, (s - 1) * h, bwork)
                if wb < width:
                    reach = _kept(bwork.mask[None])
                if s & 1:  # landed on the full node s - 1 = 2k
                    land(b, s >> 1)
    return CoTrajectory(grid, traj.n_modes, head, scale, tail, tuple(slot), kept)
