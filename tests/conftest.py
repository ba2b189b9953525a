"""Shared helpers for the test suite.

Fields are half rows, the harmonics n = 0 .. N/2 of a real field, as the
program takes and returns them.  `full_rows` expands them to the full layout
n = -N/2 .. N/2 where a test compares against a full-layout reference.
"""

import numpy as np
import pytest

from mfpmp import Trajectory, adjoint, forward
from mfpmp.forward import Workspace
from mfpmp.presets import fig1_density


def full_rows(half):
    """Full-layout rows (..., N + 1) of half rows (..., N/2 + 1): c_{-n} = conj(c_n)."""
    return np.concatenate([np.conj(half[..., :0:-1]), half], axis=-1)


def dense(traj):
    """Every half row of a stored forward trajectory, zero-padded (`Trajectory.rows`)."""
    return traj.rows(0, len(traj.index))


def pack(grid, rows):
    """The `Trajectory` of the dense half rows `rows`, one per sub-step node.

    Each row is cut after its last entry whose bits are not all zero, so
    a -0.0 stays and every row reads back bit for bit.
    """
    rows = np.ascontiguousarray(rows, dtype=complex)
    if rows.ndim != 2:
        raise ValueError("rows must be a (snapshots, n_modes/2 + 1) array")
    nonzero = (rows.view(np.uint64) != 0).reshape(*rows.shape, 2).any(axis=2)
    length = np.where(nonzero.any(axis=1),
                      rows.shape[1] - nonzero[:, ::-1].argmax(axis=1), 1)
    off = np.concatenate([[0], np.cumsum(length)[:-1]])
    coeffs = np.concatenate([r[:n] for r, n in zip(rows, length)])
    return Trajectory(grid, forward.SUBSTEPS, rows.shape[1], coeffs,
                      np.column_stack([off, length]))


def half_row(n_modes, harmonics):
    """The half row with the given harmonics {n >= 0: c_n}, zero elsewhere."""
    row = np.zeros(n_modes // 2 + 1, dtype=complex)
    for n, v in harmonics.items():
        row[n] = v
    return row


def poisoned_workspace(size):
    """The buffers of a march of `size` entries, filled with NaN so that a read before a write shows."""
    work = Workspace.of(size)
    for buf in (*work.k, work.prod, work.mag):
        buf.fill(np.nan)
    return work


def poison(stages, wa):
    """What a backward march writes of `adjoint._Stages` on forward rows of wa columns, NaN-filled.

    That is b's columns of `pair`, the factors, the source columns 1 .. wa,
    `prod` and `col`: a read before a write shows.  The rest, the pad
    columns and the source columns past wa, must stay +0.0 (`zero_pads`).
    """
    for buf in (stages.pair[:, 1:-1], stages.factors, stages.sources[..., 1:wa + 1],
                stages.prod, stages.col):
        buf.fill(np.nan)
    return stages


def zero_pads(stages, wa):
    """Whether the pad columns of `adjoint._Stages` and its source columns past wa hold +0.0 only."""
    rest = (stages.pair[:, 0], stages.pair[:, -1], stages.sources[..., 0],
            stages.sources[..., wa + 1:])
    return not any(np.array(buf).view(np.uint64).any() for buf in rest)


def backward_rhs(u, a_hi, a_mid, a_lo, model, stencil):
    """The `rhs` of `Workspace.step` for a backward step under the control u (2,).

    Stages 0 .. 3 read the forward half rows a_hi, a_mid, a_mid and a_lo
    through the stage kernel, with stage buffers of their own (`adjoint._rhs`).
    """
    nodes = (a_hi, a_mid, a_mid, a_lo)
    return lambda x, i, k: adjoint._rhs(x, nodes[i], u, model, stencil, k)


def backward_step(b, h, u, a_hi, a_mid, a_lo, model, stencil):
    """One RK4 step of the co-density half row b from t to t - h, through a workspace of its own."""
    work = Workspace.of(b.size)
    return work.step(b, -h, backward_rhs(u, a_hi, a_mid, a_lo, model, stencil),
                     np.empty_like(b))


def continuity_step(a, h, u, model):
    """One RK4 step of the one-row state a under the control u (2,), on all its columns."""
    work, width = Workspace.of(a.size), a.size
    drive, dn = forward._drive(u.astype(complex)[None], width), forward._factor(width)
    return work.step(a, h, lambda x, i, k: forward._continuity_rhs(x, drive, model, dn, k,
                                                                   work.prod),
                     np.empty_like(a))


def full_width_march(a0, u_values, grid, model):
    """Every settled state, (mK + 1, width), of a literal one-row march on the full row width.

    `u_values` holds the controls (K, 2) of the full steps: m = `forward.SUBSTEPS`
    RK4 steps of h = tau/m each (`continuity_step`), and a settle after the
    initial state and every step, as the solver marches, but over every column.
    """
    m = forward.SUBSTEPS
    h = grid.tau / m
    a = np.array(a0, dtype=complex)
    forward._settle(a, 0.0, Workspace.of(a.size))
    rows = [a]
    for s in range(m * len(u_values)):
        a = continuity_step(a, h, u_values[s // m], model)
        forward._settle(a, (s + 1) * h, Workspace.of(a.size))
        rows.append(a)
    return np.stack(rows)


def full_width_adjoint(rows, u_values, grid, model):
    """The settled co-density at every full node, (K + 1, width), of a literal full-width march.

    It marches back along the dense forward rows (mK + 1, width) of
    `full_width_march` from `adjoint.terminal_adjoint`, m RK4 steps of
    h = tau/m per control step (`forward.SUBSTEPS`), with one midpoint
    state per backward step, over every column.
    """
    m = forward.SUBSTEPS
    h = grid.tau / m
    stencil = adjoint._stencil(rows.shape[1], model)
    b = adjoint.terminal_adjoint(rows[-1], model)
    last = len(rows) - 1
    forward._settle(b, last * h, Workspace.of(b.size))
    nodes = [b]
    for s in range(last, 0, -1):
        uk = u_values[(s - 1) // m]
        a_mid = continuity_step(rows[s - 1], 0.5 * h, uk, model)
        b = backward_step(b, h, uk, rows[s], a_mid, rows[s - 1], model, stencil)
        forward._settle(b, (s - 1) * h, Workspace.of(b.size))
        if (s - 1) % m == 0:
            nodes.append(b)
    return np.stack(nodes[::-1])


def fig1_row(n_modes):
    """The half row of the fig1 preset density."""
    return np.array(fig1_density(n_modes).coeffs[n_modes // 2:])


def random_hermitian(n_modes, rng, max_mode=None, scale=0.1, mass=None,
                     real_boundary=True):
    """Half row of a random real field; the boundary entry is kept real by default."""
    center = n_modes // 2
    limit = center if max_mode is None else min(max_mode, center)
    c = np.zeros(center + 1, dtype=complex)
    for n in range(1, limit + 1):
        v = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        if n == center and real_boundary:
            v = complex(v.real)
        c[n] = v
    c[0] = 1.0 / (2.0 * np.pi) if mass is None else mass
    return c


def mode_numbers(size):
    """Harmonic numbers -N/2 .. N/2 of a full-layout row of `size` = N + 1 entries."""
    center = (size - 1) // 2
    return np.arange(-center, center + 1)


def harmonic(row, n):
    """Coefficient of the signed harmonic n of a half row."""
    return complex(row[n]) if n >= 0 else complex(np.conj(row[-n]))


def literal_sync_cost_dmu(mu, x0):
    """Literal copy of the former callable cost derivative: the half row of sin(x - x0)."""
    c = np.zeros(mu.shape[-1], dtype=complex)
    c[1] = -0.5j * np.exp(-1j * x0)
    return c


def uniform_field(n_modes, value=1.0 / (2.0 * np.pi)):
    """Half row of the constant field `value`; by default the uniform probability density."""
    return half_row(n_modes, {0: value})


def hermitian_defect(full):
    """Largest violation of c_{-n} = conj(c_n) in a full-layout row."""
    return float(np.max(np.abs(full - np.conj(full[::-1]))))


def grid_coefficients(values):
    """Half row of real samples on the N-point grid: the scaled DFT.

    The last entry holds the +N/2 half of the boundary bin, half its real
    part, as a real field's full layout splits it evenly with -N/2.
    """
    n = len(values)
    c = np.fft.fft(values)[:n // 2 + 1] / n
    c[-1] = 0.5 * c[-1].real
    return c


def eval_series(row, x):
    """Direct evaluation of the truncated series of a half row at arbitrary points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    full = full_rows(np.asarray(row))
    vals = np.exp(1j * np.outer(x, mode_numbers(full.size))) @ full
    return vals.real if vals.imag.max(initial=0.0) < 1e-9 else vals


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
