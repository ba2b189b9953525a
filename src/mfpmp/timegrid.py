"""Time lattices and time-indexed containers shared by the solvers.

Controls are piecewise constant per full step: u(t) = u_k on
[k*tau, (k+1)*tau), and the forward march takes m = `forward.SUBSTEPS` RK4
steps of tau/m of each.  Its trajectory keeps m and every sub-step node
t = s*tau/m, each half row cut after its last nonzero harmonic
(`Trajectory`), so the backward pass marches that m and reads forward states
at its stage times without interpolation; it keeps what its readers read at
the full-step nodes t = k*tau (`adjoint.CoTrajectory`).  One nearest-node
rule, `TimeGrid.nearest_node`, serves both lattices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform lattice on [0, T] with step tau; T/tau must be a positive integer."""

    T: float
    tau: float

    def __post_init__(self):
        if not (self.T > 0.0 and self.tau > 0.0):
            raise ValueError(f"T and tau must be positive, got T = {self.T}, tau = {self.tau}")
        steps = self.T / self.tau
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * max(1.0, steps)):
            raise ValueError(f"T/tau = {steps} is not an integer")
        if round(steps) < 1:
            raise ValueError(f"T = {self.T} is shorter than one step, tau = {self.tau}")

    @property
    def n_steps(self) -> int:
        """Number K of full steps: K + 1 full nodes, and mK + 1 sub-step nodes of a `Trajectory`."""
        return int(round(self.T / self.tau))

    def full_times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.tau

    def nearest_node(self, t: float, per_step: int = 1) -> int:
        """Index of the node nearest to time t on the lattice of `per_step` nodes per step.

        Node i lies at t = i*tau/per_step.  A time within 1e-9 node spacings
        of the midpoint between two nodes goes to the earlier node, so
        rounding in t / spacing never decides a tie.
        """
        idx = math.ceil(t / (self.tau / per_step) - 0.5 - 1e-9)
        if not 0 <= idx <= per_step * self.n_steps:
            raise ValueError(f"time {t} outside the stored lattice")
        return idx


@dataclass(frozen=True)
class Trajectory:
    """Coefficient snapshots at every sub-step node t = s*tau/m, each cut after its last nonzero.

    Its mK + 1 rows are half rows of `width` coefficients, the harmonics
    n = 0 .. N/2 of a real field (see `spectral`).  High harmonics decay to
    exact zeros, since parts below 2^-511 are flushed (`forward._settle`,
    which gives the bound's reasons), so each row keeps only its head: row s
    is `coeffs[off:off + length]` for `(off, length) = index[s]`, and its
    harmonics from `length` on are zero.  At full scale a row keeps 146 of
    its 1025 columns on average; flushed only below the smallest normal
    float, 2^-1022, it would keep 424.  The readers hand out whole rows,
    zero-padded, with the bits of the rows that were cut.  `substeps` is
    the march's m (`forward.SUBSTEPS`), which every reader takes from here.
    """

    grid: TimeGrid
    substeps: int
    width: int
    coeffs: np.ndarray
    index: np.ndarray

    def __post_init__(self):
        c, index = np.asarray(self.coeffs), np.asarray(self.index)
        if c.ndim != 1 or self.width < 3:
            raise ValueError("coeffs must be one buffer of half rows of n_modes/2 + 1 >= 3 entries")
        if not (type(self.substeps) is int and self.substeps >= 1):
            raise ValueError(f"substeps must be a positive int, got {self.substeps!r}")
        rows = self.substeps * self.grid.n_steps + 1
        if index.shape != (rows, 2):
            raise ValueError(f"not every sub-step node: expected {rows} rows, got {len(index)}")
        off, length = index.T
        if not (np.all((length >= 1) & (length <= self.width))
                and np.all((off >= 0) & (off + length <= len(c)))):
            raise ValueError("every row needs 1 .. width coefficients inside the buffer")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "index", index)

    @property
    def n_modes(self) -> int:
        return 2 * (self.width - 1)

    def rows(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """The half rows of the nodes lo .. hi - 1, zero-padded, into `out` if given.

        `out` must be a C-ordered complex array of hi - lo rows, at most
        `width` wide and at least as wide as every row's head: a reader on
        a band of the harmonics gets the rows cut to it, and a row's
        entries past its head are written as zeros up to the band only.
        """
        if not 0 <= lo <= hi <= len(self.index):
            raise IndexError(f"rows {lo} .. {hi} outside the {len(self.index)} sub-step nodes")
        if out is None:
            out = np.empty((hi - lo, self.width), dtype=complex)
        elif not (out.ndim == 2 and out.shape[0] == hi - lo and out.flags.c_contiguous
                  and self.index[lo:hi, 1].max(initial=1) <= out.shape[1] <= self.width):
            raise ValueError(f"out must be a C-ordered array of {hi - lo} rows, as wide as "
                             f"their heads and at most {self.width}")
        width = out.shape[1]
        flat, c, start = out.reshape(-1), self.coeffs, 0
        for off, n in self.index[lo:hi].tolist():
            flat[start:start + n] = c[off:off + n]
            if n < width:
                flat[start + n:start + width] = 0.0
            start += width
        return out

    def column(self, n: int) -> np.ndarray:
        """Harmonic n of every sub-step node, 0 where the row was cut before it."""
        if not 0 <= n < self.width:
            raise IndexError(f"harmonic {n} outside 0 .. {self.width - 1}")
        off, length = self.index.T
        kept = length > n
        out = np.zeros(len(off), dtype=complex)
        out[kept] = self.coeffs[off[kept] + n]
        return out

    def terminal_field(self) -> np.ndarray:
        """The half row at t = T."""
        return self.rows(len(self.index) - 1, len(self.index))[0]


@dataclass(frozen=True)
class ControlSignal:
    """A control or its switching function: values at the full-step nodes.

    `values` has shape (K + 1, 2): one column per control channel (u_1, u_2),
    or per channel of d(t) (`descent.switching_function`).  A control is held
    constant over each step, so its value at node K (= T) never drives the
    dynamics; it is kept so presets and dumps cover the closed interval.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        shape = (self.grid.n_steps + 1, 2)
        if v.shape != shape:
            raise ValueError(f"expected control values of shape {shape}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("control values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def toward(self, other: "ControlSignal", lam: float) -> "ControlSignal":
        """Convex combination u + lam * (other - u)."""
        if other.grid != self.grid:
            raise ValueError("control signals live on different grids")
        return ControlSignal(self.grid, self.values + lam * (other.values - self.values))


def constant_control(grid: TimeGrid, value) -> ControlSignal:
    return ControlSignal(grid, np.tile(np.asarray(value, dtype=float), (grid.n_steps + 1, 1)))


def sampled_control(grid: TimeGrid, profile) -> ControlSignal:
    """Sample a callable t -> control vector (u_1, u_2) at the full-step nodes."""
    return ControlSignal(grid, [profile(t) for t in grid.full_times()])
