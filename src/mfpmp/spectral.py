"""Truncated Fourier representation of real periodic fields on the circle.

Fields live on [0, 2*pi) with coefficients over the harmonics
n = -N/2 .. N/2 under the convention

    c_n = (1 / 2*pi) * integral_0^{2*pi} c(x) exp(-i*n*x) dx,

so a probability density carries c_0 = 1/(2*pi).  Every field here is
real, so its coefficients satisfy the Hermitian symmetry
c_{-n} = conj(c_n), and the n < 0 half carries nothing new.

The program therefore speaks one layout: the half row, a 1-D complex array
of the harmonics n = 0 .. N/2 with a real n = 0 entry.  Every function
that solves, checks or differentiates takes and returns half rows, from
the initial density through the marches, the stored trajectories and the
public right-hand sides to the terminal cost.  `require_row` is the one
check where a row enters from a caller; with a real n = 0 entry, the
field a half row stands for is Hermitian exactly, not to rounding.  A row
that must be a probability density also passes `require_normalized`, the
one mass rule of the program.

`FourierField` keeps the full range -N/2 .. N/2.  It is left only as the
record the presets return (`presets.fig1_density`); the config slices its
half row once.

A note on the boundary mode: on an N-point grid the harmonics +N/2 and -N/2
alias to the same samples, so only their real part is observable; the two
indices split the boundary bin evenly.  A half row keeps only the +N/2
half of that bin, so its reconstruction (`reconstruct_rows`) counts the
real part of the last entry twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# How far a density's mode-0 coefficient may lie from 1/(2*pi).
_MASS_TOL = 1e-13


@dataclass(frozen=True)
class FourierField:
    """Complex Fourier coefficients of a real periodic field.

    Attributes:
        n_modes: even number N >= 4 of retained harmonics; indices run
            over n = -N/2 .. N/2.
        coeffs: complex array of length N + 1; entry i holds harmonic
            n = i - N/2.
    """

    n_modes: int
    coeffs: np.ndarray

    @property
    def center(self) -> int:
        return self.n_modes // 2


def grid_points(n_points: int) -> np.ndarray:
    """Equispaced circle grid x_j = 2*pi*j/N."""
    return 2.0 * np.pi * np.arange(n_points) / n_points


def require_row(row, name: str) -> np.ndarray:
    """`row` as a complex half row; ValueError unless 1-D, N >= 4 and harmonic 0 real."""
    c = np.asarray(row, dtype=complex)
    if c.ndim != 1 or c.shape[0] < 3:
        raise ValueError(f"{name} must be a half row n = 0 .. N/2 with N >= 4, "
                         f"got shape {c.shape}")
    if c[0].imag != 0.0:
        raise ValueError(f"{name}: harmonic 0 of a real field must be real, got {c[0]}")
    return c


def require_normalized(row, name: str) -> np.ndarray:
    """The checked half row (`require_row`) of a density with a_0 = 1/(2*pi) to within 1e-13."""
    row = require_row(row, name)
    mass = row[0]
    if abs(mass - 1.0 / (2.0 * np.pi)) > _MASS_TOL:
        raise ValueError(
            f"{name} is not normalized: mode-0 coefficient {mass} "
            f"differs from 1/(2*pi) by more than {_MASS_TOL:.0e}"
        )
    return row


def reconstruct_rows(half: np.ndarray) -> np.ndarray:
    """Samples on the N-point grid (`grid_points`) of a stack of half rows n = 0 .. N/2.

    One real inverse FFT per row.  The last entry holds the +N/2 half of
    the boundary bin, so its real part enters twice.
    """
    spec = np.array(np.atleast_2d(half), dtype=complex)
    n = 2 * (spec.shape[1] - 1)
    spec[:, -1] = 2.0 * spec[:, -1].real
    return np.fft.irfft(spec, n, axis=1, norm="forward")
