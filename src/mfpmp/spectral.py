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
field a half row stands for is Hermitian exactly, not to rounding.

`FourierField` keeps the full range -N/2 .. N/2.  It is left only as the
type the presets return (`presets.fig1_density`); the config converts it
to its half row once (`half_rows`).

A note on the boundary mode: on an N-point grid the harmonics +N/2 and -N/2
alias to the same samples, so only their real part is observable; the two
indices split the boundary bin evenly.  A half row keeps only the +N/2
half of that bin, so its reconstruction (`reconstruct_rows`) counts the
real part of the last entry twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The largest violation of c_{-n} = conj(c_n) that a FourierField accepts:
# rounding in a full-layout computation, not a complex field.
HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class FourierField:
    """Complex Fourier coefficients of a real periodic field.

    Attributes:
        n_modes: even number N >= 4 of retained harmonics; indices run
            over n = -N/2 .. N/2.
        coeffs: complex array of length N + 1; entry i holds harmonic
            n = i - N/2; Hermitian to within HERMITIAN_TOL.
    """

    n_modes: int
    coeffs: np.ndarray

    def __post_init__(self):
        n = self.n_modes
        if n % 2 != 0 or n < 4:
            raise ValueError(f"n_modes must be even and >= 4, got {n}")
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (n + 1,):
            raise ValueError(f"coeffs must have shape ({n + 1},), got {c.shape}")
        defect = float(np.max(np.abs(c - np.conj(c[::-1]))))
        if defect > HERMITIAN_TOL:
            raise ValueError(f"field is not Hermitian-symmetric: defect {defect:.3e} "
                             f"> {HERMITIAN_TOL:.1e}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def center(self) -> int:
        return self.n_modes // 2


def grid_points(n_points: int) -> np.ndarray:
    """Equispaced circle grid x_j = 2*pi*j/N."""
    return 2.0 * np.pi * np.arange(n_points) / n_points


def field_from_harmonics(n_modes: int, harmonics: dict[int, complex]) -> FourierField:
    """Build a real field from its nonnegative harmonics.

    Negative harmonics are filled by conjugation; the n = 0 entry must be
    real.  Keys are signed harmonic numbers with n >= 0.
    """
    c = np.zeros(n_modes + 1, dtype=complex)
    center = n_modes // 2
    for n, v in harmonics.items():
        if n < 0 or n > center:
            raise ValueError(f"harmonic {n} must lie in 0..{center}")
        v = complex(v)
        if n == 0:
            if v.imag != 0.0:
                raise ValueError("harmonic 0 of a real field must be real")
            c[center] = v
        else:
            c[center + n] = v
            c[center - n] = v.conjugate()
    return FourierField(n_modes, c)


def half_rows(coeffs: np.ndarray) -> np.ndarray:
    """The harmonics n = 0 .. N/2 of full-layout rows (..., N + 1), as a view."""
    return coeffs[..., (coeffs.shape[-1] - 1) // 2:]


def require_row(row, name: str) -> np.ndarray:
    """`row` as a complex half row; ValueError unless 1-D, N >= 4 and harmonic 0 real."""
    c = np.asarray(row, dtype=complex)
    if c.ndim != 1 or c.shape[0] < 3:
        raise ValueError(f"{name} must be a half row n = 0 .. N/2 with N >= 4, "
                         f"got shape {c.shape}")
    if c[0].imag != 0.0:
        raise ValueError(f"{name}: harmonic 0 of a real field must be real, got {c[0]}")
    return c


def reconstruct_rows(half: np.ndarray) -> np.ndarray:
    """Samples on the N-point grid (`grid_points`) of a stack of half rows n = 0 .. N/2.

    One real inverse FFT per row.  The last entry holds the +N/2 half of
    the boundary bin, so its real part enters twice.
    """
    spec = np.array(np.atleast_2d(half), dtype=complex)
    n = 2 * (spec.shape[1] - 1)
    spec[:, -1] = 2.0 * spec[:, -1].real
    return np.fft.irfft(spec, n, axis=1, norm="forward")
