"""Truncated Fourier representation of real periodic fields on the circle.

Fields live on [0, 2*pi) and are stored as complex coefficients over the
symmetric harmonic range n = -N/2 .. N/2 under the convention

    c_n = (1 / 2*pi) * integral_0^{2*pi} c(x) exp(-i*n*x) dx,

so a probability density carries c_0 = 1/(2*pi).  Real fields satisfy the
Hermitian symmetry c_{-n} = conj(c_n), and every operation in this module
preserves that symmetry to rounding error.

Two layouts hold the coefficients.  `FourierField` keeps the full range
-N/2 .. N/2: configs, presets, the operations below and the public RHS
functions speak it.  The solvers store and march only the half rows
n = 0 .. N/2 (`half_rows`), since the n < 0 half is their conjugate.  The
full field of a half row (`full_rows`, `field_from_half`) is built by
conjugation, so with a real n = 0 entry, which both solvers keep, it is
Hermitian exactly, not to rounding.

A note on the boundary mode: on an N-point grid the harmonics +N/2 and -N/2
alias to the same samples, so only their real part is observable.  The
transform splits the boundary bin evenly between the two indices, which
keeps round trips exact for fields whose +-N/2 coefficients are real.  A
half row keeps only the +N/2 half of that bin, so its reconstruction
(`reconstruct_rows`) counts the real part of the last entry twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def __post_init__(self):
        n = self.n_modes
        if n % 2 != 0 or n < 4:
            raise ValueError(f"n_modes must be even and >= 4, got {n}")
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (n + 1,):
            raise ValueError(f"coeffs must have shape ({n + 1},), got {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def center(self) -> int:
        return self.n_modes // 2

    def mode_numbers(self) -> np.ndarray:
        return np.arange(-self.center, self.center + 1)

    def __getitem__(self, n: int) -> complex:
        """Coefficient of harmonic n (signed index)."""
        if abs(n) > self.center:
            raise IndexError(f"harmonic {n} outside |n| <= {self.center}")
        return complex(self.coeffs[self.center + n])


@dataclass(frozen=True)
class RealGridField:
    """Real samples on the equispaced grid x_j = 2*pi*j/N, j = 0..N-1."""

    n_points: int
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.n_points,):
            raise ValueError(f"values must have shape ({self.n_points},), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def grid_points(n_points: int) -> np.ndarray:
    """Equispaced circle grid x_j = 2*pi*j/N."""
    return 2.0 * np.pi * np.arange(n_points) / n_points


def constant_field(n_modes: int, value: float) -> FourierField:
    c = np.zeros(n_modes + 1, dtype=complex)
    c[n_modes // 2] = value
    return FourierField(n_modes, c)


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


def hermitian_defect(field: FourierField) -> float:
    """Largest violation of c_{-n} = conj(c_n)."""
    c = field.coeffs
    return float(np.max(np.abs(c - np.conj(c[::-1]))))


def require_hermitian(field: FourierField, tol: float = 1e-10) -> None:
    defect = hermitian_defect(field)
    if defect > tol:
        raise ValueError(f"field is not Hermitian-symmetric: defect {defect:.3e} > {tol:.1e}")


def _check_same_modes(f: FourierField, g: FourierField) -> None:
    if f.n_modes != g.n_modes:
        raise ValueError(f"mode counts differ: {f.n_modes} vs {g.n_modes}")


def to_spectral(field: RealGridField) -> FourierField:
    """Forward transform of real grid samples.

    The N-point trapezoid rule applied to the coefficient integral equals
    the scaled DFT, so the result is exact for fields band-limited to the
    stored range.  The boundary bin is split evenly between harmonics
    +-N/2 (see module docstring); negative harmonics are constructed by
    conjugation so symmetry holds exactly.
    """
    n = field.n_points
    if n % 2 != 0 or n < 4:
        raise ValueError(f"n_points must be even and >= 4, got {n}")
    spec = np.fft.fft(field.values) / n
    half = n // 2
    c = np.zeros(n + 1, dtype=complex)
    c[half:n] = spec[:half]
    c[1:half] = np.conj(spec[1:half][::-1])
    boundary = 0.5 * spec[half].real
    c[0] = boundary
    c[n] = boundary
    return FourierField(n, c)


def to_physical(field: FourierField, sym_tol: float = 1e-10) -> RealGridField:
    """Evaluate the truncated series on the N-point grid.

    Requires Hermitian symmetry to `sym_tol`; the imaginary residue of the
    reconstruction is checked against 1e-10 and then discarded.
    """
    require_hermitian(field, sym_tol)
    n = field.n_modes
    half = n // 2
    c = field.coeffs
    spec = np.zeros(n, dtype=complex)
    spec[:half] = c[half:n]
    spec[half] = c[n] + c[0]
    spec[half + 1:] = c[1:half]
    vals = np.fft.ifft(spec) * n
    scale = max(1.0, float(np.max(np.abs(vals.real))))
    residue = float(np.max(np.abs(vals.imag)))
    if residue > 1e-10 * scale:
        raise ValueError(f"imaginary residue {residue:.3e} above tolerance")
    return RealGridField(n, vals.real)


def pairing(f: FourierField, g: FourierField) -> float:
    """Circle integral of the product of two real fields.

    Equals 2*pi * sum_n f_n g_{-n}; exact whenever the product of the two
    truncated series is itself resolvable.
    """
    _check_same_modes(f, g)
    s = 2.0 * np.pi * np.dot(f.coeffs, g.coeffs[::-1])
    scale = max(1.0, abs(s))
    if abs(s.imag) > 1e-8 * scale:
        raise ValueError(f"pairing of non-real fields: imaginary part {s.imag:.3e}")
    return float(s.real)


def convolve(kernel: FourierField, density: FourierField) -> FourierField:
    """Periodic convolution (K * rho)(x) = integral K(x - y) rho(y) dy.

    Under the 1/(2*pi) coefficient convention the result has coefficients
    2*pi * K_n * rho_n.
    """
    _check_same_modes(kernel, density)
    return FourierField(kernel.n_modes, 2.0 * np.pi * kernel.coeffs * density.coeffs)


def derivative(field: FourierField) -> FourierField:
    """Spatial derivative: harmonic n is multiplied by i*n."""
    return FourierField(field.n_modes, 1j * field.mode_numbers() * field.coeffs)


def half_rows(coeffs: np.ndarray) -> np.ndarray:
    """The harmonics n = 0 .. N/2 of full-layout rows (..., N + 1), as a view."""
    return coeffs[..., (coeffs.shape[-1] - 1) // 2:]


def full_rows(half: np.ndarray) -> np.ndarray:
    """Full-layout rows (..., N + 1) of half rows (..., N/2 + 1): c_{-n} = conj(c_n)."""
    return np.concatenate([np.conj(half[..., :0:-1]), half], axis=-1)


def field_from_half(half: np.ndarray) -> FourierField:
    """The real field of one half row n = 0 .. N/2."""
    return FourierField(2 * (half.shape[-1] - 1), full_rows(half))


def reconstruct_rows(half: np.ndarray) -> np.ndarray:
    """Physical samples for a stack of half rows n = 0 .. N/2 (one real FFT per row).

    Matches `to_physical` on the full field of each row but skips per-row
    validation; used by diagnostics that sweep whole trajectories.  The last
    entry holds the +N/2 half of the boundary bin, so its real part enters
    twice.
    """
    spec = np.array(np.atleast_2d(half), dtype=complex)
    n = 2 * (spec.shape[1] - 1)
    spec[:, -1] = 2.0 * spec[:, -1].real
    return np.fft.irfft(spec, n, axis=1, norm="forward")
