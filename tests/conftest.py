"""Shared helpers for the test suite."""

import numpy as np
import pytest

from mfpmp import FourierField
from mfpmp.spectral import full_rows


def random_hermitian(n_modes, rng, max_mode=None, scale=0.1, mass=None,
                     real_boundary=True):
    """Random real-field coefficients; boundary entries kept real by default."""
    center = n_modes // 2
    limit = center if max_mode is None else min(max_mode, center)
    c = np.zeros(n_modes + 1, dtype=complex)
    for n in range(1, limit + 1):
        v = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        if n == center and real_boundary:
            v = complex(v.real)
        c[center + n] = v
        c[center - n] = np.conj(v)
    c[center] = 1.0 / (2.0 * np.pi) if mass is None else mass
    return FourierField(n_modes, c)


def mode_numbers(size):
    """Harmonic numbers -N/2 .. N/2 of a full-layout row of `size` = N + 1 entries."""
    center = (size - 1) // 2
    return np.arange(-center, center + 1)


def harmonic(field, n):
    """Coefficient of the signed harmonic n of a full-layout field."""
    return complex(field.coeffs[field.center + n])


def full_field(half):
    """The full-layout field of one half row n = 0 .. N/2, as a solve stores it."""
    return FourierField(2 * (half.shape[-1] - 1), full_rows(half))


def uniform_field(n_modes, value=1.0 / (2.0 * np.pi)):
    """The constant field `value`; by default the uniform probability density."""
    c = np.zeros(n_modes + 1, dtype=complex)
    c[n_modes // 2] = value
    return FourierField(n_modes, c)


def hermitian_defect(field):
    """Largest violation of c_{-n} = conj(c_n)."""
    c = field.coeffs
    return float(np.max(np.abs(c - np.conj(c[::-1]))))


def grid_coefficients(values):
    """Coefficients of real samples on the N-point grid: the scaled DFT.

    The boundary bin is split evenly between the harmonics +-N/2, and the
    negative harmonics are conjugates, so the field is exactly Hermitian.
    """
    n = len(values)
    spec = np.fft.fft(values) / n
    half = n // 2
    c = np.zeros(n + 1, dtype=complex)
    c[half:n] = spec[:half]
    c[1:half] = np.conj(spec[1:half][::-1])
    c[0] = c[n] = 0.5 * spec[half].real
    return FourierField(n, c)


def eval_series(field, x):
    """Direct evaluation of the truncated series at arbitrary points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.exp(1j * np.outer(x, mode_numbers(field.coeffs.size))) @ field.coeffs
    return vals.real if vals.imag.max(initial=0.0) < 1e-9 else vals


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
