"""Shared helpers for the test suite."""

import numpy as np
import pytest

from mfpmp import FourierField


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


def eval_series(field, x):
    """Direct evaluation of the truncated series at arbitrary points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    modes = field.mode_numbers()
    vals = np.exp(1j * np.outer(x, modes)) @ field.coeffs
    return vals.real if vals.imag.max(initial=0.0) < 1e-9 else vals


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
