"""Truncated circle fields: the Hermitian invariant, the half-row layout, reconstruction."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfpmp import FourierField, field_from_harmonics
from mfpmp.presets import fig1_density
from mfpmp.spectral import HERMITIAN_TOL, full_rows, grid_points, half_rows, reconstruct_rows

from conftest import (full_field, grid_coefficients, harmonic, hermitian_defect, mode_numbers,
                      random_hermitian, uniform_field)


def fig1_density_samples(x):
    return (2.0 + np.sin(x) + 0.8 * np.cos(2 * x) - 0.2 * np.sin(2 * x)) / (4.0 * np.pi)


def quad_coefficient(fn, n, points=200001):
    """High-resolution trapezoid quadrature of the coefficient integral."""
    x = np.linspace(0.0, 2.0 * np.pi, points)
    return np.trapezoid(fn(x) * np.exp(-1j * n * x), x) / (2.0 * np.pi)


def to_physical(field):
    """Literal reference: the truncated series summed directly on the N-point grid.

    The phases n*x_j are reduced modulo 2*pi exactly (as n*j mod N) before
    the exponential, which keeps the sum at rounding level.
    """
    n = field.n_modes
    phase = np.outer(np.arange(n), mode_numbers(n + 1)) % n
    return (np.exp(2j * np.pi * phase / n) @ field.coeffs).real


def reconstruct(field):
    """`reconstruct_rows` of one full-layout field."""
    return reconstruct_rows(half_rows(field.coeffs))[0]


class TestToSpectral:
    def test_experiment_initial_density_against_quadrature(self):
        # The fig1 preset equals the scaled DFT of its grid samples (the
        # literal `grid_coefficients`) and the quadrature oracle below: the
        # first harmonic is -i/(8*pi) and the second (0.4 + 0.1i)/(4*pi).
        n = 128
        rho = fig1_density(n)
        sampled = grid_coefficients(fig1_density_samples(grid_points(n)))
        assert np.max(np.abs(sampled.coeffs - rho.coeffs)) < 1e-14
        assert_allclose(harmonic(rho, 0), 1.0 / (2.0 * np.pi), atol=1e-14)
        assert_allclose(harmonic(rho, 1), -0.125j / np.pi, atol=1e-14)
        assert_allclose(harmonic(rho, 2), (0.4 + 0.1j) / (4.0 * np.pi), atol=1e-14)
        for n_harm in (0, 1, 2, 3):
            assert_allclose(harmonic(rho, n_harm),
                            quad_coefficient(fig1_density_samples, n_harm), atol=1e-9)

    def test_rejects_bad_grid_sizes(self):
        with pytest.raises(ValueError, match="even"):
            FourierField(7, np.zeros(8))
        with pytest.raises(ValueError, match="even"):
            FourierField(2, np.zeros(3))


class TestToPhysical:
    def test_constant_field(self):
        assert_allclose(reconstruct(uniform_field(16, 1.0)), np.ones(16), atol=1e-14)

    def test_sine_pair(self):
        f = field_from_harmonics(32, {1: -0.5j})
        assert_allclose(reconstruct(f), np.sin(grid_points(32)), atol=1e-14)

    def test_roundtrip_identity_on_random_fields(self, rng):
        for _ in range(10):
            f = random_hermitian(32, rng)
            g = grid_coefficients(reconstruct(f))
            assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12

    def test_physical_roundtrip(self, rng):
        vals = rng.standard_normal(64)
        assert_allclose(reconstruct(grid_coefficients(vals)), vals, atol=1e-12)

    def test_symmetry_violation_raises(self):
        c = np.zeros(17, dtype=complex)
        c[9] = 1.0  # harmonic +1 without its conjugate partner
        with pytest.raises(ValueError, match="Hermitian"):
            FourierField(16, c)


class TestHermitianInvariant:
    # Index 8 holds harmonic 0 of a 16-mode field, index 0 the boundary -8.
    @pytest.mark.parametrize("index, delta", [(3, 2e-10), (0, 2e-10j), (8, 1e-10j)])
    def test_rejects_a_defect_above_the_tolerance(self, rng, index, delta):
        c = random_hermitian(16, rng).coeffs.copy()
        c[index] += delta
        assert_allclose(np.max(np.abs(c - np.conj(c[::-1]))), 2e-10, rtol=1e-5)
        with pytest.raises(ValueError, match="Hermitian"):
            FourierField(16, c)

    def test_accepts_rounding(self, rng):
        c = random_hermitian(16, rng).coeffs * (1.0 + 1e-15 * rng.standard_normal(17))
        assert 0.0 < hermitian_defect(FourierField(16, c)) < 1e-15
        c = uniform_field(16).coeffs + 0.5e-10j * (np.arange(17) == 3)
        assert hermitian_defect(FourierField(16, c)) == 0.5e-10 < HERMITIAN_TOL


class TestHalfRows:
    def test_full_rows_invert_half_rows_on_hermitian_fields(self, rng):
        for n in (4, 16, 64):
            f = random_hermitian(n, rng)
            half = half_rows(f.coeffs)
            assert half.shape == (n // 2 + 1,)
            assert np.array_equal(full_rows(half), f.coeffs)

    def test_expanded_rows_are_exactly_hermitian(self, rng):
        rows = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
        rows[:, 0] = rows[:, 0].real
        for row in rows:
            assert hermitian_defect(full_field(row)) == 0.0
        assert np.array_equal(full_rows(rows)[1], full_rows(rows[1]))

    @pytest.mark.parametrize("real_boundary", [True, False])
    def test_reconstruct_rows_matches_to_physical(self, rng, real_boundary):
        # A complex +-N/2 pair splits its real part over the boundary bin.
        fields = [random_hermitian(32, rng, real_boundary=real_boundary) for _ in range(4)]
        got = reconstruct_rows(np.stack([half_rows(f.coeffs) for f in fields]))
        want = np.stack([to_physical(f) for f in fields])
        assert got.shape == (4, 32)
        assert np.max(np.abs(got - want)) < 1e-14
        assert np.array_equal(reconstruct(fields[0]), got[0])
