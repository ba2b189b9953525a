"""Transforms, pairings, convolutions, and derivatives of truncated circle fields."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfpmp import (
    FourierField,
    RealGridField,
    convolve,
    derivative,
    field_from_harmonics,
    pairing,
    to_physical,
    to_spectral,
)
from mfpmp.spectral import (constant_field, field_from_half, full_rows, grid_points, half_rows,
                            hermitian_defect, reconstruct_rows)

from conftest import eval_series, random_hermitian


def fig1_density_samples(x):
    return (2.0 + np.sin(x) + 0.8 * np.cos(2 * x) - 0.2 * np.sin(2 * x)) / (4.0 * np.pi)


def quad_coefficient(fn, n, points=200001):
    """High-resolution trapezoid quadrature of the coefficient integral."""
    x = np.linspace(0.0, 2.0 * np.pi, points)
    return np.trapezoid(fn(x) * np.exp(-1j * n * x), x) / (2.0 * np.pi)


class TestToSpectral:
    def test_constant_density(self):
        n = 32
        f = RealGridField(n, np.full(n, 1.0 / (2.0 * np.pi)))
        c = to_spectral(f)
        assert_allclose(c[0], 1.0 / (2.0 * np.pi), atol=1e-15)
        others = np.abs(c.coeffs[np.arange(n + 1) != n // 2])
        assert others.max() < 1e-15

    def test_sine_harmonic(self):
        n = 64
        x = grid_points(n)
        c = to_spectral(RealGridField(n, np.sin(x)))
        assert_allclose(c[1], -0.5j, atol=1e-14)
        assert_allclose(c[-1], 0.5j, atol=1e-14)

    def test_experiment_initial_density_against_quadrature(self):
        # Frozen values from the quadrature oracle below: the first harmonic
        # is -i/(8*pi) and the second (0.4 + 0.1i)/(4*pi).
        n = 128
        x = grid_points(n)
        c = to_spectral(RealGridField(n, fig1_density_samples(x)))
        assert_allclose(c[0], 1.0 / (2.0 * np.pi), atol=1e-14)
        assert_allclose(c[1], -0.125j / np.pi, atol=1e-14)
        assert_allclose(c[2], (0.4 + 0.1j) / (4.0 * np.pi), atol=1e-14)
        for harmonic in (0, 1, 2, 3):
            assert_allclose(c[harmonic],
                            quad_coefficient(fig1_density_samples, harmonic),
                            atol=1e-9)

    def test_rejects_bad_grid_sizes(self):
        with pytest.raises(ValueError):
            to_spectral(RealGridField(7, np.zeros(7)))
        with pytest.raises(ValueError):
            to_spectral(RealGridField(2, np.zeros(2)))


class TestToPhysical:
    def test_constant_field(self):
        f = constant_field(16, 1.0)
        assert_allclose(to_physical(f).values, np.ones(16), atol=1e-14)

    def test_sine_pair(self):
        f = field_from_harmonics(32, {1: -0.5j})
        assert_allclose(to_physical(f).values, np.sin(grid_points(32)), atol=1e-14)

    def test_roundtrip_identity_on_random_fields(self, rng):
        for _ in range(10):
            f = random_hermitian(32, rng)
            g = to_spectral(to_physical(f))
            assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12

    def test_physical_roundtrip(self, rng):
        n = 64
        vals = rng.standard_normal(n)
        f = RealGridField(n, vals)
        assert_allclose(to_physical(to_spectral(f)).values, vals, atol=1e-12)

    def test_symmetry_violation_raises(self):
        c = np.zeros(17, dtype=complex)
        c[9] = 1.0  # harmonic +1 without its conjugate partner
        with pytest.raises(ValueError, match="Hermitian"):
            to_physical(FourierField(16, c))


class TestHalfRows:
    def test_full_rows_invert_half_rows_on_hermitian_fields(self, rng):
        for n in (4, 16, 64):
            f = random_hermitian(n, rng)
            half = half_rows(f.coeffs)
            assert half.shape == (n // 2 + 1,)
            assert np.array_equal(full_rows(half), f.coeffs)
            assert np.array_equal(field_from_half(half).coeffs, f.coeffs)

    def test_expanded_rows_are_exactly_hermitian(self, rng):
        rows = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
        rows[:, 0] = rows[:, 0].real
        for row in rows:
            assert hermitian_defect(field_from_half(row)) == 0.0
        assert np.array_equal(full_rows(rows)[1], full_rows(rows[1]))

    @pytest.mark.parametrize("real_boundary", [True, False])
    def test_reconstruct_rows_matches_to_physical(self, rng, real_boundary):
        # A complex +-N/2 pair splits its real part over the boundary bin.
        fields = [random_hermitian(32, rng, real_boundary=real_boundary) for _ in range(4)]
        got = reconstruct_rows(np.stack([half_rows(f.coeffs) for f in fields]))
        want = np.stack([to_physical(f).values for f in fields])
        assert got.shape == (4, 32)
        assert np.max(np.abs(got - want)) < 1e-14
        assert np.array_equal(reconstruct_rows(half_rows(fields[0].coeffs))[0], got[0])


class TestPairing:
    def test_sine_squared(self):
        f = field_from_harmonics(32, {1: -0.5j})
        assert_allclose(pairing(f, f), np.pi, atol=1e-12)

    def test_mass_normalization(self, rng):
        f = constant_field(32, 1.0 / (2.0 * np.pi))
        g = random_hermitian(32, rng)
        assert_allclose(pairing(f, g), 1.0 / (2.0 * np.pi), atol=1e-12)

    def test_cosine_probe_and_grid_quadrature(self, rng):
        n = 64
        x0 = 0.7
        probe = field_from_harmonics(n, {1: 0.5 * np.exp(-1j * x0)})
        g = random_hermitian(n, rng, max_mode=8)
        expected = 2.0 * np.pi * (np.exp(-1j * x0) * g[-1]).real
        assert_allclose(pairing(probe, g), expected, atol=1e-12)
        x = grid_points(n)
        quad = 2.0 * np.pi / n * np.sum(np.cos(x - x0) * to_physical(g).values)
        assert_allclose(pairing(probe, g), quad, atol=1e-10)

    def test_grid_quadrature_identity_below_half_band(self, rng):
        n = 64
        f = random_hermitian(n, rng, max_mode=n // 4)
        g = random_hermitian(n, rng, max_mode=n // 4)
        x = grid_points(n)
        quad = 2.0 * np.pi / n * np.sum(to_physical(f).values * to_physical(g).values)
        assert_allclose(pairing(f, g), quad, atol=1e-10)

    def test_mismatched_resolutions_raise(self, rng):
        with pytest.raises(ValueError, match="mode counts"):
            pairing(random_hermitian(16, rng), random_hermitian(32, rng))


class TestConvolve:
    def test_sine_kernel_on_uniform_density(self):
        n = 32
        kernel = field_from_harmonics(n, {1: -0.5j})
        uniform = constant_field(n, 1.0 / (2.0 * np.pi))
        out = convolve(kernel, uniform)
        assert np.max(np.abs(out.coeffs)) < 1e-15

    def test_cosine_kernel_coefficients(self, rng):
        n = 32
        a = 0.3 - 0.12j
        kernel = field_from_harmonics(n, {1: 0.5})
        g = field_from_harmonics(n, {0: 1.0 / (2.0 * np.pi), 1: a})
        out = convolve(kernel, g)
        assert_allclose(out[1], 2.0 * np.pi * 0.5 * a, atol=1e-14)
        assert_allclose(out[-1], np.conj(2.0 * np.pi * 0.5 * a), atol=1e-14)

    def test_grid_quadrature_oracle_on_peaked_density(self, rng):
        # Band-limited bump: the convolution must match direct quadrature.
        n = 64
        kernel = random_hermitian(n, rng, max_mode=5, mass=0.2)
        peak = to_spectral(RealGridField(
            n, np.exp(np.cos(grid_points(n) - 1.0) * 3.0)))
        out = convolve(kernel, peak)
        x = grid_points(n)
        fine = np.linspace(0.0, 2.0 * np.pi, 20001)
        for xj in x[::8]:
            integrand = eval_series(kernel, xj - fine) * eval_series(peak, fine)
            quad = np.trapezoid(integrand, fine)
            assert_allclose(eval_series(out, xj)[0], quad, atol=1e-6)

    def test_bilinear_and_zero_kernel(self, rng):
        n = 32
        k1 = random_hermitian(n, rng, mass=0.1)
        k2 = random_hermitian(n, rng, mass=-0.3)
        g = random_hermitian(n, rng)
        lhs = convolve(FourierField(n, 2.0 * k1.coeffs + 0.5 * k2.coeffs), g)
        rhs = 2.0 * convolve(k1, g).coeffs + 0.5 * convolve(k2, g).coeffs
        assert_allclose(lhs.coeffs, rhs, atol=1e-14)
        zero = convolve(FourierField(n, np.zeros(n + 1, complex)), g)
        assert np.max(np.abs(zero.coeffs)) == 0.0


class TestDerivative:
    def test_constant_has_zero_derivative(self):
        assert np.max(np.abs(derivative(constant_field(16, 2.0)).coeffs)) == 0.0

    def test_sine_to_cosine(self):
        n = 32
        d = derivative(field_from_harmonics(n, {1: -0.5j}))
        cos_field = field_from_harmonics(n, {1: 0.5})
        assert_allclose(d.coeffs, cos_field.coeffs, atol=1e-15)

    def test_against_centered_differences(self, rng):
        f = random_hermitian(32, rng, max_mode=10)
        d = derivative(f)
        h = 1e-5
        xs = np.linspace(0.3, 5.9, 17)
        fd = (eval_series(f, xs + h) - eval_series(f, xs - h)) / (2.0 * h)
        assert_allclose(eval_series(d, xs), fd, atol=1e-8)

    def test_commutes_with_convolution(self, rng):
        k = random_hermitian(32, rng, mass=0.4)
        g = random_hermitian(32, rng)
        lhs = derivative(convolve(k, g)).coeffs
        rhs = convolve(derivative(k), g).coeffs
        assert_allclose(lhs, rhs, atol=1e-13)

