"""Truncated circle fields: the half-row layout, its entry check, reconstruction."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfpmp import ConfigError
from mfpmp.presets import fig1_density
from mfpmp.spectral import grid_points, reconstruct_rows

from conftest import (fig1_row, full_rows, grid_coefficients, half_row, harmonic,
                      hermitian_defect, mode_numbers, random_hermitian, uniform_field)


def fig1_density_samples(x):
    return (2.0 + np.sin(x) + 0.8 * np.cos(2 * x) - 0.2 * np.sin(2 * x)) / (4.0 * np.pi)


def quad_coefficient(fn, n, points=200001):
    """High-resolution trapezoid quadrature of the coefficient integral."""
    x = np.linspace(0.0, 2.0 * np.pi, points)
    return np.trapezoid(fn(x) * np.exp(-1j * n * x), x) / (2.0 * np.pi)


def to_physical(row):
    """Literal reference: the truncated series of a half row summed directly on the N-point grid.

    The phases n*x_j are reduced modulo 2*pi exactly (as n*j mod N) before
    the exponential, which keeps the sum at rounding level.
    """
    full = full_rows(row)
    n = full.size - 1
    phase = np.outer(np.arange(n), mode_numbers(n + 1)) % n
    return (np.exp(2j * np.pi * phase / n) @ full).real


def reconstruct(row):
    """`reconstruct_rows` of one half row."""
    return reconstruct_rows(row)[0]


class TestToSpectral:
    def test_experiment_initial_density_against_quadrature(self):
        # The fig1 preset equals the scaled DFT of its grid samples (the
        # literal `grid_coefficients`) and the quadrature oracle below: the
        # first harmonic is -i/(8*pi) and the second (0.4 + 0.1i)/(4*pi).
        n = 128
        rho = fig1_row(n)
        sampled = grid_coefficients(fig1_density_samples(grid_points(n)))
        assert np.max(np.abs(sampled - rho)) < 1e-14
        assert np.array_equal(full_rows(rho), fig1_density(n).coeffs)
        assert_allclose(harmonic(rho, 0), 1.0 / (2.0 * np.pi), atol=1e-14)
        assert_allclose(harmonic(rho, 1), -0.125j / np.pi, atol=1e-14)
        assert_allclose(harmonic(rho, 2), (0.4 + 0.1j) / (4.0 * np.pi), atol=1e-14)
        for n_harm in (0, 1, 2, 3):
            assert_allclose(harmonic(rho, n_harm),
                            quad_coefficient(fig1_density_samples, n_harm), atol=1e-9)


class TestToPhysical:
    def test_constant_field(self):
        assert_allclose(reconstruct(uniform_field(16, 1.0)), np.ones(16), atol=1e-14)

    def test_sine_pair(self):
        f = half_row(32, {1: -0.5j})
        assert_allclose(reconstruct(f), np.sin(grid_points(32)), atol=1e-14)

    def test_roundtrip_identity_on_random_fields(self, rng):
        for _ in range(10):
            f = random_hermitian(32, rng)
            g = grid_coefficients(reconstruct(f))
            assert np.max(np.abs(g - f)) < 1e-12

    def test_physical_roundtrip(self, rng):
        vals = rng.standard_normal(64)
        assert_allclose(reconstruct(grid_coefficients(vals)), vals, atol=1e-12)


class TestHalfRows:
    def test_expanded_rows_are_exactly_hermitian(self, rng):
        rows = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
        rows[:, 0] = rows[:, 0].real
        for row in rows:
            assert hermitian_defect(full_rows(row)) == 0.0
        assert np.array_equal(full_rows(rows)[1], full_rows(rows[1]))

    @pytest.mark.parametrize("real_boundary", [True, False])
    def test_reconstruct_rows_matches_to_physical(self, rng, real_boundary):
        # A complex +-N/2 pair splits its real part over the boundary bin.
        fields = [random_hermitian(32, rng, real_boundary=real_boundary) for _ in range(4)]
        got = reconstruct_rows(np.stack(fields))
        want = np.stack([to_physical(f) for f in fields])
        assert got.shape == (4, 32)
        assert np.max(np.abs(got - want)) < 1e-14
        assert np.array_equal(reconstruct(fields[0]), got[0])


def _entry_points():
    """Each public function a density half row enters, as a call on the row `r`."""
    from mfpmp import (DescentConfig, TimeGrid, constant_control, cost_of_control,
                       integrate_backward, integrate_forward, kuramoto_model, rhs_adjoint,
                       rhs_continuity, run_descent, stratified_ensemble, terminal_adjoint)
    from mfpmp import checks
    from mfpmp.config import parse_config_dict

    grid = TimeGrid(0.02, 1e-2)
    model = kuramoto_model(0.0, np.pi)
    u = constant_control(grid, [0.1, 0.2])
    good = fig1_row(16)
    traj = integrate_forward(good, u, model, grid)
    ref = checks.reference(traj, u, model)

    def config(r):
        harmonics = {str(n): [c.real, c.imag] for n, c in enumerate(r) if c != 0}
        doc = {"command": "solve-forward", "output_dir": "out",
               "model": {"alpha": 0.0, "x0": 0.0, "constraint": {"kind": "ball", "radius": 1.0}},
               "grid": {"T": 0.02, "tau": 0.01, "n_modes": 16},
               "initial_density": {"harmonics": harmonics},
               "initial_control": {"constant": [0.0, 0.0]}}
        parse_config_dict(doc)

    return {
        "integrate_forward": lambda r: integrate_forward(r, u, model, grid),
        "cost_of_control": lambda r: cost_of_control(r, [u], model, grid),
        "run_descent": lambda r: run_descent(r, u, model, grid, DescentConfig(k_max=1)),
        "rhs_continuity": lambda r: rhs_continuity(0.0, r, u.values[0], model),
        "rhs_adjoint(b)": lambda r: rhs_adjoint(0.0, r, good, u.values[0], model),
        "rhs_adjoint(a)": lambda r: rhs_adjoint(0.0, good, r, u.values[0], model),
        "terminal_adjoint": lambda r: terminal_adjoint(r, model),
        "integrate_backward(terminal=)": lambda r: integrate_backward(traj, u, model, terminal=r),
        "stratified_ensemble": lambda r: stratified_ensemble(r, 10),
        # The particle oracle, the references and the experiment pair read a stored solve;
        # their row enters through it.
        "meanfield_vs_particles": lambda r: checks.meanfield_vs_particles(
            integrate_forward(r, u, model, grid), u, model, [10], 1.0),
        "reference": lambda r: checks.reference(integrate_forward(r, u, model, grid), u, model),
        "increment_slope_check": lambda r: checks.increment_slope_check(r, (ref, u), [], model,
                                                                        grid, [0.1, 0.2],
                                                                        0.05, 1.8),
        "local_adjoint_check": lambda r: checks.local_adjoint_check(np.zeros(3), r, 0.0, grid, 1.0),
        # The synthetic pairs are controls only; the slope oracle solves them from its row.
        "synthetic_control_pairs": lambda r: checks.increment_slope_check(
            r, (ref, u), checks.synthetic_control_pairs(model, grid, 1), model, grid, [0.1, 0.2],
            0.05, 1.8),
        "fig1_slope_pair": lambda r: checks.fig1_slope_pair(integrate_forward(r, u, model, grid),
                                                            u, model),
        "config": config,
        "cost.eval": lambda r: model.cost.eval(r),
    }


ENTRY_POINTS = sorted(_entry_points())

# The entry points whose row is a probability density, not any real field.
DENSITY_ENTRY_POINTS = [n for n in ENTRY_POINTS
                        if not n.startswith(("rhs_", "terminal_adjoint", "integrate_backward"))]


class TestEntryCheck:
    """A row a caller passes in must be 1-D, with N >= 4 and a real harmonic 0.

    A probability density's harmonic 0 must also be 1/(2*pi) to within 1e-13.
    """

    @pytest.mark.parametrize("name", [n for n in ENTRY_POINTS if n != "config"])  # JSON: 1-D
    def test_a_two_dimensional_row_is_rejected(self, name):
        call = _entry_points()[name]
        with pytest.raises(ValueError, match="half row"):
            call(np.stack([fig1_row(16)] * 2))

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_a_complex_harmonic_0_is_rejected(self, name):
        call = _entry_points()[name]
        bad = fig1_row(16)
        bad[0] += 1e-3j
        with pytest.raises((ValueError, ConfigError),
                           match="harmonic 0 of a real field must be real"):
            call(bad)

    @pytest.mark.parametrize("name", DENSITY_ENTRY_POINTS)
    def test_a_mass_off_by_1e_12_is_rejected(self, name):
        call = _entry_points()[name]
        heavy = fig1_row(16)
        heavy[0] = 1.0 / (2.0 * np.pi) + 1e-12
        with pytest.raises((ValueError, ConfigError), match="not normalized"):
            call(heavy)

    def test_the_config_names_its_key_once(self):
        call = _entry_points()["config"]
        bad = fig1_row(16)
        bad[0] += 1e-3j
        with pytest.raises(ConfigError) as err:
            call(bad)
        assert str(err.value) == ("initial_density: harmonic 0 of a real field must be real, "
                                  f"got {bad[0]}")
        heavy = fig1_row(16)
        heavy[0] = 0.2
        with pytest.raises(ConfigError) as err:
            call(heavy)
        assert str(err.value) == (f"initial_density is not normalized: mode-0 coefficient "
                                  f"{heavy[0]} differs from 1/(2*pi) by more than 1e-13")

    def test_a_row_shorter_than_three_entries_is_rejected(self):
        from mfpmp.spectral import require_row
        with pytest.raises(ValueError, match="N >= 4"):
            require_row(np.array([1.0 / (2.0 * np.pi), 0.0]), "density")
        assert require_row([1, 0, 0], "density").dtype == complex
