"""Kuramoto vector field, synchronization cost, and admissible sets."""

from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mfpmp import (
    ball,
    box,
    kuramoto_model,
    rhs_adjoint,
    rhs_continuity,
    terminal_adjoint,
)
from mfpmp.models import CostSpec
from mfpmp.spectral import grid_points

from conftest import (eval_series, full_rows, grid_coefficients, half_row, harmonic, mode_numbers,
                      random_hermitian, uniform_field)


def uniform(n=32):
    return uniform_field(n)


def coupling(model, mu):
    return complex(*model.coupling(harmonic(mu, 1)))


def flat_derivative(mu, x0):
    """First variation of the mismatch cost, 1 - cos(x - x0) - cost(mu)."""
    return half_row(2 * (mu.size - 1), {
        0: 1.0 - CostSpec(x0).eval(mu),
        1: -0.5 * np.exp(-1j * x0),
    })


class TestKuramotoField:
    def test_pure_rotation_channel(self, rng):
        # With u_2 = 0 the field is the rigid rotation u_1, whatever the state.
        model = kuramoto_model(0.0, np.pi)
        mu = random_hermitian(32, rng)
        out = rhs_continuity(0.0, mu, np.array([1.0, 0.0]), model)
        assert np.array_equal(out, -1j * np.arange(17) * mu)

    def test_interaction_coefficient(self):
        # With a first harmonic of -i/(4*pi), unit coupling and zero phase
        # shift gives i*pi * (-i/(4*pi)) = 1/4 at harmonic 1.
        mu1 = -0.25j / np.pi
        mu = half_row(32, {0: 1.0 / (2.0 * np.pi), 1: mu1})
        v = coupling(kuramoto_model(0.0, np.pi), mu)
        assert_allclose(v, 0.25, atol=1e-15)
        # grid-quadrature oracle on the interaction integral
        x = grid_points(512)
        fine = np.linspace(0.0, 2.0 * np.pi, 40001)
        dens = 1.0 / (2.0 * np.pi) + 2.0 * (mu1 * np.exp(1j * fine)).real
        for xj in x[::64]:
            target = np.trapezoid(np.sin(fine - xj) * dens, fine)
            got = 2.0 * (v * np.exp(1j * xj)).real
            assert_allclose(got, target, atol=1e-7)

    def test_uniform_state_feels_no_coupling(self):
        assert coupling(kuramoto_model(0.3, np.pi), uniform()) == 0.0

    def test_infeasible_control_rejected(self):
        model = kuramoto_model(0.0, np.pi)
        with pytest.raises(ValueError, match="admissible"):
            model.require_feasible(np.array([2.0, 2.0]))
        with pytest.raises(ValueError, match="admissible"):
            rhs_continuity(0.0, uniform(), np.array([2.0, 2.0]), model)

    def test_control_affinity(self, rng):
        model = kuramoto_model(0.7, np.pi, control_set=ball(10.0))
        mu = random_hermitian(32, rng)
        u = np.array([0.3, -0.8])
        w = np.array([-1.1, 0.4])

        def rhs(c):
            return rhs_continuity(0.0, mu, c, model)

        lhs = rhs(u) + rhs(w) - rhs(np.zeros(2))
        assert np.max(np.abs(lhs - rhs(u + w))) < 1e-12

    def test_components_assemble_the_total_field(self, rng):
        # V = u_1 V^1 + u_2 V^2: the RHS is the same combination of the
        # per-channel RHS, and the coupling channel is i*pi*a_1*e^{i*alpha}.
        alpha = 0.4
        model = kuramoto_model(alpha, 1.0, control_set=ball(5.0))
        mu = random_hermitian(32, rng)
        u = np.array([0.6, 1.2])
        per_channel = [rhs_continuity(0.0, mu, e, model) for e in np.eye(2)]
        assembled = u[0] * per_channel[0] + u[1] * per_channel[1]
        assert_allclose(rhs_continuity(0.0, mu, u, model), assembled, atol=1e-14)
        assert_allclose(coupling(model, mu), 1j * np.pi * harmonic(mu, 1) * np.exp(1j * alpha),
                        atol=1e-15)


class TestSyncCost:
    def test_uniform_density_scores_one(self):
        assert_allclose(CostSpec(0.37).eval(uniform()), 1.0, atol=1e-14)

    def test_experiment_density_against_quadrature(self):
        # The first harmonic of the experiment's density is purely
        # imaginary, so the x0 = pi mismatch evaluates to exactly 1.
        rho = half_row(64, {
            0: 1.0 / (2.0 * np.pi),
            1: -0.125j / np.pi,
            2: (0.4 + 0.1j) / (4.0 * np.pi),
        })
        x = np.linspace(0.0, 2.0 * np.pi, 100001)
        dens = (2.0 + np.sin(x) + 0.8 * np.cos(2 * x) - 0.2 * np.sin(2 * x)) / (4.0 * np.pi)
        quad = np.trapezoid((1.0 - np.cos(x - np.pi)) * dens, x)
        assert_allclose(CostSpec(np.pi).eval(rho), quad, atol=1e-9)
        assert_allclose(CostSpec(np.pi).eval(rho), 1.0, atol=1e-14)

    def test_concentrated_density_scores_near_zero(self):
        # A band-limited bump centered at x0 (von-Mises-like truncation).
        n = 256
        x0 = 2.0
        x = grid_points(n)
        bump = np.exp(8.0 * np.cos(x - x0))
        bump /= 2.0 * np.pi * np.mean(bump)
        rho = grid_coefficients(bump)
        val = CostSpec(x0).eval(rho)
        fine = np.linspace(0.0, 2.0 * np.pi, 200001)
        fine_bump = np.exp(8.0 * np.cos(fine - x0))
        fine_bump /= np.trapezoid(fine_bump, fine)
        quad = np.trapezoid((1.0 - np.cos(fine - x0)) * fine_bump, fine)
        assert val < 0.07
        assert_allclose(val, quad, atol=1e-8)

    def test_unnormalized_density_rejected(self):
        bad = uniform_field(16, 0.2)
        with pytest.raises(ValueError, match="normalized"):
            CostSpec(0.0).eval(bad)

    def test_rotation_invariance(self, rng):
        mu = random_hermitian(32, rng)
        phi = 1.234
        shifted = mu * np.exp(-1j * phi * np.arange(17))
        for x0 in (0.0, 1.0, np.pi):
            assert_allclose(CostSpec(x0 + phi).eval(shifted),
                            CostSpec(x0).eval(mu), atol=1e-13)

    def test_terminal_adjoint_of_uniform_is_minus_the_sine_field(self):
        # D_mu l = sin(x - x0), so the uniform density gives -sin(x - x0)/(2*pi).
        x = grid_points(64)
        z0 = terminal_adjoint(uniform(), kuramoto_model(0.0, 0.0))
        assert z0.shape == (17,) and np.flatnonzero(z0).tolist() == [1]  # harmonic 1 only
        assert_allclose(eval_series(z0, x), -np.sin(x) / (2.0 * np.pi), atol=1e-15)
        zpi = terminal_adjoint(uniform(), kuramoto_model(0.0, np.pi))
        assert_allclose(zpi, -z0, atol=1e-15)

    def test_terminal_adjoint_is_minus_derivative_of_flat_times_mu(self, rng):
        # zeta_T = -(d/dx flat) * mu: the product is a convolution of full
        # layouts, truncated to the harmonics -16 .. 16.
        mu = random_hermitian(32, rng)
        for x0 in (0.0, 0.9, np.pi):
            lhs = full_rows(terminal_adjoint(mu, kuramoto_model(0.0, x0)))
            dmu = 1j * mode_numbers(33) * full_rows(flat_derivative(mu, x0))  # d/dx
            rhs = -np.convolve(dmu, full_rows(mu))[16:49]
            assert np.max(np.abs(lhs - rhs)) < 1e-15

    def test_the_cost_is_a_value_derived_from_x0(self):
        # No callable fields, so models built from equal parameters are equal.
        assert [f.name for f in fields(CostSpec)] == ["x0"]
        assert kuramoto_model(0.0, 3.0) == kuramoto_model(0.0, 3.0)
        assert kuramoto_model(0.0, 3.0) != kuramoto_model(0.0, 3.5)
        boxed = lambda hi: kuramoto_model(0, 1, box([-1, -1], [1, hi]))  # noqa: E731
        assert boxed(1) == boxed(1.0) and boxed(1) != boxed(2)
        assert boxed(1) != kuramoto_model(0, 1, ball(1.0))
        assert kuramoto_model(0.2, 3.0).cost == CostSpec(3.0)
        assert replace(kuramoto_model(0.2, 3.0), x0=1.0).cost == CostSpec(1.0)

    def test_flat_derivative_has_zero_mean_against_mu(self, rng):
        # Pairing the first variation with mu reproduces the cost itself.
        mu = random_hermitian(32, rng)
        flat = flat_derivative(mu, 0.7)
        pairing = 2.0 * np.pi * np.dot(full_rows(flat), full_rows(mu)[::-1])  # 2*pi sum f_n mu_{-n}
        assert abs(pairing) < 1e-12


class TestAdmissibleSets:
    def test_ball_projection(self):
        s = ball(np.sqrt(2.0))
        assert_allclose(s.project(np.array([2.0, 0.0])),
                        [np.sqrt(2.0), 0.0])
        inside = np.array([1.0, 0.0])
        assert_array_equal(s.project(inside), inside)

    def test_box_clamp(self):
        s = box([-1.0, -1.0], [1.0, 1.0])
        assert_allclose(s.project(np.array([3.0, -0.5])), [1.0, -0.5])

    def test_projection_is_idempotent(self, rng):
        for s in (ball(1.3), box([-0.5, -2.0], [0.2, 1.0])):
            for _ in range(20):
                u = rng.standard_normal(2) * 3.0
                p = s.project(u)
                assert s.admits(p)
                assert_allclose(s.project(p), p, atol=0.0)

    def test_stack_projection_is_bit_equal_to_per_vector_projection(self, rng):
        # Rows inside the set, on its boundary and outside it, in a (3, 40, 2) stack.
        u = rng.standard_normal((3, 40, 2)) * np.array([0.4, 2.5])
        u[0, :2] = [[1.3, 0.0], [0.0, 0.0]]
        r, lo, hi = 1.3, np.array([-0.5, -2.0]), np.array([0.2, 1.0])

        def one_ball(v):
            norm = np.linalg.norm(v)
            return v if norm <= r else v * (r / norm)

        for s, one in ((ball(r), one_ball), (box(lo, hi), lambda v: np.clip(v, lo, hi))):
            assert s.admits(u).any() and not s.admits(u).all()
            got = s.project(u)
            assert got is not u and got.shape == u.shape
            assert_array_equal(got.reshape(-1, 2), [one(v) for v in u.reshape(-1, 2)])
            assert_array_equal(s.project(np.asfortranarray(u)), got)

    def test_invalid_sets_rejected(self):
        with pytest.raises(ValueError):
            ball(-1.0)
        with pytest.raises(ValueError):
            box([1.0, 0.0], [0.0, 1.0])

    def test_two_channels_by_construction(self):
        for bounds in ([-1.0], [-1.0, -1.0, -1.0]):
            with pytest.raises(ValueError, match="control channel"):
                box(bounds, [-b for b in bounds])
        with pytest.raises(TypeError):
            ball(1.0, 2)
        for s in (ball(1.0), box([-1.0, -1.0], [1.0, 1.0])):
            assert s.admits(np.zeros((4, 2))).all()
            with pytest.raises(ValueError, match="2 entries"):
                s.admits(np.zeros(3))


class TestMeasureDerivativeKernel:
    def test_kernel_matches_cosine_of_phase_difference(self, rng):
        # D_mu V^2(y, mu, x) = cos(y - x + alpha).  On a uniform state the
        # coupling field vanishes, so with u = (0, u_2) the adjoint RHS is the
        # bare source -(q a)_n = -q_n / (2*pi) with
        # q(x) = u_2 * integral cos(y - x + alpha) zeta(y) dy.
        alpha, u2 = 0.55, 0.8
        model = kuramoto_model(alpha, 0.0)
        zeta = random_hermitian(32, rng, max_mode=6, mass=0.3)
        out = rhs_adjoint(0.0, zeta, uniform(), np.array([0.0, u2]), model)
        q = -2.0 * np.pi * out
        y = grid_points(256)
        zeta_y = eval_series(zeta, y)
        for x in np.linspace(0.0, 2 * np.pi, 7):
            quad = u2 * 2.0 * np.pi * np.mean(np.cos(y - x + alpha) * zeta_y)
            assert_allclose(eval_series(q, x)[0], quad, atol=1e-12)

    def test_rotation_channels_carry_no_kernel(self, rng):
        # The rotation channel has no measure derivative: with u_2 = 0 the
        # adjoint RHS is pure transport, with no source, for any state.
        model = kuramoto_model(0.3, 0.0, control_set=ball(3.0))
        a = random_hermitian(16, rng)
        b = random_hermitian(16, rng, mass=0.2)
        out = rhs_adjoint(0.0, b, a, np.array([1.4, 0.0]), model)
        assert_allclose(out, -1j * np.arange(9) * 1.4 * b, atol=1e-15)
