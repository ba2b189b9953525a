"""Finite oscillator ensembles and their deterministic initialization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfpmp import (
    ControlSignal,
    DivergenceError,
    ParticleEnsemble,
    TimeGrid,
    constant_control,
    particle_cost,
    simulate_particles,
    stratified_ensemble,
)
from mfpmp.particles import density_cdf_values

from conftest import fig1_row, harmonic, uniform_field


def moment(ens, n):
    """Literal trigonometric moment (1/N) sum_i exp(i n x_i)."""
    return np.mean(np.exp(1j * n * ens.phases))


def reference_rhs(x, u, alpha):
    """Literal pairwise field through two complex exponentials of the ensemble."""
    z = np.mean(np.exp(1j * x))
    return u[0] + u[1] * np.imag(np.exp(-1j * (x + alpha)) * z)


def reference_march(phases, u, alpha, grid, record_steps):
    """Literal RK4 at the full control step; {step: phases} at `record_steps`."""
    tau = grid.tau
    x = np.array(phases, dtype=float)
    snaps = {0: x.copy()}
    for k in range(grid.n_steps):
        uk = u.values[k]
        k1 = reference_rhs(x, uk, alpha)
        k2 = reference_rhs(x + 0.5 * tau * k1, uk, alpha)
        k3 = reference_rhs(x + 0.5 * tau * k2, uk, alpha)
        k4 = reference_rhs(x + tau * k3, uk, alpha)
        x = x + (tau / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        snaps[k + 1] = x.copy()
    return x, {k: snaps[k] for k in record_steps}


class TestSimulation:
    def test_single_particle_pure_drift(self):
        grid = TimeGrid(2.0, 1e-2)
        out, _ = simulate_particles(ParticleEnsemble(np.array([0.4])),
                                    constant_control(grid, [0.7, 0.0]), 0.0, grid, [])
        assert_allclose(out.phases[0], 0.4 + 0.7 * 2.0, rtol=1e-14)

    def test_self_interaction_follows_the_plain_pairwise_sum(self):
        # One particle interacting with itself feels sin(-alpha): the
        # pairwise sum includes the j = i term.
        grid = TimeGrid(1.0, 1e-2)
        alpha = np.pi / 2.0
        out, _ = simulate_particles(ParticleEnsemble(np.array([1.0])),
                                    constant_control(grid, [0.0, 1.0]), alpha, grid, [])
        assert_allclose(out.phases[0], 1.0 - np.sin(alpha) * 1.0, atol=1e-12)

    def test_synchronized_ensemble_rotates_rigidly(self):
        grid = TimeGrid(1.5, 5e-3)
        phases = np.full(64, 2.2)
        out, _ = simulate_particles(ParticleEnsemble(phases),
                                    constant_control(grid, [0.5, 1.3]), 0.0, grid, [])
        assert_allclose(out.phases, 2.2 + 0.5 * 1.5, rtol=1e-13)

    def test_two_particle_phase_gap_closed_form(self):
        # With unit coupling the gap obeys d(delta)/dt = -sin(delta),
        # i.e. tan(delta(t)/2) = tan(delta(0)/2) exp(-t).
        grid = TimeGrid(1.0, 1e-3)
        x0 = np.array([0.3, 1.7])
        out, _ = simulate_particles(ParticleEnsemble(x0),
                                    constant_control(grid, [0.0, 1.0]), 0.0, grid, [])
        delta = out.phases[1] - out.phases[0]
        want = 2.0 * np.arctan(np.tan((x0[1] - x0[0]) / 2.0) * np.exp(-1.0))
        assert abs(delta - want) < 1e-8

    def test_rotation_equivariance_of_the_cost(self):
        grid = TimeGrid(0.8, 4e-3)
        rng = np.random.default_rng(5)
        phases = rng.uniform(0.0, 2.0 * np.pi, 200)
        u = constant_control(grid, [0.3, 0.9])
        base, _ = simulate_particles(ParticleEnsemble(phases), u, 0.0, grid, [])
        phi = 1.234
        shifted, _ = simulate_particles(ParticleEnsemble(phases + phi), u, 0.0, grid, [])
        assert abs(particle_cost(base, 1.0) - particle_cost(shifted, 1.0 + phi)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.31, 1.7])
    def test_real_march_matches_the_literal_two_exponential_march(self, alpha):
        # The real cos/sin field is the same ODE and the same RK4; only
        # rounding may differ from the complex-exponential form.
        grid = TimeGrid(1.0, 5e-3)
        t = grid.full_times()
        u = ControlSignal(grid, np.column_stack([0.6 * np.sin(3.0 * t), 0.4 + 0.8 * np.cos(t)]))
        phases = np.random.default_rng(11).uniform(0.0, 2.0 * np.pi, 300)
        steps = [0, 80, grid.n_steps]
        want_end, want = reference_march(phases, u, alpha, grid, steps)
        got_end, got = simulate_particles(ParticleEnsemble(phases), u, alpha, grid, steps)
        assert np.max(np.abs(got_end.phases - want_end)) < 1e-12
        assert len(got) == len(steps)
        for k in steps:
            assert np.max(np.abs(got[k] - want[k])) < 1e-12

    def test_divergence_guard(self):
        grid = TimeGrid(1000.0, 1.0)
        with pytest.raises(DivergenceError):
            simulate_particles(ParticleEnsemble(np.array([0.0])),
                               constant_control(grid, [1e7, 0.0]), 0.0, grid, [])

    def test_record_nodes_capture_snapshots(self):
        grid = TimeGrid(1.0, 1e-2)
        start = ParticleEnsemble(np.array([0.0, 1.0]))
        u = constant_control(grid, [1.0, 0.0])
        terminal, snaps = simulate_particles(start, u, 0.0, grid, [0, 50, 100])
        assert sorted(snaps) == [0, 50, 100]
        assert_allclose(snaps[0], start.phases)
        assert_allclose(snaps[50], start.phases + 0.5, rtol=1e-13)
        assert_allclose(snaps[100], terminal.phases)

    @pytest.mark.parametrize("node", [-1, 101, 0.5])
    def test_a_record_node_outside_the_lattice_raises(self, node):
        grid = TimeGrid(1.0, 1e-2)
        with pytest.raises(ValueError, match="not a full-step node"):
            simulate_particles(ParticleEnsemble(np.array([0.0])),
                               constant_control(grid, [1.0, 0.0]), 0.0, grid, [0, node])


class TestMoments:
    def test_zeroth_moment_is_one(self):
        ens = ParticleEnsemble(np.array([0.1, 2.0, 4.0]))
        assert moment(ens, 0) == 1.0 + 0.0j

    def test_synchronized_first_moment(self):
        ens = ParticleEnsemble(np.full(10, 0.77))
        assert_allclose(moment(ens, 1), np.exp(0.77j), atol=1e-15)

    def test_uniform_stratified_sample_cancels_exactly(self):
        ens = stratified_ensemble(uniform_field(32), 128)
        assert abs(moment(ens, 1)) < 1e-13
        assert abs(moment(ens, 2)) < 1e-13


class TestStratifiedSampling:
    def test_cdf_matches_quadrature(self):
        rho = fig1_row(64)
        for x in (0.5, 2.0, 4.4, 6.2):
            fine = np.linspace(0.0, x, 200001)
            dens = (2.0 + np.sin(fine) + 0.8 * np.cos(2 * fine)
                    - 0.2 * np.sin(2 * fine)) / (4.0 * np.pi)
            quad = np.trapezoid(dens, fine)
            assert abs(density_cdf_values(rho, np.array([x]))[0] - quad) < 1e-8

    def test_quantiles_are_hit(self):
        rho = fig1_row(64)
        n = 1000
        ens = stratified_ensemble(rho, n)
        q = (np.arange(n) + 0.5) / n
        back = density_cdf_values(rho, ens.phases)
        assert np.max(np.abs(back - q)) < 1e-12
        assert np.all(np.diff(ens.phases) > 0.0)

    def test_sampling_is_deterministic(self):
        rho = fig1_row(32)
        a = stratified_ensemble(rho, 500).phases
        b = stratified_ensemble(rho, 500).phases
        assert np.array_equal(a, b)

    def test_first_moments_converge_to_the_density_harmonics(self):
        rho = fig1_row(64)
        ens = stratified_ensemble(rho, 4000)
        for n in (1, 2):
            target = 2.0 * np.pi * np.conj(harmonic(rho, n))
            assert abs(moment(ens, n) - target) < 1e-10

    def test_unnormalized_density_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            stratified_ensemble(uniform_field(16, 1.0), 10)
