"""Forward integration of the nonlocal continuity equation in Fourier space.

The transport PDE becomes the coefficient system

    d a_n / dt = -i * n * (u_1 a_n + v a_{n-1} + conj(v) a_{n+1}),

where v = u_2 * i*pi*a_1*e^{i*alpha} is the coupling channel's harmonic +1
and out-of-range harmonics count as zero (series truncation).  Time
stepping is classical RK4 at half the control step, so the trajectory
lands on every half-step node; controls are piecewise constant per full
step, hence every RK4 stage sees a single control value.  The n = 0
equation has an explicit factor n, so the mass coefficient is conserved
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError
from .models import ModelSpec
from .spectral import FourierField, reconstruct_rows, require_hermitian
from .timegrid import ControlSignal, TimeGrid, Trajectory

# Generous blow-up guard; healthy probability densities keep |a_n| below
# 1/(2*pi) * O(1), so anything near this limit means tau is too large.
DIVERGENCE_LIMIT = 1e6

_MASS_TOL = 1e-13


def _mode_numbers(size: int) -> np.ndarray:
    center = (size - 1) // 2
    return np.arange(-center, center + 1)


def _coupling_value(a: np.ndarray, u: np.ndarray, model: ModelSpec) -> complex:
    """v = u_2 * i*pi*a_1*e^{i*alpha} for one coefficient row, in Python floats."""
    vr, vi = model.coupling(complex(a[(a.shape[0] + 1) // 2]))
    u2 = float(u[1])
    return complex(u2 * vr, u2 * vi)


def _continuity_rhs(a: np.ndarray, u: np.ndarray, model: ModelSpec,
                    modes: np.ndarray) -> np.ndarray:
    v = _coupling_value(a, u, model)
    va = np.zeros_like(a)  # summing into zeros turns an exact -0.0 into 0.0
    va += complex(u[0]) * a
    va[1:] += v * a[:-1]
    va[:-1] += v.conjugate() * a[1:]
    return -1j * modes * va


def _rk4_forward_step(a: np.ndarray, h: float, u: np.ndarray,
                      model: ModelSpec, modes: np.ndarray) -> np.ndarray:
    k1 = _continuity_rhs(a, u, model, modes)
    k2 = _continuity_rhs(a + (0.5 * h) * k1, u, model, modes)
    k3 = _continuity_rhs(a + (0.5 * h) * k2, u, model, modes)
    k4 = _continuity_rhs(a + h * k3, u, model, modes)
    return a + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _check_bounded(a: np.ndarray, t: float) -> None:
    peak = float(np.max(np.abs(a)))
    if not peak <= DIVERGENCE_LIMIT:
        raise DivergenceError(
            f"coefficient magnitude {peak:.3e} at t = {t:.6g} exceeds "
            f"{DIVERGENCE_LIMIT:.0e}; reduce the time step"
        )


def rhs_continuity(t: float, a: FourierField, u, model: ModelSpec) -> FourierField:
    """Coefficient time derivative of the density under control u.

    The model is autonomous; `t` is accepted for the usual ODE signature.
    """
    u = model.require_feasible(u)
    require_hermitian(a, 1e-10)
    modes = _mode_numbers(a.coeffs.shape[0])
    return FourierField(a.n_modes, _continuity_rhs(a.coeffs, u, model, modes))


def _march(a0: np.ndarray, u_values: np.ndarray, model: ModelSpec, grid: TimeGrid,
           out: np.ndarray | None) -> np.ndarray:
    h = 0.5 * grid.tau
    modes = _mode_numbers(a0.shape[0])
    a = np.array(a0, dtype=complex)
    if out is not None:
        out[0] = a
    for s in range(2 * grid.n_steps):
        u = u_values[s >> 1]
        a = _rk4_forward_step(a, h, u, model, modes)
        _check_bounded(a, (s + 1) * h)
        if out is not None:
            out[s + 1] = a
    return a


def _validated_initial(rho0: FourierField, u: ControlSignal, model: ModelSpec) -> np.ndarray:
    require_hermitian(rho0, 1e-10)
    center = rho0.center
    mass = rho0.coeffs[center]
    if abs(mass - 1.0 / (2.0 * np.pi)) > _MASS_TOL:
        raise ValueError(
            f"initial density is not normalized: mode-0 coefficient {mass} "
            f"differs from 1/(2*pi) by more than {_MASS_TOL:.0e}"
        )
    for row in u.values:
        model.require_feasible(row)
    return np.array(rho0.coeffs, dtype=complex)


def integrate_forward(rho0: FourierField, u: ControlSignal, model: ModelSpec,
                      grid: TimeGrid) -> Trajectory:
    """Solve the continuity equation and record every half-step node.

    Args:
        rho0: normalized initial density (mode-0 coefficient 1/(2*pi)).
        u: feasible control signal on the same grid.
        model: vector-field specification.
        grid: time lattice.

    Raises:
        DivergenceError: if any coefficient magnitude passes the guard.
    """
    if u.grid != grid:
        raise ValueError("control signal grid does not match the solver grid")
    a0 = _validated_initial(rho0, u, model)
    out = np.empty((2 * grid.n_steps + 1, a0.shape[0]), dtype=complex)
    _march(a0, u.values, model, grid, out)
    return Trajectory(grid, out)


def terminal_state(rho0: FourierField, u: ControlSignal, model: ModelSpec,
                   grid: TimeGrid) -> FourierField:
    """Terminal density of a forward solve without storing the trajectory.

    Performs exactly the same arithmetic as `integrate_forward`, so terminal
    costs agree bit-for-bit between the two entry points.
    """
    if u.grid != grid:
        raise ValueError("control signal grid does not match the solver grid")
    a0 = _validated_initial(rho0, u, model)
    a = _march(a0, u.values, model, grid, None)
    return FourierField(rho0.n_modes, a)


def cost_of_control(rho0: FourierField, u: ControlSignal, model: ModelSpec,
                    grid: TimeGrid) -> float:
    """Terminal cost of one lean forward solve (the line-search evaluator)."""
    return model.cost.eval(terminal_state(rho0, u, model, grid))


def density_min(traj: Trajectory) -> float:
    """Minimum reconstructed density over all snapshots and grid points.

    Spectral truncation can push concentrated states slightly negative;
    the value is reported as computed, never clipped.
    """
    return float(reconstruct_rows(traj.coeffs).min())


def mass_drift(traj: Trajectory) -> float:
    """Largest deviation of the mode-0 coefficient from 1/(2*pi)."""
    center = traj.n_modes // 2
    return float(np.max(np.abs(traj.coeffs[:, center] - 1.0 / (2.0 * np.pi))))
