"""Backward integration of the adjoint nonlocal balance law in Fourier space.

The adjoint state is a signed-measure density zeta with coefficients b_n
driven backward from t = T by

    d b_n / dt = -i*n*(v b)_n  -  ((dv/dx) b)_n  -  (q a)_n,

where v is the assembled vector field along the stored forward trajectory,
the middle term stretches the co-density by the velocity gradient, and the
nonlocal source q(x) = integral D_mu V(y, mu, u, x) dnu(y) is, for the
Kuramoto coupling, u_2 * integral cos(y - x + alpha) dnu(y).  Both source pieces enter with a minus sign;
that is what the weak duality identity dictates, and it is what makes the
total co-mass constant in time for translation-equivariant fields (a rigid
phase shift commutes with such flows, so the sensitivity of the terminal
cost to a shift cannot depend on when the shift is applied).  The terminal
condition pairs the cost's intrinsic derivative with the terminal density:

    zeta_T = -D_mu l(mu_T) * rho_T.

Unlike the density, the co-density conserves no mass: the n = 0 source is
generally nonzero.

The march runs at the same half step as the forward solver, so every stage
reads a forward state either straight from storage or, for quarter-step
stage times, from a single local RK4 quarter-step off the stored node
(fourth-order consistent, no interpolation).
"""

from __future__ import annotations

import numpy as np

from .forward import (_check_bounded, _coupling_value, _mode_numbers, _rk4_forward_step,
                      batch_rows)
from .models import ModelSpec
from .spectral import FourierField, require_hermitian
from .timegrid import ControlSignal, Trajectory


def _adjoint_rhs(b: np.ndarray, a: np.ndarray, u: np.ndarray, model: ModelSpec,
                 mode_arr: np.ndarray) -> np.ndarray:
    v = _coupling_value(complex(a[a.shape[0] // 2 + 1]), float(u[1]), model)
    # Transport: -i*n*(V b)_n with V(x) = u_1 + v e^{ix} + conj(v) e^{-ix}.
    vb = np.zeros_like(b)
    vb += complex(u[0]) * b
    vb[1:] += v * b[:-1]
    vb[:-1] += v.conjugate() * b[1:]
    out = -1j * mode_arr * vb
    # Stretch: ((dV/dx) b)_n with dV/dx = i*v e^{ix} - i*conj(v) e^{-ix}.
    stretch = np.zeros_like(b)
    stretch[1:] += (1j * v) * b[:-1]
    stretch[:-1] += (-1j * v.conjugate()) * b[1:]
    out -= stretch
    # Source: (q a)_n with q(x) = u_2 * integral cos(y - x + alpha) zeta(y) dy,
    # whose harmonics are q_{-1} = 2*pi*u_2*(e^{i*alpha}/2)*b_{-1} and its
    # conjugate partner q_1.
    w = u[1] * 2.0 * np.pi
    phase = model.phase
    center = (b.shape[0] - 1) // 2
    q_lo = w * (0.5 * phase) * b[center - 1]
    q_hi = w * (0.5 * phase.conjugate()) * b[center + 1]
    source = np.zeros_like(a)
    source[:-1] += q_lo * a[1:]
    source[1:] += q_hi * a[:-1]
    out -= source
    return out


def _rk4_backward_step(b: np.ndarray, h: float, u: np.ndarray,
                       a_hi: np.ndarray, a_mid: np.ndarray, a_lo: np.ndarray,
                       model: ModelSpec, mode_arr: np.ndarray) -> np.ndarray:
    hb = -h
    k1 = _adjoint_rhs(b, a_hi, u, model, mode_arr)
    k2 = _adjoint_rhs(b + (0.5 * hb) * k1, a_mid, u, model, mode_arr)
    k3 = _adjoint_rhs(b + (0.5 * hb) * k2, a_mid, u, model, mode_arr)
    k4 = _adjoint_rhs(b + hb * k3, a_lo, u, model, mode_arr)
    return b + (hb / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def terminal_adjoint(muT: FourierField, model: ModelSpec) -> FourierField:
    """Terminal co-density: the product (-D_mu l(mu_T)) * rho_T.

    For the synchronization cost this reduces to
    b_n(T) = (i/2) * (a_{n-1} e^{-i x0} - a_{n+1} e^{i x0}).
    """
    require_hermitian(muT, 1e-10)
    neg_dmu = -model.cost.dmu(muT).coeffs
    center = muT.center
    if np.count_nonzero(neg_dmu) != np.count_nonzero(neg_dmu[[center - 1, center + 1]]):
        raise ValueError("the cost derivative must carry only the harmonics +-1")
    a = muT.coeffs
    b = np.zeros_like(a)
    b[:-1] += neg_dmu[center - 1] * a[1:]
    b[1:] += neg_dmu[center + 1] * a[:-1]
    return FourierField(muT.n_modes, b)


def rhs_adjoint(t: float, b: FourierField, a: FourierField, u,
                model: ModelSpec) -> FourierField:
    """Coefficient time derivative of the co-density at forward state a.

    The model is autonomous; `t` is accepted for the usual ODE signature.
    """
    u = model.require_feasible(u)
    if b.n_modes != a.n_modes:
        raise ValueError("state and co-state mode counts differ")
    mode_arr = _mode_numbers(b.coeffs.shape[0])
    return FourierField(b.n_modes, _adjoint_rhs(b.coeffs, a.coeffs, u, model, mode_arr))


def integrate_backward(traj: Trajectory, u: ControlSignal, model: ModelSpec,
                       terminal: FourierField | None = None) -> Trajectory:
    """Solve the adjoint system backward along a stored forward trajectory.

    Args:
        traj: forward trajectory.
        u: the control that produced `traj`.
        model: vector-field specification.
        terminal: optional override of the terminal co-density; defaults to
            the cost-derived condition.  Linearity in this argument is a
            tested property of the system.

    Returns:
        Co-trajectory on the same half-step lattice.
    """
    if u.grid != traj.grid:
        raise ValueError("control signal grid does not match the trajectory")
    grid = traj.grid
    model.require_feasible(u.values)
    if terminal is None:
        terminal = terminal_adjoint(traj.terminal_field(), model)
    if terminal.n_modes != traj.n_modes:
        raise ValueError("terminal co-density resolution does not match the trajectory")

    h = 0.5 * grid.tau
    mode_arr = _mode_numbers(traj.n_modes + 1)
    # Complex control of the step that starts at each half node.
    controls = np.repeat(u.values[:-1], 2, axis=0).astype(complex)
    block = batch_rows(traj.n_modes + 1)
    out = np.empty_like(traj.coeffs)
    b = np.array(terminal.coeffs, dtype=complex)
    last = 2 * grid.n_steps
    out[last] = b
    for top in range(last, 0, -block):
        # The quarter-step states of the block's backward steps read only
        # the stored trajectory, so they are marched as the rows of one state.
        lo = max(top - block, 0)
        a_mids = _rk4_forward_step(traj.coeffs[lo:top], 0.5 * h, controls[lo:top],
                                   model, mode_arr)
        for s in range(top, lo, -1):
            uk = u.values[(s - 1) >> 1]
            b = _rk4_backward_step(b, h, uk, traj.coeffs[s], a_mids[s - 1 - lo],
                                   traj.coeffs[s - 1], model, mode_arr)
            _check_bounded(b, (s - 1) * h)
            out[s - 1] = b
    return Trajectory(grid, out)
