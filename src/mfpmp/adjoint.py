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

The co-density's high harmonics decay geometrically, and at wide
resolutions a large share of its float parts would fall below the normal
range; as in the forward march, every backward step flushes the parts
below `np.finfo(float).tiny` to zero (`forward._settle`).
"""

from __future__ import annotations

import numpy as np

from .forward import _coupling_value, _mode_numbers, _rk4_forward_step, _settle, batch_rows
from .models import ModelSpec
from .spectral import FourierField, require_hermitian
from .timegrid import ControlSignal, Trajectory


def _source_phases(model: ModelSpec) -> tuple[complex, complex]:
    """(e^{i*alpha}/2, e^{-i*alpha}/2): the source's factors of b_{-1} and b_1."""
    return 0.5 * model.phase, 0.5 * model.phase.conjugate()


def _adjoint_rhs(b: np.ndarray, a: np.ndarray, u: np.ndarray, model: ModelSpec,
                 dn: np.ndarray, phases: tuple[complex, complex]) -> np.ndarray:
    """Co-density derivative; `dn` is `-1j * modes` and `phases` is `_source_phases(model)`."""
    v = _coupling_value(complex(a[a.shape[0] // 2 + 1]), float(u[1]), model)
    # Transport: -i*n*(V b)_n with V(x) = u_1 + v e^{ix} + conj(v) e^{-ix}.
    vb = np.zeros_like(b)
    vb += complex(u[0]) * b
    vb[1:] += v * b[:-1]
    vb[:-1] += v.conjugate() * b[1:]
    out = dn * vb
    # Stretch: ((dV/dx) b)_n with dV/dx = i*v e^{ix} - i*conj(v) e^{-ix}.
    stretch = np.zeros_like(b)
    stretch[1:] += (1j * v) * b[:-1]
    stretch[:-1] += (-1j * v.conjugate()) * b[1:]
    out -= stretch
    # Source: (q a)_n with q(x) = u_2 * integral cos(y - x + alpha) zeta(y) dy,
    # whose harmonics are q_{-1} = 2*pi*u_2*(e^{i*alpha}/2)*b_{-1} and its
    # conjugate partner q_1.
    w = u[1] * 2.0 * np.pi
    center = (b.shape[0] - 1) // 2
    q_lo = w * phases[0] * b[center - 1]
    q_hi = w * phases[1] * b[center + 1]
    source = np.zeros_like(a)
    source[:-1] += q_lo * a[1:]
    source[1:] += q_hi * a[:-1]
    out -= source
    return out


def _rk4_backward_step(b: np.ndarray, h: float, u: np.ndarray,
                       a_hi: np.ndarray, a_mid: np.ndarray, a_lo: np.ndarray,
                       model: ModelSpec, dn: np.ndarray,
                       phases: tuple[complex, complex]) -> np.ndarray:
    hb = -h
    k1 = _adjoint_rhs(b, a_hi, u, model, dn, phases)
    k2 = _adjoint_rhs(b + (0.5 * hb) * k1, a_mid, u, model, dn, phases)
    k3 = _adjoint_rhs(b + (0.5 * hb) * k2, a_mid, u, model, dn, phases)
    k4 = _adjoint_rhs(b + hb * k3, a_lo, u, model, dn, phases)
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
    dn = -1j * _mode_numbers(b.coeffs.shape[0])
    return FourierField(b.n_modes, _adjoint_rhs(b.coeffs, a.coeffs, u, model, dn,
                                                _source_phases(model)))


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
        Co-trajectory on the same half-step lattice; the terminal row and
        every backward step are settled (`forward._settle`) before they are
        stored.

    Raises:
        DivergenceError: if any co-density part passes the guard.
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
    dn = -1j * _mode_numbers(traj.n_modes + 1)
    phases = _source_phases(model)
    # Complex control of the step that starts at each half node.
    controls = np.repeat(u.values[:-1], 2, axis=0).astype(complex)
    block = batch_rows(traj.n_modes + 1)
    out = np.empty_like(traj.coeffs)
    b = np.array(terminal.coeffs, dtype=complex)
    last = 2 * grid.n_steps
    _settle(b, last * h)
    out[last] = b
    for top in range(last, 0, -block):
        # The quarter-step states of the block's backward steps read only
        # the stored trajectory, so they are marched as the rows of one state.
        lo = max(top - block, 0)
        a_mids = _rk4_forward_step(traj.coeffs[lo:top], 0.5 * h, controls[lo:top],
                                   model, dn)
        for s in range(top, lo, -1):
            uk = u.values[(s - 1) >> 1]
            b = _rk4_backward_step(b, h, uk, traj.coeffs[s], a_mids[s - 1 - lo],
                                   traj.coeffs[s - 1], model, dn, phases)
            _settle(b, (s - 1) * h)
            out[s - 1] = b
    return Trajectory(grid, out)
