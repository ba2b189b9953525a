"""Finite Kuramoto ensembles: the independent oracle for the mean-field solver.

The N-oscillator system

    dx_i/dt = u_1 + u_2 * (1/N) * sum_j sin(x_j - x_i - alpha)

is integrated with the same fixed-step RK4 and the same piecewise-constant
control sampling as the spectral solver.  The pairwise sum includes the
j = i term (it contributes sin(-alpha), which vanishes in the experiments
with alpha = 0) and is evaluated through the order parameter
Z = (1/N) sum_j exp(i x_j) in O(N) per stage, in real arithmetic: with
W = e^{-i alpha} Z, the sum is Im W cos x_i - Re W sin x_i.  A stage takes
one cos and one sin of the ensemble plus two sums; W is a Python complex.

Ensembles are initialized deterministically by inverse-CDF sampling of the
initial density at the midpoint quantiles (i - 1/2)/N, so oracle runs are
reproducible without seed management.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .spectral import require_normalized
from .timegrid import ControlSignal, TimeGrid

_PHASE_DRIFT_LIMIT = 1e8


@dataclass(frozen=True)
class ParticleEnsemble:
    """Oscillator phases in radians (unwrapped during integration)."""

    phases: np.ndarray

    def __post_init__(self):
        p = np.array(self.phases, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("phases must be a nonempty 1-D array")
        if not np.all(np.isfinite(p)):
            raise ValueError("phases must be finite")
        p.flags.writeable = False
        object.__setattr__(self, "phases", p)

    @property
    def n(self) -> int:
        return self.phases.size


def _phase_rhs(x: np.ndarray, u: np.ndarray, tilt: complex) -> np.ndarray:
    """u_1 + u_2 Im(e^{-i(x + alpha)} Z) with tilt = e^{-i alpha}."""
    cos, sin = np.cos(x), np.sin(x)
    w = tilt * complex(np.mean(cos), np.mean(sin))
    cos *= w.imag
    sin *= w.real
    cos -= sin
    cos *= u[1]
    cos += u[0]
    return cos


def simulate_particles(initial: ParticleEnsemble, u: ControlSignal, alpha: float,
                       grid: TimeGrid, record_nodes):
    """March the oscillator ODE with RK4 at the full control step.

    Returns the terminal ensemble and {k: phases} at each full-step node k
    of `record_nodes`, which must lie in 0..K.
    """
    tau = grid.tau
    tilt = complex(np.cos(alpha), -np.sin(alpha))
    x = np.array(initial.phases, dtype=float)
    want = set(record_nodes)
    for k in want:
        if k not in range(grid.n_steps + 1):
            raise ValueError(f"record node {k!r} is not a full-step node 0..{grid.n_steps}")
    snapshots = {0: x.copy()} if 0 in want else {}
    for k in range(grid.n_steps):
        uk = u.values[k]
        t = k * tau
        k1 = _phase_rhs(x, uk, tilt)
        k2 = _phase_rhs(x + 0.5 * tau * k1, uk, tilt)
        k3 = _phase_rhs(x + 0.5 * tau * k2, uk, tilt)
        k4 = _phase_rhs(x + tau * k3, uk, tilt)
        x = x + (tau / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        peak = float(np.max(np.abs(x)))
        if not peak <= _PHASE_DRIFT_LIMIT:
            raise DivergenceError(f"particle phases drifted to {peak:.3e} at t = {t + tau:.6g}")
        if k + 1 in want:
            snapshots[k + 1] = x.copy()
    return ParticleEnsemble(x), snapshots


def particle_cost(ensemble: ParticleEnsemble, x0: float) -> float:
    """Ensemble average of 1 - cos(x - x0)."""
    return float(np.mean(1.0 - np.cos(ensemble.phases - x0)))


def density_cdf_values(rho0: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral from 0 to x of the density with half row rho0."""
    out = rho0[0].real * x
    for n, cn in enumerate(rho0[1:], start=1):
        if cn == 0:
            continue
        # 2*Re[c_n(exp(inx) - 1)/(in)] collects the +-n pair of a real field.
        out = out + 2.0 * ((cn * (np.exp(1j * n * x) - 1.0)) / (1j * n)).real
    return out


def stratified_ensemble(rho0: np.ndarray, n_particles: int) -> ParticleEnsemble:
    """Deterministic inverse-CDF sample of the density with half row rho0 at midpoint quantiles.

    Particle i sits at the (i - 1/2)/N quantile.  The density must be
    normalized and nonnegative enough for its CDF to be monotone.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    rho0 = require_normalized(rho0, "density")
    q = (np.arange(n_particles) + 0.5) / n_particles
    lo = np.zeros(n_particles)
    hi = np.full(n_particles, 2.0 * np.pi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = density_cdf_values(rho0, mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return ParticleEnsemble(0.5 * (lo + hi))
