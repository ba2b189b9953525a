"""Finite Kuramoto ensembles: the independent oracle for the mean-field solver.

The N-oscillator system

    dx_i/dt = u_1 + u_2 * (1/N) * sum_j sin(x_j - x_i - alpha)

is integrated with the same fixed-step RK4 and the same piecewise-constant
control sampling as the spectral solver.  The pairwise sum includes the
j = i term (it contributes sin(-alpha), which vanishes in the experiments
with alpha = 0) and is evaluated through the order parameter
Z = (1/N) sum_j exp(i x_j) in O(N) per stage, in real arithmetic: with
W = e^{-i alpha} Z, the sum is Im W cos x_i - Re W sin x_i; W is a Python
complex.  A step takes one libm cos and one sin of the ensemble, at its
start x.  Stages 2-4 evaluate the field at x + d with d a multiple of the
previous stage's slope, and take cos(x + d) and sin(x + d) by exact angle
addition from cos x, sin x, cos d and sin d.  The reach tau max_k(|u_1,k| +
|u_2,k|) bounds every |d|; while it is at most 1/16, cos d and sin d come
from degree-8 and degree-9 Taylor polynomials within 1 ulp of libm, and
past it from libm.  Each stage adds two sums, and every array lives in
buffers made once per march.

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

# A march whose every stage shift |d| is at most this takes cos d and sin d
# from Taylor polynomials in z = d^2, coefficients from z^4 down to z^1.
_TAYLOR_REACH = 1.0 / 16.0
_COS_TAYLOR = (1.0 / 40320.0, -1.0 / 720.0, 1.0 / 24.0, -1.0 / 2.0)
_SIN_TAYLOR = (1.0 / 362880.0, -1.0 / 5040.0, 1.0 / 120.0, -1.0 / 6.0)


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


def _phase_rhs(cos: np.ndarray, sin: np.ndarray, u: np.ndarray, tilt: complex,
               out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """u_1 + u_2 Im(e^{-i(x + alpha)} Z) into `out` from cos x and sin x, tilt = e^{-i alpha}."""
    n = cos.size
    w = tilt * complex(np.add.reduce(cos) / n, np.add.reduce(sin) / n)
    np.multiply(cos, w.imag, out=out)
    np.multiply(sin, w.real, out=tmp)
    out -= tmp
    out *= u[1]
    out += u[0]
    return out


def _taylor_cos_sin(d: np.ndarray, cos: np.ndarray, sin: np.ndarray, z: np.ndarray) -> None:
    """cos d and sin d into `cos` and `sin` by their degree-8 and degree-9 Taylor polynomials.

    Within 1 ulp of np.cos and np.sin for |d| <= `_TAYLOR_REACH`; `z` is scratch.
    """
    np.multiply(d, d, out=z)
    np.multiply(z, _COS_TAYLOR[0], out=cos)
    np.multiply(z, _SIN_TAYLOR[0], out=sin)
    for c, s in zip(_COS_TAYLOR[1:], _SIN_TAYLOR[1:]):
        cos += c
        cos *= z
        sin += s
        sin *= z
    cos += 1.0
    sin *= d
    sin += d


def _libm_cos_sin(d: np.ndarray, cos: np.ndarray, sin: np.ndarray, z: np.ndarray) -> None:
    """cos d and sin d into `cos` and `sin` from libm, for any d; `z` is unused."""
    np.cos(d, out=cos)
    np.sin(d, out=sin)


def simulate_particles(initial: ParticleEnsemble, u: ControlSignal, alpha: float,
                       grid: TimeGrid, record_nodes):
    """March the oscillator ODE with RK4 at the full control step.

    Returns the terminal ensemble and {k: phases} at each full-step node k
    of `record_nodes`, which must lie in 0..K.  Stages 2-4 sit at x + d with
    d = (tau/2) k_1, (tau/2) k_2 and tau k_3; since |Z| <= 1, |d| is at
    most the reach tau max_k(|u_1,k| + |u_2,k|), which picks the kernel
    for cos d and sin d once per march.
    """
    tau = grid.tau
    half, sixth = 0.5 * tau, tau / 6.0
    tilt = complex(np.cos(alpha), -np.sin(alpha))
    x = np.array(initial.phases, dtype=float)
    want = set(record_nodes)
    for k in want:
        if k not in range(grid.n_steps + 1):
            raise ValueError(f"record node {k!r} is not a full-step node 0..{grid.n_steps}")
    reach = tau * float(np.max(np.abs(u.values[:grid.n_steps]).sum(axis=1)))
    cos_sin = _taylor_cos_sin if reach <= _TAYLOR_REACH else _libm_cos_sin
    c0, s0, k1, k2, k3, k4, d, z, cd, sd = np.empty((10, x.size))
    snapshots = {0: x.copy()} if 0 in want else {}
    for k in range(grid.n_steps):
        uk = u.values[k]
        t = k * tau
        np.cos(x, out=c0)
        np.sin(x, out=s0)
        _phase_rhs(c0, s0, uk, tilt, k1, z)
        for slope, out, h in ((k1, k2, half), (k2, k3, half), (k3, k4, tau)):
            np.multiply(h, slope, out=d)
            cos_sin(d, cd, sd, z)
            # With C, S = c0, s0: cos(x + d) = C cos d - S sin d and
            # sin(x + d) = S cos d + C sin d, into cd and sd.
            np.multiply(s0, sd, out=z)
            sd *= c0
            np.multiply(s0, cd, out=d)
            sd += d
            cd *= c0
            cd -= z
            _phase_rhs(cd, sd, uk, tilt, out, z)
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= sixth
        x += k2
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
