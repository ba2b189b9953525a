"""The controlled mean-field Kuramoto model and its terminal cost.

The control-affine vector field on the circle is

    V(x, mu, u) = u_1 + u_2 * integral sin(y - x - alpha) dmu(y).

Its rotation channel is the constant 1 and its coupling channel has only
the harmonics n = +-1, with coefficient i*pi*mu_1*e^{i*alpha} at n = 1
(`ModelSpec.coupling`).  The terminal cost is the phase mismatch
integral 1 - cos(x - x0) dmu_T, which reads only the harmonics 0 and 1
of mu_T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ControlVector = np.ndarray


# ---------------------------------------------------------------------------
# Admissible control sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibleSet:
    """Compact convex set of the two control channels (u_1, u_2): a disk or a box."""

    kind: str
    radius: float = 0.0
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "ball":
            r = float(self.radius)  # r * r overflows to inf, where r**2 would raise
            if not (r > 0.0 and np.isfinite(r * r)):
                raise ValueError(f"ball radius must be positive with a finite square, got {r}")
        elif self.kind == "box":
            lo = np.asarray(self.lower, dtype=float)
            hi = np.asarray(self.upper, dtype=float)
            if lo.shape != (2,) or hi.shape != (2,):
                raise ValueError("box bounds must have one entry per control channel (2)")
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo <= hi)):
                raise ValueError("box bounds must be finite with lower <= upper")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)
        else:
            raise ValueError(f"unknown constraint kind {self.kind!r}")

    def admits(self, u, tol: float = 1e-9) -> np.ndarray:
        """Membership, up to tol, of each control vector in u of shape (..., 2)."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 0 or u.shape[-1] != 2:
            raise ValueError(f"control vectors must have 2 entries, got shape {u.shape}")
        if self.kind == "ball":
            return (u * u).sum(axis=-1) <= self.radius**2 * (1.0 + tol) + tol
        return ((u >= self.lower - tol) & (u <= self.upper + tol)).all(axis=-1)

    def project(self, u: ControlVector) -> ControlVector:
        """Euclidean projection; returns the input unchanged when feasible."""
        u = np.asarray(u, dtype=float)
        if self.kind == "ball":
            norm = float(np.linalg.norm(u))
            if norm <= self.radius:
                return u
            return u * (self.radius / norm)
        return np.clip(u, self.lower, self.upper)


def ball(radius: float) -> AdmissibleSet:
    return AdmissibleSet("ball", radius=radius)


def box(lower, upper) -> AdmissibleSet:
    return AdmissibleSet("box", lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# Terminal cost
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostSpec:
    """Terminal cost l(mu) and its intrinsic derivative D_mu l(mu).

    Both act on the half row n = 0 .. N/2 of mu (see `spectral`), the
    layout a solve produces.  `dmu` returns the half row of the derivative
    field and must carry only harmonic 1 (its conjugate -1 is implied): the
    terminal adjoint condition is written for that case.
    """

    eval: Callable[[np.ndarray], float]
    dmu: Callable[[np.ndarray], np.ndarray]


def sync_cost_eval(mu: np.ndarray, x0: float) -> float:
    """Mean phase mismatch: integral of 1 - cos(x - x0) against the half row mu."""
    if abs(mu[0] - 1.0 / (2.0 * np.pi)) > 1e-10:
        raise ValueError(f"density is not normalized: mode-0 coefficient {mu[0]}")
    # mu_{-1} = conj(mu_1) of a real density.
    return 1.0 - 2.0 * np.pi * (np.exp(-1j * x0) * np.conj(mu[1])).real


def sync_cost_dmu(mu: np.ndarray, x0: float) -> np.ndarray:
    """Intrinsic derivative of the mismatch cost: the half row of sin(x - x0)."""
    c = np.zeros(mu.shape[-1], dtype=complex)
    c[1] = -0.5j * np.exp(-1j * x0)
    return c


def sync_cost_spec(x0: float) -> CostSpec:
    return CostSpec(
        eval=lambda mu: sync_cost_eval(mu, x0),
        dmu=lambda mu: sync_cost_dmu(mu, x0),
    )


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Mean-field Kuramoto model: phase shift, target phase, controls, cost.

    Attributes:
        alpha: coupling phase shift.
        x0: synchronization target phase of the cost.
        control_set: admissible set U of the two channels (u_1, u_2).
        cost: terminal cost block.
    """

    alpha: float
    x0: float
    control_set: AdmissibleSet
    cost: CostSpec
    phase: complex = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "phase", complex(np.exp(1j * self.alpha)))

    def require_feasible(self, u) -> np.ndarray:
        """u as floats, if every control vector in it (shape (..., 2)) is admissible.

        One call checks a whole control signal.
        """
        u = np.asarray(u, dtype=float)
        inside = self.control_set.admits(u)
        if not inside.all():
            if u.ndim == 1:
                raise ValueError(f"control {u} outside the admissible set")
            node = tuple(np.argwhere(~inside)[0].tolist())
            raise ValueError(f"control {u[node]} at node {', '.join(map(str, node))} "
                             "outside the admissible set")
        return u

    def coupling(self, a1):
        """(re, im) of i*pi*a_1*e^{i*alpha}, the coupling channel's harmonic +1.

        `a1` is the density's first harmonic: a Python complex or an array of
        them.  The two complex products (i*pi * a_1, then * e^{i*alpha}) are
        spelled out in real arithmetic because NumPy's array complex multiply
        may round differently from scalar arithmetic; this way one node and a
        stack of nodes give the same bits.
        """
        tr = -np.pi * a1.imag
        ti = np.pi * a1.real
        pr, pi = self.phase.real, self.phase.imag
        return tr * pr - ti * pi, tr * pi + ti * pr


def kuramoto_model(alpha: float, x0: float, control_set: AdmissibleSet | None = None) -> ModelSpec:
    """Mean-field Kuramoto model with the phase-synchronization cost.

    The default control set is the disk of radius sqrt(2).
    """
    if control_set is None:
        control_set = ball(np.sqrt(2.0))
    return ModelSpec(alpha=float(alpha), x0=float(x0), control_set=control_set,
                     cost=sync_cost_spec(x0))
