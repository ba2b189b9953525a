"""The controlled mean-field Kuramoto model and its terminal cost.

The control-affine vector field on the circle is

    V(x, mu, u) = u_1 + u_2 * integral sin(y - x - alpha) dmu(y).

Its rotation channel is the constant 1 and its coupling channel has only
the harmonics n = +-1, with coefficient i*pi*mu_1*e^{i*alpha} at n = 1
(`ModelSpec.coupling`).  The terminal cost is the phase mismatch
integral 1 - cos(x - x0) dmu_T (`CostSpec`), which reads only the
harmonics 0 and 1 of mu_T; its intrinsic derivative, the field
sin(x - x0), carries only the harmonics +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import require_normalized

# Relative and absolute slack of `AdmissibleSet.admits`.
_ADMIT_TOL = 1e-9

# Ball directions shorter than this are treated as ties (current control kept).
_TIE_NORM = 1e-14

# The turn (re, im) -> (-pi*im, pi*re) of a complex number's parts: i*pi times it.
_TURN = np.array([-np.pi, np.pi])


# ---------------------------------------------------------------------------
# Admissible control sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibleSet:
    """Compact convex set of the two control channels (u_1, u_2): a disk or a box."""

    kind: str
    radius: float = 0.0
    lower: tuple | None = None  # box bounds as float tuples: equal sets compare equal
    upper: tuple | None = None

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
            object.__setattr__(self, "lower", tuple(lo.tolist()))
            object.__setattr__(self, "upper", tuple(hi.tolist()))
        else:
            raise ValueError(f"unknown constraint kind {self.kind!r}")

    def admits(self, u) -> np.ndarray:
        """Membership, up to `_ADMIT_TOL`, of each control vector in u of shape (..., 2)."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 0 or u.shape[-1] != 2:
            raise ValueError(f"control vectors must have 2 entries, got shape {u.shape}")
        if self.kind == "ball":
            return (u * u).sum(axis=-1) <= self.radius**2 * (1.0 + _ADMIT_TOL) + _ADMIT_TOL
        return ((u >= np.subtract(self.lower, _ADMIT_TOL))
                & (u <= np.add(self.upper, _ADMIT_TOL))).all(axis=-1)

    def project(self, u) -> np.ndarray:
        """Euclidean projection of each control vector in u of shape (..., 2), as a new array.

        The ball takes one norm per vector: a stacked norm may round differently.
        """
        out = np.array(u, dtype=float, order="C")  # so that the rows below are views
        if self.kind == "box":
            return np.clip(out, self.lower, self.upper)
        for row in out.reshape(-1, 2):
            norm = float(np.linalg.norm(row))
            if norm > self.radius:
                row *= self.radius / norm
        return out

    def maximizer(self, d, current) -> np.ndarray:
        """Pointwise maximizer of v . d over the set, for each row of d (shape (K + 1, 2)).

        Ball: radius * d/|d|.  Box: the bound selected by the sign of each
        component.  Where the direction vanishes every point maximizes, and the
        row of `current` is kept (ties contribute nothing to the
        non-extremality integral and avoid spurious direction changes).
        """
        out = np.array(current, dtype=float)
        if self.kind == "ball":
            norms = np.linalg.norm(d, axis=1)
            active = norms > _TIE_NORM
            out[active] = d[active] * (self.radius / norms[active])[:, None]
            return out
        return np.where(d > 0.0, self.upper, np.where(d < 0.0, self.lower, out))


def ball(radius: float) -> AdmissibleSet:
    return AdmissibleSet("ball", radius=radius)


def box(lower, upper) -> AdmissibleSet:
    return AdmissibleSet("box", lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# Terminal cost
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostSpec:
    """The phase mismatch l(mu) = integral 1 - cos(x - x0) dmu, the terminal cost.

    It reads the half row n = 0 .. N/2 of mu (see `spectral`), the layout a
    solve produces.  Its intrinsic derivative D_mu l is the field
    sin(x - x0), which `adjoint.terminal_adjoint` writes in closed form.
    """

    x0: float

    def eval(self, mu: np.ndarray) -> float:
        """Mean phase mismatch: integral of 1 - cos(x - x0) against the half row mu."""
        mu = require_normalized(mu, "density")
        # mu_{-1} = conj(mu_1) of a real density.
        return 1.0 - 2.0 * np.pi * (np.exp(-1j * self.x0) * np.conj(mu[1])).real


# ---------------------------------------------------------------------------
# Model specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Mean-field Kuramoto model: phase shift, target phase, controls, cost.

    Attributes:
        alpha: coupling phase shift.
        x0: synchronization target phase of the cost, reduced to [-pi, pi].
        control_set: admissible set U of the two channels (u_1, u_2).
        cost: the terminal cost, derived from x0.
    """

    alpha: float
    x0: float
    control_set: AdmissibleSet
    cost: CostSpec = field(init=False, repr=False)
    phase: complex = field(init=False, repr=False)
    rotation: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # To [-pi, pi], exactly (pi stays pi): an oracle's cos(x - x0) loses a huge x0's phase.
        object.__setattr__(self, "x0", math.remainder(self.x0, 2.0 * math.pi))
        object.__setattr__(self, "cost", CostSpec(self.x0))
        object.__setattr__(self, "phase", complex(np.exp(1j * self.alpha)))
        # The rows (cos, cos) and (-sin, sin) of alpha: a number with parts
        # (x, y) times e^{i*alpha} has the parts (x, y) * rotation[0] +
        # (y, x) * rotation[1] (`coupling_rows`).
        c, s = self.phase.real, self.phase.imag
        rows = np.array([[c, c], [-s, s]])
        rows.flags.writeable = False
        object.__setattr__(self, "rotation", tuple(rows))

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
        them.  The two complex products (the turn i*pi * a_1, then the
        rotation by e^{i*alpha}) are spelled out in real arithmetic because
        NumPy's array complex multiply may round differently from scalar
        arithmetic; this way one node and a stack of nodes give the same
        bits, and so does `coupling_rows`, the same products on the float
        parts of many rows.  Its callers are `forward._coupling` (a one-row
        march) and `descent.switching_function`; the adjoint and the marches
        of several rows take `coupling_rows`.
        """
        tr = -np.pi * a1.imag
        ti = np.pi * a1.real
        pr, pi = self.phase.real, self.phase.imag
        return tr * pr - ti * pi, tr * pi + ti * pr

    def coupling_rows(self, parts: np.ndarray, u2: np.ndarray) -> np.ndarray:
        """u_2 times `coupling`, with its bits, for the (rows, 2) float parts of many a_1.

        `u2` is a (rows, 1) column; the result is a new C-ordered (rows, 2)
        array of the parts of each row's v.  Five NumPy calls: the turn, the
        two rotation products, their sum and the u_2 scale.  Adding
        ti * (-sin alpha) rounds as subtracting ti * sin alpha, and a sum
        does not depend on the order of its two terms, so the parts have
        the bits of `coupling`.
        """
        cos_row, sin_row = self.rotation
        turn = np.multiply(parts[:, ::-1], _TURN)
        v = np.multiply(turn, cos_row)
        v += np.multiply(turn[:, ::-1], sin_row)
        v *= u2
        return v


def kuramoto_model(alpha: float, x0: float, control_set: AdmissibleSet | None = None) -> ModelSpec:
    """Mean-field Kuramoto model with the phase-synchronization cost.

    The default control set is the disk of radius sqrt(2).
    """
    if control_set is None:
        control_set = ball(np.sqrt(2.0))
    return ModelSpec(alpha=float(alpha), x0=float(x0), control_set=control_set)
