"""Workload inputs, runners and correctness gates of the benchmark.

Every workload starts from a shipped config.  Seed 0 runs it unchanged.
Any other seed maps the problem through an element of its symmetry group:
a rotation of the circle by an angle s, optionally preceded by the mirror
x -> -x.  With alpha = 0 the Kuramoto field is equivariant under both, so
the variant moves the initial density and the target phase x0 and, under
the mirror, flips the rotation channel of the swept control
(u1 -> -u1, i.e. the sweep runs the other way round).  The variant is
passed in as explicit config values.  It is a different input for the
program, yet the descent takes the same steps up to round-off, so every
seed does the same amount of solver work and the run-to-run spread
measures the machine, not the difficulty of the draw.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

import mfpmp.adjoint
import mfpmp.cli
import mfpmp.descent
import mfpmp.forward
from mfpmp.presets import fig1_control, fig1_density
from mfpmp.timegrid import TimeGrid

CONFIG_FILES = {
    "desk-optimize": "configs/fig1_desk.json",
    "full-pass": "configs/fig1_full.json",
    "validate-desk": "configs/validate_desk.json",
}

# A grid small enough for the self-test: every code path, in seconds.
TINY_GRIDS = {
    "desk-optimize": {"T": 0.5, "tau": 0.005, "n_modes": 32},
    "full-pass": {"T": 0.5, "tau": 0.001, "n_modes": 32},
    "validate-desk": {"T": 0.5, "tau": 0.005, "n_modes": 32},
}
TINY_PARTICLES = [100, 1000]

# Artifacts whose bytes are compared with the seed-0 run (information only).
HASHED_ARTIFACTS = ("control_final.csv", "density_snapshots.csv")

REL_TOL = 1e-9          # seed-0 reference values
SYMMETRY_TOL = 1e-8     # a symmetric variant against the seed-0 values
MASS_DRIFT_MAX = 1e-13  # the solver conserves the mode-0 coefficient exactly


class CheckFailed(Exception):
    """A workload ran but its output failed the correctness gate."""


def variant(seed: int) -> tuple[float, bool]:
    """(rotation angle, mirror) of a nonzero seed."""
    rng = random.Random(seed)
    return rng.uniform(0.0, 2.0 * math.pi), rng.random() < 0.5


def config_doc(root: Path, workload: str, seed: int, out_dir: Path, tiny: bool) -> dict:
    """The JSON config one operation runs, before parsing."""
    doc = json.loads((root / CONFIG_FILES[workload]).read_text())
    doc["output_dir"] = str(out_dir)
    if tiny:
        doc["grid"] = dict(TINY_GRIDS[workload])
        if "snapshot_times" in doc:
            doc["snapshot_times"] = [0.0, doc["grid"]["T"]]
        if "validate" in doc:
            doc["validate"]["n_particles"] = list(TINY_PARTICLES)
    if seed == 0:
        return doc
    angle, mirror = variant(seed)

    # Density: f(x) -> f(-x) conjugates the coefficients; f(x) -> f(x - s)
    # multiplies c_n by exp(-i n s).
    grid = doc["grid"]
    rho = fig1_density(grid["n_modes"])
    harmonics = {}
    for n in range(rho.center + 1):
        c = complex(rho.coeffs[rho.center + n])
        if c == 0:
            continue
        if mirror:
            c = c.conjugate()
        if n:
            c *= complex(np.exp(-1j * n * angle))
        harmonics[str(n)] = [c.real, c.imag]
    doc["initial_density"] = {"harmonics": harmonics}

    x0 = float(doc["model"]["x0"])
    doc["model"]["x0"] = (-x0 if mirror else x0) + angle

    values = np.array(fig1_control(TimeGrid(grid["T"], grid["tau"])).values)
    if mirror:
        values[:, 0] = -values[:, 0]
    doc["initial_control"] = {"values": values.tolist()}
    return doc


def run(workload: str, config):
    """Run one operation; returns what the gate needs.  Raises on failure."""
    if workload == "full-pass":
        # One full-scale gradient: stored forward, adjoint, switching.
        traj = mfpmp.forward.integrate_forward(config.rho0, config.u0, config.model, config.grid)
        cotraj = mfpmp.adjoint.integrate_backward(traj, config.u0, config.model)
        d = mfpmp.descent.switching_function(traj, cotraj, config.model)
        return {"traj": traj, "d": d}
    code = mfpmp.cli.run(config)
    return {"code": code}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check(workload: str, seed: int, config, outcome: dict, exp: dict | None) -> dict:
    """Correctness gate.  Raises CheckFailed; returns facts worth printing.

    `exp` holds the recorded seed-0 values of the shipped grid (None on the
    self-test grid).  Seed 0 must reproduce them; a symmetric variant must
    reproduce the full-pass values, which involve no accept/reject decision,
    to SYMMETRY_TOL.  Every run checks the invariants any input must keep.
    """
    facts: dict = {}
    if workload == "full-pass":
        traj, d = outcome["traj"], outcome["d"]
        cost = float(config.model.cost.eval(traj.terminal_field()))
        norm = float(np.linalg.norm(d.values))
        drift = mfpmp.forward.mass_drift(traj)
        facts.update(terminal_cost=cost, switching_norm=norm, mass_drift=drift)
        if not (math.isfinite(cost) and math.isfinite(norm)):
            raise CheckFailed(f"non-finite cost {cost} or switching norm {norm}")
        if drift > MASS_DRIFT_MAX:
            raise CheckFailed(f"mass drift {drift:.3e} > {MASS_DRIFT_MAX:.0e}")
        if exp is not None:
            tol = REL_TOL if seed == 0 else SYMMETRY_TOL
            for key, value in (("terminal_cost", cost), ("switching_norm", norm)):
                if _rel(value, exp[key]) > tol:
                    raise CheckFailed(f"{key} {value!r} differs from {exp[key]!r} "
                                      f"by more than {tol:.0e} relative")
        return facts

    out = config.output_dir
    if outcome["code"] != 0:
        raise CheckFailed(f"exit code {outcome['code']}")
    if workload == "validate-desk":
        report = json.loads((out / "validation_report.json").read_text())
        facts["passed"] = report["passed"]
        if report["passed"] is not True:
            raise CheckFailed("validation report says passed = false")
        return facts

    summary = json.loads((out / "summary.json").read_text())
    lines = (out / "convergence.csv").read_text().strip().splitlines()[1:]
    costs = [float(line.split(",")[1]) for line in lines] + [summary["final_cost"]]
    facts.update(status=summary["status"], iterations=summary["iterations"],
                 final_cost=summary["final_cost"], mass_drift=summary["mass_drift"])
    for name in HASHED_ARTIFACTS:
        digest = _sha256(out / name)
        facts[f"sha256 {name}"] = digest
        if exp is not None:
            facts[f"{name} matches seed 0"] = digest == exp["sha256"][name]
    if summary["status"] == mfpmp.descent.STATUS_LINE_SEARCH:
        raise CheckFailed("line search failed")
    if any(b > a for a, b in zip(costs, costs[1:])):
        raise CheckFailed(f"cost sequence increases: {costs}")
    if summary["mass_drift"] > MASS_DRIFT_MAX:
        raise CheckFailed(f"mass drift {summary['mass_drift']:.3e} > {MASS_DRIFT_MAX:.0e}")
    if exp is None:
        return facts
    facts["final cost relative to seed 0"] = _rel(summary["final_cost"], exp["final_cost"])
    if seed == 0:
        if summary["status"] != exp["status"] or summary["iterations"] != exp["iterations"]:
            raise CheckFailed(f"{summary['status']} after {summary['iterations']} iterations, "
                              f"expected {exp['status']} after {exp['iterations']}")
        if facts["final cost relative to seed 0"] > REL_TOL:
            raise CheckFailed(f"final cost {summary['final_cost']!r} differs from "
                              f"{exp['final_cost']!r} by more than {REL_TOL:.0e} relative")
    return facts
