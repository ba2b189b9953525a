"""Configuration-driven command line: solve, optimize, validate, dump artifacts.

    mfpmp <command> --config <path> [--output <dir>] [--override key=value ...]

Commands: solve-forward, solve-adjoint, optimize, validate.  All artifacts
(JSON summaries, CSV tables, snapshot dumps) are written atomically and are
byte-identical across repeated runs of the same configuration, timing
fields aside; the pipeline contains no randomness.

Exit codes: 0 success, 2 config error or a run too large to allocate, 3
divergence, 4 line-search failure, 5 validation failure, 1 io or internal
error.  Every failure prints one JSON error record to stderr; an unexpected
exception gets the category "internal", with its traceback inside the record.

The solve and optimize summaries carry a `resolution` block: the largest
spectral tail ratio over the time nodes of the density and, where one is
solved, of the co-density, and the density minimum at every snapshot.  A
tail ratio above RESOLUTION_TAIL_MAX sets `resolved: false` and prints one
JSON warning record to stderr: the fields, and the snapshots drawn from
them, are then dominated by truncation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from .adjoint import CoTrajectory, integrate_backward
from .checks import (
    fig1_slope_pair,
    increment_slope_check,
    local_adjoint_check,
    local_u1_profile,
    meanfield_vs_particles,
    synthetic_control_pairs,
)
from .config import COMMANDS, RunConfig, parse_config
from .descent import STATUS_LINE_SEARCH, run_descent
from .errors import ConfigError, DivergenceError
from .forward import density_min, integrate_forward, mass_drift
from .spectral import grid_points, reconstruct_rows
from .timegrid import ControlSignal, Trajectory


# The largest tail ratio of a resolved run.  The harmonics of a resolved
# field decay geometrically, so its last one lies far below this; at the
# desk optimum (256 harmonics) the density's ratio is 1.24.
RESOLUTION_TAIL_MAX = 1e-6


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj) -> None:
    """Strict JSON, NumPy values as Python ones: a NaN or infinite float raises."""
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                                   default=lambda value: value.tolist()) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_snapshots(path: Path, times: list, rows: np.ndarray) -> np.ndarray:
    """Dump (t, x, value) rows of the reconstructed half rows at `times`; returns the fields."""
    x = grid_points(2 * (rows.shape[1] - 1))
    fields = reconstruct_rows(rows)
    _write_csv(path, ("t", "x", "value"),
               [(t, xj, vj) for t, values in zip(times, fields) for xj, vj in zip(x, values)])
    return fields


def _tail_ratio(tail: np.ndarray, scale: np.ndarray) -> float:
    """Largest tail / scale over the nodes (0 where the scale is 0)."""
    return float(np.divide(tail, scale, out=np.zeros_like(tail), where=scale > 0).max())


def _resolution(traj: Trajectory, cotraj: CoTrajectory | None, snapshots) -> dict:
    """The summary's `resolution` block; warns once on stderr when it is not resolved.

    The density's tail |a_{N/2}| is measured against its mass |a_0|; the
    co-density's against its largest harmonic per node, since its mode 0
    (the co-mass) may vanish.  `snapshots` are the density's (times,
    fields) of `_write_snapshots`.
    """
    ratios = {"density_tail_ratio": _tail_ratio(np.abs(traj.column(traj.width - 1)),
                                                np.abs(traj.column(0)))}
    if cotraj is not None:
        ratios["adjoint_tail_ratio"] = _tail_ratio(cotraj.tail, cotraj.scale)
    times, fields = snapshots
    minima = fields.min(axis=1)
    resolved = all(r <= RESOLUTION_TAIL_MAX for r in ratios.values())
    if not resolved:
        worst = ", ".join(f"{k} {v:.3e}" for k, v in ratios.items())
        print(json.dumps({"warning": {
            "category": "resolution",
            "message": f"spectral tail ratio above {RESOLUTION_TAIL_MAX:.0e} ({worst}); "
                       "increase grid.n_modes before trusting the snapshots"}}),
              file=sys.stderr)
    return {
        **ratios,
        "tail_threshold": RESOLUTION_TAIL_MAX,
        "snapshot_density_min": [{"t": t, "value": v} for t, v in zip(times, minima)],
        "resolved": resolved,
    }


def _write_control(path: Path, u: ControlSignal) -> None:
    _write_csv(path, ("t", "u1", "u2"),
               [(t, u1, u2) for t, (u1, u2) in zip(u.grid.full_times(), u.values)])


def _write_fields(config: RunConfig, traj: Trajectory, u: ControlSignal) -> dict:
    """Dump the snapshots of the density and, if solved here, of the co-density.

    The co-density along `traj`, the stored solve of `u`, is solved by
    solve-adjoint always and by optimize when it dumps adjoint snapshots.
    A snapshot is the node nearest its time: a sub-step node of the density,
    a full node of the co-density.  Returns the summary's `density_min`,
    `mass_drift` and `resolution` entries, and solve-adjoint's `adjoint_max_coeff`.
    """
    grid, times, out = traj.grid, config.snapshot_times, config.output_dir
    cotraj = None
    if config.command == "solve-adjoint" or (config.command == "optimize" and times
                                             and config.adjoint_snapshots):
        cotraj = integrate_backward(traj, u, config.model, keep=times)
    snapshots = [], np.empty((0, traj.n_modes))
    if times:
        m = traj.substeps
        sub = [grid.nearest_node(t, m) for t in times]
        at = [s * (grid.tau / m) for s in sub]
        rows = np.concatenate([traj.rows(s, s + 1) for s in sub])
        snapshots = at, _write_snapshots(out / "density_snapshots.csv", at, rows)
        if cotraj is not None:
            full = [grid.nearest_node(t) for t in times]
            _write_snapshots(out / "adjoint_snapshots.csv", [k * grid.tau for k in full],
                             cotraj.coeffs[[cotraj.nodes.index(k) for k in full]])
    fields = {"density_min": density_min(traj), "mass_drift": mass_drift(traj)}
    if config.command == "solve-adjoint":
        fields["adjoint_max_coeff"] = float(cotraj.scale.max())
    return {**fields, "resolution": _resolution(traj, cotraj, snapshots)}


def _run_optimize(config: RunConfig, t_start: float) -> int:
    out = config.output_dir

    def progress(rec):
        print(
            f"iter {rec.k:3d}  cost {rec.cost:.6e}  E {rec.non_extremality:.3e}  "
            f"lambda {rec.lam:.3e}  j {rec.backtrack_count}",
            file=sys.stderr,
        )

    result = run_descent(config.rho0, config.u0, config.model, config.grid,
                         config.descent, progress=progress)
    _write_csv(
        out / "convergence.csv",
        ("k", "cost", "non_extremality", "lambda", "backtrack_count", "wall_time"),
        [(r.k, r.cost, r.non_extremality, r.lam, r.backtrack_count, r.wall_time)
         for r in result.history],
    )
    _write_control(out / "control_final.csv", result.u_final)

    last = result.history[-1]
    summary = {
        "command": "optimize",
        "status": result.status,
        "iterations": result.iterations,
        "initial_cost": result.history[0].cost,
        "final_cost": result.final_cost,
        "final_non_extremality": last.non_extremality,
        "lambda_last": last.lam,
        **_write_fields(config, result.trajectory, result.u_final),
        "timings": {"total_seconds": time.perf_counter() - t_start},
    }
    _write_json(out / "summary.json", summary)
    if result.status == STATUS_LINE_SEARCH:
        _fail("line-search",
              f"iteration {last.k}: no step theta^j with j <= {config.descent.j_max} "
              "passed the sufficient-decrease test; the artifacts hold the last "
              "accepted control")
        return 4
    return 0


def _run_solve(config: RunConfig, t_start: float) -> int:
    """solve-forward, or solve-adjoint: the forward solve plus the co-density."""
    traj = integrate_forward(config.rho0, config.u0, config.model, config.grid)
    summary = {
        "command": config.command,
        "terminal_cost": config.model.cost.eval(traj.terminal_field()),
    }
    summary.update(_write_fields(config, traj, config.u0))
    summary["timings"] = {"total_seconds": time.perf_counter() - t_start}
    _write_json(config.output_dir / "summary.json", summary)
    return 0


def _run_validate(config: RunConfig, t_start: float) -> int:
    out = config.output_dir
    params = config.validate_params
    report: dict = {}

    # One stored solve of u0 serves the particle oracle and the experiment pair.
    traj = integrate_forward(config.rho0, config.u0, config.model, config.grid)

    # Particle oracle over increasing ensemble sizes.
    t_oracle = time.perf_counter()
    report["particles"] = meanfield_vs_particles(traj, config.u0, config.model,
                                                 params["n_particles"], params["cost_tol"])
    timings = {"particles_s": time.perf_counter() - t_oracle}

    # First-order decrement probe on the configured pair plus synthetic ones.
    t_oracle = time.perf_counter()
    pair = fig1_slope_pair(traj, config.u0, config.model)
    del traj  # the synthetic pairs store their own solves; keep one alive at a time
    synthetic = synthetic_control_pairs(config.model, config.grid, params["extra_pairs"])
    slope_reports = increment_slope_check(config.rho0, pair, synthetic, config.model,
                                          config.grid, params["lambdas"],
                                          params["ratio_tol"], params["order_min"])
    report["increment_slope"] = {
        "pairs": slope_reports,
        "ratio_tol": params["ratio_tol"],
        "order_min": params["order_min"],
        "passed": all(rep["passed"] for rep in slope_reports),
    }
    timings["increment_slope_s"] = time.perf_counter() - t_oracle

    # Closed-form co-density in the rotation-only case.
    t_oracle = time.perf_counter()
    u1 = local_u1_profile(params["local_u1"], config.grid)
    report["local_adjoint"] = local_adjoint_check(u1, config.rho0, config.model.x0, config.grid,
                                                  params["local_tol"])
    timings["local_adjoint_s"] = time.perf_counter() - t_oracle

    report["passed"] = all(report[oracle]["passed"]
                           for oracle in ("particles", "increment_slope", "local_adjoint"))
    report["timings"] = {**timings, "total_seconds": time.perf_counter() - t_start}
    _write_json(out / "validation_report.json", report)
    if not report["passed"]:
        _fail("validation", "one or more oracle tolerances failed; see validation_report.json")
        return 5
    return 0


_RUNNERS = {
    "optimize": _run_optimize,
    "solve-forward": _run_solve,
    "solve-adjoint": _run_solve,
    "validate": _run_validate,
}


def run(config: RunConfig) -> int:
    """Execute one command and write its artifacts under output_dir."""
    t_start = time.perf_counter()
    _write_json(config.output_dir / "config_expanded.json", config.expanded)
    return _RUNNERS[config.command](config, t_start)


def _fail(category: str, message: str, **details) -> None:
    print(json.dumps({"error": {"category": category, "message": message, **details}}),
          file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfpmp",
        description="Descent solver for controlled nonlocal transport on the circle.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--output", help="override the configured output directory")
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="dotted-path config override, value parsed as JSON")
    args = parser.parse_args(argv)

    # The command and --output are the last overrides, JSON-quoted so they stay strings.
    overrides = args.override + [f"command={json.dumps(args.command)}"]
    if args.output is not None:
        overrides.append(f"output_dir={json.dumps(args.output)}")
    try:
        return run(parse_config(args.config, overrides))
    except ConfigError as exc:
        _fail("config", str(exc))
        return 2
    except MemoryError as exc:  # a grid or ensemble too large to allocate is bad input too
        _fail("config", f"the run cannot be allocated (MemoryError: {exc})")
        return 2
    except DivergenceError as exc:
        _fail("divergence", str(exc))
        return 3
    except OSError as exc:
        _fail("io", str(exc))
        return 1
    except Exception as exc:  # a defect, not bad input: still one record, no bare traceback
        _fail("internal", f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc())
        return 1


if __name__ == "__main__":
    sys.exit(main())
