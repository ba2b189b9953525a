"""Run configuration: a single JSON document, strictly validated.

Unknown keys are rejected everywhere (no silent typo tolerance), named
presets are expanded to explicit values at parse time, and the expanded
document is what gets echoed next to the run artifacts, so a run can be
reproduced without the original file.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .checks import MAX_EXTRA_PAIRS
from .descent import DescentConfig
from .errors import ConfigError
from .models import AdmissibleSet, ModelSpec, ball, box, kuramoto_model
from .presets import fig1_control, fig1_density
from .spectral import require_normalized
from .timegrid import ControlSignal, TimeGrid, constant_control

COMMANDS = ("solve-forward", "solve-adjoint", "optimize", "validate")

_VALIDATE_DEFAULTS = {
    "n_particles": [1000, 10000],
    "cost_tol": 0.02,
    "lambdas": [1e-3, 2e-3, 4e-3, 8e-3],
    "ratio_tol": 0.05,
    "order_min": 1.8,
    "extra_pairs": 2,
    "local_tol": 1e-6,
    "local_u1": {"kind": "constant", "value": 1.0},
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: ModelSpec
    grid: TimeGrid
    rho0: np.ndarray  # half row n = 0 .. N/2 of the initial density
    u0: ControlSignal
    descent: DescentConfig
    output_dir: Path
    snapshot_times: tuple
    adjoint_snapshots: bool
    validate_params: dict
    expanded: dict = field(repr=False, default_factory=dict)


def _require_keys(doc: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _is_number(v) -> bool:
    """A finite JSON number: not a bool, NaN, +-Infinity or an overflowing int."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _numbers(v, where: str, length: int) -> list[float]:
    """A list of exactly `length` finite JSON numbers (`_is_number`), as floats."""
    if not (isinstance(v, list) and len(v) == length and all(_is_number(x) for x in v)):
        raise ConfigError(f"{where}: expected a list of {length} finite numbers, got {v!r}")
    return [float(x) for x in v]


def _number(doc, key, where, positive=False):
    v = doc.get(key)
    if not _is_number(v):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {v!r}")
    if positive and not v > 0:
        raise ConfigError(f"{where}.{key}: must be positive, got {v}")
    return float(v)


def _parse_constraint(doc: dict) -> AdmissibleSet:
    where = "model.constraint"
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError(f"{where}: expected an object with a 'kind'")
    try:
        if doc["kind"] == "ball":
            _require_keys(doc, {"kind", "radius"}, {"kind", "radius"}, where)
            return ball(_number(doc, "radius", where, positive=True))
        if doc["kind"] == "box":
            _require_keys(doc, {"kind", "lower", "upper"}, {"kind", "lower", "upper"}, where)
            return box(_numbers(doc["lower"], f"{where}.lower", 2),
                       _numbers(doc["upper"], f"{where}.upper", 2))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.kind: must be 'ball' or 'box', got {doc['kind']!r}")


def _parse_density(doc, n_modes: int) -> tuple[np.ndarray, dict]:
    """The half row n = 0 .. N/2 of the initial density, and its echo."""
    where = "initial_density"
    if isinstance(doc, str):
        if doc != "fig1":
            raise ConfigError(f"{where}: unknown preset {doc!r}")
        rho0 = fig1_density(n_modes).coeffs[n_modes // 2:]
    elif isinstance(doc, dict):
        _require_keys(doc, {"harmonics"}, {"harmonics"}, where)
        if not isinstance(doc["harmonics"], dict):
            raise ConfigError(f"{where}.harmonics: expected an object of harmonic: [re, im]")
        rho0 = np.zeros(n_modes // 2 + 1, dtype=complex)
        given = set()
        for key, pair in doc["harmonics"].items():
            at = f"{where}.harmonics[{key!r}]"
            try:
                n = int(key)
            except ValueError as exc:
                raise ConfigError(f"{at}: expected a harmonic number as the key") from exc
            re, im = _numbers(pair, at, 2)
            if not 0 <= n < rho0.size:
                raise ConfigError(f"{at}: harmonic {n} must lie in 0..{rho0.size - 1}")
            if n in given:
                raise ConfigError(f"{at}: harmonic {n} is given twice")
            given.add(n)
            rho0[n] = complex(re, im)
    else:
        raise ConfigError(f"{where}: expected a preset name or harmonics object")
    try:
        rho0 = require_normalized(rho0, where)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # |c_n| <= c_0 holds for every nonnegative density.
    over = np.flatnonzero(np.abs(rho0) > rho0[0].real)
    if over.size:
        n = over[0]
        raise ConfigError(f"{where}: harmonic {n} has |c_{n}| = {abs(rho0[n]):.6g} above "
                          "c_0 = 1/(2*pi), which no probability density has")
    return rho0, {"harmonics": {str(n): [c.real, c.imag] for n, c in enumerate(rho0) if c != 0}}


def _parse_control(doc, grid: TimeGrid, model: ModelSpec) -> tuple[ControlSignal, dict]:
    where = "initial_control"
    if isinstance(doc, str):
        if doc != "fig1":
            raise ConfigError(f"{where}: unknown preset {doc!r}")
        u0 = fig1_control(grid)
    elif isinstance(doc, dict) and "constant" in doc:
        _require_keys(doc, {"constant"}, {"constant"}, where)
        u0 = constant_control(grid, _numbers(doc["constant"], f"{where}.constant", 2))
    elif isinstance(doc, dict) and "values" in doc:
        _require_keys(doc, {"values"}, {"values"}, where)
        if not isinstance(doc["values"], list):
            raise ConfigError(f"{where}.values: expected a list of [u1, u2] rows")
        rows = [_numbers(row, f"{where}.values[{k}]", 2) for k, row in enumerate(doc["values"])]
        try:
            u0 = ControlSignal(grid, rows)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    else:
        raise ConfigError(f"{where}: expected a preset name, 'constant', or 'values'")
    try:
        model.require_feasible(u0.values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return u0, {"values": [list(map(float, row)) for row in u0.values]}


def _parse_descent(doc: dict | None) -> DescentConfig:
    if doc is None:
        return DescentConfig()
    where = "descent"
    allowed = {"c", "theta", "lambda_tol", "j_max", "k_max", "eps_tol", "lambda_patience"}
    _require_keys(doc, allowed, set(), where)
    kwargs = {}
    for key in allowed & set(doc):
        v = doc[key]
        if key in ("j_max", "k_max", "lambda_patience"):
            if not _is_int(v):
                raise ConfigError(f"{where}.{key}: expected an integer, got {v!r}")
            kwargs[key] = v
        else:
            kwargs[key] = _number(doc, key, where)
    try:
        return DescentConfig(**kwargs)
    except (ValueError, OverflowError) as exc:  # j_max past the float range overflows
        raise ConfigError(f"{where}: {exc}") from exc


_LOCAL_U1_KEYS = {"constant": {"kind", "value"},
                  "sinusoidal": {"kind", "amplitude", "frequency"}}


def _parse_validate(doc: dict | None) -> dict:
    where = "validate"
    params = dict(_VALIDATE_DEFAULTS)
    if doc is None:
        return params
    _require_keys(doc, set(_VALIDATE_DEFAULTS), set(), where)
    params.update(doc)

    counts = params["n_particles"]
    if not (isinstance(counts, list) and counts
            and all(_is_int(n) and n >= 1 for n in counts)
            and all(a < b for a, b in zip(counts, counts[1:]))):
        raise ConfigError(f"{where}.n_particles: expected a nonempty, strictly increasing "
                          f"list of integers >= 1 (runs are reported by size and checked "
                          f"for a falling discrepancy), got {counts!r}")
    for key in ("cost_tol", "ratio_tol", "order_min", "local_tol"):
        _number(params, key, where)
    lambdas = params["lambdas"]
    if not (isinstance(lambdas, list) and len(lambdas) >= 2
            and all(_is_number(lam) and 0 < lam <= 1 for lam in lambdas)
            and len(set(lambdas)) == len(lambdas)):
        raise ConfigError(f"{where}.lambdas: expected at least two distinct steps in (0, 1] "
                          f"(the residual order is a fitted slope), got {lambdas!r}")
    pairs = params["extra_pairs"]
    if not (_is_int(pairs) and 0 <= pairs <= MAX_EXTRA_PAIRS):
        raise ConfigError(f"{where}.extra_pairs: expected an integer in "
                          f"0..{MAX_EXTRA_PAIRS}, got {pairs!r}")

    local = params["local_u1"]
    kind = local.get("kind") if isinstance(local, dict) else None
    if kind not in _LOCAL_U1_KEYS:
        raise ConfigError(f"{where}.local_u1.kind: must be one of "
                          f"{sorted(_LOCAL_U1_KEYS)}, got {kind!r}")
    _require_keys(local, _LOCAL_U1_KEYS[kind], {"kind"}, f"{where}.local_u1")
    for key in sorted(set(local) - {"kind"}):
        _number(local, key, f"{where}.local_u1")
    return params


def parse_config_dict(doc: dict) -> RunConfig:
    top_allowed = {
        "command", "model", "grid", "initial_density", "initial_control",
        "descent", "output_dir", "snapshot_times", "adjoint_snapshots", "validate",
    }
    _require_keys(doc, top_allowed,
                  {"command", "model", "grid", "initial_density", "initial_control",
                   "output_dir"}, "config")

    command = doc["command"]
    if command not in COMMANDS:
        raise ConfigError(f"config.command: must be one of {COMMANDS}, got {command!r}")

    _require_keys(doc["model"], {"alpha", "x0", "constraint"},
                  {"alpha", "x0", "constraint"}, "model")
    alpha = _number(doc["model"], "alpha", "model")
    x0 = _number(doc["model"], "x0", "model")
    control_set = _parse_constraint(doc["model"]["constraint"])
    model = kuramoto_model(alpha, x0, control_set)

    _require_keys(doc["grid"], {"T", "tau", "n_modes"}, {"T", "tau", "n_modes"}, "grid")
    T = _number(doc["grid"], "T", "grid", positive=True)
    tau = _number(doc["grid"], "tau", "grid", positive=True)
    n_modes = doc["grid"]["n_modes"]
    if not isinstance(n_modes, int) or isinstance(n_modes, bool) or n_modes % 2 or n_modes < 4:
        raise ConfigError(f"grid.n_modes: must be an even integer >= 4, got {n_modes!r}")
    try:
        grid = TimeGrid(T, tau)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    # A finite T/tau or n_modes can still be too large to allocate.
    try:
        rho0, density_echo = _parse_density(doc["initial_density"], n_modes)
        u0, control_echo = _parse_control(doc["initial_control"], grid, model)
    except (ValueError, OverflowError, MemoryError) as exc:
        raise ConfigError(f"grid: T/tau = {T / tau:.6g} steps of {n_modes} harmonics cannot "
                          f"be allocated ({type(exc).__name__}: {exc})") from exc
    descent = _parse_descent(doc.get("descent"))
    validate_params = _parse_validate(doc.get("validate"))

    snapshot_times = doc.get("snapshot_times", [])
    if not isinstance(snapshot_times, list):
        raise ConfigError("config.snapshot_times: expected a list of times")
    for t in snapshot_times:
        if not _is_number(t) or t < 0 or t > T:
            raise ConfigError(f"config.snapshot_times: time {t!r} outside [0, T]")

    adjoint_snapshots = doc.get("adjoint_snapshots", False)
    if not isinstance(adjoint_snapshots, bool):
        raise ConfigError("config.adjoint_snapshots: expected a boolean")

    if not isinstance(doc["output_dir"], str):
        raise ConfigError(f"config.output_dir: expected a path string, got {doc['output_dir']!r}")
    output_dir = Path(doc["output_dir"])  # relative paths resolve against the CWD

    expanded = {
        "command": command,
        "model": {"alpha": alpha, "x0": x0, "constraint": dict(doc["model"]["constraint"])},
        "grid": {"T": T, "tau": tau, "n_modes": n_modes},
        "initial_density": density_echo,
        "initial_control": control_echo,
        "descent": asdict(descent),
        "output_dir": str(doc["output_dir"]),
        "snapshot_times": [float(t) for t in snapshot_times],
        "adjoint_snapshots": adjoint_snapshots,
        "validate": validate_params,
    }
    return RunConfig(
        command=command,
        model=model,
        grid=grid,
        rho0=rho0,
        u0=u0,
        descent=descent,
        output_dir=output_dir,
        snapshot_times=tuple(float(t) for t in snapshot_times),
        adjoint_snapshots=adjoint_snapshots,
        validate_params=validate_params,
        expanded=expanded,
    )


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply dotted key=value pairs (values parsed as JSON, else strings)."""
    out = json.loads(json.dumps(doc))
    if not isinstance(out, dict):
        raise ConfigError(f"config: expected an object, got {type(out).__name__}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except RecursionError as exc:
            raise ConfigError(f"override {dotted!r}: JSON nested too deeply") from exc
        node = out
        keys = dotted.split(".")
        for key in keys[:-1]:
            if key not in node or not isinstance(node[key], dict):
                node[key] = {}
            node = node[key]
        node[keys[-1]] = value
    return out


def parse_config(path, overrides=None) -> RunConfig:
    """Load, override, validate, and expand a JSON run configuration."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply") from exc
    doc = apply_overrides(doc, overrides)
    return parse_config_dict(doc)
