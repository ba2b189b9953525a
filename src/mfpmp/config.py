"""Run configuration: a single JSON document, strictly validated.

Unknown keys are rejected everywhere (no silent typo tolerance), named
presets are expanded to explicit values at parse time, and the expanded
document is what gets echoed next to the run artifacts, so a run can be
reproduced without the original file.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import forward
from .checks import LOCAL_U1, MAX_EXTRA_PAIRS
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
    "local_u1": {"kind": "constant"},
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


def _unique_keys(pairs: list) -> dict:
    """`object_pairs_hook` of `_decode`: no key twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"key {key!r} is given twice in one JSON object")
        doc[key] = value
    return doc


def _decode(text: str, where: str):
    """The JSON of the config file or of an override value (`where`); no key repeated."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError as exc:
        raise ConfigError(f"{where}: JSON nested too deeply") from exc
    except ConfigError as exc:  # a repeated key
        raise ConfigError(f"{where}: {exc}") from exc


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


def _number(doc, key, where):
    v = doc.get(key)
    if not _is_number(v):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _parse_constraint(doc: dict) -> AdmissibleSet:
    where = "model.constraint"
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError(f"{where}: expected an object with a 'kind'")
    try:
        if doc["kind"] == "ball":
            _require_keys(doc, {"kind", "radius"}, {"kind", "radius"}, where)
            return ball(_number(doc, "radius", where))
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
            # Plain decimal digits only: int() would also take "1_0", " 2", "+1" or "١".
            if not (isinstance(key, str) and key.isascii() and key.isdigit()):
                raise ConfigError(f"{at}: expected a harmonic number (ASCII digits) as the key")
            n = int(key)
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
    doc = {} if doc is None else doc
    where = "descent"
    params = fields(DescentConfig)
    _require_keys(doc, {f.name for f in params}, set(), where)
    kwargs = {}
    for f in [f for f in params if f.name in doc]:  # field order: the first bad one is reported
        if f.type in (int, "int"):
            if not _is_int(doc[f.name]):
                raise ConfigError(f"{where}.{f.name}: expected an integer, got {doc[f.name]!r}")
            kwargs[f.name] = doc[f.name]
        else:
            kwargs[f.name] = _number(doc, f.name, where)
    try:
        return DescentConfig(**kwargs)
    except (ValueError, OverflowError) as exc:  # j_max past the float range overflows
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_validate(doc: dict | None) -> dict:
    where = "validate"
    doc = {} if doc is None else doc
    _require_keys(doc, set(_VALIDATE_DEFAULTS), set(), where)
    params = {**_VALIDATE_DEFAULTS, **doc}

    counts = params["n_particles"]
    if not (isinstance(counts, list) and counts
            and all(_is_int(n) and 1 <= n < 2**63 for n in counts)
            and all(a < b for a, b in zip(counts, counts[1:]))):
        raise ConfigError(f"{where}.n_particles: expected a nonempty, strictly increasing "
                          f"list of integers in [1, 2**63) (runs are reported by size and "
                          f"checked for a falling discrepancy; an ensemble is one NumPy "
                          f"array), got {counts!r}")
    for key in ("cost_tol", "ratio_tol", "order_min", "local_tol"):
        if _number(params, key, where) < 0 and key != "order_min":  # a slope bound
            raise ConfigError(f"{where}.{key}: must be nonnegative, got {params[key]!r}")
    lambdas = params["lambdas"]
    if not (isinstance(lambdas, list) and len(lambdas) >= 2
            and all(_is_number(lam) and 0 < lam <= 1 for lam in lambdas)
            and len(set(lambdas)) == len(lambdas)):
        raise ConfigError(f"{where}.lambdas: expected at least two distinct steps in (0, 1] "
                          f"(the residual order is taken between the two smallest steps), "
                          f"got {lambdas!r}")
    pairs = params["extra_pairs"]
    if not (_is_int(pairs) and 0 <= pairs <= MAX_EXTRA_PAIRS):
        raise ConfigError(f"{where}.extra_pairs: expected an integer in "
                          f"0..{MAX_EXTRA_PAIRS}, got {pairs!r}")

    local = params["local_u1"]
    kind = local.get("kind") if isinstance(local, dict) else None
    if kind not in LOCAL_U1:
        raise ConfigError(f"{where}.local_u1.kind: must be one of "
                          f"{sorted(LOCAL_U1)}, got {kind!r}")
    _require_keys(local, {"kind", *LOCAL_U1[kind]}, {"kind"}, f"{where}.local_u1")
    for key in sorted(set(local) - {"kind"}):
        _number(local, key, f"{where}.local_u1")
    params["local_u1"] = {**LOCAL_U1[kind], **local}  # every parameter named in the echo
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
    T = _number(doc["grid"], "T", "grid")
    tau = _number(doc["grid"], "tau", "grid")
    try:
        grid = TimeGrid(T, tau)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    n_modes = doc["grid"]["n_modes"]
    if not isinstance(n_modes, int) or isinstance(n_modes, bool) or n_modes % 2 or n_modes < 4:
        raise ConfigError(f"grid.n_modes: must be an even integer >= 4, got {n_modes!r}")

    # A finite T/tau or n_modes can still be too large to allocate.
    try:
        rho0, density_echo = _parse_density(doc["initial_density"], n_modes)
        u0, control_echo = _parse_control(doc["initial_control"], grid, model)
    except (ValueError, OverflowError, MemoryError) as exc:
        raise ConfigError(f"grid: T/tau = {T / tau:.6g} steps of {n_modes} harmonics cannot "
                          f"be allocated ({type(exc).__name__}: {exc})") from exc
    # The march flushes parts below forward._FLUSH to 0 before its first step.
    if command == "validate" and max(abs(rho0[1].real), abs(rho0[1].imag)) < forward._FLUSH:
        raise ConfigError("initial_density: validate needs a nonzero harmonic 1 (a part of at "
                          f"least {forward._FLUSH:.3g}; smaller parts are flushed to 0): with "
                          "a_1 = 0 the cost is 1 for every control (a_1 and the coupling stay 0), "
                          "so the slope oracle has no slope to check")
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
            value = _decode(raw, f"override {dotted!r}")
        except json.JSONDecodeError:
            value = raw
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
        doc = _decode(text, str(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    doc = apply_overrides(doc, overrides)
    return parse_config_dict(doc)
