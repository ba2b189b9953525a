"""Call-site tracing for the benchmark and the per-layer metrics it yields.

The program is not instrumented.  Instead the tracer replaces module-level
names of mfpmp with wrappers, at every module that calls them through such
a name (`mfpmp.descent.cost_of_control` is the line search's evaluator,
`mfpmp.cli.integrate_forward` the final solve of `optimize`, ...).  Each
call records a span: name, call site, start, end, parent span.  Spans stay
in memory and are written out once, after the run.  A layer is the module
that defines the function; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time
from pathlib import Path

import numpy as np

ROOT_SPAN = "bench.workload"

# (module whose name is replaced, attribute path, span name).
WRAPS = (
    ("mfpmp.config", "parse_config_dict", "config.parse_config_dict"),
    ("mfpmp.cli", "run", "cli.run"),
    ("mfpmp.cli", "_write_json", "cli._write_json"),
    ("mfpmp.cli", "_write_csv", "cli._write_csv"),
    ("mfpmp.cli", "_write_control", "cli._write_control"),
    ("mfpmp.cli", "_write_snapshots", "cli._write_snapshots"),
    ("mfpmp.cli", "_atomic_write", "cli._atomic_write"),
    ("mfpmp.cli", "run_descent", "descent.run_descent"),
    ("mfpmp.cli", "integrate_forward", "forward.integrate_forward"),
    ("mfpmp.descent", "integrate_forward", "forward.integrate_forward"),
    ("mfpmp.checks", "integrate_forward", "forward.integrate_forward"),
    ("mfpmp.forward", "integrate_forward", "forward.integrate_forward"),
    ("mfpmp.descent", "cost_of_control", "forward.cost_of_control"),
    ("mfpmp.checks", "cost_of_control", "forward.cost_of_control"),
    ("mfpmp.cli", "density_min", "forward.density_min"),
    ("mfpmp.cli", "mass_drift", "forward.mass_drift"),
    ("mfpmp.cli", "integrate_backward", "adjoint.integrate_backward"),
    ("mfpmp.descent", "integrate_backward", "adjoint.integrate_backward"),
    ("mfpmp.checks", "integrate_backward", "adjoint.integrate_backward"),
    ("mfpmp.adjoint", "integrate_backward", "adjoint.integrate_backward"),
    ("mfpmp.descent", "switching_function", "descent.switching_function"),
    ("mfpmp.checks", "switching_function", "descent.switching_function"),
    ("mfpmp.descent", "target_control", "descent.target_control"),
    ("mfpmp.checks", "target_control", "descent.target_control"),
    ("mfpmp.descent", "non_extremality", "descent.non_extremality"),
    ("mfpmp.checks", "non_extremality", "descent.non_extremality"),
    ("mfpmp.descent", "backtracking_step", "descent.backtracking_step"),
    ("mfpmp.models", "ModelSpec.require_feasible", "models.require_feasible"),
    ("mfpmp.cli", "reconstruct_rows", "spectral.reconstruct_rows"),
    ("mfpmp.forward", "reconstruct_rows", "spectral.reconstruct_rows"),
    ("mfpmp.checks", "reconstruct_rows", "spectral.reconstruct_rows"),
    ("mfpmp.checks", "simulate_particles", "particles.simulate_particles"),
    ("mfpmp.checks", "stratified_ensemble", "particles.stratified_ensemble"),
    ("mfpmp.cli", "meanfield_vs_particles", "checks.meanfield_vs_particles"),
    ("mfpmp.cli", "fig1_slope_pair", "checks.fig1_slope_pair"),
    ("mfpmp.cli", "synthetic_control_pairs", "checks.synthetic_control_pairs"),
    ("mfpmp.cli", "increment_slope_check", "checks.increment_slope_check"),
    ("mfpmp.cli", "local_adjoint_check", "checks.local_adjoint_check"),
)

TRAJECTORY_SPANS = ("forward.integrate_forward", "adjoint.integrate_backward")

# Counts taken where the work happens, from a call's arguments or result.
NOTES = {
    "descent.backtracking_step": lambda a, r: bool(r[3]),  # accepted
    "particles.simulate_particles": lambda a, r: a["initial"].n * a["grid"].n_steps,
    "cli._atomic_write": lambda a, r: len(a["text"].encode()),
    "forward.integrate_forward": lambda a, r: r.coeffs.nbytes,
    "adjoint.integrate_backward": lambda a, r: r.coeffs.nbytes,
}

LAYERS = ("config", "cli", "descent", "forward", "adjoint", "models", "spectral",
          "particles", "checks")


class Tracer:
    """Replaces module-level names with span-recording wrappers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, site, parent, start, end, note]
        self.missing: set[str] = set()  # span names with a call site not found
        self.last: dict = {}  # span name -> last result (trajectories only)
        self._stack = [-1]
        self._patched: list = []

    def install(self) -> None:
        for module_name, path, name in WRAPS:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, module_name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, site: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note else None
        keep = name in TRAJECTORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, site, stack[-1], clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if note is not None:
                record[5] = note(signature.bind(*args, **kwargs).arguments, result)
            if keep:
                self.last[name] = result
            return result

        return traced

    @contextlib.contextmanager
    def root(self):
        """The span that encloses the whole workload."""
        record = [ROOT_SPAN, "perfbench", self._stack[-1], time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for i, (name, site, parent, start, end, note) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "parent": parent, "name": name, "site": site,
                    "start": start, "end": end, "note": note, "run": self.run_id,
                }) + "\n")


class SpanTable:
    """Durations, self times and grouped totals over recorded spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.dur = [s[4] - s[3] for s in spans]
        self.self_time = list(self.dur)
        for i, s in enumerate(spans):
            if s[2] >= 0:
                self.self_time[s[2]] -= self.dur[i]

    def select(self, names, site=None) -> list[int]:
        names = {names} if isinstance(names, str) else set(names)
        return [i for i, s in enumerate(self.spans)
                if s[0] in names and (site is None or s[1] == site)]

    def total(self, names, site=None) -> float:
        """Summed duration, counting a span nested in another of the group once."""
        chosen = set(self.select(names, site))
        out = 0.0
        for i in chosen:
            p = self.spans[i][2]
            while p >= 0 and p not in chosen:
                p = self.spans[p][2]
            if p < 0:
                out += self.dur[i]
        return out

    def count(self, names, site=None) -> int:
        return len(self.select(names, site))

    def layer_self(self, layer: str) -> float:
        return sum((t for s, t in zip(self.spans, self.self_time)
                    if s[0].split(".", 1)[0] == layer), 0.0)


def _count(coeffs: np.ndarray, test) -> int:
    """Entries passing `test`, taken in row blocks to bound temporary memory."""
    return sum(int(np.count_nonzero(test(coeffs[i:i + 256])))
               for i in range(0, coeffs.shape[0], 256))


def zero_fraction(coeffs: np.ndarray | None) -> float | None:
    """Share of complex coefficients that are exactly zero."""
    if coeffs is None:
        return None
    return _count(coeffs, lambda c: c == 0) / coeffs.size


def _subnormal_parts(c: np.ndarray) -> np.ndarray:
    parts = np.abs(c.view(float))
    return (parts > 0) & (parts < np.finfo(float).tiny)


def subnormal_fraction(coeffs: np.ndarray | None) -> float | None:
    """Share of the real and imaginary parts that are subnormal."""
    if coeffs is None:
        return None
    return _count(coeffs, _subnormal_parts) / (2 * coeffs.size)


def _iteration_times(t: SpanTable) -> list[float]:
    starts = [t.spans[i][3] for i in t.select("forward.integrate_forward", "mfpmp.descent")]
    ends = t.select("descent.run_descent")
    if not starts or not ends:
        return []
    bounds = starts + [t.spans[ends[-1]][4]]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _line_search(t: SpanTable) -> tuple[int, int]:
    """(trial solves, accepted trials) of all backtracking searches."""
    steps = set(t.select("descent.backtracking_step"))
    trials = sum(1 for i in t.select("forward.cost_of_control") if t.spans[i][2] in steps)
    accepted = sum(1 for i in steps if t.spans[i][5])
    return trials, accepted


def _notes(t: SpanTable, name: str) -> list:
    return [t.spans[i][5] for i in t.select(name)]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def _last_coeffs(tr: Tracer, name: str):
    result = tr.last.get(name)
    return None if result is None else result.coeffs


def _coverage(t: SpanTable) -> float:
    """Share of the traced workload spent in the self time of layer spans."""
    root = t.select(ROOT_SPAN)[-1]
    frame = t.self_time[root] + sum(t.self_time[i] for i in t.select("cli.run"))
    return 1.0 - frame / t.dur[root]


# name -> (unit, span names it needs, value from (table, tracer, extra)).
# `extra` carries what the worker measured outside the spans.  A metric
# whose spans could not be installed, or whose value is None, is absent.
METRICS = {
    "config.parse_s": ("s", ["config.parse_config_dict"],
                       lambda t, tr, x: t.total("config.parse_config_dict")),
    "forward.integrate_s": ("s", ["forward.integrate_forward"],
                            lambda t, tr, x: t.total("forward.integrate_forward")),
    "forward.integrate_calls": ("count", ["forward.integrate_forward"],
                                lambda t, tr, x: t.count("forward.integrate_forward")),
    "forward.lean_cost_s": ("s", ["forward.cost_of_control"],
                            lambda t, tr, x: t.total("forward.cost_of_control")),
    "forward.lean_cost_calls": ("count", ["forward.cost_of_control"],
                                lambda t, tr, x: t.count("forward.cost_of_control")),
    "forward.rhs_us": ("us", [], lambda t, tr, x: x["rhs_us"]["forward"]),
    "forward.diagnostics_s": ("s", ["forward.density_min", "forward.mass_drift"],
                              lambda t, tr, x: t.total(["forward.density_min",
                                                        "forward.mass_drift"])),
    "forward.zero_coeff_frac": ("ratio", ["forward.integrate_forward"],
                                lambda t, tr, x: zero_fraction(
                                    _last_coeffs(tr, "forward.integrate_forward"))),
    "adjoint.integrate_s": ("s", ["adjoint.integrate_backward"],
                            lambda t, tr, x: t.total("adjoint.integrate_backward")),
    "adjoint.integrate_calls": ("count", ["adjoint.integrate_backward"],
                                lambda t, tr, x: t.count("adjoint.integrate_backward")),
    "adjoint.rhs_us": ("us", [], lambda t, tr, x: x["rhs_us"]["adjoint"]),
    "adjoint.subnormal_frac": ("ratio", ["adjoint.integrate_backward"],
                               lambda t, tr, x: subnormal_fraction(
                                   _last_coeffs(tr, "adjoint.integrate_backward"))),
    "descent.iterations": ("count", ["forward.integrate_forward", "descent.run_descent"],
                           lambda t, tr, x: len(_iteration_times(t))),
    "descent.iter_s_p50": ("s", ["forward.integrate_forward", "descent.run_descent"],
                           lambda t, tr, x: statistics.median(_iteration_times(t) or [0.0])),
    "descent.switching_s": ("s", ["descent.switching_function"],
                            lambda t, tr, x: t.total("descent.switching_function")),
    "descent.target_s": ("s", ["descent.target_control"],
                         lambda t, tr, x: t.total("descent.target_control")),
    "descent.line_search_s": ("s", ["descent.backtracking_step"],
                              lambda t, tr, x: sum((t.self_time[i] for i in
                                                    t.select("descent.backtracking_step")), 0.0)),
    "descent.backtracks": ("count", ["descent.backtracking_step", "forward.cost_of_control"],
                           lambda t, tr, x: _line_search(t)[0] - _line_search(t)[1]),
    "descent.accept_ratio": ("ratio", ["descent.backtracking_step", "forward.cost_of_control"],
                             lambda t, tr, x: _ratio(_line_search(t)[1], _line_search(t)[0])),
    "models.feasibility_calls": ("count", ["models.require_feasible"],
                                 lambda t, tr, x: t.count("models.require_feasible")),
    "models.feasibility_s": ("s", ["models.require_feasible"],
                             lambda t, tr, x: t.total("models.require_feasible")),
    "timegrid.trajectory_mb": ("MB", list(TRAJECTORY_SPANS),
                               lambda t, tr, x: max(_notes(t, TRAJECTORY_SPANS[0])
                                                    + _notes(t, TRAJECTORY_SPANS[1])
                                                    + [0]) / 1e6),
    "spectral.reconstruct_s": ("s", ["spectral.reconstruct_rows"],
                               lambda t, tr, x: t.total("spectral.reconstruct_rows")),
    "particles.simulate_s": ("s", ["particles.simulate_particles"],
                             lambda t, tr, x: t.total("particles.simulate_particles")),
    "particles.stratify_s": ("s", ["particles.stratified_ensemble"],
                             lambda t, tr, x: t.total("particles.stratified_ensemble")),
    "particles.steps_per_s": ("1/s", ["particles.simulate_particles"],
                              lambda t, tr, x: _ratio(
                                  sum(_notes(t, "particles.simulate_particles")),
                                  t.total("particles.simulate_particles"))),
    "checks.particles_s": ("s", ["checks.meanfield_vs_particles"],
                           lambda t, tr, x: t.total("checks.meanfield_vs_particles")),
    "checks.slope_s": ("s", ["checks.fig1_slope_pair", "checks.synthetic_control_pairs",
                             "checks.increment_slope_check"],
                       lambda t, tr, x: t.total(["checks.fig1_slope_pair",
                                                 "checks.synthetic_control_pairs",
                                                 "checks.increment_slope_check"])),
    "checks.local_adjoint_s": ("s", ["checks.local_adjoint_check"],
                               lambda t, tr, x: t.total("checks.local_adjoint_check")),
    "cli.final_solve_s": ("s", ["forward.integrate_forward", "adjoint.integrate_backward"],
                          lambda t, tr, x: t.total(list(TRAJECTORY_SPANS), "mfpmp.cli")),
    "cli.artifact_write_s": ("s", ["cli._write_json", "cli._write_csv", "cli._write_control",
                                   "cli._write_snapshots"],
                             lambda t, tr, x: t.total(["cli._write_json", "cli._write_csv",
                                                       "cli._write_control",
                                                       "cli._write_snapshots"])),
    "cli.artifact_bytes": ("count", ["cli._atomic_write"],
                           lambda t, tr, x: sum(_notes(t, "cli._atomic_write"))),
    **{f"{layer}.self_s": ("s", [], (lambda layer: lambda t, tr, x: t.layer_self(layer))(layer))
       for layer in LAYERS},
    "trace.span_coverage": ("ratio", ["cli.run"], lambda t, tr, x: _coverage(t)),
}

# Traced minus untraced wall_ref_s; the parent measures it from both operations.
OVERHEAD_METRIC = ("trace.overhead_s", "s")


def derive(tracer: Tracer, extra: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics as {name: value}, and the names reported absent."""
    table = SpanTable(tracer.spans)
    values, absent = {}, []
    for name, (_unit, needs, fn) in METRICS.items():
        if tracer.missing.intersection(needs):
            absent.append(name)
            continue
        value = fn(table, tracer, extra)
        if value is None:
            absent.append(name)
        else:
            values[name] = value
    return values, absent
