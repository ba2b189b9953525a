"""Fast self-test of the benchmark on the tiny grid (32 harmonics, T = 0.5).

    python3 perfbench/selftest.py

Runs every workload untraced and traced through perfbench/run.py, on seed
0 and on a symmetric variant, and checks the output schema against
BENCHMARK.json.  Checks the host-speed probe and the factor it gives,
that a wrapped name the program no longer has makes its metrics absent
instead of crashing, and that the benchmark refuses to run in a
directory without the program.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _fail(message: str) -> None:
    raise SystemExit(f"selftest: {message}")


def check_benchmark_json(bench: dict) -> None:
    """The limits BENCHMARK.json must keep."""
    if set(bench) != BENCHMARK_KEYS:
        _fail(f"BENCHMARK.json keys {sorted(bench)}")
    if not (1 <= len(bench["paths"]) <= 16 and 1 <= len(bench["command"]) <= 32):
        _fail("BENCHMARK.json: paths or command length")
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        _fail("BENCHMARK.json: run_seconds")
    names = []
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            _fail(f"BENCHMARK.json: workload {w}")
        names.append(w["name"])
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            _fail(f"BENCHMARK.json: end-to-end metric {m}")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            _fail(f"BENCHMARK.json: per-layer metric {m}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
            _fail(f"BENCHMARK.json: metric {m}")
        names.append(m["name"])
    for name in names:
        if not NAME.fullmatch(name) or len(name) > 64 or not name[0].isalnum():
            _fail(f"BENCHMARK.json: bad name {name!r}")
    if len(names) != len(set(names)):
        _fail("BENCHMARK.json: a name is used twice")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        _fail("BENCHMARK.json: setup_s must exist and have the largest bound")
    print("ok  BENCHMARK.json")


def check_result(line: str, expected_units: dict, where: str) -> None:
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        _fail(f"{where}: keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        _fail(f"{where}: correct={result['correct']} failed={result['failed']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        _fail(f"{where}: attempted={result['attempted']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(expected_units):
        _fail(f"{where}: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(expected_units))}")
    for name, m in metrics.items():
        if not NAME.fullmatch(name) or len(name) > 64:
            _fail(f"{where}: bad metric name {name!r}")
        if set(m) != {"value", "unit"} or m["unit"] != expected_units[name]:
            _fail(f"{where}: {name} = {m}, expected unit {expected_units[name]!r}")
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            _fail(f"{where}: {name} has value {value!r}")


def run_workloads(bench: dict) -> None:
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for seed, trace in ((0, 0), (0, 1), (7, 0)):
            where = f"{workload} seed {seed} trace {trace}"
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                _fail(f"{where}: exit {proc.returncode}\n{proc.stderr}")
            check_result(proc.stdout.strip().splitlines()[-1], units[trace], where)
            print(f"ok  {where}")


def check_absent_metric() -> None:
    """A renamed program function makes its metrics absent, not a crash."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import mfpmp.config
    import tracing
    import workloads

    renamed = ("mfpmp.descent", "cost_of_control_renamed", "forward.cost_of_control")
    original = tracing.WRAPS
    tracing.WRAPS = tuple(w for w in original
                          if w[:2] != ("mfpmp.descent", "cost_of_control")) + (renamed,)
    tracer = tracing.Tracer("selftest")
    try:
        tracer.install()
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as out:
            doc = workloads.config_doc(ROOT, "desk-optimize", 0, Path(out), tiny=True)
            config = mfpmp.config.parse_config_dict(doc)
            with tracer.root(), contextlib.redirect_stderr(io.StringIO()):
                workloads.run("desk-optimize", config)
    finally:
        tracer.uninstall()
        tracing.WRAPS = original
    values, absent = tracing.derive(tracer, {"rhs_us": {"forward": 1.0, "adjoint": 1.0}})
    for name in ("forward.lean_cost_s", "forward.lean_cost_calls", "descent.accept_ratio"):
        if name not in absent or name in values:
            _fail(f"{name} should be absent when a wrapped name is missing")
    if "forward.integrate_s" not in values:
        _fail("metrics of names that exist must still be reported")
    print("ok  missing wrapped name -> metrics absent")


def check_host_probe() -> None:
    """The probe samples, stops when asked, and its factor scales as it should."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    with run.HostProbe() as probe:
        start = time.monotonic()
        time.sleep(0.5)
        samples = probe.stop()
        if probe.proc.returncode is None:
            _fail("the host-speed probe is still running after stop()")
    if not samples or not 0 < run.speed_factor(samples, start, time.monotonic()) < math.inf:
        _fail(f"host-speed probe: {len(samples)} samples")
    slow = [(start + 0.01 * i, 2 * run.REF_UNIT_S) for i in range(300)]
    if not math.isclose(run.speed_factor(slow, start, start + 3.0), 0.5):
        _fail("a host at half the reference speed must give a factor of 0.5")
    if not math.isclose(run.speed_factor(slow, start + 5.0, start + 5.1), 0.5):
        _fail("a window without samples must borrow from its neighbourhood")
    print("ok  host-speed probe")


def check_bare_directory(bench: dict) -> None:
    """Without the program next to it, the benchmark exits non-zero, silently."""
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "0",
                                "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            _fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  bare directory -> non-zero exit, no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_benchmark_json(bench)
    check_host_probe()
    check_bare_directory(bench)
    run_workloads(bench)
    check_absent_metric()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
