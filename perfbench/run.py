"""Benchmark of mfpmp on three workloads: desk-optimize, full-pass, validate-desk.

    python3 perfbench/run.py --workload desk-optimize --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it imports mfpmp from `src/` there.
Every operation runs in a fresh Python process (perfbench/worker.py), one
at a time: a closed loop with one caller, NumPy held to one thread, all on
one CPU.  Operations repeat until --seconds have passed, at least once.
Set-up is also sampled in SETUP_SAMPLES processes that stop before the
first solver call.

Times are reported in reference seconds.  A host-speed probe
(perfbench/reference.py) shares the CPU with the workers at idle priority
and times a fixed NumPy kernel whenever it gets a turn.  A time measured
on the host is scaled by REF_UNIT_S over the probe's unit time during the
same interval, averaged over BIN_S bins: the time the operation would take
on a CPU running at the reference speed.  On a shared host the speed of a
CPU swings by tens of percent for seconds to minutes; the scaling takes
most of that out.  At a steady host speed, a change to the program moves
the scaled time as much as the raw one.

--trace 0 reports the end-to-end metrics: setup_s, wall_ref_s (first
solver call to last artifact written) and peak_rss_mb, each the median of
its samples.  --trace 1 adds one traced operation and reports the
per-layer metrics of perfbench/tracing.py instead, with the raw wall time
and the host's slowdown.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("desk-optimize", "full-pass", "validate-desk")
SETUP_SAMPLES = 10
RUN_BUDGET_S = 170  # every worker is killed by then; a run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
# CPU seconds of one probe unit: a round value near what it takes on a
# 2-vCPU KVM guest (Intel Xeon with AVX-512).  A constant: it only sets the
# scale of reference seconds.
REF_UNIT_S = 1.6e-4
BIN_S = 1.0
# With --trace 1: the median raw wall time of the untraced operations, and
# the host's slowdown against the reference speed during them.
HOST_METRICS = (("host.wall_s", "s"), ("host.slowdown", "ratio"))


class Operation:
    """Outcome of one worker process."""

    def __init__(self, setup: tuple[float, float] | None, report: dict | None,
                 error: str | None):
        self.setup = setup  # process start and first solver call, monotonic
        self.report = report or {}
        self.error = error or self.report.get("error")

    @property
    def ok(self) -> bool:
        return self.error is None and self.report.get("ok", False)


class HostProbe:
    """The host-speed probe, running beside the workers for one run."""

    def __enter__(self) -> "HostProbe":
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "reference.py")],
            cwd=ROOT, env=dict(os.environ, **{name: "1" for name in THREAD_ENV}),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("the host-speed probe did not start")
        return self

    def stop(self) -> list[tuple[float, float]]:
        """End the probe and return its samples: (time, CPU s of one unit)."""
        self.proc.terminate()
        out, _ = self.proc.communicate(timeout=30)
        return [tuple(sample) for sample in json.loads(out)]

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:  # an error cut the run short
            self.proc.kill()
        self.proc.communicate()


def speed_factor(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Reference seconds per host second over [start, end].

    The mean over BIN_S bins of REF_UNIT_S over the median unit time in the
    bin.  A window too short to hold a sample is widened by a bin each side.
    """
    for pad in (0.0, BIN_S, 10 * BIN_S):
        bins: dict[int, list[float]] = {}
        for t, unit in samples:
            if start - pad <= t <= end + pad:
                bins.setdefault(int((t - start + pad) / BIN_S), []).append(unit)
        if bins:
            return statistics.fmean(REF_UNIT_S / statistics.median(units)
                                    for units in bins.values())
    raise RuntimeError("the host-speed probe took no sample near the interval")


def spawn(args, extra: list[str], tag: str, deadline: float) -> Operation:
    """Run one worker to completion and collect its JSON report."""
    out_dir = OUT / "runs" / f"{os.getpid()}-{tag}"
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--out", str(out_dir)]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + extra, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - t_spawn, 1.0))
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return Operation(None, None, f"killed at the run's {RUN_BUDGET_S} s budget")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        return Operation(None, None, f"worker exit {code}: {tail}")
    report = json.loads(lines[-1])
    if report.get("error"):
        print(stderr, file=sys.stderr, end="")
    return Operation((t_spawn, report["t_ready"]), report, None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="run on the self-test grid (32 harmonics, T = 0.5)")
    args = parser.parse_args()

    if not (ROOT / "src" / "mfpmp" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: {ROOT} is not a checkout of mfpmp (no src/mfpmp or configs/)",
              file=sys.stderr)
        return 2

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the workers and the probe inherit it
    t_start = time.monotonic()
    deadline = t_start + RUN_BUDGET_S
    ops: list[Operation] = []
    with HostProbe() as probe:
        while not ops or time.monotonic() - t_start < args.seconds:
            ops.append(spawn(args, [], f"op{len(ops)}", deadline))
        traced = spawn(args, ["--trace"], "traced", deadline) if args.trace else None
        setups = [spawn(args, ["--setup-only"], f"setup{i}", deadline)
                  for i in range(0 if args.trace else SETUP_SAMPLES)]
        samples = probe.stop()

    attempted = ops + ([traced] if traced else [])
    failed = [op for op in attempted if not op.ok]
    for op in failed + [op for op in setups if not op.ok]:
        print(f"perfbench: operation failed: {op.error}", file=sys.stderr)
    timed = [op for op in ops if "window" in op.report]
    if not timed or (traced is not None and "layers" not in traced.report):
        print("perfbench: no completed operation to report", file=sys.stderr)
        return 1

    def factor(span: tuple[float, float]) -> float:
        return speed_factor(samples, *span)

    print(f"perfbench {args.workload} seed {args.seed} on CPU {cpu}: "
          f"{len(attempted)} operations, {len(failed)} failed")
    for key, value in timed[0].report["facts"].items():
        print(f"  check {key}: {value}")
    walls = [op.report["wall_s"] for op in timed]
    factors = [factor(op.report["window"]) for op in timed]
    walls_ref = [wall * f for wall, f in zip(walls, factors)]
    slowdowns = [1.0 / f for f in factors]
    print(f"  host wall_s  {statistics.median(walls):.6g} s, slowdown "
          f"{statistics.median(slowdowns):.4g} against the reference speed "
          f"(median of {len(timed)}; {len(samples)} probe samples)")

    if traced is None:
        spans = [op.setup for op in setups + timed if op.setup is not None]
        values = {
            "setup_s": [(end - start) * factor((start, end)) for start, end in spans],
            "wall_ref_s": walls_ref,
            "peak_rss_mb": [op.report["peak_rss_mb"] for op in timed],
        }
        metrics = {}
        for name, vals in values.items():
            metrics[name] = {"value": statistics.median(vals), "unit": END_TO_END_UNITS[name]}
            print(f"  {name:12s} {metrics[name]['value']:.6g} {END_TO_END_UNITS[name]} "
                  f"(median of {len(vals)})")
    else:
        from tracing import METRICS, OVERHEAD_METRIC

        layers = traced.report["layers"]
        metrics = {name: {"value": layers[name], "unit": METRICS[name][0]}
                   for name in METRICS if name in layers}
        name, unit = OVERHEAD_METRIC
        traced_ref = traced.report["wall_s"] * factor(traced.report["window"])
        metrics[name] = {"value": traced_ref - statistics.median(walls_ref),
                         "unit": unit}
        for (name, unit), vals in zip(HOST_METRICS, (walls, slowdowns)):
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
        for name, m in metrics.items():
            print(f"  {name:26s} {m['value']:.6g} {m['unit']}")
        if traced.report["absent"]:
            print(f"  absent (wrapped name missing, or never called): {', '.join(traced.report['absent'])}")

    correct = not failed and all(op.ok for op in setups)
    print(json.dumps({
        "correct": correct,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
