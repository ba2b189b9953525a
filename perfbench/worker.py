"""One benchmark operation, in a fresh Python process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace] [--setup-only] [--tiny]

Set-up imports mfpmp from the checkout's `src/`, builds the workload's
config for the seed and parses it with presets expanded.  It ends just
before the first solver call, where the worker reads `time.monotonic()`;
the parent read the same clock before starting the process, so the
difference is the set-up time from process start.  The worker then runs
the workload once, checks its output and prints one JSON line.  It gives
the operation's start and end on the same clock, so the parent can match
them with the host-speed probe's samples (perfbench/reference.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _per_call_us(call, batches: int = 7, batch_s: float = 0.03) -> float:
    """Median microseconds per call over batches of about batch_s seconds."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            call()
        if time.perf_counter() - t0 >= batch_s:
            break
        n *= 2
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            call()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def rhs_us(config) -> dict:
    """Cost of one public RHS call at the workload's resolution."""
    import mfpmp.adjoint
    import mfpmp.forward

    a, model = config.rho0, config.model
    u = config.u0.values[0]
    b = mfpmp.adjoint.terminal_adjoint(a, model)
    return {
        "forward": _per_call_us(lambda: mfpmp.forward.rhs_continuity(0.0, a, u, model)),
        "adjoint": _per_call_us(lambda: mfpmp.adjoint.rhs_adjoint(0.0, b, a, u, model)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    import mfpmp
    import mfpmp.config

    if ROOT / "src" not in Path(mfpmp.__file__).resolve().parents:
        print(f"mfpmp was imported from {mfpmp.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}/seed{args.seed}/{time.time_ns()}")
        tracer.install()
    doc = workloads.config_doc(ROOT, args.workload, args.seed, args.out, args.tiny)
    config = mfpmp.config.parse_config_dict(doc)
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready, "ok": True}))
        return 0

    expected = None
    if not args.tiny:
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())[args.workload]
    result = {"t_ready": t_ready, "ok": False, "error": None, "facts": {}}
    try:
        t0 = time.monotonic()
        try:
            if tracer is None:
                outcome = workloads.run(args.workload, config)
            else:
                with tracer.root():
                    outcome = workloads.run(args.workload, config)
        finally:  # a failed operation is timed too, and reported as failed
            t1 = time.monotonic()
            result["wall_s"] = t1 - t0
            result["window"] = [t0, t1]
            if tracer is not None:
                tracer.uninstall()
        result["facts"] = workloads.check(args.workload, args.seed, config, outcome, expected)
        result["ok"] = True
    except Exception as exc:  # the operation failed; report it, do not crash the run
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer is not None:
        extra = {"rhs_us": rhs_us(config)}
        result["layers"], result["absent"] = tracing.derive(tracer, extra)
        tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
