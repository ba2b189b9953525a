"""Host-speed probe: a fixed NumPy kernel timed over and over, at idle priority.

    python3 perfbench/reference.py      # stop it with SIGTERM

perfbench/run.py starts one probe per run, on the same CPU as the workers,
and stops it at the end.  The probe runs under SCHED_IDLE, so it gets the
CPU only in the gaps the worker leaves: a fraction of a percent of it while
a worker computes.  Each time it runs, it times units of a fixed kernel in
its own CPU time.  On a shared host the speed of a CPU swings by tens of
percent for seconds at a time; the probe sees the same swings as the
worker it shares the CPU with, at the same moments.  It prints "ready"
once it has warmed up, and on SIGTERM one JSON list of [monotonic time,
CPU seconds of one unit]; then it exits.

The kernel uses NumPy alone, never mfpmp, so no change to the program can
change what a unit costs.  It mimics the program's mix: small complex
FFTs and elementwise updates driven from Python.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import numpy as np

SIZE = 129
STEPS = 4

_stop = False


def _on_term(_signum, _frame) -> None:
    global _stop
    _stop = True


def main() -> int:
    rng = np.random.default_rng(0)
    a0 = rng.standard_normal(SIZE) + 1j * rng.standard_normal(SIZE)
    a0 /= np.abs(a0).sum()
    v = np.exp(-np.abs(np.arange(SIZE) - SIZE // 2) / 10.0)

    def unit() -> None:
        a = a0
        for _ in range(STEPS):
            a = a + 1e-3 * np.fft.fft(np.fft.ifft(a) * np.fft.ifft(v * a))
        float(np.max(np.abs(a)))

    for _ in range(100):  # FFT plans and caches, before the first sample
        unit()
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    print("ready", flush=True)
    cpu, now = time.thread_time, time.monotonic
    parent = os.getppid()
    samples = []
    while not _stop:
        c0 = cpu()
        unit()
        samples.append((now(), cpu() - c0))
        if len(samples) % 512 == 0 and os.getppid() != parent:
            return 1  # the run died without stopping the probe
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _on_term)
    sys.exit(main())
