"""The benchmark's tracer finds every program name it wraps."""

import importlib.util
from pathlib import Path

from mfpmp import adjoint, cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_wrapped_name_resolves():
    # A renamed or removed name drops the metrics built on its spans.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer("t")
    try:
        tracer.install()
        assert tracer.missing == set()
        assert cli.integrate_backward is not adjoint.integrate_backward  # wrapped
    finally:
        tracer.uninstall()
    assert cli.integrate_backward is adjoint.integrate_backward
