"""Error types shared across the solver, mapped to CLI exit codes."""


class ConfigError(Exception):
    """Malformed or inconsistent run configuration (exit code 2)."""


class DivergenceError(RuntimeError):
    """A time integration blew up, usually a too-large step (exit code 3)."""
