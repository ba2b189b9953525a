"""Named presets for the synchronization experiment."""

from __future__ import annotations

import numpy as np

from .spectral import FourierField
from .timegrid import ControlSignal, TimeGrid, sampled_control


def fig1_density(n_modes: int) -> FourierField:
    """Initial density (2 + sin x + 0.8 cos 2x - 0.2 sin 2x) / (4*pi)."""
    c = np.zeros(n_modes + 1, dtype=complex)
    center = n_modes // 2
    for n, v in enumerate([1.0 / (2.0 * np.pi), -0.125j / np.pi, (0.4 + 0.1j) / (4.0 * np.pi)]):
        c[center + n] = v
        c[center - n] = np.conj(v)
    return FourierField(n_modes, c)


def fig1_control(grid: TimeGrid) -> ControlSignal:
    """Initial control (sqrt(2) sin(2*pi*t), sqrt(2) cos(2*pi*t))."""
    r = np.sqrt(2.0)
    return sampled_control(
        grid, lambda t: (r * np.sin(2.0 * np.pi * t), r * np.cos(2.0 * np.pi * t))
    )
