"""The sub-step lattice: the forward march takes m = `forward.SUBSTEPS`, and every reader
takes it from the stored solve (`Trajectory.substeps`).

Every shipped run has m = 2.  These tests patch the constant to other
values, the way other tests patch `forward.BATCH_COEFFS`, so that a reader
that still assumes two RK4 steps per control step, or reads the module's m
in place of the trajectory's, shows.
"""

import json

import numpy as np
import pytest

from mfpmp import (ControlSignal, TimeGrid, ball, cost_of_control, integrate_backward,
                   integrate_forward, kuramoto_model)
from mfpmp import forward
from mfpmp.checks import local_adjoint_check, meanfield_vs_particles
from mfpmp.cli import main
from mfpmp.descent import switching_function

from conftest import dense, fig1_row, full_width_adjoint, full_width_march


def use_substeps(monkeypatch, m):
    monkeypatch.setattr(forward, "SUBSTEPS", m)


def lattice_setup():
    """T 0.5, tau 5e-3, 64 modes, alpha 0.31, and a control that moves both channels."""
    grid = TimeGrid(0.5, 5e-3)
    model = kuramoto_model(0.31, np.pi, control_set=ball(2.0))
    t = grid.full_times()
    u = ControlSignal(grid, np.column_stack([np.sin(3 * t), 0.9 * np.cos(t)]))
    return fig1_row(64), grid, model, u


@pytest.mark.parametrize("m", [3, 4])
def test_both_marches_keep_their_contracts_on_m_sub_steps(m, monkeypatch):
    use_substeps(monkeypatch, m)
    rho, grid, model, u = lattice_setup()
    cold = integrate_forward(rho, u, model, grid)
    assert cold.substeps == m and len(cold.index) == m * grid.n_steps + 1
    literal = full_width_march(rho, u.values[:-1], grid, model)
    assert dense(cold).tobytes() == literal.tobytes()
    for rows in (None, 7):  # S = K segments of one control step each, then S = 5
        if rows is not None:
            monkeypatch.setattr(forward, "BATCH_COEFFS", rows * cold.width)
        (cost,), (starts,) = cost_of_control(rho, [u], model, grid)
        assert len(starts.states) == (grid.n_steps if rows is None else 5)
        resumed = integrate_forward(rho, u, model, grid, starts)
        assert dense(resumed).tobytes() == dense(cold).tobytes()
        assert cost.hex() == model.cost.eval(resumed.terminal_field()).hex()
    cotraj = integrate_backward(cold, u, model, keep=grid.full_times())
    want = full_width_adjoint(dense(cold), u.values[:-1], grid, model)
    assert cotraj.coeffs.tobytes() == want.tobytes()


def full_node_readings(rho, u, model, grid):
    """The cost, the particle oracle's moment gaps and d(t): what reads the full nodes."""
    traj = integrate_forward(rho, u, model, grid)
    d = switching_function(traj, integrate_backward(traj, u, model), model)
    runs = meanfield_vs_particles(traj, u, model, [100], 1.0)["runs"]
    gaps = [gap for entry in runs["100"]["per_time"].values() for gap in entry.values()]
    return np.array([model.cost.eval(traj.terminal_field()), *gaps]), d.values


@pytest.mark.parametrize("m", [3, 4])
def test_the_full_node_readers_agree_with_two_sub_steps_to_the_step_error(m, monkeypatch):
    # A reader taking every second sub-step node would be off by O(tau) here.
    rho, grid, model, u = lattice_setup()
    two = full_node_readings(rho, u, model, grid)
    use_substeps(monkeypatch, m)
    for got, want in zip(full_node_readings(rho, u, model, grid), two):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10


def test_the_readers_take_m_from_the_trajectory_not_from_the_module(monkeypatch):
    # A solve marched at m = 3 reads back with the bits it gave at 3 after
    # the module's m is set back to 2.
    rho, grid, model, u = lattice_setup()
    use_substeps(monkeypatch, 3)
    traj = integrate_forward(rho, u, model, grid)
    assert traj.substeps == 3

    def readings():
        cotraj = integrate_backward(traj, u, model, keep=grid.full_times())
        d = switching_function(traj, cotraj, model)
        report = meanfield_vs_particles(traj, u, model, [100], 1.0)
        return cotraj.coeffs.tobytes(), d.values.tobytes(), json.dumps(report)

    at_three = readings()
    use_substeps(monkeypatch, 2)
    assert readings() == at_three


def test_the_closed_form_error_falls_as_the_fourth_power_of_the_sub_step(monkeypatch):
    grid = TimeGrid(1.0, 0.05)
    u1 = 3.0 * np.sin(1.7 * grid.full_times()) + 2.0
    errors = {}
    for m in (2, 3, 4):
        use_substeps(monkeypatch, m)
        errors[m] = local_adjoint_check(u1, fig1_row(32), np.pi, grid, 1.0)["max_error"]
    assert errors[2] > errors[3] > errors[4]
    assert np.log(errors[2] / errors[4]) / np.log(2.0) >= 3.7


@pytest.mark.parametrize("m, node", [(3, 1), (4, 2)])
def test_density_snapshots_land_on_the_sub_step_lattice(m, node, tmp_path, monkeypatch):
    # t = 0.0025 lies midway between the sub-step nodes 1 and 2 at m = 3 and
    # goes to the earlier one; at m = 4 it is node 2.  The co-density keeps
    # its full nodes.
    use_substeps(monkeypatch, m)
    out = tmp_path / "out"
    doc = {"command": "solve-adjoint",
           "model": {"alpha": 0.0, "x0": np.pi,
                     "constraint": {"kind": "ball", "radius": np.sqrt(2.0)}},
           "grid": {"T": 0.1, "tau": 0.005, "n_modes": 32},
           "initial_density": "fig1", "initial_control": "fig1",
           "output_dir": str(out), "snapshot_times": [0.0, 0.0025, 0.1]}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert main(["solve-adjoint", "--config", str(path)]) == 0

    def times(name):
        lines = (out / name).read_text().splitlines()[1:]
        return sorted({float(line.split(",")[0]) for line in lines})

    h = 0.005 / m
    assert times("density_snapshots.csv") == [0.0, node * h, 20 * m * h]
    assert times("adjoint_snapshots.csv") == [0.0, 0.1]
