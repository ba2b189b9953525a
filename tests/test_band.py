"""Both marches step only the band of harmonics a state can reach, with the bits of full width.

A state's columns past its band hold exact zeros, which `forward._settle`
stores as +0.0 whatever sign the full-width arithmetic gave them, so a
march on the band has the bits of a march over every column.  The
literal references march every column (`conftest.full_width_march`,
`conftest.full_width_adjoint`).
"""

import numpy as np
import pytest

from mfpmp import (CoTrajectory, TimeGrid, ball, fig1_control, integrate_backward,
                   integrate_forward, kuramoto_model, switching_function)
from mfpmp import adjoint, forward

from conftest import fig1_row, full_width_adjoint, full_width_march, pack, random_hermitian

N_MODES = 2048
WIDTH = N_MODES // 2 + 1


def step_sizes(monkeypatch):
    """{name of the `rhs`: flat sizes} of every `Workspace.step` from here on.

    The forward march's right-hand side is `rhs`, the adjoint's are
    `quarter_rhs` (its quarter-step blocks) and `back_rhs`.
    """
    widths = {}
    step = forward.Workspace.step

    def spy(self, a, h, rhs, out):
        widths.setdefault(rhs.__name__, []).append(a.size)
        return step(self, a, h, rhs, out)

    monkeypatch.setattr(forward.Workspace, "step", spy)
    return widths


@pytest.fixture(scope="module")
def short_full_scale():
    """The fig1 problem at 2048 harmonics, tau 1e-3 and T = 0.05 (100 half steps)."""
    grid = TimeGrid(0.05, 1e-3)
    model = kuramoto_model(0.0, np.pi, control_set=ball(np.sqrt(2.0)))
    return grid, model, fig1_control(grid)


@pytest.fixture(scope="module")
def literal_gradient(short_full_scale):
    """Dense forward rows and the co-density at every full node, marched on every column."""
    grid, model, u = short_full_scale
    rows = full_width_march(fig1_row(N_MODES), u.values[:-1], grid, model)
    return rows, full_width_adjoint(rows, u.values[:-1], grid, model)


class TestFullScaleBand:
    """At 2048 harmonics the fig1 density starts on a band of 16 columns (its harmonics 0 .. 2)."""

    keep = (0.0, 0.01, 0.025, 0.05)

    def solve(self, short_full_scale):
        grid, model, u = short_full_scale
        traj = integrate_forward(fig1_row(N_MODES), u, model, grid)
        return traj, integrate_backward(traj, u, model, keep=self.keep)

    def test_the_stored_trajectory_equals_the_full_width_march(self, short_full_scale,
                                                               literal_gradient):
        traj, _ = self.solve(short_full_scale)
        want = pack(short_full_scale[0], literal_gradient[0])
        assert traj.index.tobytes() == want.index.tobytes()
        assert traj.coeffs.tobytes() == want.coeffs.tobytes()

    def test_the_co_trajectory_equals_the_full_width_march(self, short_full_scale,
                                                           literal_gradient):
        grid = short_full_scale[0]
        _, cotraj = self.solve(short_full_scale)
        co = literal_gradient[1]
        nodes = [grid.nearest_node(t) for t in self.keep]
        assert cotraj.nodes == tuple(nodes)
        assert cotraj.coeffs.tobytes() == co[nodes].tobytes()
        assert cotraj.head.tobytes() == np.ascontiguousarray(co[:, :2]).tobytes()
        assert cotraj.scale.tobytes() == np.abs(co).max(axis=1).tobytes()
        assert cotraj.tail.tobytes() == np.abs(co[:, -1]).tobytes()

    def test_the_switching_values_equal_the_full_width_march(self, short_full_scale,
                                                             literal_gradient):
        grid, model, _ = short_full_scale
        traj, cotraj = self.solve(short_full_scale)
        rows, co = literal_gradient
        literal = CoTrajectory(grid, N_MODES, np.ascontiguousarray(co[:, :2]),
                               np.abs(co).max(axis=1), np.abs(co[:, -1]), (0,), co[:1])
        want = switching_function(pack(grid, rows), literal, model)
        assert switching_function(traj, cotraj, model).values.tobytes() == want.values.tobytes()

    def test_past_the_band_the_tail_is_zero_and_kept_rows_are_zero_padded(self,
                                                                          short_full_scale):
        _, cotraj = self.solve(short_full_scale)
        assert cotraj.tail.tobytes() == np.zeros_like(cotraj.tail).tobytes()  # +0.0 exactly
        reach = (cotraj.coeffs.view(np.uint64) != 0).reshape(len(cotraj.nodes), WIDTH, 2)
        last = WIDTH - 1 - reach.any(axis=(0, 2))[::-1].argmax()
        assert last < WIDTH // 2  # the band stops well short of N/2
        assert cotraj.coeffs[:, last + 1:].tobytes() == bytes(16 * 4 * (WIDTH - last - 1))

    def test_the_marches_step_fewer_columns_than_the_row(self, short_full_scale, monkeypatch):
        # A silent fallback to full width would step 1025 columns.
        sizes = step_sizes(monkeypatch)
        traj, _ = self.solve(short_full_scale)
        march, back = sizes["rhs"], sizes["back_rhs"]
        # Quarter-step blocks are sized by the widest band the trajectory
        # keeps, and capped: 7 blocks of 16 rows, the last recomputing 12
        # rows of the one above.
        wide = forward.band(int(traj.index[:, 1].max()), WIDTH)
        block = min(forward.batch_rows(wide), adjoint._BLOCK_ROWS)
        assert wide < WIDTH and block == 16
        quarter = [size // block for size in sizes["quarter_rhs"]]
        assert len(march) == len(back) == 100 and len(quarter) == 7
        assert march[0] == 16 and march == sorted(march)  # the density only spreads here
        assert max(march) < WIDTH and max(quarter) <= wide and max(back) < WIDTH
        # b's band covers the source from the forward rows of its block.
        assert all(b > quarter[j // block] or b == WIDTH for j, b in enumerate(back))


def recorder(marks):
    """A `forward._march` record keeping every recorded node, zero-padded, in marks[i]."""
    def record(i, a, flushed):
        assert flushed.tobytes() == (a.view(float) == 0.0).tobytes()  # the band's own mask
        marks[i, :, :a.shape[1]] = a
    return record


def banded_rows(full_row):
    """Initial rows and their controls (150 full steps, 300 half steps of 2.5e-3).

    Row 0 is the fig1 density under coupling, narrow and spreading.  Row 1
    carries a harmonic of 1e-140 at n = 700: under coupling its band
    widens, then a rotation that RK4 damps by about half a step at that
    harmonic, with no coupling, flushes it, and the band narrows to row 0's.
    With `full_row`, row 2 reaches N/2 and holds the state at full width.
    """
    rho = fig1_row(N_MODES)
    high = np.zeros(WIDTH, dtype=complex)
    high[[0, 1, 700]] = 1.0 / (2.0 * np.pi), 0.05, 1e-140
    rows = [rho, high]
    u = np.empty((150, 3 if full_row else 2, 2))
    u[:, 0] = 0.3, 1.0
    u[:20, 1], u[20:, 1] = (0.0, 1.0), (1.4, 0.0)
    if full_row:
        edge = rho.copy()
        edge[-1] = 1e-3
        rows.append(edge)
        u[:, 2] = 0.5, 0.5
    return np.stack(rows), u


class TestRepack:
    """The flat state of several rows moves to a new width, both ways, and keeps every bit."""

    grid, every = TimeGrid(5e-3, 5e-3), 30  # `_march` reads only tau and m of its grid

    @pytest.mark.parametrize("full_row", [False, True], ids=["widen-then-narrow", "full"])
    def test_rows_of_different_bands_equal_their_one_row_marches(self, full_row, monkeypatch):
        model = kuramoto_model(0.0, np.pi, control_set=ball(np.sqrt(2.0)))
        a0, u = banded_rows(full_row)
        n_rows = len(a0)
        marks = np.zeros((11, n_rows, WIDTH), dtype=complex)
        sizes = step_sizes(monkeypatch)
        end = forward._march(a0, u, self.grid, model, recorder(marks), every=self.every)
        bands = [size // n_rows for size in sizes.pop("rhs")]
        if full_row:
            assert set(bands) == {WIDTH}
        else:
            peak = bands.index(max(bands))
            assert bands[0] < bands[peak] < WIDTH  # widens ..
            assert min(bands[peak:]) < bands[peak] // 2  # .. and narrows
        for r in range(n_rows):
            one = np.zeros((11, 1, WIDTH), dtype=complex)
            want = forward._march(a0[r:r + 1], u[:, r:r + 1], self.grid, model, recorder(one),
                                  every=self.every)
            assert end[r].tobytes() == want[0].tobytes()
            assert marks[:, r].tobytes() == one[:, 0].tobytes()
            literal = full_width_march(a0[r], u[:, r], self.grid, model)
            assert end[r].tobytes() == literal[-1].tobytes()
            assert marks[:, r].tobytes() == literal[::self.every].tobytes()


@pytest.mark.parametrize("alpha", [0.0, 0.31])
def test_a_narrower_forward_row_reads_as_its_zero_padding(alpha, rng):
    # On a band, b is wider than the forward rows it reads, and the source
    # reaches from their last column one harmonic past it.
    model = kuramoto_model(alpha, np.pi, control_set=ball(2.0))
    b = random_hermitian(78, rng, scale=0.3, mass=0.2)  # 40 columns
    a = random_hermitian(46, rng)  # 24 columns, the last nonzero
    padded = np.zeros_like(b)
    padded[:len(a)] = a
    u = np.array([0.6, -1.1])
    stencil = adjoint._stencil(len(b), model)
    got, want = (adjoint._rhs(b, row, u, model, stencil, np.empty_like(b)) for row in (a, padded))
    assert a[-1] != 0.0 and got.tobytes() == want.tobytes()
