"""The stored forward trajectory: half rows cut after their last nonzero harmonic.

`conftest.pack` cuts dense rows; every reader hands back the rows, or
their columns, with the bits they had before the cut.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfpmp import TimeGrid, Trajectory, forward

from conftest import dense, pack

PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308]),
                  st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def half_rows(draw):
    """(grid, rows): mK + 1 half rows, each with a zero tail of random length, perhaps none."""
    grid = TimeGrid(draw(st.integers(1, 4)) * 0.5, 0.5)
    width = draw(st.integers(3, 9))
    n_rows = forward.SUBSTEPS * grid.n_steps + 1
    parts = draw(st.lists(PARTS, min_size=2 * n_rows * width, max_size=2 * n_rows * width))
    rows = np.array(parts).view(complex).reshape(n_rows, width)
    for row in rows:
        row[width - draw(st.integers(0, width)):] = 0.0
    return grid, rows


def last_nonzero_bits(row):
    """1 + the index of the last entry with a set bit (-0.0 counts), at least 1."""
    hits = np.flatnonzero((row.view(np.uint64) != 0).reshape(-1, 2).any(axis=1))
    return int(hits[-1]) + 1 if len(hits) else 1


class TestPack:
    @settings(max_examples=200, deadline=None)
    @given(half_rows())
    def test_the_readers_give_back_the_packed_rows_bitwise(self, case):
        grid, rows = case
        traj = pack(grid, rows)
        assert traj.rows(0, len(rows)).tobytes() == rows.tobytes()
        assert traj.terminal_field().tobytes() == rows[-1].tobytes()
        for n in range(rows.shape[1]):
            assert traj.column(n).tobytes() == rows[:, n].copy().tobytes()
        lo = len(rows) // 2
        out = np.full((len(rows) - lo, rows.shape[1]), np.nan, dtype=complex)
        assert traj.rows(lo, len(rows), out) is out
        assert out.tobytes() == rows[lo:].tobytes()
        # Each row keeps exactly its head up to the last nonzero bits.
        lengths = [last_nonzero_bits(row) for row in rows]
        assert traj.index[:, 1].tolist() == lengths
        assert traj.coeffs.size == sum(lengths)

    def test_interior_zeros_stay_and_only_the_tail_is_cut(self):
        grid = TimeGrid(0.5, 0.5)
        rows = np.zeros((3, 6), dtype=complex)
        rows[0, [0, 3]] = 1.0          # zeros between kept entries
        rows[1] = 2.0                  # a full-width row
        rows[2, 0], rows[2, 4] = 0.5, complex(-0.0, 0.0)  # -0.0 is not a zero of the cut
        traj = pack(grid, rows)
        assert traj.index[:, 1].tolist() == [4, 6, 5]
        assert traj.index[:, 0].tolist() == [0, 4, 10]
        assert traj.rows(0, 3).tobytes() == rows.tobytes()
        assert traj.n_modes == 10 and traj.width == 6

    def test_an_all_zero_row_keeps_one_entry(self):
        grid = TimeGrid(0.5, 0.5)
        rows = np.zeros((3, 4), dtype=complex)
        rows[1, 2] = 1j
        traj = pack(grid, rows)
        assert traj.index[:, 1].tolist() == [1, 3, 1]
        assert dense(traj).tobytes() == rows.tobytes()


class TestConstruction:
    grid = TimeGrid(0.5, 0.5)  # 3 sub-step nodes

    def test_a_consistent_index_is_accepted(self):
        coeffs = np.arange(7, dtype=complex)
        traj = Trajectory(self.grid, 2, 4, coeffs, [[0, 4], [4, 2], [6, 1]])
        assert traj.rows(0, 3).tolist() == [[0, 1, 2, 3], [4, 5, 0, 0], [6, 0, 0, 0]]
        assert traj.column(1).tolist() == [1, 5, 0]

    @pytest.mark.parametrize("index, match", [
        ([[0, 4], [4, 2]], "not every sub-step node: expected 3 rows, got 2"),
        ([[0, 4], [4, 0], [6, 1]], "1 .. width"),
        ([[0, 5], [4, 2], [6, 1]], "1 .. width"),
        ([[0, 4], [4, 2], [6, 2]], "inside the buffer"),
        ([[-1, 4], [4, 2], [6, 1]], "inside the buffer"),
    ], ids=["a-node-short", "empty-row", "wider-than-width", "past-the-end", "negative-offset"])
    def test_an_inconsistent_index_is_rejected(self, index, match):
        with pytest.raises(ValueError, match=match):
            Trajectory(self.grid, 2, 4, np.zeros(7, dtype=complex), index)

    @pytest.mark.parametrize("substeps", [0, -1, 2.0, "2", True])
    def test_substeps_is_a_positive_int(self, substeps):
        with pytest.raises(ValueError, match="substeps must be a positive int"):
            Trajectory(self.grid, substeps, 4, np.zeros(7, dtype=complex), [[0, 1]] * 3)

    def test_the_buffer_is_one_dimensional_and_rows_are_half_rows(self):
        with pytest.raises(ValueError, match="one buffer"):
            Trajectory(self.grid, 2, 4, np.zeros((3, 4), dtype=complex), [[0, 1]] * 3)
        with pytest.raises(ValueError, match="one buffer"):
            pack(self.grid, np.zeros((3, 2), dtype=complex))

    def test_readers_refuse_what_lies_outside(self):
        traj = pack(self.grid, np.ones((3, 4), dtype=complex))
        with pytest.raises(IndexError, match="outside"):
            traj.rows(1, 4)
        with pytest.raises(IndexError, match="outside"):
            traj.column(4)
        with pytest.raises(ValueError, match="C-ordered"):
            traj.rows(0, 2, np.empty((2, 5), dtype=complex))
        with pytest.raises(ValueError, match="C-ordered"):
            traj.rows(0, 2, np.empty((4, 2), dtype=complex).T)
