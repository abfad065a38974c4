"""Tests for tiling schedules, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import (
    ElementOrder,
    MatrixSchedule,
    TileOrder,
    VectorSchedule,
    col_tiles,
    row_tiles,
)


def _dims():
    """Strategy: (rows, cols, tile_rows, tile_cols) with exact divisibility."""
    return st.tuples(
        st.integers(1, 4), st.integers(1, 4),
        st.integers(1, 4), st.integers(1, 4),
    ).map(lambda t: (t[0] * t[2], t[1] * t[3], t[2], t[3]))


class TestGeometry:
    def test_grid_counts(self):
        s = row_tiles(8, 12, 4, 6)
        assert s.grid_rows == 2 and s.grid_cols == 2
        assert s.num_tiles == 4
        assert s.elements_per_tile == 24
        assert s.num_elements == 96

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            MatrixSchedule(10, 10, 3, 5)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            MatrixSchedule(0, 4, 1, 1)
        with pytest.raises(ValueError):
            MatrixSchedule(4, 4, 0, 1)


class TestOrders:
    def test_row_tiles_row_major_small(self):
        # 2x2 tiles of a 2x4 matrix:
        # [0 1 | 2 3]
        # [4 5 | 6 7]
        s = row_tiles(2, 4, 2, 2)
        assert list(s.indices()) == [0, 1, 4, 5, 2, 3, 6, 7]

    def test_col_tiles_visits_tile_columns_first(self):
        s = col_tiles(4, 4, 2, 2)
        idx = list(s.indices())
        # first two tiles cover the left half of the matrix
        first_half = set(idx[:8])
        assert first_half == {0, 1, 4, 5, 8, 9, 12, 13}

    def test_col_major_elements(self):
        s = MatrixSchedule(2, 2, 2, 2, TileOrder.BY_ROWS,
                           ElementOrder.COL_MAJOR)
        assert list(s.indices()) == [0, 2, 1, 3]

    def test_fig2_arrival_order_rows(self):
        """Fig. 2 left: full tile rows arrive before the next tile row."""
        s = row_tiles(4, 4, 2, 2)
        idx = list(s.indices())
        top = {r * 4 + c for r in range(2) for c in range(4)}
        assert set(idx[:8]) == top


class TestProperties:
    @settings(max_examples=60)
    @given(_dims(), st.sampled_from(list(TileOrder)),
           st.sampled_from(list(ElementOrder)))
    def test_schedule_is_a_permutation(self, dims, torder, eorder):
        n, m, tn, tm = dims
        s = MatrixSchedule(n, m, tn, tm, torder, eorder)
        idx = list(s.indices())
        assert sorted(idx) == list(range(n * m))

    @settings(max_examples=60)
    @given(_dims())
    def test_transposed_schedule_same_wire_traffic(self, dims):
        """Streaming A in schedule s == streaming A^T in s.transposed().

        This is the property BICG relies on to share one read of A between
        GEMV and GEMV^T (Sec. V-A).
        """
        n, m, tn, tm = dims
        s = row_tiles(n, m, tn, tm)
        st_ = s.transposed()
        a = np.arange(n * m).reshape(n, m)
        at = a.T
        wire1 = [a.flat[i] for i in s.indices()]
        wire2 = [at.flat[i] for i in st_.indices()]
        assert wire1 == wire2

    @settings(max_examples=30)
    @given(_dims())
    def test_tiles_cover_matrix_disjointly(self, dims):
        n, m, tn, tm = dims
        s = row_tiles(n, m, tn, tm)
        seen = set()
        for ti, tj in s.tiles():
            elems = set(s.tile_elements(ti, tj))
            assert not (elems & seen)
            seen |= elems
        assert seen == set(range(n * m))

    def test_descriptor_distinguishes_modes(self):
        a = row_tiles(4, 4, 2, 2).descriptor()
        b = col_tiles(4, 4, 2, 2).descriptor()
        assert a != b


class TestVectorSchedule:
    def test_replay(self):
        v = VectorSchedule(3, replay=2)
        assert list(v.indices()) == [0, 1, 2, 0, 1, 2]
        assert v.total_elements == 6

    def test_block_divisibility(self):
        with pytest.raises(ValueError):
            VectorSchedule(10, block=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            VectorSchedule(0)
        with pytest.raises(ValueError):
            VectorSchedule(4, replay=0)


def _brute_break(flat, length, template, p):
    """First junction position after ``p`` whose contiguity differs from
    the template, by brute force over the materialised order."""
    for q in range(p // length + 1, len(flat) // length):
        if (flat[q * length] == flat[q * length - 1] + 1) != template:
            return q * length
    return len(flat)


class TestRunForm:
    """``MatrixSchedule.indices()`` is a :class:`RunOrder`: equal-length
    contiguous runs whose starts are an affine nest, O(1) memory."""

    @settings(max_examples=150, deadline=None)
    @given(_dims(), st.sampled_from(list(TileOrder)),
           st.sampled_from(list(ElementOrder)))
    def test_runs_reproduce_indices_iter(self, dims, tile_order, elem_order):
        s = MatrixSchedule(*dims, tile_order, elem_order)
        runs = s.indices()
        flat = list(s._indices_iter())
        assert list(runs) == flat and len(runs) == len(flat)
        assert len(runs) == runs.length * runs.count
        for q in range(runs.count):
            start = runs.start(q)
            assert flat[q * runs.length:(q + 1) * runs.length] == \
                list(range(start, start + runs.length))
        assert runs.starts(0, runs.count).tolist() == \
            flat[::runs.length]

    @settings(max_examples=80, deadline=None)
    @given(_dims(), st.sampled_from(list(TileOrder)),
           st.sampled_from(list(ElementOrder)), st.integers(1, 9))
    def test_bursts_contiguity_and_breaks(self, dims, tile_order,
                                          elem_order, burst):
        s = MatrixSchedule(*dims, tile_order, elem_order)
        runs = s.indices()
        flat = list(s._indices_iter())
        data = np.arange(len(flat)) * 3
        for p0 in range(len(flat)):
            p1 = min(len(flat), p0 + burst)
            seg = flat[p0:p1]
            assert runs.contiguous(p0, p1) == all(
                b == a + 1 for a, b in zip(seg, seg[1:]))
            assert runs.take(data, p0, p1).tolist() == \
                [data[i] for i in seg]
            assert runs.next_break(p0) == _brute_break(
                flat, runs.length, runs.template, p0)

    def test_run_lengths(self):
        assert row_tiles(8, 8, 4, 8).indices().count == 1      # linear
        tiled = row_tiles(512, 512, 64, 64).indices()
        assert (tiled.length, tiled.count) == (64, 4096)
        assert not tiled.template
        # The junction from the last tile of a tile row to the next tile
        # row is contiguous: the only breaks are the tile-row ends.
        assert tiled.next_break(0) == 512 * 64
        col = row_tiles(8, 8, 4, 4, ElementOrder.COL_MAJOR).indices()
        assert col.length == 1

    @pytest.mark.parametrize("order", [
        range(3, 40, 3), range(20, -1, -2), range(5, 9),
        [0, 1, 2, 5, 6, 7, 10, 11, 12], [3, 4, 9, 10, 11, 12, 0, 1],
        np.array([7, 8, 9, 1, 2]), [], [4],
    ])
    def test_any_order(self, order):
        from repro.fpga.runs import RunOrder

        runs = RunOrder.of(order)
        assert list(runs) == [int(i) for i in order]
        assert RunOrder.of(runs) is runs

    def test_large_schedule_holds_no_index_array(self):
        """A 16K x 16K schedule is described, not materialised."""
        s = row_tiles(16384, 16384, 64, 64)
        runs = s.indices()
        assert runs._starts is None and runs.count == 16384 * 256
        assert runs.start(runs.count - 1) == (16384 - 1) * 16384 + 16384 - 64
