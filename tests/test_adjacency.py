import re

import numpy as np
import pytest

from listlbm import (
    STENCIL,
    DataError,
    LexBlocked,
    Morton,
    ProtocolError,
    Simulation,
    SparseRecords,
    TrtParams,
    VoxelGrid,
    chunk_ranges,
    make_channel,
    partition_stats,
    preprocess_grid,
    write_sparse,
)
from listlbm.adjacency import halo_exchange
from listlbm.geometry import RankBox, decompose_ranks
from listlbm.pipeline import contiguous_index_field
from conftest import ALL_SCHEMES, SCHEME_IDS, random_grid


def direction_index(v):
    hits = np.nonzero((STENCIL == np.asarray(v)).all(axis=1))[0]
    assert hits.size == 1
    return int(hits[0])


class TestStencil:
    def test_shape_and_range(self):
        assert STENCIL.shape == (18, 3)
        assert set(np.unique(STENCIL)) <= {-1, 0, 1}

    def test_opposites_pair_by_xor(self):
        for i in range(18):
            assert np.array_equal(STENCIL[i], -STENCIL[i ^ 1])

    def test_axis_and_diagonal_counts(self):
        norms = np.abs(STENCIL).sum(axis=1)
        assert (norms[:6] == 1).all()
        assert (norms[6:] == 2).all()

    def test_leading_directions(self):
        assert STENCIL[:4].tolist() == [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]

    def test_read_only(self):
        with pytest.raises(ValueError):
            STENCIL[0, 0] = 5


def records_for(grid, scheme=LexBlocked(1), nranks=1, periodic=(False, False, False)):
    _, records = preprocess_grid(grid, scheme, nranks=nranks, periodic=periodic)
    return records


class TestSmallDomains:
    def test_two_cell_line(self):
        grid = VoxelGrid(np.ones((1, 1, 2), dtype=bool))
        records = records_for(grid)
        first = records.nbr[0]
        assert first[direction_index((1, 0, 0))] == 2
        assert first.sum() == 2  # every other entry is 0

    def test_isolated_cell_has_no_links(self):
        flags = np.zeros((3, 3, 3), dtype=bool)
        flags[1, 1, 1] = True
        records = records_for(VoxelGrid(flags))
        assert not records.nbr.any()

    def test_periodic_single_cell_links_to_itself(self):
        grid = VoxelGrid(np.ones((1, 1, 1), dtype=bool))
        records = records_for(grid, periodic=(True, False, False))
        nbr = records.nbr[0]
        assert nbr[direction_index((1, 0, 0))] == 1
        assert nbr[direction_index((-1, 0, 0))] == 1
        assert nbr.sum() == 2

    def test_periodic_wrap_reaches_far_edge(self):
        grid = VoxelGrid(np.ones((1, 1, 4), dtype=bool))
        records = records_for(grid, periodic=(True, False, False))
        # lex order along x: Ic = x+1
        assert records.nbr[3][direction_index((1, 0, 0))] == 1
        assert records.nbr[0][direction_index((-1, 0, 0))] == 4

    def test_nonperiodic_edge_is_zero(self):
        grid = VoxelGrid(np.ones((1, 1, 4), dtype=bool))
        records = records_for(grid)
        assert records.nbr[3][direction_index((1, 0, 0))] == 0

    def test_interior_cell_sees_all_18(self):
        grid = VoxelGrid(np.ones((3, 3, 3), dtype=bool))
        records = records_for(grid)
        center = np.nonzero((records.coords == (1, 1, 1)).all(axis=1))[0][0]
        assert (records.nbr[center] > 0).all()


def assert_link_symmetry(records):
    n = len(records)
    ic = records.ic
    assert np.array_equal(np.sort(ic), np.arange(1, n + 1))
    nbr = records.nbr
    pos = np.empty(n + 1, dtype=np.int64)
    pos[ic] = np.arange(n)
    for i in range(18):
        target = nbr[:, i]
        mask = target > 0
        back = nbr[pos[target[mask]], i ^ 1]
        assert np.array_equal(back, ic[mask])


class TestSymmetryAndInvariance:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=SCHEME_IDS)
    def test_link_symmetry_random_grid(self, scheme):
        grid = random_grid(21, (9, 8, 10))
        records = records_for(grid, scheme, periodic=(True, False, True))
        assert_link_symmetry(records)

    # With every axis periodic, some boxes span a whole axis and wrap
    # onto themselves.
    @pytest.mark.parametrize("P, periodic", [
        pytest.param(P, periodic, id=f"{P}{tag}")
        for periodic, tag in (((False,) * 3, ""), ((True,) * 3, "-xyz"))
        for P in (2, 3, 8, 27)
    ])
    def test_rank_count_does_not_change_records(self, channel4, P, periodic):
        base = records_for(channel4, Morton(2), periodic=periodic)
        other = records_for(channel4, Morton(2), nranks=P, periodic=periodic)
        assert base.equals(other)

    def test_record_count_and_coverage(self, channel4):
        records = records_for(channel4, LexBlocked(4), nranks=3)
        assert len(records) == channel4.fluid_count
        assert np.array_equal(np.sort(records.ic), np.arange(1, len(records) + 1))


class TestHaloExchange:
    def test_single_rank_nonperiodic_halo_is_empty(self):
        grid = VoxelGrid(np.ones((4, 4, 4), dtype=bool))
        boxes = decompose_ranks(grid.dims, 1)
        ic = contiguous_index_field(grid, LexBlocked(1))
        (view,) = halo_exchange(grid, boxes, [ic])
        assert not view.ic[0, :, :].any() and not view.ic[-1, :, :].any()
        assert not view.ic[:, 0, :].any() and not view.ic[:, -1, :].any()
        assert not view.ic[:, :, 0].any() and not view.ic[:, :, -1].any()
        assert view.ic[1:-1, 1:-1, 1:-1].all()

    def test_interior_rank_sees_all_neighbors(self):
        grid = VoxelGrid(np.ones((6, 6, 6), dtype=bool))
        boxes = decompose_ranks(grid.dims, 27)  # 3x3x3 rank grid
        field = contiguous_index_field(grid, LexBlocked(1))
        parts = [field[b.lo[2]:b.hi[2], b.lo[1]:b.hi[1], b.lo[0]:b.hi[0]]
                 for b in boxes]
        views = halo_exchange(grid, boxes, parts)
        center = next(b for b in boxes if b.lo == (2, 2, 2))
        view = views[center.rank]
        assert view.ic.all()
        lo = np.array(center.lo)
        expect = field[lo[2] - 1:lo[2] + 3, lo[1] - 1:lo[1] + 3, lo[0] - 1:lo[0] + 3]
        assert np.array_equal(view.ic, expect)

    def test_periodic_halo_wraps(self):
        grid = VoxelGrid(np.ones((1, 1, 4), dtype=bool))
        boxes = decompose_ranks(grid.dims, 2)
        field = contiguous_index_field(grid, LexBlocked(1))
        parts = [field[:, :, b.lo[0]:b.hi[0]] for b in boxes]
        views = halo_exchange(grid, boxes, parts, periodic=(True, False, False))
        # rank 1 owns x in [2,4); with wrap its +x halo cell is x=0 (Ic 1)
        assert views[1].ic[1, 1, -1] == 1

    def test_shape_mismatch_rejected(self):
        grid = VoxelGrid(np.ones((1, 1, 4), dtype=bool))
        boxes = decompose_ranks(grid.dims, 2)
        bad = [np.zeros((1, 1, 3), dtype=np.uint64), np.zeros((1, 1, 2), dtype=np.uint64)]
        with pytest.raises(ProtocolError):
            halo_exchange(grid, boxes, bad)

    def test_box_past_grid_rejected(self):
        grid = VoxelGrid(np.ones((1, 1, 4), dtype=bool))
        box = RankBox(0, (0, 0, 0), (5, 1, 1))
        with pytest.raises(ProtocolError, match="reaches past the grid"):
            halo_exchange(grid, [box], [np.ones((1, 1, 5), dtype=np.uint64)])

    # On a 6-cell line, rank 1 holds [3,6) and rank 0 holds [0,4) or [0,2).
    @pytest.mark.parametrize("first_hi, cell, what", [
        (4, "(3, 0, 0)", "held by rank 1 and by another rank"),
        (2, "(2, 0, 0)", "held by no rank"),
    ], ids=["overlap", "gap"])
    def test_coverage_fault_names_the_cell(self, first_hi, cell, what):
        grid = VoxelGrid(np.ones((1, 1, 6), dtype=bool))
        field = contiguous_index_field(grid, LexBlocked(1))
        boxes = [RankBox(0, (0, 0, 0), (first_hi, 1, 1)), RankBox(1, (3, 0, 0), (6, 1, 1))]
        parts = [field[:, :, b.lo[0]:b.hi[0]] for b in boxes]
        with pytest.raises(ProtocolError, match=re.escape(f"cell {cell} is {what}")):
            halo_exchange(grid, boxes, parts)


def _drop_last(r):
    return SparseRecords(r.coords[:-1], r.ic[:-1], r.nbr[:-1]), len(r)


def _set_ic(r, at, value):
    ic = r.ic.copy()
    ic[at] = value
    return SparseRecords(r.coords, ic, r.nbr), at + 1


def _missing(r):
    ic = r.ic.copy()
    ic[4:] += 1
    return SparseRecords(r.coords, ic, r.nbr), 5


def _shuffled(r):
    idx = np.arange(len(r))
    idx[[6, 7]] = idx[[7, 6]]
    return SparseRecords(r.coords[idx], r.ic[idx], r.nbr[idx]), 7


def _set_nbr(r, at, i, value):
    nbr = r.nbr.copy()
    nbr[at, i] = value
    return SparseRecords(r.coords, r.ic, nbr), at + 1


# each fault maps the valid records to (faulty records, first failing I_c)
RECORD_FAULTS = {
    "count": _drop_last,
    "duplicate": lambda r: _set_ic(r, 4, 4),
    "missing": _missing,
    "shuffled": _shuffled,
    "above-N_f": lambda r: _set_nbr(r, 4, 7, len(r) + 1),
    "one-way-link": lambda r: _set_nbr(r, 9, 0, 10),  # +x of I_c=10 points at itself
}


def _write(header, records, tmp_path):
    path = tmp_path / "bad.sprs"
    try:
        write_sparse(path, records, header)
    finally:
        assert not path.exists()


ENTRY_POINTS = {
    "write_sparse": _write,
    "partition_stats": lambda h, r, _: partition_stats(r, chunk_ranges(h.n_fluid, 3)),
    "Simulation": lambda h, r, _: Simulation(h, r, nparts=2, params=TrtParams(tau_plus=0.8)),
}


class TestRecordValidator:
    @pytest.fixture(scope="class")
    def channel6_sparse(self):
        return preprocess_grid(make_channel(6), LexBlocked(1), periodic=(True, False, False))

    @pytest.mark.parametrize("fault,entry", [
        (f, e) for f in RECORD_FAULTS for e in ENTRY_POINTS
        if f != "one-way-link" or e == "Simulation"  # the one symmetry pass
    ])
    def test_each_rule_names_the_first_failing_cell(self, channel6_sparse, tmp_path,
                                                    fault, entry):
        """Every in-memory entry point raises DataError whose first I_c
        is the first failing cell."""
        header, records = channel6_sparse
        bad, ic = RECORD_FAULTS[fault](records)
        with pytest.raises(DataError) as info:
            ENTRY_POINTS[entry](header, bad, tmp_path)
        assert re.search(r"I_c=(\d+)", str(info.value)).group(1) == str(ic), info.value
