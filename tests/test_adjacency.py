import re
import tracemalloc

import numpy as np
import pytest

from listlbm import (
    STENCIL,
    DataError,
    LexBlocked,
    Morton,
    ParameterError,
    ProtocolError,
    Simulation,
    SparseHeader,
    SparseRecords,
    TrtParams,
    VoxelGrid,
    chunk_ranges,
    make_channel,
    make_packing,
    partition_stats,
    preprocess_grid,
    serial_oracle,
    write_sparse,
)
from listlbm import adjacency
from listlbm.adjacency import HaloView, build_adjacency, check_links, check_records, halo_exchange
from listlbm.geometry import RankBox, decompose_ranks
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
        ic = serial_oracle(grid, LexBlocked(1))
        (view,) = halo_exchange(grid, boxes, [ic])
        assert not view.ic[0, :, :].any() and not view.ic[-1, :, :].any()
        assert not view.ic[:, 0, :].any() and not view.ic[:, -1, :].any()
        assert not view.ic[:, :, 0].any() and not view.ic[:, :, -1].any()
        assert view.ic[1:-1, 1:-1, 1:-1].all()

    def test_interior_rank_sees_all_neighbors(self):
        grid = VoxelGrid(np.ones((6, 6, 6), dtype=bool))
        boxes = decompose_ranks(grid.dims, 27)  # 3x3x3 rank grid
        field = serial_oracle(grid, LexBlocked(1))
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
        field = serial_oracle(grid, LexBlocked(1))
        parts = [field[:, :, b.lo[0]:b.hi[0]] for b in boxes]
        views = halo_exchange(grid, boxes, parts, periodic=(True, False, False))
        # rank 1 owns x in [2,4); with wrap its +x halo cell is x=0 (Ic 1)
        assert views[1].ic[1, 1, -1] == 1

    # each view is the padded box of the oracle field: pads wrap on the
    # periodic axes and hold 0 elsewhere, on faces, edges and corners
    @pytest.mark.parametrize("P", [1, 8, 27, 64])
    @pytest.mark.parametrize("axes", ["", "x", "xyz"], ids=["none", "x", "xyz"])
    def test_every_pad_matches_the_padded_oracle(self, P, axes):
        grid = random_grid(17, (7, 5, 6), fluid_fraction=0.7)
        field = serial_oracle(grid, Morton(2))
        periodic = tuple(a in axes for a in "xyz")
        zyx = periodic[::-1]
        padded = np.pad(field, [(1, 1) if p else (0, 0) for p in zyx], mode="wrap")
        padded = np.pad(padded, [(0, 0) if p else (1, 1) for p in zyx])
        boxes = decompose_ranks(grid.dims, P)
        parts = [field[b.lo[2]:b.hi[2], b.lo[1]:b.hi[1], b.lo[0]:b.hi[0]] for b in boxes]
        views = halo_exchange(grid, boxes, parts, periodic=periodic)
        assert len(views) == P
        for b, view in zip(boxes, views):
            assert view.box == b and view.ic.flags.c_contiguous
            want = padded[b.lo[2]:b.hi[2] + 2, b.lo[1]:b.hi[1] + 2, b.lo[0]:b.hi[0] + 2]
            assert np.array_equal(view.ic, want), b

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
        field = serial_oracle(grid, LexBlocked(1))
        boxes = [RankBox(0, (0, 0, 0), (first_hi, 1, 1)), RankBox(1, (3, 0, 0), (6, 1, 1))]
        parts = [field[:, :, b.lo[0]:b.hi[0]] for b in boxes]
        with pytest.raises(ProtocolError, match=re.escape(f"cell {cell} is {what}")):
            halo_exchange(grid, boxes, parts)


class TestPlacement:
    """`SparseRecords.concat` puts each batch row at row I_c - 1, and
    `build_adjacency(halo, out)` each record it builds."""

    @staticmethod
    def split(records, seed, pieces=5):
        """The records shuffled and cut into `pieces` batches."""
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.choice(np.arange(1, len(records)), pieces - 1, replace=False))
        return [SparseRecords(records.coords[i], records.ic[i], records.nbr[i])
                for i in np.split(rng.permutation(len(records)), cuts)]

    @pytest.mark.parametrize("scheme", [LexBlocked(1), Morton(2)], ids=["lex:b=1", "morton:g=2"])
    def test_split_shuffled_batches_match_a_sort(self, scheme):
        records = records_for(make_packing(12, 3), scheme, nranks=3, periodic=(True, False, False))
        batches = self.split(records, seed=7)
        order = np.argsort(np.concatenate([b.ic for b in batches]))
        want = SparseRecords(*(np.concatenate([getattr(b, f) for b in batches])[order]
                               for f in ("coords", "ic", "nbr")))
        assert SparseRecords.concat(batches).equals(want)
        assert want.equals(records)
        (shuffled,) = self.split(records, seed=8, pieces=1)
        assert shuffled.sorted_by_ic().equals(records)

    @pytest.mark.parametrize("ic", [0, "n+1"])
    def test_ic_outside_range_is_named(self, ic):
        records = records_for(make_channel(4))
        n = len(records)
        ic = n + 1 if ic == "n+1" else ic
        batches = self.split(records, seed=1, pieces=3)
        batches[2].ic[4] = ic
        with pytest.raises(DataError, match=rf"^I_c={ic} is outside 1\.\.{n}$"):
            SparseRecords.concat(batches)

    def test_repeated_ic_leaves_the_unfilled_slot_for_the_validator(self, tmp_path):
        header, records = preprocess_grid(make_channel(4), LexBlocked(1))
        ic = records.ic.copy()
        ic[8] = 4  # I_c=4 twice, I_c=9 never
        batches = self.split(SparseRecords(records.coords, ic, records.nbr), seed=2, pieces=2)
        placed = SparseRecords.concat(batches)
        assert placed.ic[8] == 0 and not placed.nbr[8].any()
        with pytest.raises(DataError, match=r"^I_c=9 is not record 8: records must be"):
            write_sparse(tmp_path / "dup.sprs", placed, header)
        assert not (tmp_path / "dup.sprs").exists()

    def test_no_batches_give_no_records(self):
        empty = SparseRecords.concat([])
        assert len(empty) == 0
        assert (empty.coords.shape, empty.nbr.shape) == ((0, 3), (0, 18))

    @staticmethod
    def halos(grid, scheme, nranks, periodic=(False, False, False)):
        """Each rank's halo of the serial oracle's I_c field."""
        field = serial_oracle(grid, scheme)
        boxes = decompose_ranks(grid.dims, nranks)
        parts = [field[b.lo[2] : b.hi[2], b.lo[1] : b.hi[1], b.lo[0] : b.hi[0]] for b in boxes]
        return halo_exchange(grid, boxes, parts, periodic)

    @staticmethod
    def with_ic(halo, k, value):
        """The halo with the I_c of its k-th fluid cell (in box order) set
        to `value`, and that cell's I_c before."""
        field = halo.ic.copy()
        z, y, x = np.argwhere(field[1:-1, 1:-1, 1:-1] > 0)[k] + 1
        was = int(field[z, y, x])
        field[z, y, x] = value
        return HaloView(halo.box, field), was

    @staticmethod
    def one_range_ranks(halos, n):
        """How many of the halos hold their I_c as one range rising by one
        in box order, which `build_adjacency` writes as slices."""
        ics = [h.ic[1:-1, 1:-1, 1:-1][h.ic[1:-1, 1:-1, 1:-1] > 0] for h in halos]
        return sum(ic.size > 0 and ic[-1] <= n
                   and np.array_equal(ic, np.arange(ic[0], ic[0] + ic.size)) for ic in ics)

    # (nranks, dims, one-range ranks under lex:b=1 and morton:g=2): one
    # rank, and each of the 4 z-slabs (6, 5, 24) is cut into, holds its
    # I_c in box order under lex:b=1; under morton:g=2 none does
    @pytest.mark.parametrize("nranks, dims, one_range", [
        (1, (13, 9, 11), (1, 0)),
        (8, (13, 9, 11), None),
        (13, (13, 9, 11), None),
        (4, (6, 5, 24), (4, 0)),
    ], ids=["1", "8", "13", "4-z-slabs"])
    @pytest.mark.parametrize("scheme", [LexBlocked(1), Morton(2)], ids=["lex:b=1", "morton:g=2"])
    def test_preprocess_places_what_concat_places(self, scheme, nranks, dims, one_range):
        grid = random_grid(nranks, dims)
        periodic = (True, False, True)
        _, records = preprocess_grid(grid, scheme, nranks=nranks, periodic=periodic)
        halos = self.halos(grid, scheme, nranks, periodic)
        if one_range is not None:
            assert self.one_range_ranks(halos, len(records)) == one_range[isinstance(scheme, Morton)]
        batches = [build_adjacency(h) for h in halos]
        assert records.equals(SparseRecords.concat(batches))

    # at one rank the I_c are one range but for the one outside it
    @pytest.mark.parametrize("ic, nranks", [
        ("n+1", 2), ("2^64-1", 2), ("n+1", 1), ("2^64-1", 1),
    ], ids=["n+1", "2^64-1", "n+1-1rank", "2^64-1-1rank"])
    def test_placed_ic_outside_range_is_named_as_concat_names_it(self, ic, nranks):
        grid = make_channel(4)
        n = grid.fluid_count
        value = n + 1 if ic == "n+1" else 2**64 - 1
        halos = self.halos(grid, LexBlocked(1), nranks)
        halos[-1], _ = self.with_ic(halos[-1], 3, value)
        out = SparseRecords.zeros(n)
        for h in halos[:-1]:
            build_adjacency(h, out)
        before = [a.copy() for a in (out.coords, out.ic, out.nbr)]
        with pytest.raises(DataError, match=rf"^I_c={value} is outside 1\.\.{n}$") as placed:
            build_adjacency(halos[-1], out)
        assert all(np.array_equal(a, b) for a, b in zip((out.coords, out.ic, out.nbr), before))
        with pytest.raises(DataError) as joined:
            SparseRecords.concat(build_adjacency(h) for h in halos)
        assert str(placed.value) == str(joined.value)

    def test_repeated_placed_ic_leaves_a_zero_row_for_check_records(self):
        self.repeat_an_ic(nranks=2, k=3)

    def test_repeated_ic_at_one_rank_leaves_a_zero_row(self):
        """The 11th cell in box order holds I_c=11: with it set to 4, the
        rank's I_c no longer rise by one, so its rows are scattered."""
        self.repeat_an_ic(nranks=1, k=10)

    def repeat_an_ic(self, nranks, k):
        """Set the k-th fluid cell of the last rank to I_c=4: placing every
        rank leaves the row of its own I_c zero, which check_records names."""
        grid = make_channel(4)
        halos = self.halos(grid, LexBlocked(1), nranks)
        halos[-1], lost = self.with_ic(halos[-1], k, 4)
        assert lost > 4
        out = SparseRecords.zeros(grid.fluid_count)
        for h in halos:
            build_adjacency(h, out)
        assert out.ic[lost - 1] == 0 and not out.nbr[lost - 1].any()
        with pytest.raises(DataError, match=rf"^I_c={lost} is not record {lost - 1}: records must"):
            check_records(out, grid.fluid_count)

    @pytest.mark.parametrize("x0, fits", [(2**32 - 2, True), (2**32 - 1, False)],
                             ids=["last-cell-at-2^32-1", "cell-at-2^32"])
    def test_box_past_the_uint32_coordinates_is_refused(self, x0, fits):
        """A 2-cell box at x = x0, x0 + 1: coordinates up to 2^32 - 1 are
        stored as they are; a box that reaches 2^32, which the uint32
        column would wrap to 0, raises before a row is written."""
        field = np.zeros((3, 3, 4), np.uint64)
        field[1, 1, 1:3] = (1, 2)
        halo = HaloView(RankBox(0, (x0, 0, 0), (x0 + 2, 1, 1)), field)
        out = SparseRecords.zeros(2)
        if fits:
            assert build_adjacency(halo).equals(build_adjacency(halo, out))
            assert out.coords[:, 0].tolist() == [x0, x0 + 1]
            return
        for placed in (None, out):
            with pytest.raises(ParameterError, match=r"^box of rank 0 reaches coordinate "
                               rf"{2**32}, past the largest stored coordinate {2**32 - 1}$"):
                build_adjacency(halo, placed)
        assert not (out.coords.any() or out.ic.any() or out.nbr.any())

    @pytest.mark.parametrize("nranks", [1, 8])
    @pytest.mark.parametrize("scheme", [LexBlocked(1), Morton(2)], ids=["lex:b=1", "morton:g=2"])
    def test_peak_stays_near_the_records(self, packing24, scheme, nranks):
        """Each rank writes its records straight to their rows of the one
        record set, so `preprocess_grid` peaks at 1.3-1.7x the records'
        bytes (164 a record) on the d=24 packing. Every rank's batch held
        next to the placed set, as concatenation holds them, peaks at
        2.26-2.54x and must fail the bound."""
        preprocess_grid(make_channel(4), scheme)  # modules imported on a first call
        tracemalloc.start()
        try:
            _, records = preprocess_grid(packing24, scheme, nranks=nranks,
                                         periodic=(True, False, False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = records.coords.nbytes + records.ic.nbytes + records.nbr.nbytes
        assert peak < 1.9 * kept, peak / kept


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


def _zero_pair(r):
    # I_c=10 and its +x neighbour I_c=11 forget each other
    nbr = r.nbr.copy()
    nbr[9, 0] = nbr[10, 1] = 0
    return SparseRecords(r.coords, r.ic, nbr), 10


def _two_wrong_links(r):
    # link 17 of I_c=3 and link 0 of I_c=50 point at their own cells: the
    # lower I_c is named although its wrong direction comes later
    bad, _ = _set_nbr(r, 49, 0, 50)
    return _set_nbr(bad, 2, 17, 3)


def _set_coord(r, at, axis, value):
    coords = r.coords.copy()
    coords[at, axis] = value
    return SparseRecords(coords, r.ic, r.nbr), at + 1


# each fault maps the valid records to (faulty records, first failing I_c)
RECORD_FAULTS = {
    "count": _drop_last,
    "duplicate": lambda r: _set_ic(r, 4, 4),
    "missing": _missing,
    "shuffled": _shuffled,
    "above-N_f": lambda r: _set_nbr(r, 4, 7, len(r) + 1),
    "one-way-link": lambda r: _set_nbr(r, 9, 0, 10),  # +x of I_c=10 points at itself
    "two-wrong-links": _two_wrong_links,
    "zeroed-pair": _zero_pair,
    "outside-dims": lambda r: _set_coord(r, 0, 0, 2 ** 31),
    "shared-cell": lambda r: _set_coord(r, 4, 0, int(r.coords[5, 0])),  # I_c=5 onto I_c=6
}
# checked by `check_links` alone, which of these entry points only
# Simulation runs (`analyze` runs it too, tested in test_cli.py)
LINK_FAULTS = ("one-way-link", "two-wrong-links", "zeroed-pair", "outside-dims", "shared-cell")


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
        if f not in LINK_FAULTS or e == "Simulation"
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


class TestSchemeOrder:
    """`check_links` also requires the header's scheme to number the
    cells in I_c order. On a 4x2x1 box, lex:b=1 and morton:g=2 visit
    (0,0) (1,0) (2,0) (3,0) (0,1) ..., and lex:b=2 and morton:g=1 visit
    (0,0) (1,0) (0,1) (1,1) (2,0) ..."""

    ROWS = r"I_c=5 at \(0, 1, 0\) comes before I_c=4 at \(3, 0, 0\)"
    SQUARES = r"I_c=5 at \(2, 0, 0\) comes before I_c=4 at \(1, 1, 0\)"

    @staticmethod
    def simulate(records_scheme, header_scheme):
        grid = VoxelGrid(np.ones((1, 2, 4), dtype=bool))
        header, records = preprocess_grid(grid, records_scheme)
        relabeled = SparseHeader(header.dims, header.n_fluid, header_scheme, header.periodic)
        return Simulation(relabeled, records, nparts=2, params=TrtParams(tau_plus=0.8))

    @pytest.mark.parametrize("records_scheme,header_scheme,message", [
        (LexBlocked(1), "lex:b=2", ROWS),
        (LexBlocked(1), "morton:g=1", ROWS),
        (LexBlocked(2), "lex:b=1", SQUARES),
        (LexBlocked(2), "morton:g=2", SQUARES),
    ], ids=["lex:b=1-as-lex:b=2", "lex:b=1-as-morton:g=1", "lex:b=2-as-lex:b=1",
            "lex:b=2-as-morton:g=2"])
    def test_other_order_names_the_first_cell_out_of_it(self, records_scheme, header_scheme,
                                                        message):
        with pytest.raises(DataError, match=message):
            self.simulate(records_scheme, header_scheme)

    @pytest.mark.parametrize("records_scheme,header_scheme", [
        (LexBlocked(1), "morton:g=2"),
        (LexBlocked(2), "morton:g=1"),
    ], ids=["lex:b=1-as-morton:g=2", "lex:b=2-as-morton:g=1"])
    def test_another_scheme_of_the_same_order_passes(self, records_scheme, header_scheme):
        self.simulate(records_scheme, header_scheme)

    @pytest.mark.parametrize("records_scheme,header_scheme,message", [
        (LexBlocked(1), "lex:b=2", ROWS),
        (LexBlocked(1), "morton:g=1", ROWS),
        (LexBlocked(2), "lex:b=1", SQUARES),
        (LexBlocked(2), "morton:g=2", SQUARES),
    ], ids=["lex:b=1-as-lex:b=2", "lex:b=1-as-morton:g=1", "lex:b=2-as-lex:b=1",
            "lex:b=2-as-morton:g=2"])
    def test_message_does_not_depend_on_block_size(self, monkeypatch, records_scheme,
                                                   header_scheme, message):
        """The codes are taken `_LINK_BLOCK` records at a time. At 4,
        I_c=5 is the first record of block 2, so the check compares it
        with the last record of block 1; at 1 and 2 it opens a block too,
        at 5 and the default it lies inside block 1."""
        messages = []
        for block in (1, 2, 4, 5, adjacency._LINK_BLOCK):
            monkeypatch.setattr(adjacency, "_LINK_BLOCK", block)
            with pytest.raises(DataError, match=message) as info:
                self.simulate(records_scheme, header_scheme)
            messages.append(str(info.value))
        assert messages == messages[:1] * 5


# grids for the tests of the blocked stencil gather, periodic along x
GATHER_GRIDS = {"channel6": lambda: make_channel(6), "random": lambda: random_grid(5, (11, 9, 10))}
BLOCKS = (1, 7, 1024, adjacency._LINK_BLOCK)


@pytest.fixture(scope="module")
def gather_sparse():
    """(header, records) of each GATHER_GRIDS entry at 1 and 8 ranks."""
    out = {}
    for name, make in GATHER_GRIDS.items():
        for nranks in (1, 8):
            out[name, nranks] = preprocess_grid(make(), LexBlocked(1), nranks=nranks,
                                                periodic=(True, False, False))
    return out


class TestLinkBlocks:
    """`build_adjacency` and `check_links` gather links in blocks of
    `_LINK_BLOCK` records; no block size changes a record or a verdict."""

    @pytest.mark.parametrize("nranks", [1, 8])
    @pytest.mark.parametrize("name", GATHER_GRIDS)
    def test_records_do_not_depend_on_block_size(self, monkeypatch, name, nranks):
        runs = []
        for block in BLOCKS:
            monkeypatch.setattr(adjacency, "_LINK_BLOCK", block)
            runs.append(records_for(GATHER_GRIDS[name](), nranks=nranks,
                                    periodic=(True, False, False)))
        assert all(r.equals(runs[0]) for r in runs[1:])

    @pytest.mark.parametrize("fault", RECORD_FAULTS)
    @pytest.mark.parametrize("nranks", [1, 8])
    @pytest.mark.parametrize("name", GATHER_GRIDS)
    def test_verdict_does_not_depend_on_block_size(self, gather_sparse, monkeypatch, name,
                                                   nranks, fault):
        header, records = gather_sparse[name, nranks]
        bad, ic = RECORD_FAULTS[fault](records)
        verdicts = []
        for block in BLOCKS:
            monkeypatch.setattr(adjacency, "_LINK_BLOCK", block)
            try:
                check_links(bad, header)
                verdicts.append(None)
            except DataError as exc:
                verdicts.append(str(exc))
        assert verdicts[1:] == verdicts[:1] * (len(BLOCKS) - 1), verdicts
        # the faults are laid out for the channel; on the random grid some
        # (a zeroed pair of cells that are not neighbours) break no rule
        if name == "channel6":
            assert re.search(r"I_c=(\d+)", verdicts[0]).group(1) == str(ic)


def oracle_links(records, dims, periodic):
    """(N_f, 18) neighbor I_c of every record, looked up cell by cell in
    a dictionary from coordinates to I_c: 0 where no record lies."""
    where = {tuple(c): ic for c, ic in zip(records.coords.tolist(), records.ic.tolist())}
    want = np.zeros((len(records), 18), dtype=np.uint64)
    for r, cell in enumerate(records.coords.tolist()):
        for i, step in enumerate(STENCIL.tolist()):
            there = [v + s for v, s in zip(cell, step)]
            there = [v % n if p else v for v, n, p in zip(there, dims, periodic)]
            want[r, i] = where.get(tuple(there), 0)
    return want


class TestIndependentOracle:
    """The builder and the validator share their gather, so a fault in it
    would make them agree on wrong links. This oracle shares nothing
    with it, on more than two blocks of records and a partial last one."""

    PERIODIC = (True, False, True)

    @pytest.fixture(scope="class", params=[1, 8], ids=["1rank", "8ranks"])
    def sparse(self, request):
        grid = random_grid(1, (20, 32, 32))
        header, records = preprocess_grid(grid, LexBlocked(1), nranks=request.param,
                                          periodic=self.PERIODIC)
        block = adjacency._LINK_BLOCK
        assert len(records) > 2 * block and len(records) % block > 2
        return header, records

    def test_every_link_matches_the_oracle(self, sparse):
        header, records = sparse
        assert np.array_equal(records.nbr, oracle_links(records, header.dims, self.PERIODIC))

    def test_periodic_axis_past_the_records_wraps_nothing(self):
        """With the last x and z layers solid, the records' box is shorter
        than the periodic axes: a pad wraps onto a cell with no record."""
        flags = random_grid(2, (9, 6, 7)).flags.copy()
        flags[-1], flags[:, :, -1] = False, False
        header, records = preprocess_grid(VoxelGrid(flags), LexBlocked(1),
                                          periodic=self.PERIODIC)
        assert (records.coords.max(axis=0) + 1 < header.dims).tolist() == [True, False, True]
        assert np.array_equal(records.nbr, oracle_links(records, header.dims, self.PERIODIC))
        check_links(records, header)

    @pytest.mark.parametrize("where", ["first-of-block-2", "last-block", "both"])
    def test_wrong_link_is_named(self, sparse, where):
        """Direction 5 goes wrong at the first record of the second block
        (I_c=4097), at the third-last record, in the last partial block,
        or at both: the smaller is named."""
        header, records = sparse
        want = oracle_links(records, header.dims, self.PERIODIC)
        nbr = records.nbr.copy()
        first, last = adjacency._LINK_BLOCK + 1, len(records) - 2
        ics = {"first-of-block-2": [first], "last-block": [last], "both": [last, first]}[where]
        for ic in ics:
            nbr[ic - 1, 5] = want[ic - 1, 5] % len(records) + 1
        with pytest.raises(DataError) as info:
            check_links(SparseRecords(records.coords, records.ic, nbr), header)
        a = min(ics) - 1
        there = f"I_c={want[a, 5]}" if want[a, 5] else "no record"
        assert str(info.value) == (
            f"link 5 of I_c={a + 1} at {tuple(records.coords[a].tolist())} to {nbr[a, 5]} "
            f"does not match its stencil neighbour, which holds {there}"
        )
