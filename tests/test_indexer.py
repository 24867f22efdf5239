import logging

import numpy as np
import pytest

from listlbm import (
    RUN_DTYPE,
    LexBlocked,
    Morton,
    ParameterError,
    ProtocolError,
    RankBox,
    VoxelGrid,
    build_rank_tree,
    cell_index,
    decompose_ranks,
    find_runs,
    make_packing,
    octree_reduce,
    preprocess_grid,
    serial_oracle,
)
from listlbm import indexer, pipeline
from listlbm.indexer import CellOrder, _merge_runs, assign_contiguous
from conftest import ALL_SCHEMES, SCHEME_IDS, ic_field, random_grid


def line_grid(flags_x):
    """Grid of shape (len(flags_x), 1, 1) along x."""
    return VoxelGrid(np.asarray(flags_x, dtype=bool).reshape(1, 1, -1))


def table(*rows):
    """Run table of (incell, outcell, fluid, owner) rows, starts unset."""
    return np.array([(*row, 0) for row in rows], dtype=RUN_DTYPE)


TWO_RANK_LINE = [
    RankBox(0, (0, 0, 0), (2, 1, 1)),
    RankBox(1, (2, 0, 0), (4, 1, 1)),
]


def runs_of(grid, scheme, box, boxes=None):
    """find_runs of `box` in the decomposition `boxes` (default: `box` alone)."""
    return find_runs(grid, scheme, box, boxes or [box], CellOrder(grid.dims, scheme))


def contiguous(grid, scheme, box, runs):
    return assign_contiguous(grid, scheme, box, runs, CellOrder(grid.dims, scheme))


class TestRunTable:
    @pytest.mark.parametrize("scheme", [LexBlocked(1), Morton(2)], ids=["lex:b=1", "morton:g=2"])
    def test_last_run_ends_at_the_cell_count(self, scheme):
        """The run of the globally last cell ends at the position after
        it, the order's cell count, like every other run."""
        grid = random_grid(11, (6, 5, 3))  # the Morton(2) codes of 6 x 5 x 3 cells have gaps
        boxes = decompose_ranks(grid.dims, 4)
        order = CellOrder(grid.dims, scheme)
        runs = np.sort(np.concatenate([find_runs(grid, scheme, b, boxes, order)
                                       for b in boxes]), order="incell")
        assert runs["outcell"][-1] == order.ncells == 90
        assert (runs["outcell"][:-1] < order.ncells).all()

    def test_rejects_empty_or_inverted_runs(self):
        for run in [(5, 5, 0, 0), (5, 3, 0, 0), (0, 2, -1, 0)]:
            with pytest.raises(ProtocolError, match="invalid run"):
                octree_reduce([table(run)], build_rank_tree(1))


class TestRankTree:
    def test_single_rank(self):
        """One rank forms one level of one group, like any other count."""
        assert build_rank_tree(1) == (((0, (0,)),),)

    def test_one_full_group(self):
        tree = build_rank_tree(8)
        assert len(tree) == 1
        ((master, members),) = tree[0]
        assert master == 0
        assert members == tuple(range(8))

    def test_thirteen_ranks(self):
        tree = build_rank_tree(13)
        assert len(tree) == 2
        level1 = tree[0]
        assert level1 == ((0, tuple(range(8))), (8, tuple(range(8, 13))))
        assert tree[1] == ((0, (0, 8)),)


class TestFindRuns:
    def test_two_rank_line_all_fluid(self):
        grid = line_grid([1, 1, 1, 1])
        runs0 = runs_of(grid, LexBlocked(1), TWO_RANK_LINE[0], TWO_RANK_LINE)
        runs1 = runs_of(grid, LexBlocked(1), TWO_RANK_LINE[1], TWO_RANK_LINE)
        assert np.array_equal(runs0, table((0, 2, 2, 0)))
        assert np.array_equal(runs1, table((2, 4, 2, 1)))

    def test_single_rank_single_run(self, channel4):
        (box,) = decompose_ranks(channel4.dims, 1)
        (run,) = runs_of(channel4, LexBlocked(1), box)
        assert run["incell"] == 0
        assert run["outcell"] == channel4.flags.size
        assert run["fluid"] == channel4.fluid_count

    def test_solid_cells_extend_runs_but_not_counts(self):
        grid = line_grid([1, 0, 1, 1])
        runs0 = runs_of(grid, LexBlocked(1), TWO_RANK_LINE[0], TWO_RANK_LINE)
        assert np.array_equal(runs0, table((0, 2, 1, 0)))

    def test_morton_gaps_split_nothing_spurious(self):
        # a rank owning one full z-slab of a pow2 cube stays contiguous
        grid = VoxelGrid(np.ones((2, 2, 2), dtype=bool))
        box = RankBox(0, (0, 0, 0), (2, 2, 1))
        (run,) = runs_of(grid, Morton(1), box)
        assert run["incell"] == 0
        assert run["fluid"] == 4

    # all_boxes lists each box at the index of its rank
    @pytest.mark.parametrize("box, boxes", [
        (RankBox(0, (0, 0, 0), (3, 1, 1)), TWO_RANK_LINE),
        (RankBox(2, (0, 0, 0), (4, 1, 1)), TWO_RANK_LINE),
        (TWO_RANK_LINE[0], TWO_RANK_LINE[::-1]),
    ], ids=["absent", "rank-past-the-list", "wrong-index"])
    def test_box_outside_the_decomposition_rejected(self, box, boxes):
        with pytest.raises(ParameterError,
                           match=f"^box of rank {box.rank} not in the decomposition$"):
            runs_of(line_grid([1, 1, 1, 1]), LexBlocked(1), box, boxes)


class TestOctreeReduce:
    def test_two_runs_merge_and_split_starts(self):
        lists = [table((0, 2, 2, 0)), table((2, 4, 2, 1))]
        out = octree_reduce(lists, build_rank_tree(2))
        assert out[0]["start"].tolist() == [1]
        assert out[1]["start"].tolist() == [3]

    def test_adjacent_runs_merge(self):
        runs = table((0, 2, 2, 0), (2, 5, 1, 1), (5, 6, 0, 2), (7, 9, 2, 0))
        merged, joined = _merge_runs(runs, 4)
        assert np.array_equal(merged, table((0, 6, 3, 4), (7, 9, 2, 4)))
        assert joined.tolist() == [0, 0, 0, 1]

    def test_single_rank_starts_at_one(self):
        out = octree_reduce([table((0, 7, 7, 0))], build_rank_tree(1))
        assert out[0]["start"].tolist() == [1]

    def test_zero_fluid_run_consumes_no_indices(self):
        runs = table((0, 5, 5, 0), (10, 12, 0, 0), (20, 23, 3, 0))
        out = octree_reduce([runs], build_rank_tree(1))
        assert out[0]["start"].tolist() == [1, 6, 6]

    def test_gaps_between_ranks_allowed(self):
        lists = [table((0, 4, 3, 0)), table((8, 10, 2, 1))]
        out = octree_reduce(lists, build_rank_tree(2))
        assert out[0]["start"].tolist() == [1]
        assert out[1]["start"].tolist() == [4]

    def test_overlapping_runs_rejected(self):
        lists = [table((0, 3, 3, 0)), table((2, 4, 2, 1))]
        with pytest.raises(ProtocolError, match="overlapping"):
            octree_reduce(lists, build_rank_tree(2))

    def test_overlap_within_single_rank_rejected(self):
        runs = table((0, 3, 3, 0), (2, 4, 2, 0))
        with pytest.raises(ProtocolError, match="overlapping"):
            octree_reduce([runs], build_rank_tree(1))

    def test_wrong_owner_rejected(self):
        with pytest.raises(ProtocolError, match="owned by rank 3"):
            octree_reduce([table((0, 1, 1, 3))], build_rank_tree(1))

    # rank 1's table arrives out of incell order with three faulty runs;
    # the one of smallest incell comes last and is the one named
    @pytest.mark.parametrize("runs, text", [
        (table((40, 50, 1, 6), (10, 12, 1, 1), (20, 30, 3, 4), (5, 9, 1, 3)),
         "rank 1 submitted a run owned by rank 3"),
        (table((40, 41, -1, 1), (10, 12, 1, 1), (30, 30, 0, 1), (5, 3, 2, 1),
               (20, 21, 1, 1)),
         "rank 1 submitted the invalid run [5, 3) with 2 fluid cells"),
    ], ids=["owner", "invalid"])
    def test_fault_of_smallest_incell_is_named(self, runs, text):
        kept = runs.copy()
        with pytest.raises(ProtocolError) as info:
            octree_reduce([table((0, 4, 2, 0)), runs], build_rank_tree(2))
        assert str(info.value) == text
        assert np.array_equal(runs, kept)

    def test_arrival_order_does_not_matter(self):
        grid = random_grid(5, (16, 8, 7))
        boxes = decompose_ranks(grid.dims, 13)
        tree = build_rank_tree(13)
        lists = [runs_of(grid, Morton(2), b, boxes) for b in boxes]
        base = octree_reduce(lists, tree)
        for seed in (0, 1, 2):
            shuffled = octree_reduce(lists, tree, rng=np.random.default_rng(seed))
            assert all(np.array_equal(a, b) for a, b in zip(shuffled, base))
        assert not any(runs["start"].any() for runs in lists)

    # the Morton(2) codes of 5 x 3 x 6 cells have gaps, so a table of
    # codes would not read as positions
    @pytest.mark.parametrize("P", [1, 2, 6, 9, 18])
    def test_morton_tables_carry_positions(self, P):
        grid = random_grid(9, (5, 3, 6))
        X, Y, Z = grid.dims
        x, y, z = (a.reshape(-1) for a in np.meshgrid(np.arange(X), np.arange(Y),
                                                       np.arange(Z), indexing="ij"))
        codes = cell_index(Morton(2), x, y, z, grid.dims)
        assert codes.max() >= codes.size  # the codes have gaps
        by_pos = np.argsort(codes, kind="stable")
        x, y, z = x[by_pos], y[by_pos], z[by_pos]  # the cells in position order
        fluid = grid.flags[z, y, x]
        boxes = decompose_ranks(grid.dims, P)
        lists = [runs_of(grid, Morton(2), b, boxes) for b in boxes]
        covered = 0
        for b, runs in zip(boxes, octree_reduce(lists, build_rank_tree(P))):
            for inc, end, nfluid in zip(runs["incell"].tolist(), runs["outcell"].tolist(),
                                        runs["fluid"]):
                cells = slice(inc, end)
                assert 0 < end - inc and end <= codes.size
                (x0, y0, z0), (x1, y1, z1) = b.lo, b.hi
                assert ((x0 <= x[cells]) & (x[cells] < x1) & (y0 <= y[cells]) & (y[cells] < y1)
                        & (z0 <= z[cells]) & (z[cells] < z1)).all()
                assert fluid[cells].sum() == nfluid
                covered += end - inc
        assert covered == codes.size

    def test_debug_trace_logs_each_level(self, caplog):
        grid = random_grid(8, (8, 8, 8))
        boxes = decompose_ranks(grid.dims, 64)
        tree = build_rank_tree(64)
        lists = [runs_of(grid, Morton(2), b, boxes) for b in boxes]
        base = octree_reduce(lists, tree)
        with caplog.at_level(logging.DEBUG, logger="listlbm.indexer"):
            traced = octree_reduce(lists, tree)
        messages = [r.getMessage() for r in caplog.records]
        for li, groups in enumerate(tree):
            for master, _ in groups:
                assert sum(m.startswith(f"up level {li} master {master}:")
                           for m in messages) == 1
                assert sum(m.startswith(f"down level {li} master {master}:")
                           for m in messages) == 1
        assert sum(m.startswith("root 0 assigned ")
                   and m.endswith(f"N_f={grid.fluid_count}") for m in messages) == 1
        assert all(np.array_equal(a, b) for a, b in zip(traced, base))

    def test_single_rank_trace_has_one_level(self, caplog):
        runs = table((10, 13, 3, 0), (0, 5, 5, 0))
        with caplog.at_level(logging.DEBUG, logger="listlbm.indexer"):
            (out,) = octree_reduce([runs], build_rank_tree(1))
        messages = [r.getMessage() for r in caplog.records]
        assert messages == ["up level 0 master 0: 2 runs from [0] -> 2 merged",
                            "root 0 assigned 2 starts, N_f=8",
                            "down level 0 master 0: scattered 2 runs to [0]"]
        assert out["incell"].tolist() == [0, 10] and out["start"].tolist() == [1, 6]
        assert not runs["start"].any()


class TestAssignContiguous:
    def test_all_fluid_line(self):
        grid = line_grid([1, 1, 1, 1])
        box = RankBox(0, (0, 0, 0), (4, 1, 1))
        icis = octree_reduce([runs_of(grid, LexBlocked(1), box)], build_rank_tree(1))[0]
        field = contiguous(grid, LexBlocked(1), box, icis)
        assert field.tolist() == [[[1, 2, 3, 4]]]

    def test_solid_cells_get_zero(self):
        grid = line_grid([1, 0, 1, 1])
        box = RankBox(0, (0, 0, 0), (4, 1, 1))
        icis = octree_reduce([runs_of(grid, LexBlocked(1), box)], build_rank_tree(1))[0]
        field = contiguous(grid, LexBlocked(1), box, icis)
        assert field.tolist() == [[[1, 0, 2, 3]]]

    def test_unset_start_rejected(self):
        grid = line_grid([1, 1, 1, 1])
        box = RankBox(0, (0, 0, 0), (4, 1, 1))
        with pytest.raises(ProtocolError, match="no start"):
            contiguous(grid, LexBlocked(1), box, table((0, 4, 4, 0)))

    @pytest.mark.parametrize("rows,match", [
        ([(0, 2, 2, 0, 1), (2, 4, 2, 0, 3)], "has 1 runs"),
        ([(1, 4, 4, 0, 1)], "incell mismatch"),
        ([(0, 4, 3, 0, 1)], "fluid count 4"),
    ], ids=["run-count", "incell", "fluid-count"])
    def test_mismatched_runs_rejected(self, rows, match):
        grid = line_grid([1, 1, 1, 1])
        box = RankBox(0, (0, 0, 0), (4, 1, 1))
        with pytest.raises(ProtocolError, match=match):
            contiguous(grid, LexBlocked(1), box, np.array(rows, dtype=RUN_DTYPE))

    def test_table_out_of_incell_order_rejected(self):
        """A reduced table is taken in the incell order `octree_reduce`
        returns it in; reversed, its first run names the mismatch."""
        grid = VoxelGrid(np.ones((2, 1, 2), dtype=bool))
        # under lex:b=1 rank 0 holds positions 0 and 2, rank 1 1 and 3
        boxes = [RankBox(0, (0, 0, 0), (1, 1, 2)), RankBox(1, (1, 0, 0), (2, 1, 2))]
        lists = [runs_of(grid, LexBlocked(1), b, boxes) for b in boxes]
        runs = octree_reduce(lists, build_rank_tree(2))[0]
        assert runs["incell"].tolist() == [0, 2] and runs["start"].tolist() == [1, 3]
        assert contiguous(grid, LexBlocked(1), boxes[0], runs).tolist() == [[[1]], [[3]]]
        with pytest.raises(ProtocolError, match=r"^run incell mismatch: box has 0, record says 2$"):
            contiguous(grid, LexBlocked(1), boxes[0], runs[::-1])


class TestCellOrderMismatch:
    """An order built for other dims or another scheme is a parameter
    fault of both phases, named by both (dims, scheme) pairs."""

    @pytest.fixture(scope="class")
    def packing(self):
        grid = make_packing(12, 1)
        boxes = decompose_ranks(grid.dims, 8)
        order = CellOrder(grid.dims, LexBlocked(1))
        lists = [find_runs(grid, LexBlocked(1), b, boxes, order) for b in boxes]
        return grid, boxes, octree_reduce(lists, build_rank_tree(len(boxes)))

    # the morton order ends in an overlap ProtocolError in octree_reduce
    # when unchecked, and the other dims' lex order in a wrong numbering
    @pytest.mark.parametrize("dims, scheme, text", [
        ((60, 12, 12), Morton(2), r"\(60, 12, 12\) and morton:g=2"),
        ((61, 12, 12), LexBlocked(1), r"\(61, 12, 12\) and lex:b=1"),
    ], ids=["scheme", "dims"])
    def test_both_phases_reject_it(self, packing, dims, scheme, text):
        grid, boxes, assigned = packing
        assert grid.dims == (60, 12, 12)
        wrong = CellOrder(dims, scheme)
        match = f"^cell order built for dims {text}, used for dims \\(60, 12, 12\\) and lex:b=1$"
        for box in boxes:
            with pytest.raises(ParameterError, match=match):
                find_runs(grid, LexBlocked(1), box, boxes, wrong)
            with pytest.raises(ParameterError, match=match):
                assign_contiguous(grid, LexBlocked(1), box, assigned[box.rank], wrong)


class TestBoxHandOver:
    """`find_runs` leaves each box's sort in its `CellOrder`, and
    `assign_contiguous` takes it out again."""

    @pytest.mark.parametrize("scheme", [LexBlocked(1), Morton(2)], ids=["lex:b=1", "morton:g=2"])
    @pytest.mark.parametrize("P", [1, 8, 64])
    def test_each_box_is_sorted_once(self, monkeypatch, scheme, P):
        grid = random_grid(4, (16, 8, 8))
        sorted_boxes = []

        def sort_box(box, order):
            sorted_boxes.append(box)
            return real(box, order)

        real = indexer._sort_box
        monkeypatch.setattr(indexer, "_sort_box", sort_box)
        preprocess_grid(grid, scheme, nranks=P)
        assert sorted(sorted_boxes, key=lambda b: b.rank) == decompose_ranks(grid.dims, P)

    def test_no_slot_outlives_the_assign_phase(self, monkeypatch):
        grid = random_grid(6, (16, 8, 8))
        orders = []

        class Recorded(CellOrder):
            def __init__(self, *args):
                super().__init__(*args)
                orders.append(self)

        def halo_exchange(*args, **kwargs):
            assert [o._sorted for o in orders] == [{}]
            return real(*args, **kwargs)

        real = pipeline.halo_exchange
        monkeypatch.setattr(pipeline, "CellOrder", Recorded)
        monkeypatch.setattr(pipeline, "halo_exchange", halo_exchange)
        preprocess_grid(grid, Morton(2), nranks=8)
        assert len(orders) == 1

    @pytest.mark.parametrize("scheme", [LexBlocked(4), Morton(2)], ids=["lex:b=4", "morton:g=2"])
    def test_a_fresh_order_gives_the_handed_over_field(self, scheme):
        grid = random_grid(7, (26, 9, 10))
        boxes = decompose_ranks(grid.dims, 13)
        order = CellOrder(grid.dims, scheme)
        lists = [find_runs(grid, scheme, b, boxes, order) for b in boxes]
        assert set(order._sorted) == set(boxes)
        assigned = octree_reduce(lists, build_rank_tree(len(boxes)))
        for b in boxes:
            handed = assign_contiguous(grid, scheme, b, assigned[b.rank], order)
            assert b not in order._sorted
            assert np.array_equal(handed, contiguous(grid, scheme, b, assigned[b.rank]))
        assert order._sorted == {}


class TestSerialOracle:
    def test_all_solid_is_zero(self):
        grid = VoxelGrid(np.zeros((2, 3, 4), dtype=bool))
        assert not serial_oracle(grid, LexBlocked(1)).any()

    def test_bijective_morton_shifts_by_one(self):
        grid = VoxelGrid(np.ones((4, 4, 4), dtype=bool))
        field = serial_oracle(grid, Morton(1))
        x = np.arange(4)[None, None, :]
        y = np.arange(4)[None, :, None]
        z = np.arange(4)[:, None, None]
        assert np.array_equal(field, cell_index(Morton(1), x, y, z, (4, 4, 4)) + 1)

    def test_fluid_values_are_a_bijection(self):
        grid = random_grid(2, (10, 6, 5))
        field = serial_oracle(grid, Morton(2))
        vals = np.sort(field[grid.flags])
        assert np.array_equal(vals, np.arange(1, grid.fluid_count + 1))
        assert not field[~grid.flags].any()

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=SCHEME_IDS)
    def test_order_preservation(self, scheme):
        grid = random_grid(3, (8, 7, 6))
        field = serial_oracle(grid, scheme)
        X, Y, Z = grid.dims
        x = np.arange(X)[None, None, :]
        y = np.arange(Y)[None, :, None]
        z = np.arange(Z)[:, None, None]
        codes = np.broadcast_to(cell_index(scheme, x, y, z, grid.dims), field.shape)
        order = np.argsort(codes[grid.flags], kind="stable")
        by_code = field[grid.flags][order].astype(np.int64)
        assert (np.diff(by_code) > 0).all()


@pytest.mark.parametrize("scheme", [LexBlocked(1), LexBlocked(4), Morton(2)],
                         ids=["lex:b=1", "lex:b=4", "morton:g=2"])
@pytest.mark.parametrize("P", [1, 3, 5, 8, 64, 100])
def test_distributed_matches_oracle(scheme, P):
    grid = random_grid(8, (8, 8, 8))
    assert np.array_equal(ic_field(grid, scheme, nranks=P), serial_oracle(grid, scheme))


def test_root_fluid_total_matches_grid(channel6):
    boxes = decompose_ranks(channel6.dims, 7)
    total = sum(int(runs_of(channel6, LexBlocked(4), b, boxes)["fluid"].sum()) for b in boxes)
    assert total == channel6.fluid_count
