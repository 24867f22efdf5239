import logging

import numpy as np
import pytest

from listlbm import (
    RUN_DTYPE,
    SENTINEL_END,
    LexBlocked,
    Morton,
    ProtocolError,
    RankBox,
    VoxelGrid,
    build_rank_tree,
    decompose_ranks,
    find_runs,
    octree_reduce,
    serial_oracle,
)
from listlbm.indexer import _merge_runs, assign_contiguous
from listlbm.pipeline import contiguous_index_field
from conftest import ALL_SCHEMES, SCHEME_IDS, random_grid


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


class TestRunTable:
    def test_sentinel_value(self):
        assert SENTINEL_END == 2 ** 64 - 1

    def test_rejects_empty_or_inverted_runs(self):
        for run in [(5, 5, 0, 0), (5, 3, 0, 0), (0, 2, -1, 0)]:
            with pytest.raises(ProtocolError, match="invalid run"):
                octree_reduce([table(run)], build_rank_tree(1))


class TestRankTree:
    def test_single_rank(self):
        tree = build_rank_tree(1)
        assert tree.height == 0
        assert tree.root == 0

    def test_one_full_group(self):
        tree = build_rank_tree(8)
        assert tree.height == 1
        ((master, members),) = tree.levels[0]
        assert master == 0
        assert members == tuple(range(8))

    def test_thirteen_ranks(self):
        tree = build_rank_tree(13)
        assert tree.height == 2
        level1 = tree.levels[0]
        assert level1 == ((0, tuple(range(8))), (8, tuple(range(8, 13))))
        assert tree.levels[1] == ((0, (0, 8)),)


class TestFindRuns:
    def test_two_rank_line_all_fluid(self):
        grid = line_grid([1, 1, 1, 1])
        runs0 = find_runs(grid, LexBlocked(1), TWO_RANK_LINE[0])
        runs1 = find_runs(grid, LexBlocked(1), TWO_RANK_LINE[1])
        assert np.array_equal(runs0, table((0, 2, 2, 0)))
        assert np.array_equal(runs1, table((2, SENTINEL_END, 2, 1)))

    def test_single_rank_single_run(self, channel4):
        (box,) = decompose_ranks(channel4.dims, 1)
        (run,) = find_runs(channel4, LexBlocked(1), box)
        assert run["incell"] == 0
        assert run["outcell"] == SENTINEL_END
        assert run["fluid"] == channel4.fluid_count

    def test_solid_cells_extend_runs_but_not_counts(self):
        grid = line_grid([1, 0, 1, 1])
        runs0 = find_runs(grid, LexBlocked(1), TWO_RANK_LINE[0])
        assert np.array_equal(runs0, table((0, 2, 1, 0)))

    def test_morton_gaps_split_nothing_spurious(self):
        # a rank owning one full z-slab of a pow2 cube stays contiguous
        grid = VoxelGrid(np.ones((2, 2, 2), dtype=bool))
        box = RankBox(0, (0, 0, 0), (2, 2, 1))
        (run,) = find_runs(grid, Morton(1), box)
        assert run["incell"] == 0
        assert run["fluid"] == 4


class TestOctreeReduce:
    def test_two_runs_merge_and_split_starts(self):
        lists = [table((0, 2, 2, 0)), table((2, SENTINEL_END, 2, 1))]
        out = octree_reduce(lists, build_rank_tree(2))
        assert out[0]["start"].tolist() == [1]
        assert out[1]["start"].tolist() == [3]

    def test_adjacent_runs_merge(self):
        runs = table((0, 2, 2, 0), (2, 5, 1, 1), (5, 6, 0, 2), (7, 9, 2, 0))
        merged, joined = _merge_runs(runs, 4)
        assert np.array_equal(merged, table((0, 6, 3, 4), (7, 9, 2, 4)))
        assert joined.tolist() == [0, 0, 0, 1]

    def test_single_rank_starts_at_one(self):
        out = octree_reduce([table((0, SENTINEL_END, 7, 0))], build_rank_tree(1))
        assert out[0]["start"].tolist() == [1]

    def test_zero_fluid_run_consumes_no_indices(self):
        runs = table((0, 5, 5, 0), (10, 12, 0, 0), (20, SENTINEL_END, 3, 0))
        out = octree_reduce([runs], build_rank_tree(1))
        assert out[0]["start"].tolist() == [1, 6, 6]

    def test_gaps_between_ranks_allowed(self):
        lists = [table((0, 4, 3, 0)), table((8, SENTINEL_END, 2, 1))]
        out = octree_reduce(lists, build_rank_tree(2))
        assert out[0]["start"].tolist() == [1]
        assert out[1]["start"].tolist() == [4]

    def test_overlapping_runs_rejected(self):
        lists = [table((0, 3, 3, 0)), table((2, SENTINEL_END, 2, 1))]
        with pytest.raises(ProtocolError, match="overlapping"):
            octree_reduce(lists, build_rank_tree(2))

    def test_overlap_within_single_rank_rejected(self):
        runs = table((0, 3, 3, 0), (2, SENTINEL_END, 2, 0))
        with pytest.raises(ProtocolError, match="overlapping"):
            octree_reduce([runs], build_rank_tree(1))

    def test_wrong_owner_rejected(self):
        with pytest.raises(ProtocolError, match="owned by rank 3"):
            octree_reduce([table((0, SENTINEL_END, 1, 3))], build_rank_tree(1))

    def test_arrival_order_does_not_matter(self):
        grid = random_grid(5, (16, 8, 7))
        boxes = decompose_ranks(grid.dims, 13)
        tree = build_rank_tree(13)
        lists = [find_runs(grid, Morton(2), b, all_boxes=boxes) for b in boxes]
        base = octree_reduce(lists, tree)
        for seed in (0, 1, 2):
            shuffled = octree_reduce(lists, tree, rng=np.random.default_rng(seed))
            assert all(np.array_equal(a, b) for a, b in zip(shuffled, base))
        assert not any(runs["start"].any() for runs in lists)

    def test_debug_trace_logs_each_level(self, caplog):
        grid = random_grid(8, (8, 8, 8))
        boxes = decompose_ranks(grid.dims, 64)
        tree = build_rank_tree(64)
        lists = [find_runs(grid, Morton(2), b, all_boxes=boxes) for b in boxes]
        base = octree_reduce(lists, tree)
        with caplog.at_level(logging.DEBUG, logger="listlbm.indexer"):
            traced = octree_reduce(lists, tree)
        messages = [r.getMessage() for r in caplog.records]
        for li, groups in enumerate(tree.levels):
            for master, _ in groups:
                assert sum(m.startswith(f"up level {li} master {master}:")
                           for m in messages) == 1
                assert sum(m.startswith(f"down level {li} master {master}:")
                           for m in messages) == 1
        assert sum(m.startswith("root 0 assigned ")
                   and m.endswith(f"N_f={grid.fluid_count}") for m in messages) == 1
        assert all(np.array_equal(a, b) for a, b in zip(traced, base))


class TestAssignContiguous:
    def test_all_fluid_line(self):
        grid = line_grid([1, 1, 1, 1])
        box = RankBox(0, (0, 0, 0), (4, 1, 1))
        icis = octree_reduce([find_runs(grid, LexBlocked(1), box)], build_rank_tree(1))[0]
        field = assign_contiguous(grid, LexBlocked(1), box, icis)
        assert field.tolist() == [[[1, 2, 3, 4]]]

    def test_solid_cells_get_zero(self):
        grid = line_grid([1, 0, 1, 1])
        box = RankBox(0, (0, 0, 0), (4, 1, 1))
        icis = octree_reduce([find_runs(grid, LexBlocked(1), box)], build_rank_tree(1))[0]
        field = assign_contiguous(grid, LexBlocked(1), box, icis)
        assert field.tolist() == [[[1, 0, 2, 3]]]

    def test_unset_start_rejected(self):
        grid = line_grid([1, 1, 1, 1])
        box = RankBox(0, (0, 0, 0), (4, 1, 1))
        with pytest.raises(ProtocolError, match="no start"):
            assign_contiguous(grid, LexBlocked(1), box, table((0, SENTINEL_END, 4, 0)))

    @pytest.mark.parametrize("rows,match", [
        ([(0, 2, 2, 0, 1), (2, SENTINEL_END, 2, 0, 3)], "has 1 runs"),
        ([(1, SENTINEL_END, 4, 0, 1)], "incell mismatch"),
        ([(0, SENTINEL_END, 3, 0, 1)], "fluid count 4"),
    ], ids=["run-count", "incell", "fluid-count"])
    def test_mismatched_runs_rejected(self, rows, match):
        grid = line_grid([1, 1, 1, 1])
        box = RankBox(0, (0, 0, 0), (4, 1, 1))
        with pytest.raises(ProtocolError, match=match):
            assign_contiguous(grid, LexBlocked(1), box, np.array(rows, dtype=RUN_DTYPE))


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
        from listlbm import cell_index
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
        from listlbm import cell_index
        codes = np.broadcast_to(cell_index(scheme, x, y, z, grid.dims), field.shape)
        order = np.argsort(codes[grid.flags], kind="stable")
        by_code = field[grid.flags][order].astype(np.int64)
        assert (np.diff(by_code) > 0).all()


@pytest.mark.parametrize("scheme", [LexBlocked(1), LexBlocked(4), Morton(2)],
                         ids=["lex:b=1", "lex:b=4", "morton:g=2"])
@pytest.mark.parametrize("P", [1, 3, 5, 8, 64, 100])
def test_distributed_matches_oracle(scheme, P):
    grid = random_grid(8, (8, 8, 8))
    assert np.array_equal(contiguous_index_field(grid, scheme, nranks=P),
                          serial_oracle(grid, scheme))


def test_root_fluid_total_matches_grid(channel6):
    boxes = decompose_ranks(channel6.dims, 7)
    total = sum(int(find_runs(channel6, LexBlocked(4), b, all_boxes=boxes)["fluid"].sum())
                for b in boxes)
    assert total == channel6.fluid_count
