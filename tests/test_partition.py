import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listlbm import (
    DataError,
    LexBlocked,
    PartitionAssignment,
    PartitionMapError,
    PartitionStats,
    TooManyProcessesError,
    VoxelGrid,
    chunk_ranges,
    emit_histograms,
    import_partition_map,
    partition_stats,
    preprocess_grid,
)
from listlbm.partition import first_bad_start


class TestChunkRanges:
    @pytest.mark.parametrize("n_fluid,N,sizes", [
        (10, 3, [4, 3, 3]),
        (5, 5, [1, 1, 1, 1, 1]),
        (7, 1, [7]),
        (11, 4, [3, 3, 3, 2]),
    ])
    def test_sizes(self, n_fluid, N, sizes):
        assignment = chunk_ranges(n_fluid, N)
        assert assignment.sizes.tolist() == sizes
        assert assignment.boundaries[0] == 1
        assert assignment.boundaries[-1] == n_fluid + 1

    def test_too_many_chunks(self):
        with pytest.raises(TooManyProcessesError):
            chunk_ranges(80, 4000)

    def test_nonpositive_count(self):
        with pytest.raises(ValueError):
            chunk_ranges(10, 0)

    def test_owner_lookup(self):
        assignment = chunk_ranges(10, 3)  # ranges [1,5) [5,8) [8,11)
        ic = np.array([1, 4, 5, 7, 8, 10], dtype=np.uint64)
        assert assignment.owner_of(ic).tolist() == [0, 0, 1, 1, 2, 2]
        assert assignment.owner_of(np.array([0], dtype=np.uint64)).tolist() == [-1]

    def test_matches_linear_scan(self):
        for n_fluid in range(1, 41):
            for N in range(1, n_fluid + 1):
                sizes = chunk_ranges(n_fluid, N).sizes
                assert sizes.sum() == n_fluid
                assert sizes.max() - sizes.min() <= 1
                # larger chunks come first
                assert (np.diff(sizes) <= 0).all()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=10 ** 9), st.data())
    def test_balance_holds_at_any_scale(self, n_fluid, data):
        N = data.draw(st.integers(min_value=1, max_value=min(n_fluid, 4096)))
        assignment = chunk_ranges(n_fluid, N)
        sizes = assignment.sizes
        assert sizes.sum() == n_fluid
        assert sizes.max() - sizes.min() <= 1
        ic = np.asarray(assignment.boundaries[:-1], dtype=np.uint64)
        assert assignment.owner_of(ic).tolist() == list(range(N))


class TestImportMap:
    def write(self, tmp_path, text):
        path = tmp_path / "parts.txt"
        path.write_text(text)
        return path

    def test_valid_map(self, tmp_path):
        assignment = import_partition_map(self.write(tmp_path, "1\n5\n8\n"), 10)
        assert assignment.sizes.tolist() == [4, 3, 3]
        assert assignment == chunk_ranges(10, 3)

    def test_single_start(self, tmp_path):
        assignment = import_partition_map(self.write(tmp_path, "1\n"), 10)
        assert assignment.sizes.tolist() == [10]

    def test_must_begin_at_one(self, tmp_path):
        with pytest.raises(PartitionMapError, match="line 1"):
            import_partition_map(self.write(tmp_path, "2\n5\n"), 10)

    def test_non_integer_line(self, tmp_path):
        with pytest.raises(PartitionMapError, match="line 2"):
            import_partition_map(self.write(tmp_path, "1\nfive\n"), 10)

    def test_non_increasing(self, tmp_path):
        with pytest.raises(PartitionMapError, match="line 3"):
            import_partition_map(self.write(tmp_path, "1\n5\n5\n"), 10)

    def test_out_of_range(self, tmp_path):
        with pytest.raises(PartitionMapError, match="line 2"):
            import_partition_map(self.write(tmp_path, "1\n11\n"), 10)

    def test_empty_file(self, tmp_path):
        with pytest.raises(PartitionMapError):
            import_partition_map(self.write(tmp_path, ""), 10)

    def test_non_ascii_names_its_line(self, tmp_path):
        path = tmp_path / "parts.txt"
        path.write_bytes(b"1\n\xff5\n")
        with pytest.raises(PartitionMapError, match="line 2"):
            import_partition_map(path, 10)


class TestFirstBadStart:
    @pytest.mark.parametrize("starts,expect", [
        ([1], None),
        ([1, 5, 10], None),
        ([], 0),
        ([2, 5], 0),
        ([0, 5], 0),
        ([1, 5, 5], 2),
        ([1, 7, 3], 2),
        ([1, 11], 1),
        ([1, 11, 3], 1),  # the first breach wins, whatever rule it breaks
    ])
    def test_index_of_first_breach(self, starts, expect):
        bad = first_bad_start(starts, 10)
        assert (None if bad is None else bad[0]) == expect

    def test_reads_unsigned_file_values(self):
        starts = np.array([1, 2**64 - 1], dtype=np.uint64)
        assert first_bad_start(starts, 10) == (1, f"start {2**64 - 1} exceeds N_f=10")

    def test_assignment_shares_the_rules(self):
        with pytest.raises(ValueError, match="does not increase"):
            PartitionAssignment(n_fluid=10, boundaries=np.array([1, 5, 5, 11]))
        with pytest.raises(ValueError, match="N_f\\+1=11"):
            PartitionAssignment(n_fluid=10, boundaries=np.array([1, 5, 10]))


def stats_for(flags_zyx, N, periodic=(False, False, False), scheme=LexBlocked(1)):
    grid = VoxelGrid(np.asarray(flags_zyx, dtype=bool))
    header, records = preprocess_grid(grid, scheme, periodic=periodic)
    return partition_stats(records, chunk_ranges(header.n_fluid, N))


class TestPartitionStats:
    def test_two_cell_line(self):
        stats = stats_for(np.ones((1, 1, 2)), 2)
        assert stats.neighbor_count.tolist() == [1, 1]
        assert stats.remote_links.tolist() == [1, 1]

    def test_square_split_in_two(self):
        stats = stats_for(np.ones((1, 2, 2)), 2)
        # one axis link and one diagonal link cross per cell pair
        assert stats.remote_links.tolist() == [4, 4]
        assert stats.neighbor_count.tolist() == [1, 1]
        assert stats.total_remote_links == 8
        assert stats.max_neighbor_count == 1

    def test_single_partition_has_no_remote_links(self):
        stats = stats_for(np.ones((2, 3, 4)), 1)
        assert stats.neighbor_count.tolist() == [0]
        assert stats.remote_links.tolist() == [0]

    def test_periodic_wrap_to_own_partition_not_counted(self):
        stats = stats_for(np.ones((1, 1, 4)), 1, periodic=(True, False, False))
        assert stats.total_remote_links == 0

    def test_directed_links_are_reciprocal(self):
        flags = np.random.default_rng(9).random((6, 5, 7)) < 0.6
        grid = VoxelGrid(flags)
        header, records = preprocess_grid(grid, LexBlocked(1), periodic=(True, True, False))
        assignment = chunk_ranges(header.n_fluid, 5)
        stats = partition_stats(records, assignment)
        # oracle: count directed crossing links per (src, dst) pair
        src = np.repeat(assignment.owner_of(records.ic), 18)
        dst_ic = records.nbr.ravel()
        valid = dst_ic > 0
        dst = assignment.owner_of(dst_ic[valid])
        src = src[valid]
        cross = src != dst
        pair = np.zeros((5, 5), dtype=np.int64)
        np.add.at(pair, (src[cross], dst[cross]), 1)
        assert np.array_equal(pair, pair.T)
        assert stats.total_remote_links == pair.sum()
        assert stats.remote_links.tolist() == pair.sum(axis=1).tolist()
        assert stats.neighbor_count.tolist() == (pair > 0).sum(axis=1).tolist()

    def test_fluid_cells_per_partition(self):
        stats = stats_for(np.ones((1, 1, 10)), 3)
        assert stats.fluid_cells.tolist() == [4, 3, 3]

    def test_neighbor_out_of_range_is_data_error(self):
        grid = VoxelGrid(np.ones((1, 1, 4), dtype=bool))
        _, records = preprocess_grid(grid, LexBlocked(1))
        records.nbr[0, 5] = 99
        with pytest.raises(DataError):
            partition_stats(records, chunk_ranges(4, 2))


def read_hist(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin", "count"]
    return [(int(b), int(c)) for b, c in rows[1:]]


class TestHistograms:
    def test_degenerate_single_bin(self, tmp_path):
        stats = PartitionStats(
            fluid_cells=np.array([5, 5, 5]),
            neighbor_count=np.array([1, 1, 1]),
            remote_links=np.array([0, 0, 0]),
        )
        neighbors_csv, _ = emit_histograms(stats, tmp_path / "h")
        assert read_hist(neighbors_csv) == [(1, 3)]

    def test_zero_neighbor_single_partition(self, tmp_path):
        stats = PartitionStats(
            fluid_cells=np.array([9]),
            neighbor_count=np.array([0]),
            remote_links=np.array([0]),
        )
        neighbors_csv, _ = emit_histograms(stats, tmp_path / "h")
        assert read_hist(neighbors_csv) == [(0, 1)]

    def test_remote_links_uses_64_equal_bins(self, tmp_path):
        stats = PartitionStats(
            fluid_cells=np.array([1, 1, 1, 1]),
            neighbor_count=np.array([1, 1, 1, 1]),
            remote_links=np.array([0, 63, 64, 640]),
        )
        _, remote_csv = emit_histograms(stats, tmp_path / "h")
        rows = read_hist(remote_csv)
        assert len(rows) == 64
        width = (640 + 1 + 63) // 64  # ceil((max+1)/64) -> 11
        assert [b for b, _ in rows] == [i * width for i in range(64)]
        counts = {b: c for b, c in rows}
        assert counts[0] == 1
        assert counts[5 * width] == 2  # 63 and 64 land in [55, 66)
        assert counts[58 * width] == 1  # 640 lands in [638, 649)
        assert sum(c for _, c in rows) == 4

    def test_partition_count_not_cells_is_histogrammed(self, tmp_path):
        stats = stats_for(np.ones((1, 1, 10)), 5)
        neighbors_csv, remote_csv = emit_histograms(stats, tmp_path / "h")
        assert sum(c for _, c in read_hist(neighbors_csv)) == 5
        assert sum(c for _, c in read_hist(remote_csv)) == 5
