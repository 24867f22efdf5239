import bisect
import csv
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listlbm import (
    DataError,
    LexBlocked,
    Morton,
    ParameterError,
    PartitionStats,
    SparseRecords,
    VoxelGrid,
    chunk_ranges,
    emit_histograms,
    partition_stats,
    preprocess_grid,
)
from listlbm import partition


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
        with pytest.raises(ParameterError):
            chunk_ranges(80, 4000)

    def test_nonpositive_count(self):
        with pytest.raises(ParameterError):
            chunk_ranges(10, 0)

    def test_empty_domain(self):
        with pytest.raises(ParameterError, match="^domain has no fluid cells$"):
            chunk_ranges(0, 1)

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
        assert sizes.min() >= 1


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
        # oracle: directed links from p's records into q's [lo, hi),
        # counted by plain comparison
        b = assignment.boundaries.astype(np.int64)
        pair = np.zeros((5, 5), dtype=np.int64)
        for p in range(5):
            ent = records.nbr[b[p] - 1 : b[p + 1] - 1].astype(np.int64)
            for q in range(5):
                if q != p:
                    pair[p, q] = ((ent >= b[q]) & (ent < b[q + 1])).sum()
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
        with pytest.raises(DataError, match="^link 5 of I_c=1 to 99 is outside 1..4$"):
            partition_stats(records, chunk_ranges(4, 2))

    @pytest.mark.parametrize("rows,a,i,value", [
        (2, 9, 17, 11),  # in the last of six blocks
        (partition._ROWS, 2, 3, 2**63 + 5),  # negative through an int64 view
    ], ids=["last-block", "above-int64"])
    def test_range_is_checked_in_every_block(self, rows, a, i, value):
        """Each block's range is checked as the block is read, and a bad
        block raises `check_records`' text for the first bad entry. A
        value past uint32 is set in uint64 records, which hold it."""
        grid = VoxelGrid(np.ones((1, 1, 10), dtype=bool))
        _, records = preprocess_grid(grid, LexBlocked(1))
        if value >= 2**32:
            records = SparseRecords(records.coords, records.ic, records.nbr.astype(np.uint64))
        records.nbr[a, i] = value
        with mock.patch.object(partition, "_ROWS", rows), \
                pytest.raises(DataError, match=f"^link {i} of I_c={a + 1} to {value} "
                                               f"is outside 1..10$"):
            partition_stats(records, chunk_ranges(10, 2))

    @pytest.mark.parametrize("bad_link", [False, True], ids=["ic-alone", "after-a-bad-link"])
    def test_ic_is_checked_in_every_block(self, bad_link):
        """A wrong I_c in the last of five blocks is found in the block
        pass, and named before a bad link in an earlier block, as
        `check_records` orders its rules."""
        grid = VoxelGrid(np.ones((1, 1, 10), dtype=bool))
        _, records = preprocess_grid(grid, LexBlocked(1))
        records.ic[9] = 3
        if bad_link:
            records.nbr[0, 5] = 99
        with mock.patch.object(partition, "_ROWS", 2), \
                pytest.raises(DataError, match=r"^I_c=10 is not record 9: records must be "
                                               r"I_c = 1\.\.10 in order$"):
            partition_stats(records, chunk_ranges(10, 2))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32])
    def test_narrow_neighbor_type_is_data_error(self, dtype, packing24):
        """uint32 records, as `preprocess_grid` makes them, give the same
        stats as the same links in uint64; an int32 nbr, where 2^31 and
        up would read negative, is refused when the records are made."""
        header, records = preprocess_grid(packing24, Morton(2), periodic=(True, False, False))
        assert records.nbr.dtype == np.uint32
        if dtype is np.int32:
            with pytest.raises(DataError, match="^record arrays must be uint32 coords, uint64 ic "
                                                "and uint32 or uint64 nbr, got coords uint32, "
                                                "ic uint64, nbr int32$"):
                partition_stats(SparseRecords(records.coords, records.ic,
                                              records.nbr.astype(dtype)),
                                chunk_ranges(header.n_fluid, 2))
            return
        wide = SparseRecords(records.coords, records.ic, records.nbr.astype(np.uint64))
        for N in (1, 2, 7, 64, 1000):
            a = chunk_ranges(header.n_fluid, N)
            got, want = partition_stats(records, a), partition_stats(wide, a)
            for name in ("fluid_cells", "neighbor_count", "remote_links"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (N, name)


def brute_force_stats(records, bounds):
    """Per-link Python oracle: the partition of I_c = i is the p with
    bounds[p] <= i < bounds[p + 1]; entry 0 is a solid link."""
    N = len(bounds) - 1
    remote = [0] * N
    pairs = set()
    for a, row in enumerate(records.nbr.tolist()):
        p = bisect.bisect_right(bounds, a + 1) - 1
        for i in row:
            if i == 0:
                continue
            q = bisect.bisect_right(bounds, i) - 1
            if q != p:
                remote[p] += 1
                pairs.add((p, q))
    neighbors = [0] * N
    for p, _ in pairs:
        neighbors[p] += 1
    return [b - a for a, b in zip(bounds[:-1], bounds[1:])], neighbors, remote


def assert_fields_equal_the_oracle(scheme, periodic, shape, density, seed):
    """At N = 1, 2, 7 and N_f on a random grid of at most 343 cells."""
    flags = np.random.default_rng(seed).random(shape) < density
    flags.flat[0] = True
    grid = VoxelGrid(flags)
    header, records = preprocess_grid(grid, scheme, periodic=(periodic, False, False))
    n_fluid = header.n_fluid
    for N in sorted({1, min(2, n_fluid), min(7, n_fluid), n_fluid}):
        assignment = chunk_ranges(n_fluid, N)
        stats = partition_stats(records, assignment)
        want = brute_force_stats(records, assignment.boundaries.tolist())
        for field, values in zip(("fluid_cells", "neighbor_count", "remote_links"), want):
            got = getattr(stats, field)
            assert got.dtype == np.int64, (N, field)
            assert got.tolist() == values, (N, field)


GRIDS = (st.tuples(*[st.integers(1, 7)] * 3), st.floats(0.3, 1.0), st.integers(0, 2**32 - 1))


class TestAgainstBruteForce:
    @pytest.mark.parametrize("periodic", [False, True], ids=["walled", "periodic-x"])
    @pytest.mark.parametrize("scheme", [LexBlocked(1), Morton(2)], ids=str)
    @settings(max_examples=15, deadline=None)
    @given(*GRIDS)
    def test_every_field_equals_the_oracle(self, scheme, periodic, shape, density, seed):
        assert_fields_equal_the_oracle(scheme, periodic, shape, density, seed)

    @pytest.mark.parametrize("rows", [1, 5, 18])
    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([LexBlocked(1), Morton(2)]), st.booleans(), *GRIDS)
    def test_block_edges_cut_partitions_and_records(self, rows, scheme, periodic,
                                                    shape, density, seed):
        """Blocks of 1, 5 and 18 records end inside partitions, and their
        18 x rows links end inside a record's links too."""
        with mock.patch.object(partition, "_ROWS", rows):
            assert_fields_equal_the_oracle(scheme, periodic, shape, density, seed)

    @pytest.mark.parametrize("N", [46_340, 46_341], ids=["int32-ids", "int64-ids"])
    def test_pair_id_width_equals_a_vectorized_oracle(self, N):
        """Pair ids own * N + target are int32 up to N = 46,340, the last
        N with N^2 < 2^31, and int64 above; a chain of 46,400 cells puts
        one or two cells in each partition at both counts."""
        assert 46_340**2 < 2**31 <= 46_341**2
        header, records = preprocess_grid(VoxelGrid(np.ones((1, 1, 46_400), dtype=bool)),
                                          LexBlocked(1))
        assignment = chunk_ranges(header.n_fluid, N)
        stats = partition_stats(records, assignment)
        bounds = assignment.boundaries.astype(np.int64)
        nbr = records.nbr.astype(np.int64)
        own = np.broadcast_to(np.searchsorted(bounds, np.arange(1, header.n_fluid + 1),
                                              side="right")[:, None] - 1, nbr.shape)
        far = np.searchsorted(bounds, nbr, side="right") - 1
        cross = (nbr > 0) & (far != own)
        pairs = np.unique(np.stack([own[cross], far[cross]], axis=1), axis=0)
        assert stats.remote_links.tolist() == np.bincount(own[cross], minlength=N).tolist()
        assert stats.neighbor_count.tolist() == np.bincount(pairs[:, 0], minlength=N).tolist()

    def test_peak_stays_well_under_the_records(self, packing24):
        """The adjacency is read in blocks of `_ROWS` records, so the
        call peaks at about 0.24x `records.nbr.nbytes` (uint32 links) at
        16 partitions on this packing; (N_f, 18) temporaries over the
        whole adjacency, one block of all N_f records, peak at 2.85x and
        must fail the bound."""
        header, records = preprocess_grid(packing24, Morton(2), periodic=(True, False, False))
        assignment = chunk_ranges(header.n_fluid, 16)
        partition_stats(records, assignment)  # first-call imports are not the call's memory
        tracemalloc.start()
        try:
            partition_stats(records, assignment)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.35 * records.nbr.nbytes, peak / records.nbr.nbytes

    def test_one_cell_per_partition_stays_linear_in_memory(self):
        """At N = N_f a dense N x N pair matrix would take 8 N_f^2 bytes,
        about 70 times the record array here; the call must stay within
        a few times the records' own size."""
        flags = np.random.default_rng(11).random((12, 12, 12)) < 0.7
        header, records = preprocess_grid(VoxelGrid(flags), Morton(2),
                                          periodic=(True, False, False))
        n_fluid = header.n_fluid
        assert 8 * n_fluid**2 > 32 * records.nbr.nbytes
        assignment = chunk_ranges(n_fluid, n_fluid)
        tracemalloc.start()
        try:
            stats = partition_stats(records, assignment)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * records.nbr.nbytes
        want = brute_force_stats(records, assignment.boundaries.tolist())
        assert stats.neighbor_count.tolist() == want[1]
        assert stats.remote_links.tolist() == want[2]


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
