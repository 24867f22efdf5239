"""Partitioning of the 1-D fluid cell list and partition-quality metrics.

A partitioning cuts the contiguous index range [1, N_f] into N equal
chunks, the first N_f mod N of them one cell larger; `chunk_ranges` is
the one place that computes the boundaries, by the `equal_split` that
also cuts the rank boxes' axes. Quality metrics count, per
partition, the distinct neighbor partitions and the directed PDF links
crossing partition boundaries.

`partition_stats` walks the adjacency once, in blocks of `_ROWS`
records: it checks each block's I_c and neighbor range, then one
gather of an owner table of N_f + 1 entries gives each link's target
partition, and only the crossing links' pair ids leave the block. A
block inside one partition finds its crossing links by comparing with
that partition's number; a block straddling a boundary compares each
row with its own partition. When every partition holds at least
`_ROWS` records, blocks also end at partition boundaries, so all of
them lie in one partition. Each block's ids are appended to one buffer
that grows as needed, and the distinct partition pairs are counted by
sorting it once, as int32 when N^2 < 2^31, so its memory is one block
plus 4 bytes per crossing link (8 at larger N), 1 more while the
sorted ids are compared, plus N, for any N up to N_f. It builds no
dense N x N matrix: that would take 8 N^2 bytes, 80 GB at N = 10^5,
which `analyze --parts` accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjacency import check_records
from .errors import ParameterError
from .geometry import equal_split

__all__ = [
    "PartitionAssignment",
    "PartitionStats",
    "chunk_ranges",
    "emit_histograms",
    "histogram_paths",
    "partition_stats",
]

# records per block of partition_stats: the block's (_ROWS, 18) entries,
# 147 kB in uint32 and 295 kB as the intp copy its gather reads, stay in
# L2 cache between the range check and the gather
_ROWS = 1 << 11


@dataclass(frozen=True, eq=False)
class PartitionAssignment:
    """Boundaries of N contiguous index ranges covering [1, N_f], as
    `chunk_ranges` builds them."""

    n_fluid: int
    boundaries: np.ndarray  # (N + 1,) uint64; first 1, last N_f + 1

    @property
    def N(self) -> int:
        return self.boundaries.size - 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.boundaries).astype(np.int64)


def chunk_ranges(n_fluid: int, N: int) -> PartitionAssignment:
    """Equal chunking: the first (N_f mod N) chunks are one cell larger."""
    if not n_fluid:
        raise ParameterError("domain has no fluid cells")
    if N < 1:
        raise ParameterError(f"partition count must be >= 1, got {N}")
    if N > n_fluid:
        raise ParameterError(f"{N} partitions requested but only {n_fluid} fluid cells exist")
    bounds = equal_split(n_fluid, N)
    bounds += 1
    return PartitionAssignment(n_fluid=n_fluid, boundaries=bounds)


@dataclass(frozen=True)
class PartitionStats:
    """Per-partition link metrics over a given assignment."""

    fluid_cells: np.ndarray     # (N,) int64
    neighbor_count: np.ndarray  # (N,) distinct other partitions linked to
    remote_links: np.ndarray    # (N,) directed PDF links leaving the partition

    @property
    def N(self) -> int:
        return self.fluid_cells.size

    @property
    def total_remote_links(self) -> int:
        return int(self.remote_links.sum())

    @property
    def max_neighbor_count(self) -> int:
        return int(self.neighbor_count.max()) if self.N else 0


def partition_stats(records, assignment: PartitionAssignment) -> PartitionStats:
    """Count remote links and neighbor partitions for every partition.

    A directed link a -> b counts when partition(a) != partition(b);
    links to solid cells (nbr 0) and links staying inside a partition
    (including periodic wraps onto the same partition) do not count.
    Records that fail `check_records` raise its DataError, for the same
    first bad entry; link symmetry is not checked. Memory is
    one block of `_ROWS` records plus 4 bytes per crossing link when
    N^2 < 2^31, else 8, held once (the buffer grows by a quarter, in
    place where the allocator can), plus 1 while the sorted ids are
    compared, plus N.

    The record count is checked first; each block's `ic` and neighbor
    range are checked just before the block is gathered, so the
    adjacency is read from memory once. `lut[i]` is the partition of
    I_c = i in the smallest signed type that holds -1..N-1; record a
    holds I_c = a + 1, so its own partition is `lut[a + 1]`. A block
    inside one partition p gathers with `lut[0] = p`, so that solid links
    compare equal and one scalar test `dst != p` finds the crossing
    links; a block straddling a boundary gathers with `lut[0] = -1` and
    compares each row with its own partition (`_crossing_pairs`). Each
    crossing link becomes the pair id own * N + target, int32 when
    N^2 < 2^31, whose sort is about twice as fast as int64's.
    """
    n_fluid, N = assignment.n_fluid, assignment.N
    if len(records) != n_fluid:
        check_records(records, n_fluid)
    lut = np.empty(n_fluid + 1, dtype=np.min_scalar_type(-N))
    lut[1:] = np.repeat(np.arange(N, dtype=lut.dtype), assignment.sizes)
    own = lut[1:]
    id_type = np.int32 if N * N < 1 << 31 else np.int64
    ic, nbr = records.ic, records.nbr
    # the range check reads the unsigned entries, where 2^63 + k is not
    # negative; the gather reads them copied to one reused intp block,
    # exact for 0..N_f once checked: `take` converts any other index type
    # to a new intp array of its own
    index = np.empty((min(_ROWS, n_fluid), 18), np.intp)
    pair_ids, count = np.empty(0, id_type), 0
    for a0, a1 in _blocks(assignment):
        if (nbr[a0:a1].max() > n_fluid
                or (ic[a0:a1] != np.arange(a0 + 1, a1 + 1, dtype=np.uint64)).any()):
            check_records(records, n_fluid)
        block = index[: a1 - a0]
        block[...] = nbr[a0:a1]
        p = int(own[a0]) if own[a0] == own[a1 - 1] else None
        lut[0] = -1 if p is None else p
        # the block's entries are 0..N_f, so clipping changes none
        ids = _crossing_pairs(lut.take(block, mode="clip"), own[a0:a1], p, N, id_type)
        if count + ids.size > pair_ids.size:
            # realloc: in place where the allocator can, and traced once
            pair_ids.resize(max(count + ids.size, pair_ids.size * 5 // 4), refcheck=False)
        pair_ids[count : count + ids.size] = ids
        count += ids.size
    pair_ids.resize(count, refcheck=False)
    pair_ids.sort()
    first = np.ones(pair_ids.size, dtype=bool)
    np.not_equal(pair_ids[1:], pair_ids[:-1], out=first[1:])
    # partition p's links are the sorted ids in [p N, (p + 1) N); edges
    # in the ids' type, so searchsorted does not cast the ids to int64
    edges = np.arange(N + 1, dtype=id_type) * N
    remote_links = np.diff(np.searchsorted(pair_ids, edges))
    neighbor_count = np.diff(np.searchsorted(pair_ids[first], edges))
    return PartitionStats(
        fluid_cells=assignment.sizes,
        neighbor_count=neighbor_count,
        remote_links=remote_links,
    )


def _blocks(assignment: PartitionAssignment):
    """Record ranges [a0, a1) of at most `_ROWS` records in order. When
    every partition holds at least `_ROWS` records (N * _ROWS <= N_f),
    the ranges also end at partition boundaries, so each lies inside one
    partition; at larger N that would leave blocks of a few records."""
    n = assignment.n_fluid
    cuts = (assignment.boundaries - 1).tolist() if assignment.N * _ROWS <= n else [0, n]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        for a0 in range(lo, hi, _ROWS):
            yield a0, min(a0 + _ROWS, hi)


def _crossing_pairs(dst: np.ndarray, own: np.ndarray, p, N: int, id_type) -> np.ndarray:
    """Pair ids own * N + target of one block's crossing links, in row
    order and of `id_type`: `dst` is the block's (rows, 18) target
    partitions and `own` its rows' partitions. A block inside one
    partition p (`p` not None) was gathered with solid links as p; any
    other block, with solid links as -1."""
    if p is not None:
        return np.add(dst[dst != p], p * N, dtype=id_type)
    cross = np.not_equal(dst, own[:, None])
    cross &= dst >= 0
    ids = np.flatnonzero(cross)
    far = dst.reshape(-1)[ids]
    ids //= 18
    pair_ids = np.multiply(own[ids], N, dtype=id_type)
    pair_ids += far
    return pair_ids


def histogram_paths(prefix) -> tuple[str, str]:
    """The two files `emit_histograms` writes for `prefix`."""
    return f"{prefix}_neighbors.csv", f"{prefix}_remote_links.csv"


def emit_histograms(stats: PartitionStats, prefix) -> tuple[str, str]:
    """Write two CSV histograms and return their paths.

    <prefix>_neighbors.csv uses unit bins and lists only occupied bins;
    <prefix>_remote_links.csv uses 64 equal-width bins (all listed,
    labeled by lower edge).
    """
    neighbors_path, remote_path = histogram_paths(prefix)

    values, counts = np.unique(stats.neighbor_count, return_counts=True)
    with open(neighbors_path, "w", encoding="ascii") as fh:
        fh.write("bin,count\n")
        for v, c in zip(values, counts):
            fh.write(f"{int(v)},{int(c)}\n")

    top = int(stats.remote_links.max()) if stats.N else 0
    width = max(1, -(-(top + 1) // 64))
    binned = np.bincount(
        np.minimum(stats.remote_links // width, 63).astype(np.int64), minlength=64
    )
    with open(remote_path, "w", encoding="ascii") as fh:
        fh.write("bin,count\n")
        for k in range(64):
            fh.write(f"{k * width},{int(binned[k])}\n")
    return neighbors_path, remote_path
