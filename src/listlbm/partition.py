"""Partitioning of the 1-D fluid cell list and partition-quality metrics.

A partitioning cuts the contiguous index range [1, N_f] into N equal
chunks, the first N_f mod N of them one cell larger; `chunk_ranges` is
the one place that computes the boundaries, by the `equal_split` that
also cuts the rank boxes' axes. Quality metrics count, per
partition, the distinct neighbor partitions and the directed PDF links
crossing partition boundaries.

`partition_stats` walks the adjacency in blocks of `_ROWS` records: one
gather of an owner table of N_f + 1 entries gives each link's target
partition, and only the crossing links' pair ids leave the block. The
distinct partition pairs are counted by sorting those ids once, so its
memory is one block plus the crossing links plus N, for any N up to
N_f. It builds no dense N x N matrix: that would take 8 N^2 bytes,
80 GB at N = 10^5, which `analyze --parts` accepts.
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

# records per block of partition_stats: the block's (_ROWS, 18) gathered
# partitions and crossing mask stay in cache
_ROWS = 1 << 14


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
    The records pass `check_records` first; link symmetry is not checked.
    Memory is one block of `_ROWS` records plus 8 bytes per crossing
    link (twice, while the blocks are joined) plus N.

    `lut[i]` is the partition of I_c = i (-1 at i = 0, the solid link)
    in the smallest signed type that holds -1..N-1; record a holds
    I_c = a + 1, so its own partition is `lut[a + 1]`. Each crossing
    link becomes the pair id own * N + target.
    """
    check_records(records, assignment.n_fluid)
    N = assignment.N
    lut = np.empty(assignment.n_fluid + 1, dtype=np.min_scalar_type(-N))
    lut[0] = -1
    lut[1:] = np.repeat(np.arange(N, dtype=lut.dtype), assignment.sizes)
    # entries are 0..N_f after check_records, so the int64 view is exact;
    # gathering by uint64 indices, or from an int64 table, is about 2x slower
    nbr, own = records.nbr.view(np.int64), lut[1:]
    pair_ids = np.concatenate([
        _crossing_pairs(lut[nbr[a0 : a0 + _ROWS]], own[a0 : a0 + _ROWS], N)
        for a0 in range(0, nbr.shape[0], _ROWS)
    ])
    pair_ids.sort()
    first = np.ones(pair_ids.size, dtype=bool)
    first[1:] = pair_ids[1:] != pair_ids[:-1]
    # partition p's links are the sorted ids in [p N, (p + 1) N)
    edges = np.arange(N + 1) * N
    remote_links = np.diff(np.searchsorted(pair_ids, edges))
    neighbor_count = np.diff(np.searchsorted(pair_ids[first], edges))
    return PartitionStats(
        fluid_cells=assignment.sizes,
        neighbor_count=neighbor_count,
        remote_links=remote_links,
    )


def _crossing_pairs(dst: np.ndarray, own: np.ndarray, N: int) -> np.ndarray:
    """Pair ids own * N + target of one block's crossing links, in row
    order: `dst` is the block's (rows, 18) target partitions (-1 for a
    solid link), `own` its rows' partitions."""
    cross = np.not_equal(dst, own[:, None])
    cross &= dst >= 0
    ids = np.flatnonzero(cross)
    far = dst.reshape(-1)[ids]
    ids //= 18
    # own may be int8: the product is taken in int64
    np.multiply(own[ids], N, out=ids, dtype=np.int64)
    ids += far
    return ids


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
