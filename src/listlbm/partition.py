"""Partitioning of the 1-D fluid cell list and partition-quality metrics.

A partitioning is a list of start indices cutting the contiguous index
range [1, N_f] into ranges: N equal chunks (the trailing ones smaller by
one cell) or the start table of a sparse file, chosen in one place by
`SparseHeader.partition`. Quality metrics count, per partition, the
distinct neighbor partitions and the directed PDF links crossing
partition boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjacency import check_records
from .errors import TooManyProcessesError

__all__ = [
    "PartitionAssignment",
    "PartitionStats",
    "chunk_ranges",
    "emit_histograms",
    "first_bad_start",
    "partition_stats",
]


@dataclass(frozen=True, eq=False)
class PartitionAssignment:
    """Boundaries of N contiguous index ranges covering [1, N_f]."""

    n_fluid: int
    boundaries: np.ndarray  # (N + 1,) uint64; first 1, last N_f + 1

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=np.uint64)
        if b.ndim != 1 or b.size < 2:
            raise ValueError(f"need at least 2 boundaries, got shape {b.shape}")
        if b[-1] != self.n_fluid + 1:
            raise ValueError(f"last boundary must be N_f+1={self.n_fluid + 1}, got {b[-1]}")
        bad = first_bad_start(b[:-1], self.n_fluid)
        if bad is not None:
            raise ValueError(f"boundary #{bad[0]}: {bad[1]}")
        object.__setattr__(self, "boundaries", b)

    @property
    def N(self) -> int:
        return self.boundaries.size - 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.boundaries).astype(np.int64)

    def owner_of(self, ic) -> np.ndarray:
        """Partition id of each contiguous index (vectorized)."""
        return (
            np.searchsorted(self.boundaries, np.asarray(ic, dtype=np.uint64), "right")
            - 1
        )

    def __eq__(self, other):
        if not isinstance(other, PartitionAssignment):
            return NotImplemented
        return self.n_fluid == other.n_fluid and np.array_equal(
            self.boundaries, other.boundaries
        )


def first_bad_start(starts, n_fluid: int) -> tuple[int, str] | None:
    """Index and reason of the first entry that breaks the partition
    start rules (begins at 1, increases strictly, stays <= N_f), or None
    when the list obeys them all."""
    s = np.asarray(starts)
    if s.size == 0:
        return 0, "start list is empty"
    drop = np.concatenate([[s[0] != 1], s[1:] <= s[:-1]])
    bad = np.flatnonzero(drop | (s > n_fluid))
    if not bad.size:
        return None
    k = int(bad[0])
    if k == 0 and drop[0]:
        return 0, f"first start must be 1, got {s[0]}"
    if drop[k]:
        return k, f"start {s[k]} does not increase past {s[k - 1]}"
    return k, f"start {s[k]} exceeds N_f={n_fluid}"


def chunk_ranges(n_fluid: int, N: int) -> PartitionAssignment:
    """Equal chunking: the first (N_f mod N) chunks are one cell larger."""
    if N < 1:
        raise ValueError(f"partition count must be >= 1, got {N}")
    if N > n_fluid:
        raise TooManyProcessesError(
            f"{N} partitions requested but only {n_fluid} fluid cells exist"
        )
    base, extra = divmod(n_fluid, N)
    sizes = np.full(N, base, dtype=np.uint64)
    sizes[:extra] += 1
    bounds = np.empty(N + 1, dtype=np.uint64)
    bounds[0] = 1
    np.cumsum(sizes, out=bounds[1:])
    bounds[1:] += 1
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
    """
    check_records(records, assignment.n_fluid)
    N = assignment.N
    nbr = records.nbr
    owner = assignment.owner_of(records.ic)

    valid = nbr != 0
    src = np.broadcast_to(owner[:, None], nbr.shape)[valid]
    dst = assignment.owner_of(nbr[valid])
    cross = src != dst
    remote_links = np.bincount(src[cross], minlength=N).astype(np.int64)
    pair_ids = np.unique(src[cross].astype(np.int64) * N + dst[cross])
    neighbor_count = np.bincount(pair_ids // N, minlength=N).astype(np.int64)
    return PartitionStats(
        fluid_cells=assignment.sizes,
        neighbor_count=neighbor_count,
        remote_links=remote_links,
    )


def emit_histograms(stats: PartitionStats, prefix) -> tuple[str, str]:
    """Write two CSV histograms and return their paths.

    <prefix>_neighbors.csv uses unit bins and lists only occupied bins;
    <prefix>_remote_links.csv uses 64 equal-width bins (all listed,
    labeled by lower edge).
    """
    neighbors_path = f"{prefix}_neighbors.csv"
    remote_path = f"{prefix}_remote_links.csv"

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
