"""D3Q19 adjacency construction over fluid cells via halo exchange, and
the one validator of sparse records in memory.

Each rank's box is padded by one cell of I_c, filled with one copy from
each rank that owns part of it (wrapped on periodic axes, 0 beyond
non-periodic ends); a cell is fluid when its I_c is > 0. A pad cell held
by no rank or by two is a ProtocolError naming the cell. Neighbor
entries store the contiguous index of the fluid neighbor, or 0 when the
neighbor is solid or outside the domain. `check_records` and
`check_links` raise DataError naming the first I_c that breaks a record
rule; the file readers share `first_bad_entry` for the range rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ProtocolError
from .geometry import RankBox, VoxelGrid

__all__ = [
    "STENCIL", "HaloView", "SparseRecords", "build_adjacency", "check_links", "check_records",
    "first_bad_entry", "halo_exchange",
]

# 18 non-rest directions, opposite-paired: direction i and i XOR 1 are
# opposites. Order: 6 axis vectors, then 12 diagonals.
STENCIL = np.array(
    [
        (1, 0, 0), (-1, 0, 0),
        (0, 1, 0), (0, -1, 0),
        (0, 0, 1), (0, 0, -1),
        (1, 1, 0), (-1, -1, 0),
        (1, -1, 0), (-1, 1, 0),
        (1, 0, 1), (-1, 0, -1),
        (1, 0, -1), (-1, 0, 1),
        (0, 1, 1), (0, -1, -1),
        (0, 1, -1), (0, -1, 1),
    ],
    dtype=np.int64,
)
STENCIL.setflags(write=False)

assert STENCIL.shape == (18, 3)
assert np.array_equal(STENCIL[::2], -STENCIL[1::2])
assert int(np.count_nonzero(np.abs(STENCIL).sum(axis=1) == 1)) == 6
assert int(np.count_nonzero(np.abs(STENCIL).sum(axis=1) == 2)) == 12


@dataclass(frozen=True)
class SparseRecords:
    """Structure-of-arrays record batch: coordinates, I_c, 18 neighbors."""

    coords: np.ndarray  # (n, 3) uint32, columns x, y, z
    ic: np.ndarray      # (n,) uint64
    nbr: np.ndarray     # (n, 18) uint64

    def __post_init__(self):
        n = self.ic.shape[0]
        if self.coords.shape != (n, 3) or self.nbr.shape != (n, 18):
            raise ValueError(
                f"inconsistent record arrays: coords {self.coords.shape}, "
                f"ic {self.ic.shape}, nbr {self.nbr.shape}"
            )

    def __len__(self) -> int:
        return self.ic.shape[0]

    def sorted_by_ic(self) -> "SparseRecords":
        idx = np.argsort(self.ic)
        return SparseRecords(self.coords[idx], self.ic[idx], self.nbr[idx])

    @classmethod
    def concat(cls, batches) -> "SparseRecords":
        batches = list(batches)
        if not batches:
            return cls(
                np.empty((0, 3), np.uint32),
                np.empty(0, np.uint64),
                np.empty((0, 18), np.uint64),
            )
        return cls(
            np.concatenate([b.coords for b in batches]),
            np.concatenate([b.ic for b in batches]),
            np.concatenate([b.nbr for b in batches]),
        )

    def equals(self, other: "SparseRecords") -> bool:
        return (
            np.array_equal(self.coords, other.coords)
            and np.array_equal(self.ic, other.ic)
            and np.array_equal(self.nbr, other.nbr)
        )


@dataclass(frozen=True)
class HaloView:
    """A rank's box padded by one cell of neighbor I_c on every side.

    ic is shaped (ez + 2, ey + 2, ex + 2); a cell is fluid when its I_c
    is > 0, and pad cells beyond a non-periodic boundary hold 0.
    """

    box: RankBox
    ic: np.ndarray


def _first_cell(mask: np.ndarray, gx, gy, gz) -> tuple[int, int, int]:
    """Global (x, y, z) of the first set entry of a (z, y, x) mask whose
    axes have the global coordinates gz, gy, gx."""
    iz, iy, ix = np.argwhere(mask)[0]
    return int(gx[ix]), int(gy[iy]), int(gz[iz])


def halo_exchange(
    grid: VoxelGrid,
    boxes: list[RankBox],
    ic_by_rank,
    periodic=(False, False, False),
) -> list[HaloView]:
    """Assemble each rank's padded I_c view from rank-local fields.

    Every owning rank fills its part of a receiver's padded box in one
    copy. Each pad cell inside the (possibly wrapped) domain must be held
    by exactly one box of the decomposition; a gap or an overlap raises
    ProtocolError naming the cell.
    """
    dims = grid.dims
    for b in boxes:
        ex, ey, ez = b.extent
        if ic_by_rank[b.rank].shape != (ez, ey, ex):
            raise ProtocolError(
                f"rank {b.rank} index field has shape {ic_by_rank[b.rank].shape}, "
                f"box needs {(ez, ey, ex)}"
            )
        if any(h > d for h, d in zip(b.hi, dims)):
            raise ProtocolError(f"box of rank {b.rank} reaches past the grid {dims}")
    lo = np.array([b.lo for b in boxes])
    hi = np.array([b.hi for b in boxes])
    views = []
    for b in boxes:
        # Padded axes as global coordinates: wrapped on periodic axes,
        # -1 beyond a non-periodic end (no box holds -1).
        axes = []
        for a in range(3):
            g = np.arange(b.lo[a] - 1, b.hi[a] + 1)
            if periodic[a]:
                g %= dims[a]
            else:
                g[(g < 0) | (g >= dims[a])] = -1
            axes.append(g)
        gx, gy, gz = axes
        # holds[a][q, k]: box q holds padded position k on axis a.
        holds = [(lo[:, a, None] <= g) & (g < hi[:, a, None]) for a, g in enumerate(axes)]
        ic = np.zeros((gz.size, gy.size, gx.size), dtype=np.uint64)
        held = np.zeros(ic.shape, dtype=bool)
        for q in np.flatnonzero(holds[0].any(1) & holds[1].any(1) & holds[2].any(1)):
            kx, ky, kz = (np.flatnonzero(h[q]) for h in holds)
            dst = np.ix_(kz, ky, kx)
            if held[dst].any():
                cell = _first_cell(held[dst], gx[kx], gy[ky], gz[kz])
                raise ProtocolError(
                    f"halo of rank {b.rank}: cell {cell} is held by rank "
                    f"{boxes[q].rank} and by another rank"
                )
            held[dst] = True
            src = np.ix_(gz[kz] - lo[q, 2], gy[ky] - lo[q, 1], gx[kx] - lo[q, 0])
            ic[dst] = ic_by_rank[boxes[q].rank][src]
        gap = (gz >= 0)[:, None, None] & (gy >= 0)[:, None] & (gx >= 0) & ~held
        if gap.any():
            cell = _first_cell(gap, gx, gy, gz)
            raise ProtocolError(f"halo of rank {b.rank}: cell {cell} is held by no rank")
        views.append(HaloView(box=b, ic=ic))
    return views


def build_adjacency(halo: HaloView) -> SparseRecords:
    """One record per local fluid cell (I_c > 0), neighbors read off the
    padded view.

    A neighbor entry is the fluid neighbor's I_c, or 0 for solid cells
    and cells beyond a non-periodic boundary (their padded I_c is 0).
    Records come out in row-major box order, not yet sorted by I_c.
    """
    _, py, px = halo.ic.shape
    zz, yy, xx = np.nonzero(halo.ic[1:-1, 1:-1, 1:-1] > 0)
    x0, y0, z0 = halo.box.lo
    n = xx.size
    coords = np.empty((n, 3), dtype=np.uint32)
    coords[:, 0] = xx + x0
    coords[:, 1] = yy + y0
    coords[:, 2] = zz + z0
    flat = halo.ic.reshape(-1)
    at = ((zz + 1) * py + yy + 1) * px + xx + 1
    off = STENCIL @ np.array((1, px, px * py))
    nbr = np.empty((n, 18), dtype=np.uint64)
    for i in range(18):
        nbr[:, i] = flat[at + off[i]]
    return SparseRecords(coords=coords, ic=flat[at], nbr=nbr)


def first_bad_entry(nbr: np.ndarray, n_fluid: int) -> tuple[int, int] | None:
    """Record and direction of the first (n, 18) neighbor entry above
    N_f, or None when every entry is 0 or in 1..N_f."""
    if not nbr.size or int(nbr.max()) <= n_fluid:
        return None
    return divmod(int(np.argmax(nbr > n_fluid)), 18)


def check_records(records: SparseRecords, n_fluid: int) -> None:
    """Raise DataError unless there are N_f records, record i holds
    I_c = i + 1, and every neighbor entry is 0 or in 1..N_f."""
    n = len(records)
    if n != n_fluid:
        raise DataError(f"{n} records for N_f={n_fluid}: I_c={min(n, n_fluid) + 1} has no match")
    bad = np.flatnonzero(records.ic != np.arange(1, n + 1, dtype=np.uint64))
    if bad.size:
        a = int(bad[0])
        raise DataError(f"I_c={a + 1} is not record {a}: records must be I_c = 1..{n} in order")
    bad = first_bad_entry(records.nbr, n_fluid)
    if bad is not None:
        a, i = bad
        raise DataError(f"link {i} of I_c={a + 1} to {records.nbr[a, i]} is outside 1..{n}")


def check_links(by_dir: np.ndarray) -> None:
    """Raise DataError unless every link a -> b in direction i of the
    (18, N_f) adjacency has its link back b -> a in direction i ^ 1.
    Entries must already be 0 or in 1..N_f (`check_records`). Rows are
    scanned as contiguous int64."""
    by_dir = np.ascontiguousarray(by_dir, dtype=np.int64)
    for i in range(18):
        row = by_dir[i]
        linked = np.flatnonzero(row)
        bad = np.flatnonzero(by_dir[i ^ 1, row[linked] - 1] != linked + 1)
        if bad.size:
            a = int(linked[bad[0]])
            raise DataError(f"link {i} of I_c={a + 1} to {row[a]} has no link back")
