"""D3Q19 adjacency construction over fluid cells via halo exchange.

Each rank pads its box by one cell, fills the pad from neighboring
ranks (wrapping on periodic axes, solid outside non-periodic ends) and
then reads every stencil neighbor with plain shifted slices. Neighbor
entries store the contiguous index of the fluid neighbor, or 0 when the
neighbor is solid or outside the domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ProtocolError
from .geometry import RankBox, VoxelGrid

__all__ = [
    "STENCIL", "HaloView", "SparseRecords", "build_adjacency", "check_links", "halo_exchange",
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
    """A rank's box padded by one cell of neighbor data on every side.

    flags and ic are shaped (ez + 2, ey + 2, ex + 2); pad cells outside a
    non-periodic boundary stay solid with ic 0.
    """

    box: RankBox
    flags: np.ndarray
    ic: np.ndarray


def _axis_segments(lo: int, hi: int, dim: int, periodic: bool):
    """(pad_lo, pad_hi, src_lo, src_hi) pieces of the padded window."""
    e = hi - lo
    segs = [(1, 1 + e, lo, hi)]
    if lo - 1 >= 0:
        segs.append((0, 1, lo - 1, lo))
    elif periodic:
        segs.append((0, 1, dim - 1, dim))
    if hi < dim:
        segs.append((1 + e, 2 + e, hi, hi + 1))
    elif periodic:
        segs.append((1 + e, 2 + e, 0, 1))
    return segs


def halo_exchange(
    grid: VoxelGrid,
    boxes: list[RankBox],
    ic_by_rank,
    periodic=(False, False, False),
) -> list[HaloView]:
    """Assemble per-rank padded (flag, I_c) views from rank-local data.

    Every pad cell inside the (possibly wrapped) domain must be covered
    by exactly one box of the decomposition; a gap raises ProtocolError.
    """
    X, Y, Z = grid.dims
    src_flags = {}
    for b in boxes:
        src_flags[b.rank] = grid.flags[
            b.lo[2] : b.hi[2], b.lo[1] : b.hi[1], b.lo[0] : b.hi[0]
        ]
        ez, ey, ex = src_flags[b.rank].shape
        if ic_by_rank[b.rank].shape != (ez, ey, ex):
            raise ProtocolError(
                f"rank {b.rank} index field has shape {ic_by_rank[b.rank].shape}, "
                f"box needs {(ez, ey, ex)}"
            )
    views = []
    for b in boxes:
        ex, ey, ez = b.extent
        fpad = np.zeros((ez + 2, ey + 2, ex + 2), dtype=bool)
        ipad = np.zeros((ez + 2, ey + 2, ex + 2), dtype=np.uint64)
        segs_x = _axis_segments(b.lo[0], b.hi[0], X, periodic[0])
        segs_y = _axis_segments(b.lo[1], b.hi[1], Y, periodic[1])
        segs_z = _axis_segments(b.lo[2], b.hi[2], Z, periodic[2])
        for pz0, pz1, gz0, gz1 in segs_z:
            for py0, py1, gy0, gy1 in segs_y:
                for px0, px1, gx0, gx1 in segs_x:
                    want = (gz1 - gz0) * (gy1 - gy0) * (gx1 - gx0)
                    got = 0
                    for q in boxes:
                        ix0, ix1 = max(gx0, q.lo[0]), min(gx1, q.hi[0])
                        iy0, iy1 = max(gy0, q.lo[1]), min(gy1, q.hi[1])
                        iz0, iz1 = max(gz0, q.lo[2]), min(gz1, q.hi[2])
                        if ix0 >= ix1 or iy0 >= iy1 or iz0 >= iz1:
                            continue
                        qs = (
                            slice(iz0 - q.lo[2], iz1 - q.lo[2]),
                            slice(iy0 - q.lo[1], iy1 - q.lo[1]),
                            slice(ix0 - q.lo[0], ix1 - q.lo[0]),
                        )
                        ps = (
                            slice(pz0 + (iz0 - gz0), pz0 + (iz1 - gz0)),
                            slice(py0 + (iy0 - gy0), py0 + (iy1 - gy0)),
                            slice(px0 + (ix0 - gx0), px0 + (ix1 - gx0)),
                        )
                        fpad[ps] = src_flags[q.rank][qs]
                        ipad[ps] = ic_by_rank[q.rank][qs]
                        got += (iz1 - iz0) * (iy1 - iy0) * (ix1 - ix0)
                    if got != want:
                        raise ProtocolError(
                            f"halo of rank {b.rank}: window "
                            f"[{gx0},{gx1})x[{gy0},{gy1})x[{gz0},{gz1}) "
                            f"missing {want - got} cells"
                        )
        views.append(HaloView(box=b, flags=fpad, ic=ipad))
    return views


def build_adjacency(halo: HaloView) -> SparseRecords:
    """One record per local fluid cell, neighbors read off the padded view.

    A neighbor entry is the fluid neighbor's I_c, or 0 for solid cells
    and cells beyond a non-periodic boundary (their padded I_c is 0).
    Records come out in row-major box order, not yet sorted by I_c.
    """
    core = halo.flags[1:-1, 1:-1, 1:-1]
    zz, yy, xx = np.nonzero(core)
    x0, y0, z0 = halo.box.lo
    n = xx.size
    coords = np.empty((n, 3), dtype=np.uint32)
    coords[:, 0] = xx + x0
    coords[:, 1] = yy + y0
    coords[:, 2] = zz + z0
    ic = halo.ic[1 + zz, 1 + yy, 1 + xx]
    nbr = np.empty((n, 18), dtype=np.uint64)
    for i, (dx, dy, dz) in enumerate(STENCIL):
        nbr[:, i] = halo.ic[1 + zz + dz, 1 + yy + dy, 1 + xx + dx]
    return SparseRecords(coords=coords, ic=ic, nbr=nbr)


def check_links(by_dir: np.ndarray) -> None:
    """Raise DataError unless every entry of the (18, N_f) adjacency is 0
    or in 1..N_f and every link a -> b in direction i has its link back
    b -> a in direction i ^ 1. Rows are scanned as contiguous int64."""
    by_dir = np.ascontiguousarray(by_dir, dtype=np.int64)
    n = by_dir.shape[1]
    for i in range(18):
        row = by_dir[i]
        bad = np.flatnonzero((row < 0) | (row > n))
        if bad.size:
            a = int(bad[0])
            raise DataError(f"link {i} of I_c={a + 1} to {row[a]} is outside 1..{n}")
        linked = np.flatnonzero(row)
        bad = np.flatnonzero(by_dir[i ^ 1, row[linked] - 1] != linked + 1)
        if bad.size:
            a = int(linked[bad[0]])
            raise DataError(f"link {i} of I_c={a + 1} to {row[a]} has no link back")
