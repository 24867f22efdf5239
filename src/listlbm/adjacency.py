"""D3Q19 adjacency construction over fluid cells via halo exchange, and
the one validator of sparse records in memory.

Each rank's box is padded by one cell of I_c, filled with one copy from each
rank that owns part of it (wrapped on periodic axes, 0 beyond non-periodic
ends); a cell is fluid when its I_c is > 0. A pad cell held by no rank or by
two is a ProtocolError naming the cell. Neighbor entries store the contiguous
index of the fluid neighbor, or 0 when the neighbor is solid or outside the
domain. `SparseRecords.concat` places each record at row I_c - 1, so a repeated
I_c leaves a zero row. `check_records` and `check_links` raise DataError naming
the first I_c that breaks a record rule; `check_links` runs `check_records`,
then checks the records' (N_f, 18) `nbr` as stored against their header's dims,
periodic axes and scheme through the blocked stencil gather `build_adjacency`
fills `nbr` from. The file readers share `first_bad_entry` for the range rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ProtocolError
from .geometry import RankBox, VoxelGrid
from .numbering import cell_index, parse_scheme

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

# cells per block of `_stencil_links`, whose temporaries stay in cache
_LINK_BLOCK = 1024


@dataclass(frozen=True)
class SparseRecords:
    """Structure-of-arrays record batch: coordinates, I_c, 18 neighbors."""

    coords: np.ndarray  # (n, 3) uint32, columns x, y, z
    ic: np.ndarray      # (n,) uint64
    nbr: np.ndarray     # (n, 18) uint64

    def __post_init__(self):
        n = self.ic.shape[0]
        if self.coords.shape != (n, 3) or self.nbr.shape != (n, 18):
            raise DataError(
                f"inconsistent record arrays: coords {self.coords.shape}, "
                f"ic {self.ic.shape}, nbr {self.nbr.shape}"
            )

    def __len__(self) -> int:
        return self.ic.shape[0]

    def sorted_by_ic(self) -> "SparseRecords":
        return SparseRecords.concat([self])

    @classmethod
    def concat(cls, batches) -> "SparseRecords":
        """The batches' rows placed at row I_c - 1 of n zero records, n their
        row count. An I_c outside 1..n raises DataError before a row is placed."""
        batches = list(batches)
        n = sum(map(len, batches))
        rows = [b.ic - 1 for b in batches]  # uint64: I_c 0 wraps past n
        for b, row in zip(batches, rows):
            if (row >= n).any():
                raise DataError(f"I_c={b.ic[np.argmax(row >= n)]} is outside 1..{n}")
        out = cls(np.zeros((n, 3), np.uint32), np.zeros(n, np.uint64),
                  np.zeros((n, 18), np.uint64))
        for b, row in zip(batches, rows):
            out.coords[row], out.ic[row], out.nbr[row] = b.coords, b.ic, b.nbr
        return out

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


def _padded_axis(lo: int, hi: int, n: int, periodic: bool) -> np.ndarray:
    """Global coordinates of the padded positions lo - 1 .. hi on an axis
    of n cells: wrapped when periodic, -1 beyond a non-periodic end."""
    g = np.arange(lo - 1, hi + 1)
    if periodic:
        g %= n
    else:
        g[(g < 0) | (g >= n)] = -1
    return g


def _stencil_links(field: np.ndarray, at: np.ndarray):
    """Yield (b0, links), `_LINK_BLOCK` records a block: links[r, i] is the
    I_c at flat position at[b0 + r] + c_i of a padded (z, y, x) field."""
    _, py, px = field.shape
    offsets = STENCIL @ np.array((1, px, px * py))
    flat = field.reshape(-1)
    for b0 in range(0, len(at), _LINK_BLOCK):
        yield b0, flat[at[b0 : b0 + _LINK_BLOCK, None] + offsets]


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
        # -1 marks a position beyond a non-periodic end; no box holds it
        axes = [_padded_axis(b.lo[a], b.hi[a], dims[a], periodic[a]) for a in range(3)]
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
    """One record per local fluid cell (I_c > 0), neighbors gathered off
    the padded view a block at a time, as `check_links` gathers them.

    A neighbor entry is the fluid neighbor's I_c, or 0 for solid cells
    and cells beyond a non-periodic boundary (their padded I_c is 0).
    Records come out in row-major box order, not yet placed by I_c.
    """
    _, py, px = halo.ic.shape
    zz, yy, xx = np.nonzero(halo.ic[1:-1, 1:-1, 1:-1] > 0)
    x0, y0, z0 = halo.box.lo
    n = xx.size
    coords = np.empty((n, 3), dtype=np.uint32)
    coords[:, 0] = xx + x0
    coords[:, 1] = yy + y0
    coords[:, 2] = zz + z0
    at = ((zz + 1) * py + yy + 1) * px + xx + 1
    nbr = np.empty((n, 18), dtype=np.uint64)
    for b0, links in _stencil_links(halo.ic, at):
        nbr[b0 : b0 + len(links)] = links
    return SparseRecords(coords=coords, ic=halo.ic.reshape(-1)[at], nbr=nbr)


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


def check_links(records: SparseRecords, header) -> None:
    """Raise DataError unless the records pass `check_records`, every
    cell lies inside the header's dims, no two records share a cell,
    each entry of the (N_f, 18) `records.nbr` is the I_c at coords + c_i,
    wrapped on the header's periodic axes, or 0 where no record lies (so
    links are symmetric), and the header's scheme numbers the cells in
    I_c order. A wrong link names the smallest I_c with one and its first
    wrong direction. The lookup field spans only the records' box, so
    inflated header dims cost no memory; dims too large for the scheme's
    64-bit codes raise ParameterError."""
    check_records(records, header.n_fluid)
    dims, periodic, nbr = header.dims, header.periodic, records.nbr
    c = np.ascontiguousarray(records.coords.T, dtype=np.int64)  # rows x, y, z
    X, Y, Z = dims
    outside = (c < 0).any(axis=0) | (c[0] >= X) | (c[1] >= Y) | (c[2] >= Z)
    if outside.any():
        a = int(np.argmax(outside))
        cell = tuple(c[:, a].tolist())
        raise DataError(f"I_c={a + 1} lies at {cell}, outside dims {(X, Y, Z)}")
    # I_c field over the box [0, hi) padded by one cell, like a rank's halo
    hi = c.max(axis=1, initial=0) + 1
    px, py, pz = hi + 2
    x, y, z = c
    at = ((z + 1) * py + y + 1) * px + x + 1
    ic = np.arange(1, len(at) + 1, dtype=nbr.dtype)
    field = np.zeros(pz * py * px, dtype=nbr.dtype)
    field[at] = ic
    held = field[at]
    shared = held != ic
    if shared.any():
        a = int(np.argmax(shared))
        cell = tuple(c[:, a].tolist())
        a, b = sorted((a + 1, int(held[a])))
        raise DataError(f"I_c={a} and I_c={b} share the cell {cell}")
    # a pad cell copies the cell it wraps onto, or the zero pad at index 0;
    # an axis longer than hi + 1 (a header allows 2^64 - 1) wraps no
    # further cell into the box
    index = []
    for n, h, p in zip(dims, hi.tolist(), periodic):
        g = _padded_axis(0, h, min(n, h + 1), p)
        index.append(np.where(g < h, g + 1, 0))
    field = field.reshape(pz, py, px)[np.ix_(index[2], index[1], index[0])]
    # in record order, the first wrong entry is the smallest failing I_c
    for b0, want in _stencil_links(field, at):
        wrong = nbr[b0 : b0 + len(want)] != want
        if wrong.any():
            r, i = divmod(int(np.argmax(wrong)), 18)
            a = b0 + r
            there = f"I_c={want[r, i]}" if want[r, i] else "no record"
            raise DataError(
                f"link {i} of I_c={a + 1} at {tuple(c[:, a].tolist())} to {nbr[a, i]} "
                f"does not match its stencil neighbour, which holds {there}"
            )
    codes = cell_index(parse_scheme(header.scheme_text), x, y, z, dims)
    early = codes[1:] <= codes[:-1]
    if early.any():
        a = int(np.argmax(early)) + 1
        raise DataError(
            f"I_c={a + 1} at {tuple(c[:, a].tolist())} comes before I_c={a} at "
            f"{tuple(c[:, a - 1].tolist())} under the header's scheme {header.scheme_text}"
        )
