"""D3Q19 adjacency construction over fluid cells via halo exchange, and
the one validator of sparse records in memory.

Each rank puts its I_c field into one grid field padded by one cell, whose
pads `_wrap_pads` wraps on periodic axes and zeroes elsewhere, as it does for
`check_links`; a rank's view is its box of that field with the pad. A cell is
fluid when its I_c is > 0; one held by no rank or by two is a ProtocolError
naming the cell. Neighbor entries store the contiguous index of the fluid
neighbor, or 0 when the neighbor is solid or outside the domain. They are
held in `link_dtype(N_f)`, uint32 whenever N_f < 2^32, which halves the
adjacency in memory; the file keeps u64 entries. `halo_exchange` refuses a
rank field holding an I_c above N_f before it narrows any value.
`build_adjacency(halo, out)` and `SparseRecords.concat` place each record
at the row `_rows_of` gives it, I_c - 1, so a repeated I_c leaves a zero
row; rows that rise by one, as at one rank under lex:b=1, are written as
one slice. `check_records` and `check_links` raise DataError naming the first
I_c that breaks a record rule; `check_links` runs `check_records`,
then checks the records' (N_f, 18) `nbr` as stored against their header's dims,
periodic axes and scheme through the blocked stencil gather `build_adjacency`
fills `nbr` from. The file readers share `first_bad_entry` for the range rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ProtocolError
from .geometry import MAX_CELLS, RankBox, VoxelGrid
from .numbering import cell_index, parse_scheme

__all__ = [
    "STENCIL", "HaloView", "SparseRecords", "build_adjacency", "check_links", "check_records",
    "first_bad_entry", "halo_exchange", "link_dtype",
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

# records per block of `_stencil_links` and of `check_links`' scheme
# codes: a block's index buffer (590 kB) and uint32 links (295 kB) stay
# in cache
_LINK_BLOCK = 4096

# N_f below this limit keep their I_c in 32 bits: every I_c, 1..N_f, fits
_NARROW = 1 << 32


def link_dtype(n_fluid: int) -> type:
    """The in-memory type of the I_c of N_f fluid cells, in a halo field
    and in records' `nbr`: uint32 when N_f < 2^32, else uint64."""
    return np.uint32 if n_fluid < _NARROW else np.uint64


@dataclass(frozen=True)
class SparseRecords:
    """Structure-of-arrays record batch: coordinates, I_c, 18 neighbors."""

    coords: np.ndarray  # (n, 3) uint32, columns x, y, z
    ic: np.ndarray      # (n,) uint64
    nbr: np.ndarray     # (n, 18) link_dtype(n): uint32, or uint64 from n = 2^32 on

    def __post_init__(self):
        n = self.ic.shape[0]
        if self.coords.shape != (n, 3) or self.nbr.shape != (n, 18):
            raise DataError(
                f"inconsistent record arrays: coords {self.coords.shape}, "
                f"ic {self.ic.shape}, nbr {self.nbr.shape}"
            )
        # the types every reader and producer makes: the file's, but for
        # links that may be held narrower than its u64
        types = (self.coords.dtype, self.ic.dtype, self.nbr.dtype)
        if types[:2] != (np.uint32, np.uint64) or types[2] not in (np.uint32, np.uint64):
            raise DataError(
                "record arrays must be uint32 coords, uint64 ic and uint32 or uint64 nbr, "
                f"got coords {types[0]}, ic {types[1]}, nbr {types[2]}"
            )

    def __len__(self) -> int:
        return self.ic.shape[0]

    def sorted_by_ic(self) -> "SparseRecords":
        return SparseRecords.concat([self])

    @classmethod
    def zeros(cls, n: int) -> "SparseRecords":
        """n zero records with links in `link_dtype(n)`: the set
        `build_adjacency` places rows into."""
        return _zeros(n, link_dtype(n))

    @classmethod
    def concat(cls, batches) -> "SparseRecords":
        """The batches' rows placed at row I_c - 1 of n zero records, n their
        row count, with links in the widest of the batches' link types. An
        I_c outside 1..n raises DataError before a row is placed."""
        batches = list(batches)
        n = sum(map(len, batches))
        rows = [_rows_of(b.ic, n) for b in batches]
        out = _zeros(n, np.result_type(np.uint32, *(b.nbr.dtype for b in batches)))
        for b, row in zip(batches, rows):
            out.coords[row], out.ic[row], out.nbr[row] = b.coords, b.ic, b.nbr
        return out

    def equals(self, other: "SparseRecords") -> bool:
        return (
            np.array_equal(self.coords, other.coords)
            and np.array_equal(self.ic, other.ic)
            and np.array_equal(self.nbr, other.nbr)
        )


def _zeros(n: int, link) -> SparseRecords:
    """n zero records with links of type `link`."""
    return SparseRecords(np.zeros((n, 3), np.uint32), np.zeros(n, np.uint64),
                         np.zeros((n, 18), link))


def _rows_of(ic: np.ndarray, n: int) -> np.ndarray | slice:
    """The rows I_c - 1 of records with these I_c in a set of n, as a
    slice when they rise by one; DataError naming the first I_c outside
    1..n. Rising strictly over a span of m values, m rows repeat none."""
    row = np.subtract(ic, 1, dtype=np.uint64)  # I_c 0 wraps past n
    if (row >= n).any():
        raise DataError(f"I_c={ic[np.argmax(row >= n)]} is outside 1..{n}")
    m = row.size
    if m and int(row[-1]) - int(row[0]) + 1 == m and (row[1:] > row[:-1]).all():
        return slice(int(row[0]), int(row[0]) + m)
    return row


@dataclass(frozen=True)
class HaloView:
    """A rank's box padded by one cell of neighbor I_c on every side.

    ic is shaped (ez + 2, ey + 2, ex + 2); a cell is fluid when its I_c
    is > 0, and pad cells beyond a non-periodic boundary hold 0. Views
    may share memory, so ic is read, never written.
    """

    box: RankBox
    ic: np.ndarray


def _wrap_pads(field: np.ndarray, dims, periodic) -> None:
    """Fill the pad shell of a (z, y, x) field padded by one cell, in place:
    a pad cell copies the cell it wraps onto on a periodic axis, and is 0
    otherwise. An axis of `dims` longer than the field's span on it wraps
    onto no cell of the field, so its pads are 0 too. Filling whole planes,
    one axis after another, wraps the edge and corner pads as well."""
    for axis, n, p in zip((2, 1, 0), dims, periodic):
        f = np.moveaxis(field, axis, 0)
        h = f.shape[0] - 2
        if p and n == h:
            f[0], f[-1] = f[h], f[1]
        else:
            f[0] = f[-1] = 0


def _stencil_links(field: np.ndarray, at: np.ndarray, out: np.ndarray | None = None):
    """Yield (b0, links), `_LINK_BLOCK` records a block: links[r, i] is the
    I_c at flat position at[b0 + r] + c_i of a padded (z, y, x) field.
    `np.take` writes each block's links to rows b0.. of `out` when given,
    else to one buffer reused by every block; the block's flat positions
    go through one reused index buffer, so no block allocates."""
    _, py, px = field.shape
    offsets = STENCIL @ np.array((1, px, px * py))
    flat = field.reshape(-1)
    n = min(_LINK_BLOCK, len(at))
    where = np.empty((n, 18), np.intp)
    links = np.empty((n, 18), field.dtype) if out is None else None
    for b0 in range(0, len(at), _LINK_BLOCK):
        b1 = min(b0 + _LINK_BLOCK, len(at))
        k = b1 - b0
        np.add(at[b0:b1, None], offsets, out=where[:k])
        # every position lies in the padded field, so clip never acts and
        # take writes straight into its output
        dst = links[:k] if out is None else out[b0:b1]
        np.take(flat, where[:k], mode="clip", out=dst)
        yield b0, dst


def halo_exchange(
    grid: VoxelGrid,
    boxes: list[RankBox],
    ic_by_rank,
    periodic=(False, False, False),
) -> list[HaloView]:
    """Assemble each rank's padded I_c view from rank-local fields.

    Each rank puts its field into one I_c field of the grid padded by one
    cell, of `link_dtype(N_f)`; after `_wrap_pads`, each view is its
    padded box of that field. Each cell of the grid must be held by
    exactly one box; a gap or an overlap raises ProtocolError naming the
    first such cell, and so does a rank field's first I_c above N_f,
    before the field is narrowed into the grid's.
    """
    X, Y, Z = grid.dims
    n_fluid = grid.fluid_count
    inner = np.s_[1:-1, 1:-1, 1:-1]
    field = np.zeros((Z + 2, Y + 2, X + 2), dtype=link_dtype(n_fluid))
    held = np.ones(field.shape, dtype=bool)  # the pad shell counts as held
    held[inner] = False
    pads = [np.s_[b.lo[2] : b.hi[2] + 2, b.lo[1] : b.hi[1] + 2, b.lo[0] : b.hi[0] + 2]
            for b in boxes]
    for b, pad in zip(boxes, pads):
        ex, ey, ez = b.extent
        if ic_by_rank[b.rank].shape != (ez, ey, ex):
            raise ProtocolError(
                f"rank {b.rank} index field has shape {ic_by_rank[b.rank].shape}, "
                f"box needs {(ez, ey, ex)}"
            )
        if any(h > d for h, d in zip(b.hi, grid.dims)):
            raise ProtocolError(f"box of rank {b.rank} reaches past the grid {grid.dims}")
        mine = held[pad][inner]
        if mine.any():
            cell = tuple(np.add(b.lo, np.argwhere(mine)[0][::-1]).tolist())
            raise ProtocolError(f"cell {cell} is held by rank {b.rank} and by another rank")
        part = ic_by_rank[b.rank]
        if part.max(initial=0) > n_fluid:
            at = np.argwhere(part > n_fluid)[0]
            raise ProtocolError(
                f"rank {b.rank} holds I_c={part[tuple(at)]} at cell "
                f"{tuple(np.add(b.lo, at[::-1]).tolist())}, above N_f={n_fluid}"
            )
        mine[...] = True
        field[pad][inner] = part
    if not held.all():
        cell = tuple((np.argwhere(~held)[0][::-1] - 1).tolist())
        raise ProtocolError(f"cell {cell} is held by no rank")
    _wrap_pads(field, grid.dims, periodic)
    # build_adjacency gathers off a view's flat form, so each is contiguous:
    # a copy, or a view where the padded box is one contiguous block of it
    return [HaloView(box=b, ic=np.ascontiguousarray(field[pad])) for b, pad in zip(boxes, pads)]


def build_adjacency(halo: HaloView, out: SparseRecords | None = None) -> SparseRecords:
    """One record per local fluid cell (I_c > 0), neighbors gathered off
    the padded view a block at a time, as `check_links` gathers them.

    A neighbor entry is the fluid neighbor's I_c, or 0 for solid cells
    and cells beyond a non-periodic boundary (their padded I_c is 0).
    Without `out` the records come out in row-major box order, with
    links in the halo's type; with it, each record is written to the row
    of `out` that `_rows_of` gives it, as `SparseRecords.concat` would
    place it, and `out` is returned: rows that rise by one take each
    block's links as a slice, any others have each block's rows
    scattered one by one, so a repeated I_c leaves a zero row. A box
    reaching past the uint32 coordinates raises ParameterError, and a
    halo of another type than `out`'s links or an I_c outside
    1..len(out) a DataError, before a row is written.
    """
    if max(halo.box.hi) > 2**32:
        raise ParameterError(
            f"box of rank {halo.box.rank} reaches coordinate {max(halo.box.hi) - 1}, "
            f"past the largest stored coordinate {2**32 - 1}"
        )
    # a gather into links of another type would cast, and narrowing wraps
    if out is not None and out.nbr.dtype != halo.ic.dtype:
        raise DataError(
            f"halo of rank {halo.box.rank} holds {halo.ic.dtype} I_c, "
            f"the records' links are {out.nbr.dtype}"
        )
    _, py, px = halo.ic.shape
    zz, yy, xx = np.nonzero(halo.ic[1:-1, 1:-1, 1:-1] > 0)
    at = ((zz + 1) * py + yy + 1) * px + xx + 1
    ic = halo.ic.reshape(-1)[at]
    if out is None:  # box order: rows 0..n-1 of a new set
        out, rows = _zeros(at.size, halo.ic.dtype), slice(0, at.size)
    else:
        rows = _rows_of(ic, len(out))
    # a slice of rows takes the links in place; scattered rows take a block's buffer
    dst = out.nbr[rows] if isinstance(rows, slice) else None
    out.ic[rows] = ic
    x0, y0, z0 = halo.box.lo
    for axis, v, v0 in ((0, xx, x0), (1, yy, y0), (2, zz, z0)):
        out.coords[rows, axis] = v + v0
    # the three are views of one nonzero buffer: free it for the link blocks
    del ic, xx, yy, zz, v
    for b0, links in _stencil_links(halo.ic, at, dst):
        if dst is None:
            out.nbr[rows[b0 : b0 + len(links)]] = links
    return out


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
    inflated header dims cost no memory; a box of more than MAX_CELLS
    cells, more than a voxel file holds, raises DataError before it is
    allocated, and dims too large for the scheme's 64-bit codes raise
    ParameterError."""
    check_records(records, header.n_fluid)
    dims, periodic, nbr, coords = header.dims, header.periodic, records.nbr, records.coords
    X, Y, Z = dims
    x, y, z = coords.T  # strided views: no copy of the coords
    hi = [int(v.max(initial=0)) for v in (x, y, z)]
    if any(h >= d for h, d in zip(hi, dims)):
        outside = (x >= X) | (y >= Y) | (z >= Z)
        a = int(np.argmax(outside))
        raise DataError(f"I_c={a + 1} lies at {tuple(coords[a].tolist())}, outside dims {(X, Y, Z)}")
    box = tuple(h + 1 for h in hi)
    if box[0] * box[1] * box[2] > MAX_CELLS:
        raise DataError(f"the records' box {box} holds more cells than the limit {MAX_CELLS}")
    # I_c field over the box [0, hi] padded by one cell, like a rank's halo
    px, py, pz = (h + 3 for h in hi)
    at = ((z.astype(np.int64) + 1) * py + y + 1) * px + x + 1
    ic = np.arange(1, len(at) + 1, dtype=nbr.dtype)
    field = np.zeros(pz * py * px, dtype=nbr.dtype)
    field[at] = ic
    # every I_c is > 0, so fewer nonzero cells than records means a shared cell
    if np.count_nonzero(field) != len(at):
        held = field[at]
        a = int(np.argmax(held != ic))
        cell = tuple(coords[a].tolist())
        a, b = sorted((a + 1, int(held[a])))
        raise DataError(f"I_c={a} and I_c={b} share the cell {cell}")
    del ic
    # a header allows axes of 2^64 - 1 cells, which wrap no cell into the box
    field = field.reshape(pz, py, px)
    _wrap_pads(field, dims, periodic)
    # in record order, the first wrong entry is the smallest failing I_c
    wrong = np.empty((min(_LINK_BLOCK, len(at)), 18), dtype=bool)
    for b0, want in _stencil_links(field, at):
        k = len(want)
        if np.not_equal(nbr[b0 : b0 + k], want, out=wrong[:k]).any():
            r, i = divmod(int(np.argmax(wrong[:k])), 18)
            a = b0 + r
            there = f"I_c={want[r, i]}" if want[r, i] else "no record"
            raise DataError(
                f"link {i} of I_c={a + 1} at {tuple(coords[a].tolist())} to {nbr[a, i]} "
                f"does not match its stencil neighbour, which holds {there}"
            )
    # the scheme's codes a block of records at a time, each block from the
    # previous block's last record on; at least one block, so dims the
    # scheme cannot code raise even with no records
    scheme = parse_scheme(header.scheme_text)
    for b0 in range(0, max(len(at), 1), _LINK_BLOCK):
        start = max(b0 - 1, 0)
        codes = cell_index(scheme, *coords[start : b0 + _LINK_BLOCK].T, dims)
        early = codes[1:] <= codes[:-1]
        if early.any():
            a = start + 1 + int(np.argmax(early))
            raise DataError(
                f"I_c={a + 1} at {tuple(coords[a].tolist())} comes before I_c={a} at "
                f"{tuple(coords[a - 1].tolist())} under the header's scheme {header.scheme_text}"
            )
