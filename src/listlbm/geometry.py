"""Dense voxel geometries, rank-box decomposition and voxel file IO.

Grids store one boolean flag per cell of the bounding box (True = FLUID)
in row-major x-fastest order, i.e. an array of shape (Z, Y, X). All
generators are pure functions of their arguments: the same inputs always
produce bit-identical grids.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError

__all__ = [
    "RankBox",
    "VoxelGrid",
    "check_prefix",
    "decompose_ranks",
    "load_voxels",
    "make_channel",
    "make_packing",
    "save_voxels",
]

VOXEL_MAGIC = b"VOXL"
VOXEL_VERSION = 1
_HEADER = struct.Struct("<4sI3Q")

# Reject headers whose cell count cannot possibly be a real artifact.
MAX_CELLS = 1 << 40


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """Full-box flag field; flags[z, y, x] is True for fluid cells."""

    flags: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.flags)
        if f.ndim != 3:
            raise ParameterError(f"flag field must be 3-D, got shape {f.shape}")
        if min(f.shape) < 1:
            raise ParameterError(f"every dimension must be >= 1, got shape {f.shape}")
        if f.dtype != np.bool_:
            f = f.astype(bool)
        object.__setattr__(self, "flags", f)

    @property
    def dims(self) -> tuple[int, int, int]:
        Z, Y, X = self.flags.shape
        return (X, Y, Z)

    @property
    def fluid_count(self) -> int:
        return int(np.count_nonzero(self.flags))

    def __eq__(self, other):
        if not isinstance(other, VoxelGrid):
            return NotImplemented
        return self.flags.shape == other.flags.shape and bool(
            np.array_equal(self.flags, other.flags)
        )


@dataclass(frozen=True)
class RankBox:
    """Axis-aligned box of cells owned by one preprocessor rank.

    lo is the inclusive corner, >= 0, hi the exclusive corner, both (x, y, z).
    """

    rank: int
    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    def __post_init__(self):
        if self.rank < 0:
            raise ParameterError(f"negative rank id {self.rank}")
        if any(l < 0 for l in self.lo):
            raise ParameterError(f"negative box corner lo={self.lo}")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ParameterError(f"empty box lo={self.lo} hi={self.hi}")

    @property
    def extent(self) -> tuple[int, int, int]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))


def _check_diameter(kind: str, d: int, low: int) -> None:
    """Reject a diameter below `low`, or one whose (d, d, 5d) box holds
    more cells than `load_voxels` accepts, before anything is allocated."""
    if d < low:
        raise ParameterError(f"{kind} diameter must be >= {low}, got {d}")
    cells = 5 * int(d) ** 3
    if cells > MAX_CELLS:
        raise ParameterError(f"{kind} diameter {d}: {cells} cells exceeds limit {MAX_CELLS}")


def make_channel(d: int) -> VoxelGrid:
    """Straight duct of cross-section d x d and length 5d along x.

    The four y/z faces carry a one-cell solid wall; the x ends are open.
    """
    _check_diameter("channel", d, 3)
    flags = np.zeros((d, d, 5 * d), dtype=bool)
    flags[1 : d - 1, 1 : d - 1, :] = True
    return VoxelGrid(flags)


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64)."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        # 53-bit mantissa draw in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53


def _place_spheres(d: int, seed: int) -> np.ndarray:
    """Sequential random insertion of equal spheres into the tube.

    Centers are drawn uniformly over the tube interior (the (y, z) pair
    is redrawn until it falls inside the circular cross-section, which
    does not count as a rejection). A candidate is accepted iff it does
    not overlap any accepted sphere; spheres may protrude into the tube
    wall. Placement stops after 200 consecutive overlap rejections.
    """
    rng = SplitMix64(seed)
    r = d / 6.0
    R = d / 2.0
    L = 5.0 * d
    min_d2 = (2.0 * r) ** 2
    centers = np.empty((0, 3), dtype=np.float64)
    rejects = 0
    while rejects < 200:
        sx = rng.next_float() * L
        while True:
            sy = rng.next_float() * d
            sz = rng.next_float() * d
            if (sy - R) ** 2 + (sz - R) ** 2 <= R * R:
                break
        d2 = (centers[:, 0] - sx) ** 2 + (centers[:, 1] - sy) ** 2 + (centers[:, 2] - sz) ** 2
        if d2.size and bool((d2 < min_d2).any()):
            rejects += 1
        else:
            centers = np.vstack([centers, [sx, sy, sz]])
            rejects = 0
    return centers


def make_packing(d: int, seed: int) -> VoxelGrid:
    """Circular tube of diameter d and length 5d filled with a sphere packing.

    A cell is solid when its center lies outside the tube or inside any
    placed sphere (radius d/6). Same (d, seed) always yields identical
    flags.
    """
    _check_diameter("packing", d, 12)
    seed = int(seed) & ((1 << 64) - 1)
    X, Y, Z = 5 * d, d, d
    R = d / 2.0
    yc = np.arange(Y) + 0.5
    zc = np.arange(Z) + 0.5
    tube = (yc[None, :] - R) ** 2 + (zc[:, None] - R) ** 2 <= R * R
    flags = np.broadcast_to(tube[:, :, None], (Z, Y, X)).copy()

    xc = np.arange(X) + 0.5
    r = d / 6.0
    r2 = r * r
    for sx, sy, sz in _place_spheres(d, seed):
        # only the bounding sub-box of each sphere needs testing
        x0, x1 = max(0, int(np.floor(sx - r))), min(X, int(np.ceil(sx + r)) + 1)
        y0, y1 = max(0, int(np.floor(sy - r))), min(Y, int(np.ceil(sy + r)) + 1)
        z0, z1 = max(0, int(np.floor(sz - r))), min(Z, int(np.ceil(sz + r)) + 1)
        dx2 = (xc[x0:x1] - sx) ** 2
        dy2 = (yc[y0:y1] - sy) ** 2
        dz2 = (zc[z0:z1] - sz) ** 2
        inside = dz2[:, None, None] + dy2[None, :, None] + dx2[None, None, :] < r2
        flags[z0:z1, y0:y1, x0:x1] &= ~inside
    return VoxelGrid(flags)


def equal_split(n: int, parts: int) -> np.ndarray:
    """The (parts + 1,) uint64 bounds, 0 to n, of `parts` near-equal chunks
    of n: the first (n mod parts) chunks are one larger. Rank boxes cut
    each axis by it and `chunk_ranges` the fluid cell list."""
    base, extra = divmod(n, parts)
    k = np.arange(parts + 1, dtype=np.uint64)
    return k * base + np.minimum(k, extra)


def decompose_ranks(dims, P: int) -> list[RankBox]:
    """Tile the bounding box into P non-empty rank boxes.

    P is factored into (px, py, pz) minimizing total internal cut area;
    ties prefer the larger factor on the longer axis, then the
    lexicographically smallest (px, py, pz). Each axis is split into
    near-equal slabs and rank ids run row-major with bx fastest.
    """
    X, Y, Z = (int(d) for d in dims)
    if P < 1:
        raise ParameterError(f"rank count must be >= 1, got {P}")
    if P > X * Y * Z:
        raise ParameterError(f"rank count {P} exceeds cell count {X * Y * Z}")

    axis_pref = sorted(range(3), key=lambda a: (-(X, Y, Z)[a], a))
    best = None
    best_key = None
    for px in range(1, P + 1):
        if P % px:
            continue
        for py in range(1, P // px + 1):
            if (P // px) % py:
                continue
            pz = P // (px * py)
            if px > X or py > Y or pz > Z:
                continue
            cuts = (px - 1) * Y * Z + (py - 1) * X * Z + (pz - 1) * X * Y
            f = (px, py, pz)
            key = (cuts, tuple(-f[a] for a in axis_pref), f)
            if best_key is None or key < best_key:
                best, best_key = f, key
    if best is None:
        raise ParameterError(f"no factorization of {P} ranks fits inside dims {(X, Y, Z)}")
    px, py, pz = best
    xs, ys, zs = (equal_split(n, p).tolist() for n, p in ((X, px), (Y, py), (Z, pz)))
    boxes = []
    for bz in range(pz):
        for by in range(py):
            for bx in range(px):
                boxes.append(
                    RankBox(
                        rank=bx + px * (by + py * bz),
                        lo=(xs[bx], ys[by], zs[bz]),
                        hi=(xs[bx + 1], ys[by + 1], zs[bz + 1]),
                    )
                )
    return boxes


def save_voxels(path, grid: VoxelGrid) -> None:
    """Write the voxel file: "VOXL", version, dims, packed flag bits."""
    X, Y, Z = grid.dims
    payload = np.packbits(grid.flags.reshape(-1), bitorder="little")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(VOXEL_MAGIC, VOXEL_VERSION, X, Y, Z))
        fh.write(payload.tobytes())


def check_prefix(head: bytes, magic: bytes, version: int) -> tuple[int, int, int]:
    """Dims X, Y, Z from the 32-byte prefix that starts both the voxel
    and the sparse file: magic, u32 version, u64 X, Y, Z. FormatError at
    the offset of a wrong magic or version or of a dimension below 1."""
    got, v, *dims = _HEADER.unpack_from(head)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}", offset=0)
    if v != version:
        raise FormatError(f"unsupported version {v}", offset=4)
    for i, (name, d) in enumerate(zip("XYZ", dims)):
        if d < 1:
            raise FormatError(f"dimension {name}={d} must be >= 1", offset=8 + 8 * i)
    return tuple(dims)


def load_voxels(path) -> VoxelGrid:
    """Read a voxel file back into a VoxelGrid; errors carry byte offsets.

    The header is checked before the payload is read, and the payload
    size is taken from the file's size, so a bad header costs no read of
    the flags. Memory is the packed payload plus one byte a cell."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(
                f"truncated header: need {_HEADER.size} bytes, file has {len(head)}",
                offset=len(head),
            )
        X, Y, Z = check_prefix(head, VOXEL_MAGIC, VOXEL_VERSION)
        ncells = X * Y * Z
        if ncells > MAX_CELLS:
            raise FormatError(
                f"dimension overflow: {X}*{Y}*{Z} cells exceeds limit {MAX_CELLS}",
                offset=8,
            )
        nbytes = (ncells + 7) // 8
        size = os.fstat(fh.fileno()).st_size
        got = size - _HEADER.size
        if got < nbytes:
            raise FormatError(
                f"truncated flag payload: expected {nbytes} bytes, got {got}",
                offset=size,
            )
        if got > nbytes:
            raise FormatError(
                f"trailing data: {got - nbytes} bytes past flag payload",
                offset=_HEADER.size + nbytes,
            )
        payload = np.empty(nbytes, dtype=np.uint8)
        got = fh.readinto(payload)
        if got < nbytes:
            raise FormatError(
                f"truncated flag payload: expected {nbytes} bytes, got {got}",
                offset=_HEADER.size + got,
            )
    # the unpacked bits are 0 or 1, so their bytes read as bools uncopied
    bits = np.unpackbits(payload, count=ncells, bitorder="little")
    return VoxelGrid(bits.view(bool).reshape(Z, Y, X))
