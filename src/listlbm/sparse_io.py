"""Binary sparse-representation file: write, whole and chunked read.

Layout (little-endian): magic "SPRS", version u32, X/Y/Z u64, N_f u64,
periodic-axis bits u32, scheme string (u16 length + ASCII), partition
start table flag u32 (0/1, then u64 count + starts), followed by N_f
fixed 156-byte records sorted ascending by I_c: x, y, z as u32 and 18
neighbor indices as u64. I_c is implicit: record i holds I_c = i + 1,
so chunk reads seek straight to their record range. Records that fail
`check_records` raise DataError before a byte is written; the readers
raise FormatError at the offset of a bad field, body size or neighbor.
"""

from __future__ import annotations

import operator
import os
import struct
from dataclasses import dataclass

import numpy as np

from .adjacency import SparseRecords, check_records, first_bad_entry
from .errors import FormatError, ListLbmError
from .partition import PartitionAssignment, chunk_ranges, first_bad_start

__all__ = [
    "RECORD_DTYPE",
    "SparseHeader",
    "check_body_size",
    "header_nbytes",
    "read_chunk",
    "read_header",
    "read_sparse",
    "write_sparse",
]

SPARSE_MAGIC = b"SPRS"
SPARSE_VERSION = 1
_FIXED = struct.Struct("<4sI3QQIH")  # magic, version, X, Y, Z, N_f, periodic, slen

RECORD_DTYPE = np.dtype([("x", "<u4"), ("y", "<u4"), ("z", "<u4"), ("nbr", "<u8", (18,))])
assert RECORD_DTYPE.itemsize == 156


@dataclass(frozen=True)
class SparseHeader:
    dims: tuple[int, int, int]
    n_fluid: int
    scheme_text: str
    periodic: tuple[bool, bool, bool] = (False, False, False)
    part_starts: tuple[int, ...] | None = None

    def __post_init__(self):
        X, Y, Z = self.dims
        if min(X, Y, Z) < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")
        if not 0 <= self.n_fluid <= X * Y * Z:
            raise ValueError(f"fluid count {self.n_fluid} exceeds {X * Y * Z} cells")
        try:
            encoded = self.scheme_text.encode("ascii")
        except UnicodeEncodeError:
            raise ValueError(f"scheme text {self.scheme_text!r} is not ASCII") from None
        if len(encoded) > 0xFFFF:
            raise ValueError("scheme text too long")
        if self.part_starts is not None:
            bad = first_bad_start(self.part_starts, self.n_fluid)
            if bad is not None:
                raise ValueError(f"partition start table entry #{bad[0]}: {bad[1]}")

    def partition(self, parts: int | None = None) -> PartitionAssignment:
        """The one source of partition boundaries: `parts` equal chunks
        when given, else the file's start table, else one partition."""
        if not self.n_fluid:
            raise ListLbmError("domain has no fluid cells")
        if parts is None and self.part_starts is not None:
            bounds = np.array([*self.part_starts, self.n_fluid + 1], dtype=np.uint64)
            return PartitionAssignment(n_fluid=self.n_fluid, boundaries=bounds)
        return chunk_ranges(self.n_fluid, 1 if parts is None else parts)


def header_nbytes(header: SparseHeader) -> int:
    n = _FIXED.size + len(header.scheme_text.encode("ascii")) + 4
    if header.part_starts is not None:
        n += 8 + 8 * len(header.part_starts)
    return n


def _pack_header(header: SparseHeader) -> bytes:
    X, Y, Z = header.dims
    scheme = header.scheme_text.encode("ascii")
    pbits = sum(1 << i for i, p in enumerate(header.periodic) if p)
    out = [_FIXED.pack(SPARSE_MAGIC, SPARSE_VERSION, X, Y, Z, header.n_fluid, pbits, len(scheme))]
    out.append(scheme)
    if header.part_starts is None:
        out.append(struct.pack("<I", 0))
    else:
        out.append(struct.pack("<IQ", 1, len(header.part_starts)))
        out.append(np.asarray(header.part_starts, dtype="<u8").tobytes())
    return b"".join(out)


def write_sparse(path, records: SparseRecords, header: SparseHeader) -> None:
    """Write records that are already sorted by I_c: record i must hold
    I_c = i + 1. `check_records` runs before any bytes are written."""
    check_records(records, header.n_fluid)
    arr = np.empty(len(records), dtype=RECORD_DTYPE)
    arr["x"] = records.coords[:, 0]
    arr["y"] = records.coords[:, 1]
    arr["z"] = records.coords[:, 2]
    arr["nbr"] = records.nbr
    with open(path, "wb") as fh:
        fh.write(_pack_header(header))
        fh.write(arr.tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    """Read n bytes, comparing n with the bytes left first, so a length
    taken from the file never sizes a buffer larger than the file."""
    pos = fh.tell()
    left = fh.seek(0, os.SEEK_END) - pos
    fh.seek(pos)
    if n > left:
        raise FormatError(f"truncated {what}: need {n} bytes, got {left}", offset=pos)
    return fh.read(n)


def read_header(fh) -> SparseHeader:
    """Parse the header from an open binary file, leaving the position at
    the first record."""
    fixed = _read_exact(fh, _FIXED.size, "header")
    magic, version, X, Y, Z, n_fluid, pbits, slen = _FIXED.unpack(fixed)
    if magic != SPARSE_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {SPARSE_MAGIC!r}", offset=0)
    if version != SPARSE_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    for i, (name, d) in enumerate(zip("XYZ", (X, Y, Z))):
        if d < 1:
            raise FormatError(f"dimension {name}={d} must be >= 1", offset=8 + 8 * i)
    if n_fluid > X * Y * Z:
        raise FormatError(
            f"fluid count {n_fluid} exceeds {X * Y * Z} cells", offset=32
        )
    if pbits > 0b111:
        raise FormatError(f"invalid periodic flag bits {pbits:#x}", offset=40)
    raw_scheme = _read_exact(fh, slen, "scheme string")
    try:
        scheme_text = raw_scheme.decode("ascii")
    except UnicodeDecodeError:
        raise FormatError("scheme string is not ASCII", offset=_FIXED.size) from None
    tpos = fh.tell()
    (tflag,) = struct.unpack("<I", _read_exact(fh, 4, "table flag"))
    if tflag not in (0, 1):
        raise FormatError(f"table flag must be 0 or 1, got {tflag}", offset=tpos)
    part_starts = None
    if tflag:
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "table count"))
        if count < 1 or count > n_fluid:
            raise FormatError(
                f"table count {count} outside [1, {n_fluid}]", offset=tpos + 4
            )
        raw = _read_exact(fh, 8 * count, "start table")
        starts = np.frombuffer(raw, dtype="<u8")
        bad = first_bad_start(starts, n_fluid)
        if bad is not None:
            raise FormatError(
                f"partition start #{bad[0]}: {bad[1]}", offset=tpos + 12 + 8 * bad[0]
            )
        part_starts = tuple(int(s) for s in starts)
    periodic = tuple(bool(pbits >> i & 1) for i in range(3))
    return SparseHeader(
        dims=(X, Y, Z),
        n_fluid=n_fluid,
        scheme_text=scheme_text,
        periodic=periodic,
        part_starts=part_starts,
    )


def check_body_size(fh, n_fluid: int) -> None:
    """FormatError unless exactly N_f records follow the file position."""
    base = fh.tell()
    size = fh.seek(0, os.SEEK_END)
    fh.seek(base)
    expect = base + RECORD_DTYPE.itemsize * n_fluid
    if size < expect:
        missing_at = (size - base) // RECORD_DTYPE.itemsize + 1
        raise FormatError(
            f"truncated record for I_c={missing_at}: file has {size} bytes, "
            f"needs {expect}",
            offset=size,
        )
    if size > expect:
        raise FormatError(
            f"trailing data: {size - expect} bytes past the last record",
            offset=expect,
        )


def _to_records(arr: np.ndarray, first_ic: int, n_fluid: int, base: int) -> SparseRecords:
    """Records from raw rows starting at I_c = first_ic; `base` is the
    byte offset of the first record in the file."""
    n = arr.shape[0]
    coords = np.empty((n, 3), dtype=np.uint32)
    coords[:, 0] = arr["x"]
    coords[:, 1] = arr["y"]
    coords[:, 2] = arr["z"]
    nbr = arr["nbr"].astype(np.uint64)  # detach from the read-only file buffer
    bad = first_bad_entry(nbr, n_fluid)
    if bad is not None:
        row, col = bad
        ic = first_ic + row
        raise FormatError(
            f"neighbor index {int(nbr[row, col])} of I_c={ic} exceeds N_f={n_fluid}",
            offset=base + RECORD_DTYPE.itemsize * (ic - 1) + 12 + 8 * col,
        )
    ic = np.arange(first_ic, first_ic + n, dtype=np.uint64)
    return SparseRecords(coords=coords, ic=ic, nbr=nbr)


def read_sparse(path) -> tuple[SparseHeader, SparseRecords]:
    """Read the whole file."""
    with open(path, "rb") as fh:
        header = read_header(fh)
        base = fh.tell()
        check_body_size(fh, header.n_fluid)
        arr = np.frombuffer(fh.read(), dtype=RECORD_DTYPE)
    return header, _to_records(arr, 1, header.n_fluid, base)


def read_chunk(path, lo: int, hi: int) -> tuple[SparseHeader, SparseRecords]:
    """Read only the records I_c in [lo, hi), e.g. one range of
    `header.partition(...)`; the range must lie in [1, N_f + 1]."""
    lo, hi = operator.index(lo), operator.index(hi)
    with open(path, "rb") as fh:
        header = read_header(fh)
        base = fh.tell()
        if not 1 <= lo <= hi <= header.n_fluid + 1:
            raise ValueError(f"record range [{lo}, {hi}) outside [1, {header.n_fluid + 1}]")
        check_body_size(fh, header.n_fluid)
        fh.seek(base + RECORD_DTYPE.itemsize * (lo - 1))
        raw = fh.read(RECORD_DTYPE.itemsize * (hi - lo))
        arr = np.frombuffer(raw, dtype=RECORD_DTYPE)
    return header, _to_records(arr, lo, header.n_fluid, base)
