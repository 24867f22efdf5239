"""Binary sparse-representation file: write and read.

Layout (little-endian): magic "SPRS", version u32, X/Y/Z u64, N_f u64,
periodic-axis bits u32, scheme string (u16 length + text that
`parse_scheme` accepts), table flag u32 (always 0), followed by N_f
fixed 156-byte records sorted ascending by I_c: x, y, z as u32 and 18
neighbor indices as u64. I_c is implicit: record i holds I_c = i + 1.
Partitions are not stored: `chunk_ranges` cuts the list. Records that fail
`check_records` raise DataError before a byte is written; the readers
raise FormatError at the offset of a bad field, body size or neighbor.
Records move between arrays and file a block of `_BLOCK` at a time
through one reused packed buffer, and the reader checks each block's
neighbor range while the block is in cache.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .adjacency import SparseRecords, check_records, first_bad_entry
from .errors import FormatError, ParameterError
from .numbering import parse_scheme

__all__ = [
    "RECORD_DTYPE",
    "SparseHeader",
    "check_body_size",
    "read_header",
    "read_sparse",
    "write_sparse",
]

SPARSE_MAGIC = b"SPRS"
SPARSE_VERSION = 1
_FIXED = struct.Struct("<4sI3QQIH")  # magic, version, X, Y, Z, N_f, periodic, slen

RECORD_DTYPE = np.dtype([("coords", "<u4", (3,)), ("nbr", "<u8", (18,))])
assert RECORD_DTYPE.itemsize == 156

# records per block of write_sparse and read_sparse: one packed block of
# 2.5 MB is reused, so neither builds a structured copy of every record
_BLOCK = 1 << 14


@dataclass(frozen=True)
class SparseHeader:
    dims: tuple[int, int, int]
    n_fluid: int
    scheme_text: str
    periodic: tuple[bool, bool, bool] = (False, False, False)

    def __post_init__(self):
        X, Y, Z = self.dims
        if min(X, Y, Z) < 1:
            raise ParameterError(f"dims must be >= 1, got {self.dims}")
        if not 0 <= self.n_fluid <= X * Y * Z:
            raise ParameterError(f"fluid count {self.n_fluid} exceeds {X * Y * Z} cells")
        parse_scheme(self.scheme_text)


def _pack_header(header: SparseHeader) -> bytes:
    X, Y, Z = header.dims
    scheme = header.scheme_text.encode("ascii")
    pbits = sum(1 << i for i, p in enumerate(header.periodic) if p)
    out = [_FIXED.pack(SPARSE_MAGIC, SPARSE_VERSION, X, Y, Z, header.n_fluid, pbits, len(scheme))]
    out.append(scheme)
    out.append(struct.pack("<I", 0))  # table flag
    return b"".join(out)


def write_sparse(path, records: SparseRecords, header: SparseHeader) -> None:
    """Write records that are already sorted by I_c: record i must hold
    I_c = i + 1. `check_records` runs before any bytes are written; the
    records are then packed and written a block of `_BLOCK` at a time."""
    check_records(records, header.n_fluid)
    with open(path, "wb") as fh:
        fh.write(_pack_header(header))
        for rows, block in _blocks(len(records)):
            block["coords"], block["nbr"] = records.coords[rows], records.nbr[rows]
            fh.write(block.view(np.uint8))


def _blocks(n: int):
    """(rows, block) for each `_BLOCK` records of n: the slice of record
    rows, and a view as long of one packed buffer reused by every block."""
    buf = np.empty(min(_BLOCK, n), dtype=RECORD_DTYPE)
    for a0 in range(0, n, _BLOCK):
        rows = slice(a0, min(a0 + _BLOCK, n))
        yield rows, buf[: rows.stop - a0]


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
    # latin-1 maps each byte to one character, so parse_scheme sees and
    # rejects every non-ASCII byte
    scheme_text = _read_exact(fh, slen, "scheme string").decode("latin-1")
    try:
        parse_scheme(scheme_text)
    except ParameterError as exc:
        raise FormatError(f"scheme string: {exc}", offset=_FIXED.size) from None
    tpos = fh.tell()
    (tflag,) = struct.unpack("<I", _read_exact(fh, 4, "table flag"))
    if tflag != 0:
        raise FormatError(f"table flag must be 0, got {tflag}", offset=tpos)
    periodic = tuple(bool(pbits >> i & 1) for i in range(3))
    return SparseHeader(
        dims=(X, Y, Z),
        n_fluid=n_fluid,
        scheme_text=scheme_text,
        periodic=periodic,
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


def read_sparse(path) -> tuple[SparseHeader, SparseRecords]:
    """Read the header and all N_f records, a block of `_BLOCK` records
    at a time; each block's neighbor range is checked as it arrives."""
    with open(path, "rb") as fh:
        header = read_header(fh)
        base = fh.tell()
        n_fluid = header.n_fluid
        check_body_size(fh, n_fluid)
        coords = np.empty((n_fluid, 3), dtype=np.uint32)
        nbr = np.empty((n_fluid, 18), dtype=np.uint64)
        for rows, block in _blocks(n_fluid):
            got = fh.readinto(block.view(np.uint8))
            if got != block.nbytes:
                raise FormatError(
                    f"truncated record for I_c={rows.start + got // RECORD_DTYPE.itemsize + 1}: "
                    f"read {got} of {block.nbytes} bytes",
                    offset=base + RECORD_DTYPE.itemsize * rows.start + got,
                )
            coords[rows], nbr[rows] = block["coords"], block["nbr"]
            bad = first_bad_entry(nbr[rows], n_fluid)
            if bad is not None:
                row, col = rows.start + bad[0], bad[1]
                raise FormatError(
                    f"neighbor index {int(nbr[row, col])} of I_c={row + 1} exceeds N_f={n_fluid}",
                    offset=base + RECORD_DTYPE.itemsize * row + 12 + 8 * col,
                )
    ic = np.arange(1, n_fluid + 1, dtype=np.uint64)
    return header, SparseRecords(coords=coords, ic=ic, nbr=nbr)
