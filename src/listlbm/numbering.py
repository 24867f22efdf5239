"""Injective cell index functions I(x, y, z) over the full bounding box.

Two families are supported: lexicographic ordering with cubic blocking
(gapless over the box) and the Morton / Z curve interleaving 1-bit or
2-bit coordinate groups (gapped unless the box is a matching power of
two). The x coordinate always varies fastest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "LexBlocked",
    "Morton",
    "NumberingScheme",
    "cell_index",
    "parse_scheme",
    "scheme_text",
]


@dataclass(frozen=True)
class LexBlocked:
    """Lexicographic ordering traversing cubic b-sided blocks innermost."""

    b: int

    def __post_init__(self):
        if not 1 <= self.b <= _MAX_B:
            raise ParameterError(f"blocking factor must be in [1, 2^63-1], got {self.b}")


@dataclass(frozen=True)
class Morton:
    """Z curve interleaving g-bit coordinate groups, x least significant."""

    g: int

    def __post_init__(self):
        if self.g not in (1, 2):
            raise ParameterError(f"Morton bit-group width must be 1 or 2, got {self.g}")


NumberingScheme = LexBlocked | Morton

# the largest b the int64 index arithmetic can hold
_MAX_B = 2**63 - 1
# kind -> (parameter name, scheme class, what the parameter is)
_KINDS = {"lex": ("b", LexBlocked, "blocking factor"),
          "morton": ("g", Morton, "bit-group width")}


def scheme_text(scheme: NumberingScheme) -> str:
    """Canonical text form, embedded verbatim in sparse file headers."""
    if isinstance(scheme, LexBlocked):
        return f"lex:b={scheme.b}"
    if isinstance(scheme, Morton):
        return f"morton:g={scheme.g}"
    raise TypeError(f"not a numbering scheme: {scheme!r}")


def _shown(text: str) -> str:
    """repr of `text` cut to its first 40 characters, so an error
    message stays short however long the text is."""
    return repr(text if len(text) <= 40 else text[:40] + "...")


def parse_scheme(text: str) -> NumberingScheme:
    """Parse the canonical grammar ``lex:b=<int>`` | ``morton:g=<1|2>``:
    exactly the texts `scheme_text` produces, so <int> is ASCII digits
    without a leading zero."""
    kind, sep, arg = text.partition(":")
    shown = _shown(text)
    if not sep:
        raise ParameterError(f"missing ':' separator in scheme {shown}")
    if kind not in _KINDS:
        raise ParameterError(f"unknown scheme kind {_shown(kind)} in {shown}")
    name, cls, what = _KINDS[kind]
    key, sep, val = arg.partition("=")
    if not sep:
        raise ParameterError(f"missing '=' in scheme parameter of {shown}")
    if key != name:
        raise ParameterError(f"expected parameter {name!r} in {shown}, got {_shown(key)}")
    if not (val.isascii() and val.isdigit()) or (val.startswith("0") and val != "0"):
        raise ParameterError(f"non-canonical integer {_shown(val)} in {shown}")
    if len(val) > len(str(_MAX_B)):  # also spares int() a huge digit string
        raise ParameterError(f"bad {what} {_shown(val)} in {shown}: exceeds 2^63-1")
    try:
        return cls(int(val))
    except ParameterError as exc:
        raise ParameterError(f"bad {what} {val!r} in {shown}: {exc}") from None


def cell_index(scheme: NumberingScheme, x, y, z, dims) -> np.ndarray:
    """Vectorized index function; accepts scalars or arrays that broadcast
    together, and returns codes of the broadcast shape.

    Coordinates must already lie inside ``dims``; this low-level routine
    does not bounds-check. Returns uint64 codes.
    """
    if isinstance(scheme, LexBlocked):
        return _lex_blocked_index(scheme.b, x, y, z, dims)
    if isinstance(scheme, Morton):
        return _morton_index(scheme.g, x, y, z, dims)
    raise TypeError(f"not a numbering scheme: {scheme!r}")


def _lex_blocked_index(b, x, y, z, dims):
    # Rank of (x, y, z) under the sort key
    # (z//b, y//b, x//b, z%b, y%b, x%b); partial blocks at the domain
    # edges keep their truncated extents so the index stays gapless.
    # With p the start, w the (truncated) width and r the offset of a
    # coordinate's block, the rank is
    #   pz X Y + wz py X + wz wy px + rz wy wx + ry wx + rx
    #   = wy (wz px + rz wx) + (pz X Y + wz py X) + (ry wx + rx):
    # the terms are taken on the axes as given, so broadcast aranges
    # cost three passes over the broadcast shape.
    X, Y, Z = (int(d) for d in dims)
    if X * Y * Z >= 2**63:
        raise ParameterError(f"dims {(X, Y, Z)} overflow 64-bit lex codes")
    if b == 1:  # one-cell blocks: the row-major rank (z Y + y) X + x
        x, y, z = (np.asarray(v, dtype=np.int64) for v in (x, y, z))
        code = z * (X * Y) + y * X
        return np.add(code, x).view(np.uint64)
    px, wx, rx = _lex_axis(x, b, X)
    py, wy, ry = _lex_axis(y, b, Y)
    pz, wz, rz = _lex_axis(z, b, Z)
    zx = wz * px
    zx += rz * wx
    zy = wz * py
    zy *= X
    zy += pz * (X * Y)
    yx = ry * wx
    yx += rx
    code = np.multiply(wy, zx)
    code += zy
    code += yx
    return code.view(np.uint64)  # every term is at least 0


def _lex_axis(v, b, n):
    """Start, width (truncated at the edge n) and offset of the b-sided
    block holding each coordinate v."""
    v = np.asarray(v, dtype=np.int64)
    start = v // b
    start *= b
    return start, np.minimum(n - start, b), v - start


def _morton_index(g, x, y, z, dims):
    # The x, y and z bits never overlap, so each coordinate is spread on
    # its own and the three are ORed: broadcast aranges cost three 1-D
    # spreads and two broadcast ORs.
    bits = max(int(d) - 1 for d in dims).bit_length()
    ngroups = -(-bits // g)
    if 3 * g * ngroups > 64:
        raise ParameterError(f"dims {tuple(dims)} overflow 64-bit Morton codes")
    sx, sy, sz = (_spread(v, g, ngroups, axis) for axis, v in enumerate((x, y, z)))
    code = np.empty(np.broadcast_shapes(sx.shape, sy.shape, sz.shape), dtype=np.uint64)
    np.bitwise_or(sx, sy, out=code)
    code |= sz
    return code


def _byte_spread(g):
    """Each byte 0..255 with its g-bit groups moved three groups apart:
    group k to group 3k, so its 8 bits span 24."""
    v = np.arange(256, dtype=np.uint64)
    mask = np.uint64((1 << g) - 1)
    out = np.zeros(256, dtype=np.uint64)
    for k in range(8 // g):
        out |= ((v >> np.uint64(g * k)) & mask) << np.uint64(3 * g * k)
    return out


# one table lookup spreads 8 // g groups of a coordinate, so a block of
# codes costs a few numpy calls per byte, not per group
_SPREAD_BYTE = {g: _byte_spread(g) for g in (1, 2)}


def _spread(v, g, ngroups, axis):
    """Bit group k of `v` moved to group 3k + axis of a Morton code, a
    byte of `v` at a time through `_SPREAD_BYTE`; `v` must lie below
    2^(g ngroups), as coordinates inside the dims do."""
    v = np.asarray(v, dtype=np.uint64)
    out = np.zeros(v.shape, dtype=np.uint64)
    for k in range(0, g * ngroups, 8):
        part = _SPREAD_BYTE[g][(v >> np.uint64(k)) & np.uint64(255)]
        part <<= np.uint64(3 * k + g * axis)
        out |= part
    return out
