"""Distributed assignment of the contiguous fluid index I_c.

Each rank detects maximal runs of consecutive existing cells it owns
(in global index order), summarizes them as incell/outcell records, and
participates in a tree reduction that merges runs and prefix-sums fluid
counts. Afterwards every fluid cell carries a domain-wide unique
contiguous index in [1, N_f]; solid cells carry 0. The reduction is
deterministic regardless of message arrival order and independent of
the rank count. Ranks are simulated in-process.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import DecompositionError, ProtocolError
from .geometry import RankBox, VoxelGrid
from .numbering import LexBlocked, Morton, NumberingScheme, cell_index

__all__ = [
    "SENTINEL_END",
    "CellOrder",
    "IncellInfo",
    "RankTree",
    "assign_contiguous",
    "build_rank_tree",
    "find_runs",
    "octree_reduce",
    "serial_oracle",
]

log = logging.getLogger(__name__)

# Compares greater than every 64-bit cell index; marks a run with no
# foreign successor cell.
SENTINEL_END = 2**64 - 1


@dataclass(frozen=True)
class IncellInfo:
    """One maximal run of consecutive existing cells owned by one rank."""

    incell_I: int
    outcell_I: int
    fluid_count: int
    owner_rank: int
    start_Ic: int | None = None

    def __post_init__(self):
        if not 0 <= self.incell_I < self.outcell_I <= SENTINEL_END:
            raise ValueError(
                f"run bounds must satisfy incell < outcell, got "
                f"[{self.incell_I}, {self.outcell_I})"
            )
        if self.fluid_count < 0:
            raise ValueError(f"negative fluid count {self.fluid_count}")


@dataclass(frozen=True)
class RankTree:
    """Reduction tree over rank ids: levels of (master, members) groups."""

    nranks: int
    levels: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]

    @property
    def root(self) -> int:
        return 0

    @property
    def height(self) -> int:
        return len(self.levels)


def build_rank_tree(P: int) -> RankTree:
    """Group consecutive blocks of up to 8 ranks per level, smallest id
    becomes the sibling master, until a single node remains."""
    if P < 1:
        raise ValueError(f"rank count must be >= 1, got {P}")
    nodes = list(range(P))
    levels = []
    while len(nodes) > 1:
        groups = [tuple(nodes[i : i + 8]) for i in range(0, len(nodes), 8)]
        levels.append(tuple((g[0], g) for g in groups))
        nodes = [g[0] for g in groups]
    return RankTree(nranks=P, levels=tuple(levels))


class CellOrder:
    """Global order of all existing cells under one numbering scheme.

    Blocked lexicographic indices are gapless, so position == code.
    Morton codes may contain gaps; a sorted table of every cell's code
    maps between codes and global positions.
    """

    def __init__(self, dims, scheme: NumberingScheme):
        X, Y, Z = (int(d) for d in dims)
        self.dims = (X, Y, Z)
        self.scheme = scheme
        self.ncells = X * Y * Z
        if isinstance(scheme, LexBlocked):
            self.codes_sorted = None
        else:
            # Morton contributions of x, y, z occupy disjoint bits
            fx = cell_index(scheme, np.arange(X), 0, 0, dims)
            fy = cell_index(scheme, 0, np.arange(Y), 0, dims)
            fz = cell_index(scheme, 0, 0, np.arange(Z), dims)
            codes = fz[:, None, None] | fy[None, :, None] | fx[None, None, :]
            self.codes_sorted = np.sort(codes.reshape(-1))

    def position_of(self, codes: np.ndarray) -> np.ndarray:
        if self.codes_sorted is None:
            return codes.astype(np.int64)
        return np.searchsorted(self.codes_sorted, codes)

    def code_at(self, positions: np.ndarray) -> np.ndarray:
        if self.codes_sorted is None:
            return np.asarray(positions, dtype=np.uint64)
        return self.codes_sorted[positions]


def _box_sorted_cells(grid: VoxelGrid, scheme, box: RankBox):
    """Codes and flags of the box's cells, sorted ascending by code.

    Returns (codes_sorted, flags_sorted, sort_permutation, box_shape).
    """
    (x0, y0, z0), (x1, y1, z1) = box.lo, box.hi
    xs = np.arange(x0, x1)[None, None, :]
    ys = np.arange(y0, y1)[None, :, None]
    zs = np.arange(z0, z1)[:, None, None]
    codes = cell_index(scheme, xs, ys, zs, grid.dims).reshape(-1)
    flags = grid.flags[z0:z1, y0:y1, x0:x1].reshape(-1)
    sortidx = np.argsort(codes)
    return codes[sortidx], flags[sortidx], sortidx, (z1 - z0, y1 - y0, x1 - x0)


def _run_bounds(positions: np.ndarray):
    """Start/end offsets of maximal runs of consecutive global positions."""
    breaks = np.flatnonzero(np.diff(positions) > 1) + 1
    starts = np.concatenate([[0], breaks])
    ends = np.concatenate([breaks, [len(positions)]])
    return starts, ends


def find_runs(
    grid: VoxelGrid,
    scheme: NumberingScheme,
    box: RankBox,
    all_boxes=None,
    order: CellOrder | None = None,
) -> list[IncellInfo]:
    """Summarize the box's cells as incell/outcell runs, sorted by incell.

    The outcell is the existing cell with the smallest index greater
    than the run; it always lies on another rank (otherwise the run
    would extend). SENTINEL_END marks the run containing the globally
    last cell.
    """
    if all_boxes is not None and all(b != box for b in all_boxes):
        raise DecompositionError(f"box of rank {box.rank} not in the decomposition")
    if order is None:
        order = CellOrder(grid.dims, scheme)
    codes_s, flags_s, _, _ = _box_sorted_cells(grid, scheme, box)
    if codes_s.size == 0:
        return []
    pos = order.position_of(codes_s)
    starts, ends = _run_bounds(pos)
    fluid = np.add.reduceat(flags_s.astype(np.int64), starts)
    last_pos = pos[ends - 1]
    succ = np.minimum(last_pos + 1, order.ncells - 1)
    out_codes = order.code_at(succ)
    runs = []
    for i in range(len(starts)):
        has_succ = last_pos[i] + 1 < order.ncells
        runs.append(
            IncellInfo(
                incell_I=int(codes_s[starts[i]]),
                outcell_I=int(out_codes[i]) if has_succ else SENTINEL_END,
                fluid_count=int(fluid[i]),
                owner_rank=box.rank,
            )
        )
    return runs


def _merge_runs(entries: list[IncellInfo], owner: int) -> list[IncellInfo]:
    """Merge index-sorted runs whose outcell meets the next incell."""
    merged: list[IncellInfo] = []
    for e in entries:
        if merged:
            prev = merged[-1]
            if e.incell_I < prev.outcell_I:
                raise ProtocolError(
                    f"overlapping runs [{prev.incell_I}, {prev.outcell_I}) "
                    f"and [{e.incell_I}, {e.outcell_I})"
                )
            if e.incell_I == prev.outcell_I:
                merged[-1] = replace(
                    prev,
                    outcell_I=e.outcell_I,
                    fluid_count=prev.fluid_count + e.fluid_count,
                )
                continue
        merged.append(replace(e, owner_rank=owner))
    return merged


def _scatter_starts(
    A: list[IncellInfo], B: list[IncellInfo]
) -> list[IncellInfo]:
    """Map start indices of merged runs B back onto their constituents A.

    Constituents inherit the merged start offset by the fluid counts of
    the constituents merged before them.
    """
    out: list[IncellInfo] = []
    i = 0
    for b in B:
        if b.start_Ic is None:
            raise ProtocolError("merged run reached downward pass without a start")
        running = b.start_Ic
        while i < len(A) and A[i].incell_I < b.outcell_I:
            if A[i].incell_I < b.incell_I:
                raise ProtocolError(
                    f"run at index {A[i].incell_I} precedes its merged parent"
                )
            out.append(replace(A[i], start_Ic=running))
            running += A[i].fluid_count
            i += 1
    if i != len(A):
        raise ProtocolError(f"{len(A) - i} runs left unmapped in downward pass")
    return out


def octree_reduce(
    lists_by_rank,
    tree: RankTree,
    rng=None,
) -> list[list[IncellInfo]]:
    """Assign start_Ic to every rank's runs via the tree reduction.

    Upward, each sibling master concatenates its children's run lists,
    sorts them by incell index, merges adjacent runs and forwards the
    result as its own. The root prefix-sums fluid counts (first start
    is 1). Downward, merged starts are scattered back onto the original
    constituent lists and routed to their senders. `rng`, when given,
    shuffles message arrival order within sibling groups; results must
    not depend on it. Each level is logged at DEBUG level.
    """
    P = tree.nranks
    trace = log.isEnabledFor(logging.DEBUG)
    if len(lists_by_rank) != P:
        raise ProtocolError(f"expected {P} rank lists, got {len(lists_by_rank)}")
    current: dict[int, list[IncellInfo]] = {}
    for r in range(P):
        ent = sorted(lists_by_rank[r], key=lambda e: e.incell_I)
        for e in ent:
            if e.owner_rank != r:
                raise ProtocolError(
                    f"rank {r} submitted a run owned by rank {e.owner_rank}"
                )
        current[r] = ent

    stored: list[dict[int, list[IncellInfo]]] = []
    for li, level in enumerate(tree.levels):
        stored.append({})
        nxt: dict[int, list[IncellInfo]] = {}
        for master, members in level:
            parts = [(m, current[m]) for m in members]
            if rng is not None:
                rng.shuffle(parts)
            A = [e for _, lst in parts for e in lst]
            A.sort(key=lambda e: e.incell_I)
            B = _merge_runs(A, master)
            stored[li][master] = A
            nxt[master] = B
            if trace:
                log.debug(
                    "up level %d master %d: %d runs from %s -> %d merged",
                    li, master, len(A), list(members), len(B),
                )
        current = nxt

    root_runs = current[tree.root]
    assigned: list[IncellInfo] = []
    running = 1
    prev_out = -1
    for e in root_runs:
        if e.incell_I < prev_out:
            raise ProtocolError(
                f"overlapping runs at root: incell {e.incell_I} < outcell {prev_out}"
            )
        assigned.append(replace(e, start_Ic=running))
        running += e.fluid_count
        prev_out = e.outcell_I
    if trace:
        log.debug("root %d assigned %d starts, N_f=%d", tree.root, len(assigned), running - 1)

    down = {tree.root: assigned}
    for li in range(len(tree.levels) - 1, -1, -1):
        nxt_down: dict[int, list[IncellInfo]] = {}
        for master, members in tree.levels[li]:
            mapped = _scatter_starts(stored[li][master], down[master])
            for m in members:
                nxt_down[m] = [e for e in mapped if e.owner_rank == m]
            if trace:
                log.debug(
                    "down level %d master %d: scattered %d runs to %s",
                    li, master, len(mapped), list(members),
                )
        down = nxt_down
    return [down[r] for r in range(P)]


def assign_contiguous(
    grid: VoxelGrid,
    scheme: NumberingScheme,
    box: RankBox,
    icis: list[IncellInfo],
    order: CellOrder | None = None,
) -> np.ndarray:
    """Contiguous indices of the box's cells, shaped like the box region.

    Within each run, fluid cells receive consecutive I_c starting at
    the run's start_Ic in increasing index order; solid cells receive 0.
    Returned array is indexed [z - lo_z, y - lo_y, x - lo_x].
    """
    if order is None:
        order = CellOrder(grid.dims, scheme)
    codes_s, flags_s, sortidx, shape = _box_sorted_cells(grid, scheme, box)
    pos = order.position_of(codes_s)
    starts, ends = _run_bounds(pos)
    icis_sorted = sorted(icis, key=lambda e: e.incell_I)
    if len(icis_sorted) != len(starts):
        raise ProtocolError(
            f"box of rank {box.rank} has {len(starts)} runs "
            f"but received {len(icis_sorted)} records"
        )
    out_sorted = np.zeros(codes_s.size, dtype=np.uint64)
    for a, b, ici in zip(starts, ends, icis_sorted):
        if int(codes_s[a]) != ici.incell_I:
            raise ProtocolError(
                f"run incell mismatch: box has {int(codes_s[a])}, "
                f"record says {ici.incell_I}"
            )
        if ici.start_Ic is None:
            raise ProtocolError(f"run at incell {ici.incell_I} has no start index")
        fl = a + np.flatnonzero(flags_s[a:b])
        if fl.size != ici.fluid_count:
            raise ProtocolError(
                f"run at incell {ici.incell_I}: fluid count {fl.size} "
                f"does not match record {ici.fluid_count}"
            )
        out_sorted[fl] = ici.start_Ic + np.arange(fl.size, dtype=np.uint64)
    dense = np.empty(codes_s.size, dtype=np.uint64)
    dense[sortidx] = out_sorted
    return dense.reshape(shape)


def serial_oracle(grid: VoxelGrid, scheme: NumberingScheme) -> np.ndarray:
    """Single-pass reference: enumerate all cells sorted by index and
    hand 1, 2, 3, ... to fluid cells; solids get 0. Shaped (Z, Y, X)."""
    X, Y, Z = grid.dims
    xs = np.arange(X)[None, None, :]
    ys = np.arange(Y)[None, :, None]
    zs = np.arange(Z)[:, None, None]
    codes = np.broadcast_to(
        cell_index(scheme, xs, ys, zs, grid.dims), (Z, Y, X)
    ).reshape(-1)
    flags = grid.flags.reshape(-1)
    ordr = np.argsort(codes)
    fl = flags[ordr]
    ic_sorted = np.where(fl, np.cumsum(fl, dtype=np.uint64), 0)
    dense = np.empty(flags.size, dtype=np.uint64)
    dense[ordr] = ic_sorted
    return dense.reshape(Z, Y, X)
