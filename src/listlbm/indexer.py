"""Distributed assignment of the contiguous fluid index I_c.

Each rank detects maximal runs of consecutive existing cells it owns
(in global index order) and summarizes them as one table of
incell/outcell records (`RUN_DTYPE`, one row per run). The tables take
part in a tree reduction that merges runs and prefix-sums fluid counts
with whole-array operations. Afterwards every fluid cell carries a
domain-wide unique contiguous index in [1, N_f]; solid cells carry 0.
The reduction is deterministic regardless of message arrival order and
independent of the rank count. Ranks are simulated in-process.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, ProtocolError
from .geometry import RankBox, VoxelGrid
from .numbering import LexBlocked, Morton, NumberingScheme, cell_index

__all__ = [
    "RUN_DTYPE",
    "SENTINEL_END",
    "CellOrder",
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


# One row per run. `start` is the I_c of the run's first fluid cell;
# 0 means not assigned yet, since I_c starts at 1.
RUN_DTYPE = np.dtype(
    [
        ("incell", np.uint64),
        ("outcell", np.uint64),
        ("fluid", np.int64),
        ("owner", np.int64),
        ("start", np.int64),
    ]
)


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
) -> np.ndarray:
    """Summarize the box's cells as a RUN_DTYPE table sorted by incell.

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
    pos = order.position_of(codes_s)
    starts, ends = _run_bounds(pos)
    succ = pos[ends - 1] + 1
    has_succ = succ < order.ncells
    runs = np.zeros(starts.size, RUN_DTYPE)
    runs["incell"] = codes_s[starts]
    runs["outcell"] = SENTINEL_END
    runs["outcell"][has_succ] = order.code_at(succ[has_succ])
    runs["fluid"] = np.add.reduceat(flags_s.astype(np.int64), starts)
    runs["owner"] = box.rank
    return runs


def _reject_overlap(runs: np.ndarray) -> None:
    """Raise ProtocolError unless incell-sorted runs are disjoint."""
    inc, out = runs["incell"], runs["outcell"]
    bad = np.flatnonzero(inc[1:] < out[:-1])
    if bad.size:
        k = int(bad[0])
        raise ProtocolError(
            f"overlapping runs [{inc[k]}, {out[k]}) and [{inc[k + 1]}, {out[k + 1]})"
        )


def _merge_runs(A: np.ndarray, owner: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge incell-sorted runs whose outcell meets the next incell.

    Returns the merged table, owned by `owner`, and for each run of A
    the index of the merged run it joined.
    """
    _reject_overlap(A)
    head = np.ones(A.size, dtype=bool)
    head[1:] = A["incell"][1:] != A["outcell"][:-1]
    heads = np.flatnonzero(head)
    B = np.zeros(heads.size, RUN_DTYPE)
    B["incell"] = A["incell"][heads]
    # the run before each head (cyclically) ends a merged run
    B["outcell"] = A["outcell"][np.roll(head, -1)]
    B["fluid"] = np.add.reduceat(A["fluid"], heads)
    B["owner"] = owner
    return B, np.cumsum(head) - 1


def _fluid_before(fluid: np.ndarray) -> np.ndarray:
    """Fluid cells in the runs before each run, from per-run counts."""
    return np.cumsum(fluid) - fluid


def octree_reduce(lists_by_rank, tree: RankTree, rng=None) -> list[np.ndarray]:
    """Every rank's run table, sorted by incell, with its `start` column
    filled by the tree reduction; the submitted tables are not changed.

    Upward, each sibling master concatenates its children's tables,
    sorts them by incell index, merges adjacent runs and forwards the
    result as its own. The root prefix-sums fluid counts (first start
    is 1). Downward, a run starts at its merged run's start plus the
    fluid cells of the runs merged before it, and goes back to its
    sender. `rng`, when given, shuffles message arrival order within
    sibling groups; results must not depend on it. Each level is
    logged at DEBUG level.
    """
    P = tree.nranks
    trace = log.isEnabledFor(logging.DEBUG)
    if len(lists_by_rank) != P:
        raise ProtocolError(f"expected {P} rank lists, got {len(lists_by_rank)}")
    current: dict[int, np.ndarray] = {}
    for r, runs in enumerate(lists_by_rank):
        runs = runs[np.argsort(runs["incell"], kind="stable")]
        wrong = np.flatnonzero(runs["owner"] != r)
        if wrong.size:
            raise ProtocolError(
                f"rank {r} submitted a run owned by rank {runs['owner'][wrong[0]]}"
            )
        bad = np.flatnonzero((runs["incell"] >= runs["outcell"]) | (runs["fluid"] < 0))
        if bad.size:
            e = runs[bad[0]]
            raise ProtocolError(
                f"rank {r} submitted the invalid run [{e['incell']}, {e['outcell']}) "
                f"with {e['fluid']} fluid cells"
            )
        current[r] = runs

    # per level, each master's (constituents, merged run joined, merged runs)
    stored: list[dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]] = []
    for li, level in enumerate(tree.levels):
        stored.append({})
        nxt: dict[int, np.ndarray] = {}
        for master, members in level:
            parts = [current[m] for m in members]
            if rng is not None:
                rng.shuffle(parts)
            A = np.concatenate(parts)
            A = A[np.argsort(A["incell"], kind="stable")]
            B, joined = _merge_runs(A, master)
            stored[li][master] = (A, joined, B)
            nxt[master] = B
            if trace:
                log.debug(
                    "up level %d master %d: %d runs from %s -> %d merged",
                    li, master, A.size, list(members), B.size,
                )
        current = nxt

    root = current[tree.root]
    _reject_overlap(root)
    root["start"] = 1 + _fluid_before(root["fluid"])
    if trace:
        log.debug("root %d assigned %d starts, N_f=%d",
                  tree.root, root.size, int(root["fluid"].sum()))

    down = {tree.root: root}
    for li in range(len(tree.levels) - 1, -1, -1):
        nxt_down: dict[int, np.ndarray] = {}
        for master, members in tree.levels[li]:
            A, joined, B = stored[li][master]
            msg = down[master]
            if not np.array_equal(msg["incell"], B["incell"]) or (msg["start"] < 1).any():
                raise ProtocolError(
                    f"master {master} got {msg.size} runs downward for its "
                    f"{B.size} merged runs, or a run without a start"
                )
            base = msg["start"] - _fluid_before(B["fluid"])
            A["start"] = base[joined] + _fluid_before(A["fluid"])
            for m in members:
                nxt_down[m] = A[A["owner"] == m]
            if trace:
                log.debug(
                    "down level %d master %d: scattered %d runs to %s",
                    li, master, A.size, list(members),
                )
        down = nxt_down
    return [down[r] for r in range(P)]


def assign_contiguous(
    grid: VoxelGrid,
    scheme: NumberingScheme,
    box: RankBox,
    runs: np.ndarray,
    order: CellOrder | None = None,
) -> np.ndarray:
    """Contiguous indices of the box's cells, shaped like the box region.

    Within each run, fluid cells receive consecutive I_c starting at
    the run's start in increasing index order; solid cells receive 0.
    Returned array is indexed [z - lo_z, y - lo_y, x - lo_x].
    """
    if order is None:
        order = CellOrder(grid.dims, scheme)
    codes_s, flags_s, sortidx, shape = _box_sorted_cells(grid, scheme, box)
    starts, _ = _run_bounds(order.position_of(codes_s))
    runs = runs[np.argsort(runs["incell"], kind="stable")]
    if runs.size != starts.size:
        raise ProtocolError(
            f"box of rank {box.rank} has {starts.size} runs "
            f"but received {runs.size} records"
        )
    bad = np.flatnonzero(codes_s[starts] != runs["incell"])
    if bad.size:
        k = bad[0]
        raise ProtocolError(
            f"run incell mismatch: box has {codes_s[starts[k]]}, "
            f"record says {runs['incell'][k]}"
        )
    bad = np.flatnonzero(runs["start"] < 1)
    if bad.size:
        raise ProtocolError(f"run at incell {runs['incell'][bad[0]]} has no start index")
    fluid = np.add.reduceat(flags_s.astype(np.int64), starts)
    bad = np.flatnonzero(fluid != runs["fluid"])
    if bad.size:
        k = bad[0]
        raise ProtocolError(
            f"run at incell {runs['incell'][k]}: fluid count {fluid[k]} "
            f"does not match record {runs['fluid'][k]}"
        )
    # the k-th fluid cell of the box, in index order, gets k plus its
    # run's start less the fluid cells of the runs before it
    fl = np.flatnonzero(flags_s)
    base = runs["start"] - _fluid_before(fluid)
    out_sorted = np.zeros(codes_s.size, dtype=np.uint64)
    out_sorted[fl] = np.arange(fl.size) + np.repeat(base, fluid)
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
