"""Distributed assignment of the contiguous fluid index I_c.

Each rank detects maximal runs of consecutive existing cells it owns
(in global index order) and summarizes them as one table of
incell/outcell records (`RUN_DTYPE`, one row per run). The tables take
part in a tree reduction that merges runs and prefix-sums fluid counts
with whole-array operations. Afterwards every fluid cell carries a
domain-wide unique contiguous index in [1, N_f]; solid cells carry 0.
The reduction is deterministic regardless of message arrival order and
independent of the rank count. Ranks are simulated in-process.

The tables label cells by their gapless position in index order. Each
rank sorts its box by position once: `find_runs` leaves the sorted
positions in the shared `CellOrder`, and `assign_contiguous` takes them
out again and re-reads only the flags through the sort permutation.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import ParameterError, ProtocolError
from .geometry import RankBox, VoxelGrid
from .numbering import LexBlocked, NumberingScheme, cell_index, scheme_text

__all__ = [
    "RUN_DTYPE",
    "CellOrder",
    "assign_contiguous",
    "build_rank_tree",
    "find_runs",
    "octree_reduce",
    "serial_oracle",
]

log = logging.getLogger(__name__)

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


def build_rank_tree(P: int) -> tuple:
    """The reduction tree over ranks 0..P-1 as its levels of (master,
    members) groups. Each level groups consecutive blocks of up to 8 of
    the previous level's masters (first the ranks), the smallest id
    becoming the master, until one group remains. One rank forms one
    group like any other count: its tree is `(((0, (0,)),),)`."""
    if P < 1:
        raise ParameterError(f"rank count must be >= 1, got {P}")
    nodes, levels = list(range(P)), []
    while not levels or len(nodes) > 1:
        groups = [tuple(nodes[i : i + 8]) for i in range(0, len(nodes), 8)]
        levels.append(tuple((g[0], g) for g in groups))
        nodes = [g[0] for g in groups]
    return tuple(levels)


class CellOrder:
    """Global order of all existing cells under one numbering scheme.

    A cell's position is its rank by code among all cells, gapless in
    0..ncells-1; the run tables label cells by it. Blocked lexicographic
    codes are gapless, so position == code; Morton codes may contain
    gaps, and a (Z, Y, X) field holds every cell's position. Keeps its
    `dims` and `scheme`.

    Also holds, per box, the sorted positions and permutation that
    `find_runs` hands over to `assign_contiguous`, which takes them out.
    """

    def __init__(self, dims, scheme: NumberingScheme):
        X, Y, Z = (int(d) for d in dims)
        self.dims, self.scheme = (X, Y, Z), scheme
        self.ncells = X * Y * Z
        self._sorted: dict[RankBox, tuple] = {}
        self._positions = None
        if not isinstance(scheme, LexBlocked):
            codes = cell_index(scheme, *_box_axes((0, 0, 0), (X, Y, Z)), dims).reshape(-1)
            by_code = np.argsort(codes, kind="stable")
            self._positions = np.empty(self.ncells, dtype=np.int64)
            self._positions[by_code] = np.arange(self.ncells)
            self._positions = self._positions.reshape(Z, Y, X)

    def box_positions(self, box: RankBox) -> np.ndarray:
        """Global positions of the box's cells, in (z, y, x) order."""
        if self._positions is None:
            codes = cell_index(self.scheme, *_box_axes(box.lo, box.hi), self.dims)
            return codes.reshape(-1).view(np.int64)  # lex codes are < 2^63
        (x0, y0, z0), (x1, y1, z1) = box.lo, box.hi
        return self._positions[z0:z1, y0:y1, x0:x1].reshape(-1)


def _box_axes(lo, hi):
    """x, y and z aranges of the box [lo, hi), shaped to broadcast to
    (z, y, x)."""
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    return (np.arange(x0, x1)[None, None, :], np.arange(y0, y1)[None, :, None],
            np.arange(z0, z1)[:, None, None])


def _box_sorted_cells(grid: VoxelGrid, scheme, box: RankBox, order: CellOrder, keep: bool):
    """Flags and global positions of the box's cells, sorted ascending
    by position. `order` must be built for the grid under `scheme`.

    The sort depends only on dims, scheme and box, so it is taken from
    `order`'s slot for the box when there is one (the slot is emptied)
    and made by `_sort_box` otherwise; `keep` leaves it in the slot for
    the next call. The flags are always read from `grid`.

    Returns (flags_sorted, positions, sort_permutation, box_shape).
    """
    if (order.dims, order.scheme) != (grid.dims, scheme):
        raise ParameterError(f"cell order built for dims {order.dims} and "
                             f"{scheme_text(order.scheme)}, used for dims {grid.dims} "
                             f"and {scheme_text(scheme)}")
    cells = order._sorted.pop(box, None) or _sort_box(box, order)
    if keep:
        order._sorted[box] = cells
    positions, sortidx = cells
    (x0, y0, z0), (x1, y1, z1) = box.lo, box.hi
    flags = grid.flags[z0:z1, y0:y1, x0:x1].reshape(-1)[sortidx]
    return flags, positions, sortidx, (z1 - z0, y1 - y0, x1 - x0)


def _sort_box(box: RankBox, order: CellOrder):
    """The box's global positions sorted ascending, and the permutation
    that sorts the box's (z, y, x)-ordered cells: a full slice when they
    are in order already."""
    positions = order.box_positions(box)
    if (positions[1:] > positions[:-1]).all():
        # in order already, as in a lex:b=1 box of whole rows
        sortidx = np.s_[:]
    else:
        # positions are distinct, so every sort kind gives one permutation;
        # the stable one runs faster on a box's partly ordered positions
        sortidx = np.argsort(positions, kind="stable")
        positions = positions[sortidx]
    return positions, sortidx


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
    all_boxes,
    order: CellOrder,
) -> np.ndarray:
    """Summarize the box's cells as a RUN_DTYPE table sorted by incell.

    Cells are labelled by their `CellOrder` position: the incell is the
    run's first cell, and the outcell the position after its last one,
    which lies on another rank (otherwise the run would extend) or, for
    the run of the globally last cell, is `order.ncells`. `box`
    must be `all_boxes[box.rank]`, and `order` is the `CellOrder` of the
    grid under `scheme`, built once for all boxes; the box's sorted
    positions stay in `order` for `assign_contiguous`.
    """
    if not (box.rank < len(all_boxes) and all_boxes[box.rank] == box):
        raise ParameterError(f"box of rank {box.rank} not in the decomposition")
    flags_s, pos, _, _ = _box_sorted_cells(grid, scheme, box, order, keep=True)
    starts, ends = _run_bounds(pos)
    runs = np.zeros(starts.size, RUN_DTYPE)
    runs["incell"] = pos[starts]
    runs["outcell"] = pos[ends - 1] + 1
    runs["fluid"] = np.add.reduceat(flags_s.astype(np.int64), starts)
    runs["owner"] = box.rank
    return runs


def _merge_runs(A: np.ndarray, owner: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge incell-sorted runs whose outcell meets the next incell.

    Returns the merged table, owned by `owner`, and for each run of A
    the index of the merged run it joined; overlapping runs raise
    ProtocolError.
    """
    inc, out = A["incell"], A["outcell"]
    bad = np.flatnonzero(inc[1:] < out[:-1])
    if bad.size:
        k = int(bad[0])
        raise ProtocolError(
            f"overlapping runs [{inc[k]}, {out[k]}) and [{inc[k + 1]}, {out[k + 1]})"
        )
    head = np.ones(A.size, dtype=bool)
    head[1:] = inc[1:] != out[:-1]
    heads = np.flatnonzero(head)
    B = np.zeros(heads.size, RUN_DTYPE)
    B["incell"] = inc[heads]
    # the run before each head (cyclically) ends a merged run
    B["outcell"] = out[np.roll(head, -1)]
    B["fluid"] = np.add.reduceat(A["fluid"], heads)
    B["owner"] = owner
    return B, np.cumsum(head) - 1


def _fluid_before(fluid: np.ndarray) -> np.ndarray:
    """Fluid cells in the runs before each run, from per-run counts."""
    return np.cumsum(fluid) - fluid


def octree_reduce(lists_by_rank, tree, rng=None) -> list[np.ndarray]:
    """Every rank's run table, sorted by incell, with its `start` column
    filled by the tree reduction; the submitted tables are not changed.

    `tree` is `build_rank_tree(P)`: its first level's members are the P
    ranks, and rank 0 is the root. Upward, each sibling master
    concatenates its children's tables, sorts them by incell index,
    merges adjacent runs and forwards the result as its own. The root
    prefix-sums fluid counts (first start is 1). Downward, a run starts
    at its merged run's start plus the fluid cells of the runs merged
    before it, and goes back to its sender. `rng`, when given, shuffles
    message arrival order within sibling groups; results must not
    depend on it. Each level is logged at DEBUG level.
    """
    P = sum(len(members) for _, members in tree[0])
    trace = log.isEnabledFor(logging.DEBUG)
    if len(lists_by_rank) != P:
        raise ProtocolError(f"expected {P} rank lists, got {len(lists_by_rank)}")
    # each table is checked where it lies; a fault names its run of
    # smallest incell, the first of them in submitted order
    for r, runs in enumerate(lists_by_rank):
        inc = runs["incell"]
        wrong = np.flatnonzero(runs["owner"] != r)
        if wrong.size:
            k = wrong[np.argmin(inc[wrong])]
            raise ProtocolError(f"rank {r} submitted a run owned by rank {runs['owner'][k]}")
        bad = np.flatnonzero((inc >= runs["outcell"]) | (runs["fluid"] < 0))
        if bad.size:
            e = runs[bad[np.argmin(inc[bad])]]
            raise ProtocolError(
                f"rank {r} submitted the invalid run [{e['incell']}, {e['outcell']}) "
                f"with {e['fluid']} fluid cells"
            )
    current = dict(enumerate(lists_by_rank))

    # per level, each master's (constituents, merged run joined, merged runs)
    stored: list[dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]] = []
    for li, level in enumerate(tree):
        stored.append({})
        nxt: dict[int, np.ndarray] = {}
        for master, members in level:
            parts = [current[m] for m in members]
            if rng is not None:
                rng.shuffle(parts)
            A = np.concatenate(parts)
            A = A.take(np.argsort(A["incell"], kind="stable"))
            B, joined = _merge_runs(A, master)
            stored[li][master] = (A, joined, B)
            nxt[master] = B
            if trace:
                log.debug(
                    "up level %d master %d: %d runs from %s -> %d merged",
                    li, master, A.size, list(members), B.size,
                )
        current = nxt

    # the last level's one group merges into the root's table
    root = current[0]
    root["start"] = 1 + _fluid_before(root["fluid"])
    if trace:
        log.debug("root 0 assigned %d starts, N_f=%d", root.size, int(root["fluid"].sum()))

    down = {0: root}
    for li in range(len(tree) - 1, -1, -1):
        nxt_down: dict[int, np.ndarray] = {}
        for master, members in tree[li]:
            A, joined, B = stored[li][master]
            msg = down[master]
            if not np.array_equal(msg["incell"], B["incell"]) or (msg["start"] < 1).any():
                raise ProtocolError(
                    f"master {master} got {msg.size} runs downward for its "
                    f"{B.size} merged runs, or a run without a start"
                )
            base = msg["start"] - _fluid_before(B["fluid"])
            A["start"] = base[joined] + _fluid_before(A["fluid"])
            # one stable sort by owner keeps each member's runs in incell
            # order, and one split hands every member its own
            by_owner = A.take(np.argsort(A["owner"], kind="stable"))
            owners = by_owner["owner"]
            cuts = zip(np.searchsorted(owners, members, side="left"),
                       np.searchsorted(owners, members, side="right"))
            for m, (a, b) in zip(members, cuts):
                nxt_down[m] = by_owner[a:b]
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
    order: CellOrder,
) -> np.ndarray:
    """Contiguous indices of the box's cells, shaped like the box region.

    Within each run, fluid cells receive consecutive I_c starting at
    the run's start in increasing index order; solid cells receive 0.
    Returned array is indexed [z - lo_z, y - lo_y, x - lo_x]. `runs`
    must be in incell order, as `octree_reduce` returns it; a table out
    of that order is a run incell mismatch. Takes the box's sorted
    positions out of `order` when `find_runs` left them there, and sorts
    the box itself otherwise.
    """
    flags_s, pos, sortidx, shape = _box_sorted_cells(grid, scheme, box, order, keep=False)
    starts, _ = _run_bounds(pos)
    if runs.size != starts.size:
        raise ProtocolError(
            f"box of rank {box.rank} has {starts.size} runs "
            f"but received {runs.size} records"
        )
    incell = pos[starts].view(np.uint64)  # positions are >= 0
    bad = np.flatnonzero(incell != runs["incell"])
    if bad.size:
        k = bad[0]
        raise ProtocolError(
            f"run incell mismatch: box has {incell[k]}, "
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
    # run's start less the fluid cells of the runs before it, written
    # once at its place in the box through the sort permutation
    fl = np.flatnonzero(flags_s)
    base = runs["start"] - _fluid_before(fluid)
    dense = np.zeros(pos.size, dtype=np.uint64)
    dense[fl if isinstance(sortidx, slice) else sortidx[fl]] = (
        np.arange(fl.size) + np.repeat(base, fluid))
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
