"""End-to-end preprocessing: voxel grid in, sparse representation out.

Ties together decomposition, run detection, the tree reduction, halo
exchange and adjacency construction. The output depends only on the
grid, the numbering scheme and the periodic flags; the preprocessor
rank count never changes a single byte.
"""

from __future__ import annotations

import numpy as np

from .adjacency import SparseRecords, build_adjacency, check_records, halo_exchange
from .geometry import VoxelGrid, decompose_ranks
from .indexer import (
    CellOrder,
    assign_contiguous,
    build_rank_tree,
    find_runs,
    octree_reduce,
)
from .numbering import NumberingScheme, scheme_text
from .sparse_io import SparseHeader, write_sparse

__all__ = [
    "contiguous_index_field",
    "preprocess_grid",
    "preprocess_to_file",
]


def _distributed_ic(grid, scheme, nranks, rng):
    """Rank boxes and each box's I_c block from the simulated reduction."""
    boxes = decompose_ranks(grid.dims, nranks)
    order = CellOrder(grid.dims, scheme)
    lists = [find_runs(grid, scheme, b, boxes, order=order) for b in boxes]
    assigned = octree_reduce(lists, build_rank_tree(nranks), rng=rng)
    ic_by_rank = [
        assign_contiguous(grid, scheme, b, assigned[b.rank], order=order)
        for b in boxes
    ]
    return boxes, ic_by_rank


def contiguous_index_field(
    grid: VoxelGrid, scheme: NumberingScheme, nranks: int = 1, rng=None
) -> np.ndarray:
    """Dense (Z, Y, X) map of I_c computed via the distributed path."""
    X, Y, Z = grid.dims
    boxes, ic_by_rank = _distributed_ic(grid, scheme, nranks, rng)
    dense = np.zeros((Z, Y, X), dtype=np.uint64)
    for b in boxes:
        dense[b.lo[2] : b.hi[2], b.lo[1] : b.hi[1], b.lo[0] : b.hi[0]] = ic_by_rank[
            b.rank
        ]
    return dense


def preprocess_grid(
    grid: VoxelGrid,
    scheme: NumberingScheme,
    nranks: int = 1,
    periodic=(False, False, False),
    rng=None,
) -> tuple[SparseHeader, SparseRecords]:
    """Produce the sparse records, sorted by I_c, and the matching header
    in memory; this is the one place the records get sorted."""
    boxes, ic_by_rank = _distributed_ic(grid, scheme, nranks, rng)
    halos = halo_exchange(grid, boxes, ic_by_rank, periodic=periodic)
    records = SparseRecords.concat(build_adjacency(h) for h in halos).sorted_by_ic()
    check_records(records, grid.fluid_count)
    header = SparseHeader(
        dims=grid.dims,
        n_fluid=grid.fluid_count,
        scheme_text=scheme_text(scheme),
        periodic=tuple(bool(p) for p in periodic),
    )
    return header, records


def preprocess_to_file(
    grid: VoxelGrid,
    scheme: NumberingScheme,
    path,
    nranks: int = 1,
    periodic=(False, False, False),
) -> SparseHeader:
    """Preprocess and write the sparse file; returns the header."""
    header, records = preprocess_grid(grid, scheme, nranks=nranks, periodic=periodic)
    write_sparse(path, records, header)
    return header
