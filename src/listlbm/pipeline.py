"""End-to-end preprocessing: voxel grid in, sparse representation out.

Ties together decomposition, run detection, the tree reduction, halo
exchange, adjacency and placement by I_c. The output depends only on
the grid, the numbering scheme and the periodic flags; the preprocessor
rank count never changes a single byte.
"""

from __future__ import annotations

from .adjacency import SparseRecords, build_adjacency, halo_exchange
from .geometry import VoxelGrid, decompose_ranks
from .indexer import (
    CellOrder,
    assign_contiguous,
    build_rank_tree,
    find_runs,
    octree_reduce,
)
from .numbering import NumberingScheme, scheme_text
from .sparse_io import SparseHeader

__all__ = ["preprocess_grid"]


def preprocess_grid(
    grid: VoxelGrid,
    scheme: NumberingScheme,
    nranks: int = 1,
    periodic=(False, False, False),
) -> tuple[SparseHeader, SparseRecords]:
    """Produce the sparse records, placed by I_c, and the matching header
    in memory; this is the one place the records get placed: each rank's
    `build_adjacency` writes its records to rows I_c - 1 of one zeroed set
    of N_f records, so no rank's batch outlives its halo."""
    boxes = decompose_ranks(grid.dims, nranks)
    order = CellOrder(grid.dims, scheme)
    lists = [find_runs(grid, scheme, b, boxes, order) for b in boxes]
    assigned = octree_reduce(lists, build_rank_tree(nranks))
    ic_by_rank = [assign_contiguous(grid, scheme, b, assigned[b.rank], order) for b in boxes]
    halos = halo_exchange(grid, boxes, ic_by_rank, periodic=periodic)
    del ic_by_rank
    records = SparseRecords.zeros(grid.fluid_count)
    for halo in halos:
        build_adjacency(halo, records)
    header = SparseHeader(
        dims=grid.dims,
        n_fluid=grid.fluid_count,
        scheme_text=scheme_text(scheme),
        periodic=tuple(bool(p) for p in periodic),
    )
    return header, records
