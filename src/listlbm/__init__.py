"""Sparse list-based lattice Boltzmann toolkit.

Turns voxel geometries into compact fluid-only simulation domains: cells are
numbered by a configurable space-filling scheme, reduced to a contiguous
index by a distributed octree pass, stored with explicit D3Q19 adjacency in
a chunkable binary format, partitioned, analyzed, and run through a TRT
collision kernel with indirect addressing.
"""

from .adjacency import STENCIL, SparseRecords, build_adjacency, halo_exchange
from .errors import (
    DataError,
    DecompositionError,
    DivergenceError,
    DomainError,
    FormatError,
    GeometryError,
    ListLbmError,
    NotConvergedError,
    ParameterError,
    ProtocolError,
    SchemeParseError,
    TooManyProcessesError,
)
from .geometry import (
    RankBox,
    VoxelGrid,
    decompose_ranks,
    load_voxels,
    make_channel,
    make_packing,
    save_voxels,
)
from .indexer import (
    RUN_DTYPE,
    SENTINEL_END,
    build_rank_tree,
    find_runs,
    octree_reduce,
    serial_oracle,
)
from .numbering import LexBlocked, Morton, cell_index, index_of, parse_scheme, scheme_text
from .partition import (
    PartitionAssignment,
    PartitionStats,
    chunk_ranges,
    emit_histograms,
    partition_stats,
)
from .pipeline import contiguous_index_field, preprocess_grid, preprocess_to_file
from .solver import (
    BenchReport,
    Simulation,
    TrtParams,
    poiseuille_error,
    run_benchmark,
)
from .sparse_io import SparseHeader, read_chunk, read_header, read_sparse, write_sparse

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "DataError",
    "DecompositionError",
    "DivergenceError",
    "DomainError",
    "FormatError",
    "GeometryError",
    "LexBlocked",
    "ListLbmError",
    "Morton",
    "NotConvergedError",
    "ParameterError",
    "PartitionAssignment",
    "PartitionStats",
    "ProtocolError",
    "RankBox",
    "RUN_DTYPE",
    "SENTINEL_END",
    "SchemeParseError",
    "Simulation",
    "SparseHeader",
    "SparseRecords",
    "STENCIL",
    "TooManyProcessesError",
    "TrtParams",
    "VoxelGrid",
    "build_adjacency",
    "build_rank_tree",
    "cell_index",
    "chunk_ranges",
    "contiguous_index_field",
    "decompose_ranks",
    "emit_histograms",
    "find_runs",
    "halo_exchange",
    "index_of",
    "load_voxels",
    "make_channel",
    "make_packing",
    "octree_reduce",
    "parse_scheme",
    "partition_stats",
    "poiseuille_error",
    "preprocess_grid",
    "preprocess_to_file",
    "read_chunk",
    "read_header",
    "read_sparse",
    "run_benchmark",
    "save_voxels",
    "scheme_text",
    "serial_oracle",
    "write_sparse",
]
