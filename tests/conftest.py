import numpy as np
import pytest

from listlbm import (
    LexBlocked,
    Morton,
    VoxelGrid,
    make_channel,
    make_packing,
    preprocess_grid,
    read_header,
)

ALL_SCHEMES = [LexBlocked(1), LexBlocked(4), LexBlocked(100), Morton(1), Morton(2)]
SCHEME_IDS = ["lex:b=1", "lex:b=4", "lex:b=100", "morton:g=1", "morton:g=2"]


def random_grid(seed, dims, fluid_fraction=0.5):
    """Deterministic random flag field; dims given as (X, Y, Z)."""
    X, Y, Z = dims
    rng = np.random.default_rng(seed)
    return VoxelGrid(rng.random((Z, Y, X)) < fluid_fraction)


def first_record_offset(path):
    """Byte offset of the record I_c=1 in a sparse file: where
    `read_header` stops."""
    with open(path, "rb") as fh:
        read_header(fh)
        return fh.tell()


def ic_field(grid, scheme, nranks=1):
    """Dense (Z, Y, X) map of the I_c that `preprocess_grid` assigns:
    records.ic scattered at records.coords, 0 at solid cells."""
    _, records = preprocess_grid(grid, scheme, nranks=nranks)
    X, Y, Z = grid.dims
    dense = np.zeros((Z, Y, X), dtype=np.uint64)
    x, y, z = records.coords.T
    dense[z, y, x] = records.ic
    return dense


@pytest.fixture(scope="session")
def channel4():
    return make_channel(4)


@pytest.fixture(scope="session")
def channel6():
    return make_channel(6)


@pytest.fixture(scope="session")
def packing24():
    return make_packing(24, 1)
