import re
import tracemalloc

import numpy as np
import pytest

from listlbm import (
    FormatError,
    ParameterError,
    RankBox,
    VoxelGrid,
    decompose_ranks,
    load_voxels,
    make_channel,
    make_packing,
    save_voxels,
)
from listlbm import geometry


class TestChannel:
    def test_d4_counts(self):
        grid = make_channel(4)
        assert grid.dims == (20, 4, 4)
        assert grid.fluid_count == 80
        assert grid.flags.size == 320

    def test_d3_single_interior_line(self):
        assert make_channel(3).fluid_count == 15

    def test_walls_are_solid(self):
        grid = make_channel(5)
        flags = grid.flags
        assert not flags[0, :, :].any()
        assert not flags[-1, :, :].any()
        assert not flags[:, 0, :].any()
        assert not flags[:, -1, :].any()
        assert flags[1:-1, 1:-1, :].all()

    def test_large_duct_is_nearly_all_fluid(self):
        grid = make_channel(100)
        frac = grid.fluid_count / grid.flags.size
        assert abs(frac - (98 / 100) ** 2) < 1e-12

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_too_small_rejected(self, d):
        with pytest.raises(ParameterError):
            make_channel(d)

    def test_box_above_the_reader_limit_rejected(self, monkeypatch):
        """The (d, d, 5d) box may hold MAX_CELLS cells, the most
        `load_voxels` reads, and no more."""
        monkeypatch.setattr(geometry, "MAX_CELLS", 5 * 4**3)
        assert make_channel(4).flags.size == 5 * 4**3
        want = r"^channel diameter 5: 625 cells exceeds limit 320$"
        with pytest.raises(ParameterError, match=want):
            make_channel(5)


class TestPacking:
    def test_deterministic(self):
        a = make_packing(24, 1)
        b = make_packing(24, 1)
        assert a == b
        assert a.fluid_count == 37327  # frozen regression value

    def test_fluid_fraction_in_band(self):
        grid = make_packing(24, 1)
        frac = grid.fluid_count / grid.flags.size
        assert 0.15 < frac < 0.60

    def test_dims_and_corner(self):
        grid = make_packing(24, 1)
        assert grid.dims == (120, 24, 24)
        assert not grid.flags[0, 0, 0]  # outside the circular tube section

    def test_seed_changes_geometry(self):
        assert make_packing(24, 1) != make_packing(24, 2)

    def test_seed_wraps_to_64_bits(self):
        assert make_packing(24, -1) == make_packing(24, 2 ** 64 - 1)

    def test_minimum_diameter(self):
        grid = make_packing(12, 3)
        assert grid.dims == (60, 12, 12)
        with pytest.raises(ParameterError):
            make_packing(11, 3)

    def test_box_above_the_reader_limit_rejected(self, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_CELLS", 5 * 12**3)
        assert make_packing(12, 3).flags.size == 5 * 12**3
        want = r"^packing diameter 13: 10985 cells exceeds limit 8640$"
        with pytest.raises(ParameterError, match=want):
            make_packing(13, 3)


class TestDecompose:
    def test_perfect_cube_split(self):
        boxes = decompose_ranks((8, 8, 8), 8)
        assert len(boxes) == 8
        assert all(b.extent == (4, 4, 4) for b in boxes)
        assert [b.rank for b in boxes] == list(range(8))

    def test_slab_rule_puts_remainder_first(self):
        boxes = decompose_ranks((10, 4, 4), 3)
        widths = [b.hi[0] - b.lo[0] for b in boxes]
        assert widths == [4, 3, 3]
        assert all(b.extent[1:] == (4, 4) for b in boxes)

    def test_single_rank_is_whole_domain(self):
        (box,) = decompose_ranks((5, 1, 1), 1)
        assert box.lo == (0, 0, 0)
        assert box.hi == (5, 1, 1)

    @pytest.mark.parametrize("P", range(1, 31))
    def test_boxes_tile_exactly(self, P):
        dims = (30, 4, 3)
        boxes = decompose_ranks(dims, P)
        paint = np.zeros((dims[2], dims[1], dims[0]), dtype=int)
        for b in boxes:
            paint[b.lo[2]:b.hi[2], b.lo[1]:b.hi[1], b.lo[0]:b.hi[0]] += 1
        assert (paint == 1).all()
        assert sum(np.prod(b.extent) for b in boxes) == 360

    def test_prime_count_exceeding_every_axis_rejected(self):
        with pytest.raises(ParameterError):
            decompose_ranks((5, 3, 2), 7)

    def test_too_many_ranks(self):
        with pytest.raises(ParameterError):
            decompose_ranks((2, 2, 2), 9)

    def test_rank_box_extent(self):
        box = RankBox(0, (1, 2, 3), (4, 4, 5))
        assert box.extent == (3, 2, 2)

    @pytest.mark.parametrize("lo", [(-1, 0, 0), (0, -2, 0), (0, 0, -1)])
    def test_rank_box_negative_corner_rejected(self, lo):
        # a negative corner names cells outside the grid, which a numpy
        # slice would read as counted from the far end
        with pytest.raises(ParameterError, match=re.escape(f"negative box corner lo={lo}")):
            RankBox(0, lo, (2, 1, 1))


class TestVoxelFile:
    def test_round_trip(self, tmp_path):
        for grid in (make_channel(4), make_packing(12, 5)):
            path = tmp_path / "g.voxl"
            save_voxels(path, grid)
            assert load_voxels(path) == grid

    def test_round_trip_odd_bit_count(self, tmp_path):
        # 3*3*3 = 27 flag bits does not fill whole bytes
        grid = VoxelGrid(np.random.default_rng(0).random((3, 3, 3)) < 0.5)
        path = tmp_path / "g.voxl"
        save_voxels(path, grid)
        assert load_voxels(path) == grid

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.voxl"
        grid = make_channel(4)
        save_voxels(path, grid)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="offset 0"):
            load_voxels(path)

    def test_bad_magic_reads_no_payload(self, tmp_path):
        """The header is checked before the flags are read: a 64 MB file
        with a bad magic fails with a traced peak under 1 MB."""
        path = tmp_path / "big.voxl"
        save_voxels(path, make_channel(4))
        with open(path, "r+b") as fh:
            fh.write(b"NOPE")
            fh.truncate(64 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"^bad magic b'NOPE', expected b'VOXL' "
                                                  r"\(at byte offset 0\)$"):
                load_voxels(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.voxl"
        save_voxels(path, make_channel(4))
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FormatError):
            load_voxels(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.voxl"
        save_voxels(path, make_channel(4))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_voxels(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "dim.voxl"
        save_voxels(path, make_channel(4))
        raw = bytearray(path.read_bytes())
        raw[8:16] = (0).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="offset 8"):
            load_voxels(path)


class TestVoxelGrid:
    def test_counts(self):
        flags = np.zeros((2, 3, 4), dtype=bool)
        flags[0, 1, 2] = True
        grid = VoxelGrid(flags)
        assert grid.dims == (4, 3, 2)
        assert grid.flags.size == 24
        assert grid.fluid_count == 1

    def test_equality_is_by_value(self):
        a = VoxelGrid(np.ones((2, 2, 2), dtype=bool))
        b = VoxelGrid(np.ones((2, 2, 2), dtype=bool))
        assert a == b
        assert a != VoxelGrid(np.zeros((2, 2, 2), dtype=bool))
