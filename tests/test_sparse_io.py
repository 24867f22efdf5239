import numpy as np
import pytest

from listlbm import (
    DataError,
    FormatError,
    LexBlocked,
    Morton,
    SparseHeader,
    TooManyProcessesError,
    VoxelGrid,
    preprocess_grid,
    preprocess_to_file,
    read_chunk,
    read_header,
    read_sparse,
    write_sparse,
)
from listlbm.adjacency import SparseRecords
from listlbm.sparse_io import RECORD_DTYPE, header_nbytes


@pytest.fixture(scope="module")
def channel_file(tmp_path_factory):
    from listlbm import make_channel
    path = tmp_path_factory.mktemp("sprs") / "c4.sprs"
    grid = make_channel(4)
    header = preprocess_to_file(grid, LexBlocked(4), path, periodic=(True, False, False))
    return path, header


class TestHeader:
    def test_record_size_is_fixed(self):
        assert RECORD_DTYPE.itemsize == 156

    def test_nbytes_counts_scheme_and_table(self):
        base = SparseHeader((4, 4, 4), 10, "lex:b=1")
        assert header_nbytes(base) == 46 + len("lex:b=1") + 4
        with_table = SparseHeader((4, 4, 4), 10, "lex:b=1", part_starts=(1, 5, 8))
        assert header_nbytes(with_table) == header_nbytes(base) + 8 + 3 * 8

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SparseHeader((0, 4, 4), 0, "lex:b=1")
        with pytest.raises(ValueError):
            SparseHeader((2, 2, 2), 9, "lex:b=1")  # more fluid than cells
        with pytest.raises(ValueError):
            SparseHeader((4, 4, 4), 10, "lex:b=1", part_starts=(2, 5))
        with pytest.raises(ValueError):
            SparseHeader((4, 4, 4), 10, "lex:b=1", part_starts=(1, 5, 5))
        with pytest.raises(ValueError):
            SparseHeader((4, 4, 4), 10, "schéma")  # non-ASCII

    def test_header_round_trip_with_options(self, tmp_path):
        grid = VoxelGrid(np.ones((2, 2, 2), dtype=bool))
        header, records = preprocess_grid(grid, Morton(1), periodic=(True, True, False))
        stamped = SparseHeader(header.dims, header.n_fluid, header.scheme_text,
                               header.periodic, part_starts=(1, 3, 7))
        path = tmp_path / "t.sprs"
        write_sparse(path, records, stamped)
        got, _ = read_sparse(path)
        assert got == stamped
        assert got.periodic == (True, True, False)
        assert got.part_starts == (1, 3, 7)


class TestRoundTrip:
    def test_read_back_equals_written(self, channel_file):
        path, header = channel_file
        got_header, records = read_sparse(path)
        assert got_header == header
        assert len(records) == header.n_fluid
        assert np.array_equal(records.ic, np.arange(1, header.n_fluid + 1))

    def test_empty_domain_is_header_only(self, tmp_path):
        grid = VoxelGrid(np.zeros((2, 2, 2), dtype=bool))
        path = tmp_path / "empty.sprs"
        header = preprocess_to_file(grid, LexBlocked(1), path)
        assert path.stat().st_size == header_nbytes(header)
        got, records = read_sparse(path)
        assert got.n_fluid == 0
        assert len(records) == 0

    def test_write_is_deterministic(self, tmp_path, channel4):
        a = tmp_path / "a.sprs"
        b = tmp_path / "b.sprs"
        preprocess_to_file(channel4, Morton(2), a)
        preprocess_to_file(channel4, Morton(2), b)
        assert a.read_bytes() == b.read_bytes()


class TestWriteValidation:
    def make_records(self, ic):
        n = len(ic)
        coords = np.zeros((n, 3), dtype=np.uint32)
        coords[:, 0] = np.arange(n)
        return SparseRecords(coords=coords,
                             ic=np.asarray(ic, dtype=np.uint64),
                             nbr=np.zeros((n, 18), dtype=np.uint64))

    def test_duplicate_ic_rejected_before_write(self, tmp_path):
        header = SparseHeader((4, 1, 1), 3, "lex:b=1")
        path = tmp_path / "dup.sprs"
        with pytest.raises(DataError):
            write_sparse(path, self.make_records([1, 2, 2]), header)
        assert not path.exists()

    def test_missing_ic_rejected(self, tmp_path):
        header = SparseHeader((4, 1, 1), 3, "lex:b=1")
        with pytest.raises(DataError):
            write_sparse(tmp_path / "gap.sprs", self.make_records([1, 2, 4]), header)

    def test_count_mismatch_rejected(self, tmp_path):
        header = SparseHeader((4, 1, 1), 4, "lex:b=1")
        with pytest.raises(DataError):
            write_sparse(tmp_path / "n.sprs", self.make_records([1, 2, 3]), header)

    def test_unsorted_records_rejected_before_write(self, tmp_path):
        header = SparseHeader((4, 1, 1), 3, "lex:b=1")
        path = tmp_path / "shuffled.sprs"
        with pytest.raises(DataError, match="order"):
            write_sparse(path, self.make_records([2, 1, 3]), header)
        assert not path.exists()

    def test_neighbor_out_of_range_rejected(self, tmp_path):
        header = SparseHeader((4, 1, 1), 3, "lex:b=1")
        records = self.make_records([1, 2, 3])
        records.nbr[0, 0] = 9
        with pytest.raises(DataError):
            write_sparse(tmp_path / "nbr.sprs", records, header)


def ranges(assignment):
    b = [int(x) for x in assignment.boundaries]
    return list(zip(b[:-1], b[1:]))


class TestChunkedReads:
    def test_first_chunk_of_ten_by_three(self, tmp_path):
        grid = VoxelGrid(np.ones((1, 1, 10), dtype=bool))
        path = tmp_path / "line.sprs"
        header = preprocess_to_file(grid, LexBlocked(1), path)
        lo, hi = ranges(header.partition(3))[0]
        _, records = read_chunk(path, lo, hi)
        assert records.ic.tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 80])
    def test_chunks_concatenate_to_whole(self, channel_file, N):
        path, header = channel_file
        _, whole = read_sparse(path)
        parts = [read_chunk(path, lo, hi)[1] for lo, hi in ranges(header.partition(N))]
        assert SparseRecords.concat(parts).equals(whole)

    def test_table_chunks_concatenate_to_whole(self, table_file):
        path, _ = table_file
        header, whole = read_sparse(path)
        assert ranges(header.partition()) == [(1, 4), (4, 8), (8, 11)]
        parts = [read_chunk(path, lo, hi)[1] for lo, hi in ranges(header.partition())]
        assert SparseRecords.concat(parts).equals(whole)

    def test_single_record_chunks(self, channel_file):
        path, header = channel_file
        _, chunk = read_chunk(path, 6, 7)
        assert len(chunk) == 1
        assert chunk.ic[0] == 6
        _, empty = read_chunk(path, 81, 81)
        assert len(empty) == 0

    def test_too_many_chunks(self, channel_file):
        _, header = channel_file
        with pytest.raises(TooManyProcessesError):
            header.partition(header.n_fluid + 1)

    def test_bad_chunk_number(self, channel_file, tmp_path):
        path, _ = channel_file
        cut = tmp_path / "cut.sprs"
        cut.write_bytes(path.read_bytes()[:-10])
        for lo, hi in [(0, 3), (3, 2), (1, 82), (82, 82)]:
            for source in (path, cut):  # the range is checked before any record
                with pytest.raises(ValueError, match=r"outside \[1, 81\]"):
                    read_chunk(source, lo, hi)


def corrupt(path, tmp_path, name, mutate):
    raw = bytearray(path.read_bytes())
    mutate(raw)
    out = tmp_path / name
    out.write_bytes(bytes(raw))
    return out


class TestFormatErrors:
    def test_bad_magic_at_offset_zero(self, channel_file, tmp_path):
        path, _ = channel_file
        bad = corrupt(path, tmp_path, "m.sprs", lambda raw: raw.__setitem__(slice(0, 4), b"JUNK"))
        with pytest.raises(FormatError, match="offset 0"):
            read_sparse(bad)

    def test_bad_version_at_offset_four(self, channel_file, tmp_path):
        path, _ = channel_file
        bad = corrupt(path, tmp_path, "v.sprs",
                      lambda raw: raw.__setitem__(slice(4, 8), (9).to_bytes(4, "little")))
        with pytest.raises(FormatError, match="offset 4"):
            read_sparse(bad)

    def test_zero_dimension(self, channel_file, tmp_path):
        path, _ = channel_file
        bad = corrupt(path, tmp_path, "d.sprs",
                      lambda raw: raw.__setitem__(slice(16, 24), (0).to_bytes(8, "little")))
        with pytest.raises(FormatError, match="offset 16"):
            read_sparse(bad)

    def test_fluid_count_exceeding_cells(self, channel_file, tmp_path):
        path, _ = channel_file
        bad = corrupt(path, tmp_path, "n.sprs",
                      lambda raw: raw.__setitem__(slice(32, 40), (10 ** 6).to_bytes(8, "little")))
        with pytest.raises(FormatError, match="offset 32"):
            read_sparse(bad)

    def test_unknown_periodic_bits(self, channel_file, tmp_path):
        path, _ = channel_file
        bad = corrupt(path, tmp_path, "p.sprs",
                      lambda raw: raw.__setitem__(slice(40, 44), (0xFF).to_bytes(4, "little")))
        with pytest.raises(FormatError, match="offset 40"):
            read_sparse(bad)

    def test_truncated_record_names_position(self, channel_file, tmp_path):
        path, _ = channel_file
        raw = path.read_bytes()
        out = tmp_path / "t.sprs"
        out.write_bytes(raw[:-10])
        with pytest.raises(FormatError, match="I_c=80"):
            read_sparse(out)

    def test_trailing_bytes_rejected(self, channel_file, tmp_path):
        path, _ = channel_file
        out = tmp_path / "x.sprs"
        out.write_bytes(path.read_bytes() + b"\x01\x02")
        with pytest.raises(FormatError):
            read_sparse(out)

    def test_truncated_header(self, channel_file, tmp_path):
        path, _ = channel_file
        out = tmp_path / "h.sprs"
        out.write_bytes(path.read_bytes()[:20])
        with pytest.raises(FormatError):
            read_sparse(out)

    def test_chunk_read_checks_size_too(self, channel_file, tmp_path):
        path, _ = channel_file
        out = tmp_path / "c.sprs"
        out.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError):
            read_chunk(out, 1, 41)

    def test_neighbor_above_fluid_count(self, channel_file, tmp_path):
        path, header = channel_file
        base = header_nbytes(header)
        at = base + 156 * 4 + 12 + 8 * 2  # I_c=5, direction 2

        def mutate(raw):
            raw[at : at + 8] = (header.n_fluid + 5).to_bytes(8, "little")

        bad = corrupt(path, tmp_path, "nbr.sprs", mutate)
        for read in (lambda: read_sparse(bad), lambda: read_chunk(bad, 1, 41)):
            with pytest.raises(FormatError, match="I_c=5") as info:
                read()
            assert info.value.offset == at
        _, tail = read_chunk(bad, 41, 81)  # the other chunk does not hold I_c=5
        assert len(tail) == header.n_fluid // 2


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    """A 10-cell line with the start table (1, 4, 8) and its offset."""
    grid = VoxelGrid(np.ones((1, 1, 10), dtype=bool))
    header, records = preprocess_grid(grid, LexBlocked(1))
    stamped = SparseHeader(header.dims, header.n_fluid, header.scheme_text,
                           part_starts=(1, 4, 8))
    path = tmp_path_factory.mktemp("table") / "line.sprs"
    write_sparse(path, records, stamped)
    first_start = header_nbytes(header) - 4 + 12  # flag u32, count u64
    return path, first_start


class TestStartTableErrors:
    @pytest.mark.parametrize("k,value,reason", [
        (0, 2, "first start must be 1"),
        (1, 1, "does not increase"),
        (2, 3, "does not increase"),
        (2, 11, "exceeds N_f=10"),
    ])
    def test_bad_start_names_its_offset(self, table_file, tmp_path, k, value, reason):
        path, first_start = table_file
        at = first_start + 8 * k

        def mutate(raw):
            raw[at : at + 8] = value.to_bytes(8, "little")

        bad = corrupt(path, tmp_path, "t.sprs", mutate)
        with pytest.raises(FormatError, match=reason) as info:
            read_sparse(bad)
        assert info.value.offset == at

    @pytest.mark.parametrize("count", [2 ** 60, 2 ** 37])
    def test_count_beyond_file_names_table_offset(self, channel_file, tmp_path, count):
        path, header = channel_file
        flag = header_nbytes(header) - 4

        def mutate(raw):
            for at in (8, 16, 24):
                raw[at : at + 8] = (2 ** 21).to_bytes(8, "little")
            raw[32:40] = (2 ** 61).to_bytes(8, "little")
            raw[flag : flag + 12] = (1).to_bytes(4, "little") + count.to_bytes(8, "little")

        bad = corrupt(path, tmp_path, "big.sprs", mutate)
        with pytest.raises(FormatError, match="truncated start table") as info:
            read_sparse(bad)
        assert info.value.offset == flag + 12
