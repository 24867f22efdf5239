import hashlib
import tracemalloc

import numpy as np
import pytest

from listlbm import (
    DataError,
    FormatError,
    LexBlocked,
    Morton,
    ParameterError,
    Simulation,
    SparseHeader,
    TrtParams,
    VoxelGrid,
    chunk_ranges,
    make_channel,
    parse_scheme,
    partition_stats,
    preprocess_grid,
    read_header,
    read_sparse,
    write_sparse,
)
from listlbm import adjacency, sparse_io
from listlbm.adjacency import SparseRecords
from listlbm.sparse_io import RECORD_DTYPE
from conftest import first_record_offset


def write_domain(grid, scheme, path, periodic=(False, False, False)):
    header, records = preprocess_grid(grid, scheme, periodic=periodic)
    write_sparse(path, records, header)
    return header


@pytest.fixture(scope="module")
def channel_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sprs") / "c4.sprs"
    grid = make_channel(4)
    header = write_domain(grid, LexBlocked(4), path, periodic=(True, False, False))
    return path, header


class TestHeader:
    def test_record_size_is_fixed(self):
        assert RECORD_DTYPE.itemsize == 156

    def test_nbytes_counts_scheme_and_table(self, tmp_path):
        """46 fixed bytes, the scheme text, then the 4-byte table flag."""
        grid = VoxelGrid(np.ones((1, 1, 10), dtype=bool))
        header, records = preprocess_grid(grid, LexBlocked(1))
        write_sparse(tmp_path / "t.sprs", records, header)
        assert first_record_offset(tmp_path / "t.sprs") == 46 + len("lex:b=1") + 4

    def test_rejects_bad_fields(self):
        with pytest.raises(ParameterError):
            SparseHeader((0, 4, 4), 0, "lex:b=1")
        with pytest.raises(ParameterError):
            SparseHeader((2, 2, 2), 9, "lex:b=1")  # more fluid than cells
        with pytest.raises(ParameterError):
            SparseHeader((4, 4, 4), 10, "schéma")  # non-ASCII

    def test_header_round_trip_with_options(self, tmp_path):
        grid = VoxelGrid(np.ones((2, 2, 2), dtype=bool))
        header, records = preprocess_grid(grid, Morton(1), periodic=(True, True, False))
        path = tmp_path / "t.sprs"
        write_sparse(path, records, header)
        got, _ = read_sparse(path)
        assert got == header
        assert got.periodic == (True, True, False)


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
        header = write_domain(grid, LexBlocked(1), path)
        assert path.stat().st_size == first_record_offset(path)
        got, records = read_sparse(path)
        assert got.n_fluid == 0
        assert len(records) == 0

    def test_write_is_deterministic(self, tmp_path, channel4):
        a = tmp_path / "a.sprs"
        b = tmp_path / "b.sprs"
        write_domain(channel4, Morton(2), a)
        write_domain(channel4, Morton(2), b)
        assert a.read_bytes() == b.read_bytes()

    # SHA-1 of the d=6 channel file, periodic along x: any change to the
    # bytes the writer produces, header included, fails here
    PINNED = {
        "lex:b=1": "182db15e0697a3b22fbdf368839b3bb2fe5a6463",
        "lex:b=4": "faf60af61aba278198eb8d1e5426ab3ba5411c5f",
        "morton:g=2": "de0f66032aa68e830a3d37bed9730501453cf0d4",
    }

    @pytest.mark.parametrize("text,digest", PINNED.items(), ids=list(PINNED))
    def test_bytes_are_pinned(self, tmp_path, channel6, text, digest):
        path = tmp_path / "c6.sprs"
        write_domain(channel6, parse_scheme(text), path, periodic=(True, False, False))
        assert hashlib.sha1(path.read_bytes()).hexdigest() == digest

    # the d=6 channel file holds 480 records, 74,880 bytes and a header
    @pytest.mark.parametrize("before", [100_000, 10], ids=["longer", "shorter"])
    @pytest.mark.parametrize("text,digest", PINNED.items(), ids=list(PINNED))
    def test_overwrite_gives_the_pinned_bytes(self, tmp_path, channel6, text, digest, before):
        """What the path held before, longer or shorter than the file,
        never shows in what the writer leaves there."""
        path = tmp_path / "c6.sprs"
        path.write_bytes(b"\xff" * before)
        write_domain(channel6, parse_scheme(text), path, periodic=(True, False, False))
        assert hashlib.sha1(path.read_bytes()).hexdigest() == digest


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


class TestChunkedReads:
    def test_too_many_chunks(self, channel_file):
        _, header = channel_file
        with pytest.raises(ParameterError):
            chunk_ranges(header.n_fluid, header.n_fluid + 1)


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

    def test_neighbor_above_fluid_count(self, channel_file, tmp_path):
        path, header = channel_file
        at = first_record_offset(path) + 156 * 4 + 12 + 8 * 2  # I_c=5, direction 2

        def mutate(raw):
            raw[at : at + 8] = (header.n_fluid + 5).to_bytes(8, "little")

        bad = corrupt(path, tmp_path, "nbr.sprs", mutate)
        with pytest.raises(FormatError, match="I_c=5") as info:
            read_sparse(bad)
        assert info.value.offset == at


    # in the records' uint32 links 2^32 + 1 would wrap to 1, a valid I_c;
    # the entry is checked in the file's u64 before it is narrowed
    @pytest.mark.parametrize("value", [2**32 + 1, 2**64 - 1], ids=["2^32+1", "2^64-1"])
    def test_neighbor_past_the_link_type(self, channel_file, tmp_path, value):
        path, header = channel_file
        at = first_record_offset(path) + 156 * 4 + 12 + 8 * 2  # I_c=5, direction 2
        bad = corrupt(path, tmp_path, "nbr.sprs",
                      lambda raw: raw.__setitem__(slice(at, at + 8), value.to_bytes(8, "little")))
        with pytest.raises(FormatError, match=f"^neighbor index {value} of I_c=5 exceeds "
                                              f"N_f={header.n_fluid} ") as info:
            read_sparse(bad)
        assert info.value.offset == at
        _, records = read_sparse(path)
        assert records.nbr.dtype == np.uint32


class TestTableFlag:
    """The u32 after the scheme text: the writer always writes 0 and
    the reader takes nothing else."""

    @pytest.mark.parametrize("flag", [1, 2 ** 32 - 1])
    def test_nonzero_flag_names_its_offset(self, channel_file, tmp_path, flag):
        path, _ = channel_file
        at = first_record_offset(path) - 4
        bad = corrupt(path, tmp_path, "f.sprs",
                      lambda raw: raw.__setitem__(slice(at, at + 4), flag.to_bytes(4, "little")))
        with open(bad, "rb") as fh:
            with pytest.raises(FormatError, match=f"table flag must be 0, got {flag}") as info:
                read_header(fh)
        assert info.value.offset == at


@pytest.fixture(scope="module")
def packing24_file(tmp_path_factory, packing24):
    """The d=24 packing under morton:g=2, periodic along x: 37,327
    records, so three blocks of 16,384."""
    path = tmp_path_factory.mktemp("p24") / "p24.sprs"
    write_domain(packing24, Morton(2), path, periodic=(True, False, False))
    return path


class TestBlocks:
    """Writer and reader pass over the records a block of
    `sparse_io._BLOCK` at a time; no block boundary shows in the bytes
    or the records."""

    # SHA-1 of the d=24 packing's file, periodic along x, at any rank count
    PINNED = {
        "lex:b=1": "2f72343dab8f9a9a54eb2a785b85aba4b8527c4e",
        "morton:g=2": "4a38995a2cf524b2cf08e35a083bb30ab13d0bfe",
    }

    @pytest.mark.parametrize("nranks", [1, 8])
    @pytest.mark.parametrize("text,digest", PINNED.items(), ids=list(PINNED))
    def test_packing_bytes_are_pinned(self, tmp_path, packing24, text, digest, nranks):
        header, records = preprocess_grid(packing24, parse_scheme(text), nranks=nranks,
                                          periodic=(True, False, False))
        assert len(records) == 37_327 > 2 * sparse_io._BLOCK
        path = tmp_path / "p24.sprs"
        write_sparse(path, records, header)
        assert hashlib.sha1(path.read_bytes()).hexdigest() == digest
        # again over a longer file of the other scheme's records: a tail
        # left uncut, or a byte of the old file, changes the digest
        other = next(t for t in self.PINNED if t != text)
        write_domain(packing24, parse_scheme(other), path, periodic=(True, False, False))
        with open(path, "ab") as fh:
            fh.write(b"\xff" * 1000)
        write_sparse(path, records, header)
        assert hashlib.sha1(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("n_fluid", [0, 1, 3, 4, 5, 9])
    def test_round_trip_across_small_blocks(self, tmp_path, monkeypatch, n_fluid):
        flags = np.zeros((1, 2, 10), dtype=bool)
        flags.reshape(-1)[:n_fluid] = True
        header, records = preprocess_grid(VoxelGrid(flags), LexBlocked(1))
        whole = tmp_path / "whole.sprs"
        write_sparse(whole, records, header)
        monkeypatch.setattr(sparse_io, "_BLOCK", 4)
        path = tmp_path / "blocks.sprs"
        write_sparse(path, records, header)
        assert path.read_bytes() == whole.read_bytes()
        got_header, got = read_sparse(path)
        assert got_header == header
        for name in ("coords", "ic", "nbr"):
            assert np.array_equal(getattr(got, name), getattr(records, name))

    @pytest.mark.parametrize("block, row", [(4, 6), (sparse_io._BLOCK, 2 * sparse_io._BLOCK + 11)],
                             ids=["small-blocks", "third-block"])
    def test_bad_neighbor_in_a_later_block_keeps_its_offset(self, tmp_path, monkeypatch,
                                                            packing24_file, block, row):
        with open(packing24_file, "rb") as fh:
            n_fluid = read_header(fh).n_fluid
        at = first_record_offset(packing24_file) + 156 * row + 12 + 8 * 5

        def mutate(raw):
            raw[at : at + 8] = (n_fluid + 1).to_bytes(8, "little")

        bad = corrupt(packing24_file, tmp_path, "nbr.sprs", mutate)
        monkeypatch.setattr(sparse_io, "_BLOCK", block)
        with pytest.raises(FormatError, match=f"^neighbor index {n_fluid + 1} of I_c={row + 1} "
                                              f"exceeds N_f={n_fluid} ") as info:
            read_sparse(bad)
        assert info.value.offset == at

    def test_short_read_returns_no_records(self, tmp_path, monkeypatch, packing24_file):
        """A body that shrinks after its size was checked ends in
        FormatError at the first byte missing."""
        cut = first_record_offset(packing24_file) + 156 * (sparse_io._BLOCK + 7) + 100
        short = tmp_path / "short.sprs"
        short.write_bytes(packing24_file.read_bytes()[:cut])
        monkeypatch.setattr(sparse_io, "check_body_size", lambda fh, n_fluid: None)
        with pytest.raises(FormatError, match=f"^truncated record for I_c={sparse_io._BLOCK + 8}: "
                                              f"read ") as info:
            read_sparse(short)
        assert info.value.offset == cut


class TestFileMemory:
    """In the style of the solver's set-up memory test: the file layer
    holds one block of packed records, never a packed copy of them all."""

    BLOCK_BYTES = sparse_io._BLOCK * RECORD_DTYPE.itemsize
    SLACK = 64 << 10

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            out = call()
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    def test_read_peak_is_the_records_and_one_block(self, packing24_file):
        """The records returned (92 bytes each, with uint32 links) plus
        one block buffer: about 1.74x at d=24, where a block is 0.74x of
        the records, and 1.10x at d=48. A structured copy of every record
        reads 2.7x."""
        read_sparse(packing24_file)
        peak, (_, got) = self.peak(lambda: read_sparse(packing24_file))
        kept = got.coords.nbytes + got.ic.nbytes + got.nbr.nbytes
        assert peak <= kept + self.BLOCK_BYTES + self.SLACK, (peak, kept)

    def test_write_peak_is_one_block(self, tmp_path, packing24_file):
        header, records = read_sparse(packing24_file)
        path = tmp_path / "again.sprs"
        write_sparse(path, records, header)
        peak, _ = self.peak(lambda: write_sparse(path, records, header))
        assert peak <= self.BLOCK_BYTES + self.SLACK, peak
        assert path.read_bytes() == packing24_file.read_bytes()


class TestWideLinks:
    """With the narrowing limit patched down to 1, every N_f holds its
    links in uint64, the form N_f >= 2^32 takes: the file bytes, the
    partition stats and the solver state equal the uint32 form's."""

    @pytest.mark.parametrize("case", [
        *(("channel6", text, digest) for text, digest in TestRoundTrip.PINNED.items()),
        *(("packing24", text, digest) for text, digest in TestBlocks.PINNED.items()),
    ], ids=lambda c: f"{c[0]}-{c[1]}")
    def test_uint64_links_write_read_and_step_the_same(self, request, tmp_path, monkeypatch,
                                                       case):
        name, text, digest = case
        grid = request.getfixturevalue(name)

        def make():
            header, records = preprocess_grid(grid, parse_scheme(text), nranks=8,
                                              periodic=(True, False, False))
            path = tmp_path / f"{records.nbr.dtype}.sprs"
            write_sparse(path, records, header)
            return header, records, path, read_sparse(path)[1]

        header, narrow, path, read = make()
        with monkeypatch.context() as m:
            m.setattr(adjacency, "_NARROW", 1)
            _, wide, wide_path, wide_read = make()
        assert (narrow.nbr.dtype, read.nbr.dtype) == (np.uint32, np.uint32)
        assert (wide.nbr.dtype, wide_read.nbr.dtype) == (np.uint64, np.uint64)
        assert wide.equals(narrow) and wide_read.equals(read)
        for p in (path, wide_path):
            assert hashlib.sha1(p.read_bytes()).hexdigest() == digest
        for N in (2, 7, 64):
            a = chunk_ranges(header.n_fluid, N)
            got, want = partition_stats(wide, a), partition_stats(narrow, a)
            for field in ("fluid_cells", "neighbor_count", "remote_links"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (N, field)
        params = TrtParams(tau_plus=0.8, force=(1e-5, 0.0, 0.0))
        states = []
        for records in (narrow, wide):
            sim = Simulation(header, records, 3, params)
            sim.init_equilibrium()
            sim.run(4)
            states.append(sim.gather_state().view(np.uint64))
        assert np.array_equal(*states)
