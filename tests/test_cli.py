import io
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from listlbm import (
    LexBlocked,
    PartitionAssignment,
    SparseHeader,
    VoxelGrid,
    chunk_ranges,
    make_channel,
    partition_stats,
    preprocess_grid,
    read_sparse,
    save_voxels,
    write_sparse,
)
from listlbm.cli import main
from listlbm.sparse_io import RECORD_DTYPE


@pytest.fixture
def voxel_file(tmp_path):
    path = tmp_path / "c.voxl"
    assert main(["generate", "--channel", "--d", "4", "--out", str(path)]) == 0
    return path


@pytest.fixture
def sparse_file(tmp_path, voxel_file):
    path = tmp_path / "c.sprs"
    code = main(["preprocess", "--in", str(voxel_file), "--scheme", "lex:b=4",
                 "--ranks", "2", "--periodic", "x", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture
def channel6_file(tmp_path):
    voxels = tmp_path / "c6.voxl"
    path = tmp_path / "c6.sprs"
    assert main(["generate", "--channel", "--d", "6", "--out", str(voxels)]) == 0
    assert main(["preprocess", "--in", str(voxels), "--periodic", "x",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture
def stamped_file(tmp_path, sparse_file):
    """The 80-cell channel with the unequal start table (1, 11, 50)."""
    header, records = read_sparse(sparse_file)
    path = tmp_path / "stamped.sprs"
    write_sparse(path, records, SparseHeader(header.dims, header.n_fluid, header.scheme_text,
                                             header.periodic, part_starts=(1, 11, 50)))
    return path


def header_fields(scheme_text):
    """Byte offset and width of each integer field of a header with a
    start table: the fixed fields take 46 bytes, then the scheme text."""
    flag = 46 + len(scheme_text)
    return {"X": (8, 8), "Y": (16, 8), "Z": (24, 8), "N_f": (32, 8), "periodic": (40, 4),
            "table flag": (flag, 4), "count": (flag + 4, 8), "start": (flag + 20, 8)}


def overwrite(raw, fields, values):
    """Copy of the file bytes `raw` with the named header fields set."""
    out = bytearray(raw)
    for name, value in values.items():
        at, width = fields[name]
        out[at : at + width] = (value % 2 ** (8 * width)).to_bytes(width, "little")
    return bytes(out)


def self_linked_copy(path, tmp_path):
    """Copy of the sparse file `path` whose I_c=10 names itself as +x
    neighbour, a link with no link back."""
    from listlbm.sparse_io import RECORD_DTYPE, header_nbytes, read_header
    with open(path, "rb") as fh:
        header = read_header(fh)
    raw = bytearray(path.read_bytes())
    at = header_nbytes(header) + 9 * RECORD_DTYPE.itemsize + 12  # +x of I_c=10
    raw[at : at + 8] = (10).to_bytes(8, "little")
    bad = tmp_path / "bad.sprs"
    bad.write_bytes(bytes(raw))
    return bad


def error_only(stderr):
    """Check that `stderr` is exactly one `error:` line and return it."""
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    return lines[0]


class TestGenerate:
    def test_channel_writes_file(self, tmp_path, capsys):
        out = tmp_path / "c.voxl"
        assert main(["generate", "--channel", "--d", "4", "--out", str(out)]) == 0
        assert out.exists()
        assert "fluid_cells=80" in capsys.readouterr().out

    def test_packing_is_deterministic(self, tmp_path):
        a = tmp_path / "a.voxl"
        b = tmp_path / "b.voxl"
        for out in (a, b):
            code = main(["generate", "--packing", "--d", "12", "--seed", "7",
                         "--out", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_kind_is_required_and_exclusive(self, tmp_path):
        out = str(tmp_path / "x.voxl")
        assert main(["generate", "--d", "4", "--out", out]) == 2
        assert main(["generate", "--channel", "--packing", "--d", "4", "--out", out]) == 2

    def test_geometry_error_exits_one(self, tmp_path, capsys):
        code = main(["generate", "--channel", "--d", "2",
                     "--out", str(tmp_path / "x.voxl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_impossible_size_exits_one(self, tmp_path, capsys):
        # The (d, d, 5d) flag array needs 4.44 PiB, so its allocation fails at once.
        code = main(["generate", "--channel", "--d", "100000",
                     "--out", str(tmp_path / "big.voxl")])
        assert code == 1
        assert "Unable to allocate" in error_only(capsys.readouterr().err)
        assert not (tmp_path / "big.voxl").exists()


class TestPreprocess:
    def test_repeat_runs_are_byte_identical(self, tmp_path, voxel_file):
        a = tmp_path / "a.sprs"
        b = tmp_path / "b.sprs"
        for out in (a, b):
            code = main(["preprocess", "--in", str(voxel_file),
                         "--scheme", "lex:b=100", "--ranks", "8", "--out", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rank_count_does_not_change_bytes(self, tmp_path, voxel_file):
        a = tmp_path / "a.sprs"
        b = tmp_path / "b.sprs"
        main(["preprocess", "--in", str(voxel_file), "--ranks", "1", "--out", str(a)])
        main(["preprocess", "--in", str(voxel_file), "--ranks", "8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_input_is_usage_error(self, tmp_path):
        code = main(["preprocess", "--in", str(tmp_path / "nope.voxl"),
                     "--out", str(tmp_path / "x.sprs")])
        assert code == 2

    def test_bad_scheme_exits_one(self, tmp_path, voxel_file, capsys):
        code = main(["preprocess", "--in", str(voxel_file), "--scheme", "lex:b=0",
                     "--out", str(tmp_path / "x.sprs")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_periodic_axis_is_usage_error(self, tmp_path, voxel_file):
        code = main(["preprocess", "--in", str(voxel_file), "--periodic", "w",
                     "--out", str(tmp_path / "x.sprs")])
        assert code == 2

    def test_same_in_and_out_rejected(self, voxel_file, capsys):
        code = main(["preprocess", "--in", str(voxel_file), "--out", str(voxel_file)])
        assert code == 1
        assert "distinct" in capsys.readouterr().err

    def test_missing_output_directory_exits_one(self, tmp_path, voxel_file, capsys):
        code = main(["preprocess", "--in", str(voxel_file),
                     "--out", str(tmp_path / "nodir" / "x.sprs")])
        assert code == 1
        assert "No such file or directory" in error_only(capsys.readouterr().err)


class TestInfo:
    def test_prints_header_fields(self, sparse_file, capsys):
        assert main(["info", "--in", str(sparse_file)]) == 0
        out = capsys.readouterr().out
        assert "dims=20x4x4" in out
        assert "fluid_cells=80" in out
        assert "scheme=lex:b=4" in out
        assert "periodic=x" in out
        assert "partition_table=absent" in out

    def test_wrong_file_type_exits_one(self, voxel_file, capsys):
        assert main(["info", "--in", str(voxel_file)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [2 ** 60, 2 ** 37])
    def test_start_table_beyond_file_exits_one(self, tmp_path, channel6_file, capsys, count):
        # the channel has no table, so the count lands on the first record
        big = 2 ** 21
        bad = tmp_path / "big.sprs"
        bad.write_bytes(overwrite(channel6_file.read_bytes(), header_fields("lex:b=1"), {
            "X": big, "Y": big, "Z": big, "N_f": 2 ** 61, "table flag": 1, "count": count}))
        assert main(["info", "--in", str(bad)]) == 1
        assert "truncated start table" in error_only(capsys.readouterr().err)

    def test_body_longer_than_fluid_count_exits_one(self, tmp_path, channel6_file, capsys):
        raw = channel6_file.read_bytes()
        fields = header_fields("lex:b=1")
        n_fluid = int.from_bytes(raw[32:40], "little")
        bad = tmp_path / "short.sprs"
        bad.write_bytes(overwrite(raw, fields, {"N_f": n_fluid - 1}))
        for argv in (["info"], ["analyze", "--out-prefix", str(tmp_path / "h")],
                     ["solve", "--steps", "1"]):
            assert main([argv[0], "--in", str(bad), *argv[1:]]) == 1
            err = error_only(capsys.readouterr().err)
            assert "trailing data: 156 bytes past the last record" in err, argv


@pytest.fixture
def empty_file(tmp_path):
    """A sparse file of an all-solid 2x2x2 grid: N_f = 0."""
    voxels = tmp_path / "solid.voxl"
    save_voxels(voxels, VoxelGrid(np.zeros((2, 2, 2), dtype=bool)))
    path = tmp_path / "solid.sprs"
    assert main(["preprocess", "--in", str(voxels), "--out", str(path)]) == 0
    return path


class TestEmptyDomain:
    def test_info_exits_zero(self, empty_file, capsys):
        assert main(["info", "--in", str(empty_file)]) == 0
        assert "fluid_cells=0" in capsys.readouterr().out

    @pytest.mark.parametrize("parts", [[], ["--parts", "2"]])
    def test_partitioned_commands_exit_one(self, tmp_path, empty_file, capsys, parts):
        for argv in (["analyze", "--out-prefix", str(tmp_path / "h")],
                     ["solve", "--steps", "1"]):
            assert main([argv[0], "--in", str(empty_file), *parts, *argv[1:]]) == 1
            assert error_only(capsys.readouterr().err) == "error: domain has no fluid cells"


class TestAnalyze:
    def test_writes_histograms(self, tmp_path, sparse_file, capsys):
        prefix = tmp_path / "hist"
        code = main(["analyze", "--in", str(sparse_file), "--parts", "4",
                     "--out-prefix", str(prefix)])
        assert code == 0
        out = capsys.readouterr().out
        assert "partitions=4" in out
        assert (tmp_path / "hist_neighbors.csv").exists()
        assert (tmp_path / "hist_remote_links.csv").exists()

    def test_too_many_partitions_exits_one(self, tmp_path, sparse_file, capsys):
        code = main(["analyze", "--in", str(sparse_file), "--parts", "4000",
                     "--out-prefix", str(tmp_path / "h")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "4000" in err

    def test_one_way_link_exits_one(self, tmp_path, channel6_file, capsys):
        bad = self_linked_copy(channel6_file, tmp_path)
        code = main(["analyze", "--in", str(bad), "--parts", "3",
                     "--out-prefix", str(tmp_path / "o")])
        assert code == 1
        out, err = capsys.readouterr()
        assert "link 0 of I_c=10 to 10 has no link back" in error_only(err)
        assert "total_remote_links" not in out

    def test_missing_output_directory_exits_one(self, tmp_path, sparse_file, capsys):
        code = main(["analyze", "--in", str(sparse_file), "--parts", "2",
                     "--out-prefix", str(tmp_path / "nodir" / "o")])
        assert code == 1
        assert "No such file or directory" in error_only(capsys.readouterr().err)

    def test_split_selector_required(self, tmp_path, sparse_file, capsys):
        # without --parts or a start table the file is one partition
        code = main(["analyze", "--in", str(sparse_file),
                     "--out-prefix", str(tmp_path / "h")])
        assert code == 0
        out = capsys.readouterr().out
        assert "partitions=1 " in out
        assert "total_remote_links=0" in out

    def test_start_table_is_the_default(self, tmp_path, stamped_file, capsys):
        header, records = read_sparse(stamped_file)
        table = PartitionAssignment(header.n_fluid, np.array([1, 11, 50, 81]))
        expect = partition_stats(records, table).total_remote_links
        assert expect != partition_stats(records, chunk_ranges(80, 3)).total_remote_links
        code = main(["analyze", "--in", str(stamped_file),
                     "--out-prefix", str(tmp_path / "h")])
        assert code == 0
        out = capsys.readouterr().out
        assert "partitions=3 " in out
        assert f"total_remote_links={expect}\n" in out

    def test_parts_override_start_table(self, tmp_path, stamped_file, capsys):
        _, records = read_sparse(stamped_file)
        expect = partition_stats(records, chunk_ranges(80, 4)).total_remote_links
        code = main(["analyze", "--in", str(stamped_file), "--parts", "4",
                     "--out-prefix", str(tmp_path / "h")])
        assert code == 0
        out = capsys.readouterr().out
        assert "partitions=4 " in out
        assert f"total_remote_links={expect}\n" in out


class TestSolveAndBench:
    def test_solve_writes_report(self, tmp_path, sparse_file, capsys):
        report = tmp_path / "r.csv"
        code = main(["solve", "--in", str(sparse_file), "--parts", "2",
                     "--tau", "0.8", "--force", "1e-6,0,0", "--steps", "10",
                     "--report", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "flup_count=800" in out
        lines = report.read_text().splitlines()
        assert lines[0] == "partitions,steps,fluid_cells,seconds,flups,gflops_est"
        assert lines[1].startswith("2,10,80,")

    def test_partition_count_of_start_table(self, stamped_file, capsys):
        assert main(["solve", "--in", str(stamped_file), "--steps", "2"]) == 0
        assert "partitions=3\n" in capsys.readouterr().out

    def test_bench_accepts_warmup(self, sparse_file, capsys):
        code = main(["bench", "--in", str(sparse_file), "--steps", "5",
                     "--warmup", "2"])
        assert code == 0
        assert "flup_count=400" in capsys.readouterr().out

    def test_negative_warmup_is_usage_error(self, sparse_file):
        code = main(["bench", "--in", str(sparse_file), "--steps", "2",
                     "--warmup", "-3"])
        assert code == 2

    def test_neighbor_above_fluid_count_exits_one(self, tmp_path, sparse_file, capsys):
        from listlbm.sparse_io import header_nbytes, read_header
        with open(sparse_file, "rb") as fh:
            header = read_header(fh)
        raw = bytearray(sparse_file.read_bytes())
        at = header_nbytes(header) + 12  # record I_c=1, first neighbor
        raw[at : at + 8] = (header.n_fluid + 5).to_bytes(8, "little")
        bad = tmp_path / "bad.sprs"
        bad.write_bytes(bytes(raw))
        assert main(["solve", "--in", str(bad), "--steps", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "I_c=1" in err[0] and f"offset {at}" in err[0]

    def test_zero_steps_is_usage_error(self, sparse_file):
        assert main(["solve", "--in", str(sparse_file), "--steps", "0"]) == 2

    def test_malformed_force_is_usage_error(self, sparse_file):
        code = main(["solve", "--in", str(sparse_file), "--steps", "1",
                     "--force", "1,2"])
        assert code == 2

    def test_unstable_tau_exits_one(self, sparse_file, capsys):
        code = main(["solve", "--in", str(sparse_file), "--steps", "1",
                     "--tau", "0.4"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_report_directory_exits_one(self, tmp_path, sparse_file, capsys):
        code = main(["solve", "--in", str(sparse_file), "--steps", "1",
                     "--report", str(tmp_path / "nodir" / "r.csv")])
        assert code == 1
        assert "No such file or directory" in error_only(capsys.readouterr().err)

    def test_one_way_link_exits_one(self, tmp_path, sparse_file, capsys):
        bad = self_linked_copy(sparse_file, tmp_path)
        assert main(["solve", "--in", str(bad), "--parts", "3", "--steps", "1"]) == 1
        assert "link 0 of I_c=10 to 10 has no link back" in error_only(capsys.readouterr().err)

    def test_divergent_run_exits_one(self, tmp_path, channel6_file, capsys):
        report = tmp_path / "r.csv"
        code = main(["solve", "--in", str(channel6_file), "--force", "0.5,0,0",
                     "--steps", "200", "--report", str(report)])
        assert code == 1
        out, err = capsys.readouterr()
        assert "density not positive at step 28" in error_only(err)
        assert "flups" not in out
        assert not report.exists()

    @pytest.mark.parametrize("flags", [["--force", "inf,0,0"], ["--tau", "inf"]])
    def test_non_finite_parameter_exits_one(self, sparse_file, capsys, flags):
        code = main(["solve", "--in", str(sparse_file), "--steps", "2", *flags])
        assert code == 1
        assert "finite" in error_only(capsys.readouterr().err)


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    """Two stamped files to corrupt: the 80-cell channel with the start
    table (1, 11, 50), and the same bytes under a header promising
    N_f = 2^61 cells in a 2^21-cube, far more than the file holds."""
    header, records = preprocess_grid(make_channel(4), LexBlocked(4),
                                      periodic=(True, False, False))
    path = tmp_path_factory.mktemp("fuzz") / "base.sprs"
    write_sparse(path, records, SparseHeader(header.dims, header.n_fluid, header.scheme_text,
                                             header.periodic, part_starts=(1, 11, 50)))
    fields = header_fields(header.scheme_text)
    stamped = path.read_bytes()
    big = 2 ** 21
    promised = overwrite(stamped, fields, {"X": big, "Y": big, "Z": big, "N_f": 2 ** 61})
    return path.parent, fields, {"stamped": stamped, "promised": promised}


def run_captured(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestHeaderFuzz:
    @settings(max_examples=50, deadline=None)
    @given(base=st.sampled_from(["stamped", "promised"]),
           field=st.sampled_from(list(header_fields("lex:b=4"))),
           value=st.integers(0, 2 ** 64 - 1))
    @example(base="promised", field="count", value=2 ** 60)
    @example(base="promised", field="count", value=2 ** 37)
    def test_every_command_ends_in_a_verdict(self, fuzz_bases, base, field, value):
        """One overwritten header field never crashes a command: each
        exits 0 quietly or 1 with exactly one `error:` line."""
        where, fields, bases = fuzz_bases
        path = where / "fuzzed.sprs"
        path.write_bytes(overwrite(bases[base], fields, {field: value}))
        for argv in (["info"], ["analyze", "--out-prefix", str(where / "h")],
                     ["solve", "--steps", "1"]):
            code, err = run_captured([argv[0], "--in", str(path), *argv[1:]])
            assert (code, err) == (0, "") or (
                code == 1 and re.fullmatch(r"error: \S.*\n", err)), (argv, code, err)


class TestBodyFuzz:
    SPECIAL = {"0": 0, "N_f": 80, "N_f+1": 81, "2^63": 2 ** 63, "2^64-1": 2 ** 64 - 1}

    @settings(max_examples=40, deadline=None)
    @given(record=st.integers(0, 79), direction=st.integers(0, 17),
           value=st.sampled_from([*SPECIAL, "self"]) | st.integers(0, 2 ** 64 - 1))
    @example(record=9, direction=0, value="self")
    @example(record=0, direction=0, value="2^63")
    def test_analyze_and_solve_agree(self, fuzz_bases, record, direction, value):
        """One overwritten neighbour entry of the 80-cell file: each
        command exits 0 quietly or 1 with one `error:` line, and analyze
        and solve reach the same verdict."""
        where, _, bases = fuzz_bases
        raw = bytearray(bases["stamped"])
        n_fluid = 80
        if isinstance(value, str):
            value = record + 1 if value == "self" else self.SPECIAL[value]
        at = len(raw) - RECORD_DTYPE.itemsize * (n_fluid - record) + 12 + 8 * direction
        raw[at : at + 8] = value.to_bytes(8, "little")
        path = where / "body.sprs"
        path.write_bytes(bytes(raw))
        codes = {}
        for argv in (["info"], ["analyze", "--out-prefix", str(where / "h")],
                     ["solve", "--steps", "1"]):
            code, err = run_captured([argv[0], "--in", str(path), *argv[1:]])
            assert (code, err) == (0, "") or (
                code == 1 and re.fullmatch(r"error: \S.*\n", err)), (argv, code, err)
            codes[argv[0]] = code
        assert codes["analyze"] == codes["solve"], codes


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, voxel_file, tmp_path):
        code = main(["preprocess", "--in", str(voxel_file),
                     "--out", str(tmp_path / "x.sprs"), "--frob"])
        assert code == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["solve", "--help"]) == 0
