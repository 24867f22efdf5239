import hashlib
import io
import os
import re
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import listlbm
from listlbm import (
    DivergenceError,
    LexBlocked,
    Simulation,
    TrtParams,
    VoxelGrid,
    make_channel,
    preprocess_grid,
    read_sparse,
    save_voxels,
    write_sparse,
)
from listlbm.cli import main
from listlbm.sparse_io import RECORD_DTYPE, read_header
from conftest import first_record_offset


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


def library_divergence(path, force=0.5):
    """The DivergenceError of a library run of `path` with the CLI's
    defaults at `force` along x; force 0.5 passes Mach 1 within 30 steps."""
    header, records = read_sparse(path)
    sim = Simulation(header, records, 1, TrtParams(tau_plus=0.8, force=(force, 0.0, 0.0)))
    sim.init_equilibrium(1.0)
    with pytest.raises(DivergenceError) as info:
        sim.run(200)
    return info.value


def header_fields(scheme_text):
    """Byte offset and width of each integer field of a header: the fixed
    fields take 46 bytes, then the scheme text and the table flag."""
    flag = 46 + len(scheme_text)
    return {"X": (8, 8), "Y": (16, 8), "Z": (24, 8), "N_f": (32, 8), "periodic": (40, 4),
            "table flag": (flag, 4)}


def with_scheme(raw, text):
    """Copy of the bytes `raw` of a `lex:b=1` file with the scheme text
    replaced by the string `text`."""
    text = text.encode("ascii")
    return raw[:44] + len(text).to_bytes(2, "little") + text + raw[46 + len("lex:b=1"):]


def overwrite(raw, fields, values):
    """Copy of the file bytes `raw` with the named header fields set."""
    out = bytearray(raw)
    for name, value in values.items():
        at, width = fields[name]
        out[at : at + width] = (value % 2 ** (8 * width)).to_bytes(width, "little")
    return bytes(out)


def patched_copy(path, tmp_path, patches):
    """Copy of the sparse file `path` with each (I_c, field byte offset
    in the record, width, value) of `patches` written in."""
    raw = bytearray(path.read_bytes())
    base = first_record_offset(path)
    for ic, at, width, value in patches:
        at += base + (ic - 1) * RECORD_DTYPE.itemsize
        raw[at : at + width] = value.to_bytes(width, "little")
    bad = tmp_path / "bad.sprs"
    bad.write_bytes(bytes(raw))
    return bad


def self_linked_copy(path, tmp_path):
    """Copy of the sparse file `path` whose I_c=10 names itself as +x
    neighbour, a link that does not match the coordinates."""
    return patched_copy(path, tmp_path, [(10, 12, 8, 10)])


def listlbm_in_child(*argv):
    """`listlbm *argv` in a child process, so Python's default warning
    filters apply (the test suite turns warnings into errors) and an
    uncaught exception shows as a traceback on stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(listlbm.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "listlbm", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=300)


def solve_in_child(path, *flags):
    return listlbm_in_child("solve", "--in", path, *flags)


def printed_fields(out):
    """The key=value fields of `solve`'s summary lines on stdout."""
    return dict(field.split("=", 1) for line in out.splitlines()
                if not line.startswith("wrote ") for field in line.split())


def refuse(stage):
    """Stand-in for a pipeline stage that fails the test if it is called."""
    def called(*args, **kwargs):
        raise AssertionError(f"{stage} ran")
    return called


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
        # the (d, d, 5d) box is rejected before its 4.44 PiB are allocated
        code = main(["generate", "--channel", "--d", "100000",
                     "--out", str(tmp_path / "big.voxl")])
        assert code == 1
        assert error_only(capsys.readouterr().err) == (
            "error: channel diameter 100000: 5000000000000000 cells exceeds limit 1099511627776")
        assert not (tmp_path / "big.voxl").exists()

    @pytest.mark.parametrize("kind, d", [("--channel", 10**10), ("--packing", 10**30)])
    def test_size_numpy_cannot_shape_exits_one(self, tmp_path, kind, d):
        """Sizes whose flag array numpy refuses to shape end in the one
        `error:` line, not in numpy's ValueError traceback."""
        out = tmp_path / "big.voxl"
        proc = listlbm_in_child("generate", kind, "--d", d, "--out", out)
        assert proc.returncode == 1
        assert error_only(proc.stderr).endswith(
            f"diameter {d}: {5 * d**3} cells exceeds limit {2**40}")
        assert proc.stdout == "" and not out.exists()


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
        out = tmp_path / "x.sprs"
        for scheme in ("lex:b=0", "lex:b=007", "lex:b=99999999999999999999"):
            code = main(["preprocess", "--in", str(voxel_file), "--scheme", scheme,
                         "--out", str(out)])
            assert code == 1
            assert f"'{scheme}'" in error_only(capsys.readouterr().err)
            assert not out.exists()

    def test_bad_periodic_axis_is_usage_error(self, tmp_path, voxel_file):
        code = main(["preprocess", "--in", str(voxel_file), "--periodic", "w",
                     "--out", str(tmp_path / "x.sprs")])
        assert code == 2

    def test_device_output_is_accepted(self, voxel_file, capsys):
        """/dev/null, which is no regular file, takes the whole file."""
        assert main(["preprocess", "--in", str(voxel_file), "--out", os.devnull]) == 0
        assert capsys.readouterr().out.startswith(f"wrote {os.devnull}: fluid_cells=")

    def test_same_in_and_out_rejected(self, voxel_file, capsys):
        code = main(["preprocess", "--in", str(voxel_file), "--out", str(voxel_file)])
        assert code == 1
        assert "distinct" in capsys.readouterr().err


class TestInfo:
    def test_prints_header_fields(self, sparse_file, capsys):
        assert main(["info", "--in", str(sparse_file)]) == 0
        out = capsys.readouterr().out
        assert "dims=20x4x4" in out
        assert "fluid_cells=80" in out
        assert "scheme=lex:b=4" in out
        assert "periodic=x" in out

    def test_wrong_file_type_exits_one(self, voxel_file, capsys):
        assert main(["info", "--in", str(voxel_file)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [1, 2 ** 32 - 1])
    def test_nonzero_table_flag_exits_one(self, tmp_path, channel6_file, capsys, flag):
        bad = tmp_path / "flag.sprs"
        bad.write_bytes(overwrite(channel6_file.read_bytes(), header_fields("lex:b=1"),
                                  {"table flag": flag}))
        for argv in (["info"], ["analyze", "--out-prefix", str(tmp_path / "h")],
                     ["solve", "--steps", "1"]):
            assert main([argv[0], "--in", str(bad), *argv[1:]]) == 1
            out, err = capsys.readouterr()
            assert error_only(err) == (f"error: table flag must be 0, got {flag} "
                                       f"(at byte offset {46 + len('lex:b=1')})"), argv
            assert out == ""

    @pytest.mark.parametrize("scheme", ["lex:b=1\nfluid_cells=7", ""])
    def test_non_canonical_scheme_exits_one(self, tmp_path, channel6_file, capsys, scheme):
        bad = tmp_path / "scheme.sprs"
        bad.write_bytes(with_scheme(channel6_file.read_bytes(), scheme))
        for argv in (["info"], ["analyze", "--out-prefix", str(tmp_path / "h")]):
            assert main([argv[0], "--in", str(bad), *argv[1:]]) == 1
            out, err = capsys.readouterr()
            assert "scheme string" in error_only(err) and "offset 46" in err, argv
            assert out == ""

    def test_long_scheme_is_cut_in_the_error(self, tmp_path, channel6_file, capsys):
        bad = tmp_path / "long.sprs"
        bad.write_bytes(with_scheme(channel6_file.read_bytes(), "lex:b=" + "1" * 65000))
        assert main(["info", "--in", str(bad)]) == 1
        assert len(error_only(capsys.readouterr().err)) <= 200

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
        assert re.search(r"link 0 of I_c=10 at \(\d+, \d+, \d+\) to 10 does not match",
                         error_only(err))
        assert "total_remote_links" not in out

    def test_smallest_failing_cell_is_named(self, tmp_path, channel6_file, capsys):
        # link 17 of I_c=3 and link 0 of I_c=50 point at their own cells:
        # the lower I_c is named although its wrong direction comes later
        bad = patched_copy(channel6_file, tmp_path, [(3, 12 + 8 * 17, 8, 3), (50, 12, 8, 50)])
        code = main(["analyze", "--in", str(bad), "--out-prefix", str(tmp_path / "o")])
        assert code == 1
        out, err = capsys.readouterr()
        assert re.search(r"link 17 of I_c=3 at \(\d+, \d+, \d+\) to 3 does not match",
                         error_only(err))
        assert out == ""

    # "taken": the second histogram's name is a directory, so the first,
    # already created, is removed again
    @pytest.mark.parametrize("where", ["nodir", "taken"])
    def test_unwritable_prefix_prints_no_stats(self, tmp_path, sparse_file, capsys, where):
        prefix = tmp_path / "nodir" / "o" if where == "nodir" else tmp_path / "o"
        if where == "taken":
            (tmp_path / "o_remote_links.csv").mkdir()
        code = main(["analyze", "--in", str(sparse_file), "--out-prefix", str(prefix)])
        assert code == 1
        out, err = capsys.readouterr()
        assert f"{prefix}_" in error_only(err)
        assert out == ""
        assert not (tmp_path / "o_neighbors.csv").exists()

    def test_bad_records_leave_no_histogram(self, tmp_path, channel6_file, capsys):
        bad = self_linked_copy(channel6_file, tmp_path)
        code = main(["analyze", "--in", str(bad), "--out-prefix", str(tmp_path / "o")])
        assert code == 1
        out, err = capsys.readouterr()
        assert error_only(err) and out == ""
        assert not list(tmp_path.glob("o_*"))

    def test_failed_run_leaves_a_symlinked_histogram_path(self, tmp_path, channel6_file, capsys):
        """A failed run removes the histograms it created, but not a
        symlink given as one: the link stays, and its target keeps its
        bytes."""
        bad = self_linked_copy(channel6_file, tmp_path)
        real = tmp_path / "real.csv"
        real.write_text("user data\n")
        link = tmp_path / "o_neighbors.csv"
        link.symlink_to(real)
        code = main(["analyze", "--in", str(bad), "--out-prefix", str(tmp_path / "o")])
        assert code == 1
        assert error_only(capsys.readouterr().err)
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == "user data\n"
        assert not (tmp_path / "o_remote_links.csv").exists()

    def test_histogram_naming_the_input_exits_one(self, tmp_path, sparse_file, capsys):
        victim = tmp_path / "o_neighbors.csv"
        victim.write_bytes(sparse_file.read_bytes())
        code = main(["analyze", "--in", str(victim), "--out-prefix", str(tmp_path / "o")])
        assert code == 1
        assert "distinct" in error_only(capsys.readouterr().err)
        assert victim.read_bytes() == sparse_file.read_bytes()
        assert not (tmp_path / "o_remote_links.csv").exists()

    def test_split_selector_required(self, tmp_path, sparse_file, capsys):
        # without --parts the file is one partition
        code = main(["analyze", "--in", str(sparse_file),
                     "--out-prefix", str(tmp_path / "h")])
        assert code == 0
        out = capsys.readouterr().out
        assert "partitions=1 " in out
        assert "total_remote_links=0" in out


class TestRecordCoordinates:
    """Records whose coordinates disagree with their links pass `info`,
    which reads no record, but `analyze` and `solve` name the I_c."""

    @staticmethod
    def flipped_x(path, tmp_path):
        x = int(read_sparse(path)[1].coords[0, 0])
        return patched_copy(path, tmp_path, [(1, 0, 4, x ^ 2 ** 31)]), 1

    @staticmethod
    def zeroed_pair(path, tmp_path):
        b = int(read_sparse(path)[1].nbr[9, 0])  # the +x neighbour of I_c=10
        return patched_copy(path, tmp_path, [(10, 12, 8, 0), (b, 12 + 8, 8, 0)]), 10

    @pytest.mark.parametrize("fault", ["flipped_x", "zeroed_pair"])
    def test_analyze_and_solve_exit_one(self, tmp_path, sparse_file, capsys, fault):
        bad, ic = getattr(self, fault)(sparse_file, tmp_path)
        assert main(["info", "--in", str(bad)]) == 0
        capsys.readouterr()
        for argv in (["analyze", "--out-prefix", str(tmp_path / "h")], ["solve", "--steps", "1"]):
            assert main([argv[0], "--in", str(bad), *argv[1:]]) == 1
            out, err = capsys.readouterr()
            assert f"I_c={ic} " in error_only(err), argv
            assert out == ""


class TestSchemeOrder:
    def test_other_scheme_digit_fails_analyze_and_solve(self, tmp_path, sparse_file, capsys):
        """`lex:b=5` is a valid scheme, but not the order of the file's
        `lex:b=4` records: info, which reads no record, exits 0, while
        analyze and solve name the first I_c out of order."""
        raw = bytearray(sparse_file.read_bytes())
        at = 46 + len("lex:b=")
        assert raw[46:at + 1] == b"lex:b=4"
        raw[at] = ord("5")
        bad = tmp_path / "b5.sprs"
        bad.write_bytes(bytes(raw))
        assert main(["info", "--in", str(bad)]) == 0
        assert "scheme=lex:b=5\n" in capsys.readouterr().out
        for argv in (["analyze", "--out-prefix", str(tmp_path / "h")], ["solve", "--steps", "1"]):
            assert main([argv[0], "--in", str(bad), *argv[1:]]) == 1
            out, err = capsys.readouterr()
            assert re.fullmatch(r"error: I_c=\d+ at \(\d+, \d+, \d+\) comes before I_c=\d+ "
                                r"at \(\d+, \d+, \d+\) under the header's scheme lex:b=5",
                                error_only(err)), argv
            assert out == ""


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
        assert lines[0] == ("partitions,steps,fluid_cells,seconds,flups,"
                            "part,owned_cells,ghost_cells,compute_s,exchange_s")
        assert lines[1].startswith("2,10,80,")
        assert [line.split(",")[5] for line in lines[1:]] == ["0", "1"]

    def test_warmup_steps_are_not_counted(self, tmp_path, sparse_file, channel6_file,
                                          capsys):
        report = tmp_path / "r.csv"
        code = main(["solve", "--in", str(sparse_file), "--steps", "5",
                     "--warmup", "2", "--report", str(report)])
        assert code == 0
        assert "flup_count=400" in capsys.readouterr().out
        assert report.read_text().splitlines()[1].startswith("1,5,80,")
        # the warmup steps do run: the first of these forces that fails
        # after step 10 fails within the 20 warmup and 10 timed steps
        for force in (0.5, 0.2, 0.1, 0.08, 0.06):
            diverged = library_divergence(channel6_file, force)
            if diverged.step > 10:
                break
        assert 10 < diverged.step <= 30
        code = main(["solve", "--in", str(channel6_file), "--force", f"{force},0,0",
                     "--warmup", "20", "--steps", "10"])
        assert code == 1
        assert error_only(capsys.readouterr().err) == f"error: {diverged}"

    def test_negative_warmup_is_usage_error(self, sparse_file):
        code = main(["solve", "--in", str(sparse_file), "--steps", "2",
                     "--warmup", "-3"])
        assert code == 2

    def test_neighbor_above_fluid_count_exits_one(self, tmp_path, sparse_file, capsys):
        with open(sparse_file, "rb") as fh:
            header = read_header(fh)
            at = fh.tell() + 12  # record I_c=1, first neighbor
        raw = bytearray(sparse_file.read_bytes())
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

    def test_empty_report_path_exits_one_before_the_read(self, sparse_file, capsys,
                                                          monkeypatch):
        monkeypatch.setattr("listlbm.cli.read_sparse", refuse("read_sparse"))
        code = main(["solve", "--in", str(sparse_file), "--steps", "1", "--report", ""])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert error_only(err) == "error: [Errno 2] No such file or directory: ''"

    def test_device_node_report_is_written_in_place(self, sparse_file, capsys):
        code = main(["solve", "--in", str(sparse_file), "--steps", "1",
                     "--report", os.devnull])
        assert code == 0
        assert f"wrote {os.devnull}" in capsys.readouterr().out
        assert Path(os.devnull).is_char_device()

    def test_one_way_link_exits_one(self, tmp_path, sparse_file, capsys):
        bad = self_linked_copy(sparse_file, tmp_path)
        assert main(["solve", "--in", str(bad), "--parts", "3", "--steps", "1"]) == 1
        assert re.search(r"link 0 of I_c=10 at \(\d+, \d+, \d+\) to 10 does not match",
                         error_only(capsys.readouterr().err))

    def test_divergent_run_exits_one(self, tmp_path, channel6_file, capsys):
        report = tmp_path / "r.csv"
        code = main(["solve", "--in", str(channel6_file), "--force", "0.5,0,0",
                     "--steps", "200", "--report", str(report)])
        assert code == 1
        out, err = capsys.readouterr()
        step = library_divergence(channel6_file).step
        assert f"velocity not within Mach 1 at step {step} " in error_only(err)
        assert "flups" not in out
        assert not report.exists()

    def test_divergence_names_its_cell(self, channel6_file, capsys):
        """The one `error:` line gives the step, the smallest failing I_c
        and its coordinates, as the library reports them."""
        diverged = library_divergence(channel6_file)
        code = main(["solve", "--in", str(channel6_file), "--force", "0.5,0,0", "--steps", "200"])
        assert code == 1
        line = error_only(capsys.readouterr().err)
        assert line == f"error: {diverged}"
        _, records = read_sparse(channel6_file)
        x, y, z = records.coords[diverged.ic - 1]
        assert line == (f"error: velocity not within Mach 1 at step {diverged.step} "
                        f"at I_c={diverged.ic} ({x}, {y}, {z}): the run diverged")

    def test_overflowing_run_prints_one_error_line(self, channel6_file):
        """An overflowing state ends in the one `error:` line and no numpy
        warning."""
        proc = solve_in_child(channel6_file, "--force", "1e300,0,0", "--steps", "5")
        assert proc.returncode == 1
        assert "velocity not within Mach 1 at step" in error_only(proc.stderr)

    def test_run_past_mach_one_prints_one_error_line(self, channel6_file):
        """Force 0.1 settles at Mach 1.9 with every density positive; the
        run exits 1 with one `error:` line naming the Mach bound, and
        prints no FLUP/s."""
        proc = solve_in_child(channel6_file, "--force", "0.1,0,0", "--steps", "200")
        assert proc.returncode == 1
        line = error_only(proc.stderr)
        assert line == f"error: {library_divergence(channel6_file, 0.1)}"
        assert line.startswith("error: velocity not within Mach 1 at step ")
        assert proc.stdout == ""

    def test_last_timed_step_is_checked(self, tmp_path, channel6_file, capsys):
        """A run whose last timed step leaves a state past Mach 1 fails
        in the untimed check step after it: one `error:` line naming that
        step, no FLUP/s and no report."""
        diverged = library_divergence(channel6_file, 0.1)
        report = tmp_path / "r.csv"
        code = main(["solve", "--in", str(channel6_file), "--force", "0.1,0,0",
                     "--steps", str(diverged.step - 1), "--report", str(report)])
        out, err = capsys.readouterr()
        assert code == 1
        assert error_only(err) == f"error: {diverged}"
        assert out == "" and not report.exists()

    # 200 steps fail in a timed step, `step - 1` in the check step after them
    @pytest.mark.parametrize("failing", ["timed", "check"])
    def test_failed_run_leaves_a_symlinked_report(self, tmp_path, channel6_file, capsys,
                                                  failing):
        """A failed run removes a report file it created, but not a
        symlink given as the report: the link stays, and its target keeps
        its bytes, also when only the check step fails."""
        diverged = library_divergence(channel6_file, 0.1)
        steps = 200 if failing == "timed" else diverged.step - 1
        real = tmp_path / "real.csv"
        real.write_text("user data\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        code = main(["solve", "--in", str(channel6_file), "--force", "0.1,0,0",
                     "--steps", str(steps), "--report", str(link)])
        assert code == 1
        assert error_only(capsys.readouterr().err) == f"error: {diverged}"
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == "user data\n"

    def test_run_within_mach_one_exits_zero(self, channel6_file, capsys):
        """Force 0.02 settles near Mach 0.39: healthy, so it reports."""
        code = main(["solve", "--in", str(channel6_file), "--force", "0.02,0,0",
                     "--steps", "200"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert printed_fields(out)["steps"] == "200"

    def test_flup_accounting(self, tmp_path, channel6_file, capsys):
        """flup_count is N_f x steps on every run, and the printed and
        reported flups follow from the counts and the seconds within
        their printed precision."""
        n_fluid = read_sparse(channel6_file)[0].n_fluid
        report = tmp_path / "r.csv"
        counts = []
        for _ in range(2):
            code = main(["solve", "--in", str(channel6_file), "--parts", "2", "--steps", "7",
                         "--warmup", "2", "--report", str(report)])
            assert code == 0
            fields = printed_fields(capsys.readouterr().out)
            assert (fields["steps"], fields["fluid_cells"], fields["partitions"]) == (
                "7", str(n_fluid), "2")
            counts.append(int(fields["flup_count"]))
            head, *rows = report.read_text().splitlines()
            assert len(rows) == 2
            cols = dict(zip(head.split(","), rows[0].split(",")))
            seconds, flups = float(cols["seconds"]), float(cols["flups"])
            # seconds are printed to 1e-6 s and flups to 1e-3
            assert flups == pytest.approx(n_fluid * 7 / seconds, rel=1e-6 / seconds, abs=1e-3)
            assert float(fields["flups"]) == pytest.approx(flups, rel=1e-6)
            assert "gflops_est" not in fields
            assert float(fields["seconds"]) == pytest.approx(seconds, abs=1e-3)
        assert counts == [n_fluid * 7] * 2

    def test_csv_has_one_row_per_partition(self, tmp_path, channel6_file):
        """One row per partition: the run's columns repeated, then the
        partition's cells as a library Simulation cuts them and its
        timers' seconds."""
        report = tmp_path / "r.csv"
        code = main(["solve", "--in", str(channel6_file), "--parts", "3", "--steps", "4",
                     "--report", str(report)])
        assert code == 0
        header, records = read_sparse(channel6_file)
        sim = Simulation(header, records, 3, TrtParams(tau_plus=0.8))
        head, *rows = report.read_text().splitlines()
        assert len(rows) == 3
        run = rows[0].split(",")[:5]
        assert run[:3] == ["3", "4", str(header.n_fluid)]
        for p, (row, d) in enumerate(zip(rows, sim.domains)):
            cols = dict(zip(head.split(","), row.split(",")))
            assert row.split(",")[:5] == run
            assert (int(cols["part"]), int(cols["owned_cells"]), int(cols["ghost_cells"])) == (
                p, d.n_own, d.n_ghost)
            assert float(cols["compute_s"]) > 0.0
            assert float(cols["exchange_s"]) >= 0.0

    def test_records_are_freed_before_stepping(self, channel6_file, monkeypatch, capsys):
        """`solve` holds one copy of the domain: once the Simulation is
        built, no name keeps the records' adjacency alive."""
        nbr, alive, run = [], [], Simulation.run

        def read(path):
            header, records = read_sparse(path)
            nbr.append(weakref.ref(records.nbr))
            return header, records

        def step(sim, steps):
            alive.append(nbr[0]() is not None)
            run(sim, steps)

        monkeypatch.setattr(listlbm.cli, "read_sparse", read)
        monkeypatch.setattr(Simulation, "run", step)
        assert main(["solve", "--in", str(channel6_file), "--warmup", "1", "--steps", "2"]) == 0
        assert "flup_count=" in capsys.readouterr().out
        assert alive == [False, False]

    @pytest.mark.parametrize("flags", [["--force", "inf,0,0"], ["--tau", "inf"]])
    def test_non_finite_parameter_exits_one(self, sparse_file, capsys, flags):
        code = main(["solve", "--in", str(sparse_file), "--steps", "2", *flags])
        assert code == 1
        assert "finite" in error_only(capsys.readouterr().err)


def snapshot(where):
    """Each entry of the directory `where`: its symlink target, if it is
    one, and the SHA-1 of what reading it gives."""
    return {p.name: (os.readlink(p) if p.is_symlink() else None,
                     hashlib.sha1(p.read_bytes()).hexdigest())
            for p in where.iterdir()}


def run_writing(command, src, out, *flags):
    """`main` on `command` reading `src` and writing `out`, then `flags`
    (a repeated flag overrides); for analyze `out` is the neighbours
    histogram of the prefix."""
    argv = {"generate": ["--channel", "--d", "4", "--out", out],
            "preprocess": ["--in", src, "--out", out],
            "analyze": ["--in", src, "--out-prefix", str(out).removesuffix("_neighbors.csv")],
            "solve": ["--in", src, "--steps", "1", "--report", out]}[command]
    return main([command, *map(str, argv), *flags])


class TestOutputRule:
    """Every writing command claims its outputs before the work, refuses
    two paths that are one file, and leaves every file it found as it was."""

    # flags that make each command fail in its work; analyze fails on the
    # self-linked copy it reads
    @pytest.mark.parametrize("command, flags", [
        ("generate", ["--d", "2"]),
        ("preprocess", ["--scheme", "lex:b=0"]),
        ("analyze", []),
        ("solve", ["--force", "0.1,0,0", "--steps", "200"]),
    ])
    def test_failed_run_leaves_an_existing_output(self, tmp_path, voxel_file, channel6_file,
                                                  capsys, command, flags):
        src = {"preprocess": voxel_file, "analyze": self_linked_copy(channel6_file, tmp_path),
               "solve": channel6_file}.get(command)
        out = tmp_path / "o_neighbors.csv"
        out.write_text("user data\n")
        before = snapshot(tmp_path)
        assert run_writing(command, src, out, *flags) == 1
        assert error_only(capsys.readouterr().err)
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("link", ["symlink", "hard link"])
    @pytest.mark.parametrize("command", ["preprocess", "analyze", "solve"])
    def test_output_linked_to_the_input_exits_one(self, tmp_path, voxel_file, channel6_file,
                                                  capsys, command, link):
        src = voxel_file if command == "preprocess" else channel6_file
        out = tmp_path / "o_neighbors.csv"
        out.symlink_to(src) if link == "symlink" else os.link(src, out)
        before = snapshot(tmp_path)
        assert run_writing(command, src, out) == 1
        assert "paths must be distinct" in error_only(capsys.readouterr().err)
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("command, stage", [
        ("generate", "make_channel"),
        ("preprocess", "load_voxels"),
        ("analyze", "read_sparse"),
        ("solve", "read_sparse"),
    ])
    def test_missing_directory_costs_no_work(self, tmp_path, voxel_file, channel6_file,
                                             capsys, monkeypatch, command, stage):
        src = voxel_file if command == "preprocess" else channel6_file
        monkeypatch.setattr(f"listlbm.cli.{stage}", refuse(stage))
        before = snapshot(tmp_path)
        assert run_writing(command, src, tmp_path / "nodir" / "o_neighbors.csv") == 1
        out, err = capsys.readouterr()
        assert "No such file or directory" in error_only(err) and out == ""
        assert snapshot(tmp_path) == before


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    """Two files to corrupt: the 80-cell channel as written ("stamped"),
    and the same bytes under a header promising N_f = 2^61 cells in a
    2^21-cube, far more than the file holds."""
    header, records = preprocess_grid(make_channel(4), LexBlocked(4),
                                      periodic=(True, False, False))
    path = tmp_path_factory.mktemp("fuzz") / "base.sprs"
    write_sparse(path, records, header)
    fields = header_fields(header.scheme_text)
    stamped = path.read_bytes()
    big = 2 ** 21
    promised = overwrite(stamped, fields, {"X": big, "Y": big, "Z": big, "N_f": 2 ** 61})
    return path.parent, fields, {"stamped": stamped, "promised": promised}


@pytest.fixture(scope="module")
def voxel_base(tmp_path_factory):
    """The d=6 channel voxel file to corrupt, and its directory."""
    path = tmp_path_factory.mktemp("fuzz_voxl") / "base.voxl"
    save_voxels(path, make_channel(6))
    return path.parent, path.read_bytes()


def verdicts(argvs):
    """Run each argv: each must exit 0 with empty stderr or 1 with
    exactly one `error: ` line. Returns the exit codes by command."""
    codes = {}
    for argv in argvs:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert (code, err) == (0, "") or (
            code == 1 and re.fullmatch(r"error: \S.*\n", err)), (argv, code, err)
        codes[argv[0]] = code
    return codes


def sparse_verdicts(path, where):
    """`verdicts` of info, analyze and solve --steps 1 on the sparse file `path`."""
    return verdicts([["info", "--in", str(path)],
                     ["analyze", "--in", str(path), "--out-prefix", str(where / "h")],
                     ["solve", "--in", str(path), "--steps", "1"]])


def damaged(raw, at, mask, cut):
    """Copy of the bytes `raw` cut off at offset `at`, or with the byte
    there XORed with the nonzero `mask`."""
    if cut:
        return raw[:at]
    out = bytearray(raw)
    out[at] ^= mask
    return bytes(out)


class TestHeaderFuzz:
    @settings(max_examples=50, deadline=None)
    @given(base=st.sampled_from(["stamped", "promised"]),
           field=st.sampled_from(list(header_fields("lex:b=4"))),
           value=st.integers(0, 2 ** 64 - 1))
    @example(base="promised", field="table flag", value=1)
    @example(base="promised", field="table flag", value=2 ** 32 - 1)
    def test_every_command_ends_in_a_verdict(self, fuzz_bases, base, field, value):
        """One overwritten header field never crashes a command: each
        exits 0 quietly or 1 with exactly one `error:` line."""
        where, fields, bases = fuzz_bases
        path = where / "fuzzed.sprs"
        path.write_bytes(overwrite(bases[base], fields, {field: value}))
        sparse_verdicts(path, where)


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
        codes = sparse_verdicts(path, where)
        assert codes["analyze"] == codes["solve"], codes


class TestByteFuzz:
    """One flipped byte, or a cut, anywhere in a file: header, scheme,
    table flag or body."""

    # one of two offsets lands in the first 128 bytes: the 57-byte
    # header of the stamped file and its first record, or the 32-byte
    # voxel header and the start of the flags
    @staticmethod
    def offsets(size):
        return st.integers(0, 127) | st.integers(0, size - 1)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), mask=st.integers(1, 255), cut=st.booleans())
    def test_sparse_file(self, fuzz_bases, data, mask, cut):
        """Each of info, analyze and solve exits 0 quietly or 1 with one
        `error:` line, and analyze and solve reach the same verdict."""
        where, _, bases = fuzz_bases
        raw = bases["stamped"]
        path = where / "bytes.sprs"
        path.write_bytes(damaged(raw, data.draw(self.offsets(len(raw))), mask, cut))
        codes = sparse_verdicts(path, where)
        assert codes["analyze"] == codes["solve"], codes

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), mask=st.integers(1, 255), cut=st.booleans())
    def test_voxel_file(self, voxel_base, data, mask, cut):
        """preprocess exits 0 quietly or 1 with one `error:` line."""
        where, raw = voxel_base
        path = where / "bytes.voxl"
        path.write_bytes(damaged(raw, data.draw(self.offsets(len(raw))), mask, cut))
        verdicts([["preprocess", "--in", str(path), "--periodic", "x",
                   "--out", str(where / "bytes.sprs")]])


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        for command in ("frobnicate", "bench"):
            assert main([command]) == 2

    def test_unknown_flag(self, voxel_file, tmp_path):
        code = main(["preprocess", "--in", str(voxel_file),
                     "--out", str(tmp_path / "x.sprs"), "--frob"])
        assert code == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["solve", "--help"]) == 0
