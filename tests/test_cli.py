import numpy as np
import pytest

from listlbm.cli import main


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

    def test_partition_map_input(self, tmp_path, sparse_file, capsys):
        map_file = tmp_path / "map.txt"
        map_file.write_text("1\n41\n")
        code = main(["analyze", "--in", str(sparse_file), "--map", str(map_file),
                     "--out-prefix", str(tmp_path / "h")])
        assert code == 0
        assert "partitions=2" in capsys.readouterr().out

    def test_bad_map_exits_one(self, tmp_path, sparse_file, capsys):
        map_file = tmp_path / "map.txt"
        map_file.write_text("3\n")
        code = main(["analyze", "--in", str(sparse_file), "--map", str(map_file),
                     "--out-prefix", str(tmp_path / "h")])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_non_ascii_map_exits_one(self, tmp_path, sparse_file, capsys):
        map_file = tmp_path / "map.txt"
        map_file.write_bytes(b"\xff1\n")
        code = main(["analyze", "--in", str(sparse_file), "--map", str(map_file),
                     "--out-prefix", str(tmp_path / "h")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "line 1" in err[0]

    def test_missing_output_directory_exits_one(self, tmp_path, sparse_file, capsys):
        code = main(["analyze", "--in", str(sparse_file), "--parts", "2",
                     "--out-prefix", str(tmp_path / "nodir" / "o")])
        assert code == 1
        assert "No such file or directory" in error_only(capsys.readouterr().err)

    def test_parts_and_map_conflict(self, tmp_path, sparse_file):
        map_file = tmp_path / "map.txt"
        map_file.write_text("1\n")
        code = main(["analyze", "--in", str(sparse_file), "--parts", "2",
                     "--map", str(map_file), "--out-prefix", str(tmp_path / "h")])
        assert code == 2

    def test_split_selector_required(self, tmp_path, sparse_file):
        code = main(["analyze", "--in", str(sparse_file),
                     "--out-prefix", str(tmp_path / "h")])
        assert code == 2


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
