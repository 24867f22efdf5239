"""Command-line driver wiring geometry, preprocessing, analysis and the solver.

Single binary with subcommands::

    listlbm generate   --channel|--packing --d D [--seed S] --out FILE
    listlbm preprocess --in FILE [--scheme TEXT] [--ranks P] [--periodic AXES] --out FILE
    listlbm analyze    --in FILE [--parts N] --out-prefix PREFIX
    listlbm solve      --in FILE [--parts N] [--tau T] [--lambda L]
                       [--force GX,GY,GZ] --steps K [--workers W] [--report FILE]
    listlbm bench      (same as solve, plus --warmup K)
    listlbm info       --in FILE

Without --parts, analyze, solve and bench take the partitions of the
file's start table, or one partition when the file has none.

Exit status: 0 on success, 1 with a one-line diagnostic for domain errors,
unwritable outputs and sizes too large to allocate, 2 for usage errors (unknown flags, conflicting
flags, missing files).
"""

from __future__ import annotations

import argparse
import os
import sys

from .adjacency import check_links
from .errors import ListLbmError, ParameterError
from .geometry import load_voxels, make_channel, make_packing, save_voxels
from .numbering import parse_scheme
from .partition import emit_histograms, partition_stats
from .pipeline import preprocess_to_file
from .solver import Simulation, TrtParams, run_benchmark
from .sparse_io import check_body_size, read_header, read_sparse


def _distinct_paths(*paths):
    """Reject a run whose given (non-None) paths name the same file twice."""
    real = [p for p in paths if p is not None]
    if len(set(map(os.path.abspath, real))) != len(real):
        raise ParameterError(f"paths must be distinct: {sorted(real)}")


def _input_path(text):
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"no such file: {text}")
    return text


def _int_at_least(text, low):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
    return value


def _positive_int(text):
    return _int_at_least(text, 1)


def _nonnegative_int(text):
    return _int_at_least(text, 0)


def _force_triple(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected GX,GY,GZ, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three floats, got {text!r}")


def _periodic_flags(text):
    flags = [False, False, False]
    body = text.strip()
    if body in ("", "none"):
        return tuple(flags)
    for token in body.split(","):
        axis = token.strip()
        if axis not in ("x", "y", "z"):
            raise argparse.ArgumentTypeError(f"unknown axis {token!r} (expected x, y or z)")
        flags["xyz".index(axis)] = True
    return tuple(flags)


def _cmd_generate(args):
    if args.channel:
        grid = make_channel(args.d)
    else:
        grid = make_packing(args.d, args.seed)
    save_voxels(args.out, grid)
    X, Y, Z = grid.dims
    print(f"wrote {args.out}: dims={X}x{Y}x{Z} fluid_cells={grid.fluid_count}")
    return 0


def _cmd_preprocess(args):
    _distinct_paths(args.infile, args.out)
    grid = load_voxels(args.infile)
    scheme = parse_scheme(args.scheme)
    header = preprocess_to_file(grid, scheme, args.out,
                                nranks=args.ranks, periodic=args.periodic)
    print(f"wrote {args.out}: fluid_cells={header.n_fluid} scheme={args.scheme}")
    return 0


def _cmd_analyze(args):
    header, records = read_sparse(args.infile)
    check_links(records.nbr.T)
    assignment = header.partition(args.parts)
    stats = partition_stats(records, assignment)
    print(f"partitions={assignment.N} fluid_cells={header.n_fluid}")
    print(f"total_remote_links={stats.total_remote_links}")
    print(f"max_neighbor_count={stats.max_neighbor_count}")
    for path in emit_histograms(stats, args.out_prefix):
        print(f"wrote {path}")
    return 0


def _run_solver(args, warmup):
    _distinct_paths(args.infile, args.report)
    header, records = read_sparse(args.infile)
    params = TrtParams(tau_plus=args.tau, magic_lambda=args.magic, force=args.force)
    sim = Simulation(header, records, nparts=args.parts, params=params,
                     workers=args.workers)
    # open the report before stepping, so a bad path costs no run, and
    # delete it again if stepping fails, so no empty report is left
    with open(args.report or os.devnull, "w") as fh:
        sim.init_equilibrium(1.0)
        try:
            report = run_benchmark(sim, steps=args.steps, warmup=warmup)
        except BaseException:
            fh.close()
            if args.report is not None:
                os.remove(args.report)
            raise
        fh.write(report.csv())
    if args.report is not None:
        print(f"wrote {args.report}")
    print(f"steps={args.steps} fluid_cells={header.n_fluid} partitions={sim.nparts}")
    print(f"flup_count={report.flup_count} seconds={report.seconds:.3f}")
    print(f"flups={report.flups:.6e} gflops_est={report.gflops_est:.6f}")
    return 0


def _cmd_solve(args):
    return _run_solver(args, warmup=0)


def _cmd_bench(args):
    return _run_solver(args, warmup=args.warmup)


def _cmd_info(args):
    with open(args.infile, "rb") as fh:
        header = read_header(fh)
        check_body_size(fh, header.n_fluid)
    X, Y, Z = header.dims
    print(f"dims={X}x{Y}x{Z}")
    print(f"fluid_cells={header.n_fluid}")
    print(f"scheme={header.scheme_text}")
    axes = ",".join(a for a, p in zip("xyz", header.periodic) if p)
    print(f"periodic={axes or 'none'}")
    if header.part_starts is None:
        print("partition_table=absent")
    else:
        print(f"partition_table={len(header.part_starts)} parts")
    return 0


def _add_input_flags(sub):
    sub.add_argument("--in", dest="infile", type=_input_path, required=True,
                     help="sparse domain file")
    sub.add_argument("--parts", type=_positive_int, default=None,
                     help="equal-chunk partition count (default: the file's start "
                          "table, else 1)")


def _add_solver_flags(sub):
    _add_input_flags(sub)
    sub.add_argument("--tau", type=float, default=0.8,
                     help="even relaxation time tau+ (default 0.8)")
    sub.add_argument("--lambda", dest="magic", type=float, default=3.0 / 16.0,
                     help="magic parameter Lambda (default 3/16)")
    sub.add_argument("--force", type=_force_triple, default=(0.0, 0.0, 0.0),
                     metavar="GX,GY,GZ", help="body force per cell (default 0,0,0)")
    sub.add_argument("--steps", type=_positive_int, required=True,
                     help="number of time steps")
    sub.add_argument("--workers", type=_positive_int, default=1,
                     help="solver worker threads (default 1)")
    sub.add_argument("--report", default=None, help="write a CSV benchmark report here")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="listlbm",
        description="Sparse list-based lattice Boltzmann preprocessor and solver.")
    commands = parser.add_subparsers(dest="command", metavar="command", required=True)

    gen = commands.add_parser("generate", help="write a voxel geometry file")
    kind = gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--channel", action="store_true", help="square duct geometry")
    kind.add_argument("--packing", action="store_true", help="random sphere packing")
    gen.add_argument("--d", type=_positive_int, required=True, help="cube edge length")
    gen.add_argument("--seed", type=int, default=1, help="packing seed (default 1)")
    gen.add_argument("--out", required=True, help="output voxel file")
    gen.set_defaults(handler=_cmd_generate)

    pre = commands.add_parser("preprocess", help="number cells and write a sparse domain file")
    pre.add_argument("--in", dest="infile", type=_input_path, required=True,
                     help="input voxel file")
    pre.add_argument("--scheme", default="lex:b=1",
                     help="numbering scheme, e.g. lex:b=4 or morton:g=2 (default lex:b=1)")
    pre.add_argument("--ranks", type=_positive_int, default=1,
                     help="preprocessor rank count (default 1)")
    pre.add_argument("--periodic", type=_periodic_flags, default=(False, False, False),
                     metavar="AXES", help="comma list of periodic axes, e.g. x,z")
    pre.add_argument("--out", required=True, help="output sparse domain file")
    pre.set_defaults(handler=_cmd_preprocess)

    ana = commands.add_parser("analyze", help="partition quality statistics and histograms")
    _add_input_flags(ana)
    ana.add_argument("--out-prefix", required=True, help="prefix for histogram CSV files")
    ana.set_defaults(handler=_cmd_analyze)

    sol = commands.add_parser("solve", help="run the TRT solver")
    _add_solver_flags(sol)
    sol.set_defaults(handler=_cmd_solve)

    ben = commands.add_parser("bench", help="run the solver and report FLUP/s")
    _add_solver_flags(ben)
    ben.add_argument("--warmup", type=_nonnegative_int, default=0,
                     help="untimed steps before measuring (default 0)")
    ben.set_defaults(handler=_cmd_bench)

    inf = commands.add_parser("info", help="check a sparse domain file's size, print its header")
    inf.add_argument("--in", dest="infile", type=_input_path, required=True,
                     help="sparse domain file")
    inf.set_defaults(handler=_cmd_info)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (ListLbmError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
