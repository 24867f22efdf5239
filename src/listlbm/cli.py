"""Command-line driver wiring geometry, preprocessing, analysis and the solver.

Single binary with subcommands::

    listlbm generate   --channel|--packing --d D [--seed S] --out FILE
    listlbm preprocess --in FILE [--scheme TEXT] [--ranks P] [--periodic AXES] --out FILE
    listlbm analyze    --in FILE [--parts N] --out-prefix PREFIX
    listlbm solve      --in FILE [--parts N] [--tau T] [--lambda L]
                       [--force GX,GY,GZ] --steps K [--warmup K]
                       [--report FILE]
    listlbm info       --in FILE

analyze and solve cut the fluid cell list into --parts equal chunks
(default 1). solve steps the Simulation itself: --warmup untimed steps,
then --steps timed ones, and prints the FLUP/s from the Simulation's timers.
A step checks the state it pulls, so solve then runs one more untimed step
to check the state the last timed step left; if it fails, so does the run,
and no report is written. Each output is claimed before the work, no two
paths may be one file, and a failed run removes only the outputs it
created: every file it found stays as it was (see `_outputs`).

Exit status: 0 on success, 1 with a one-line diagnostic for domain errors
(a diverging run among them), unwritable outputs and sizes too large to
allocate, 2 for usage errors (unknown flags, conflicting flags, missing files).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager

from .adjacency import check_links
from .errors import ListLbmError, ParameterError
from .geometry import load_voxels, make_channel, make_packing, save_voxels
from .numbering import parse_scheme
from .partition import chunk_ranges, emit_histograms, histogram_paths, partition_stats
from .pipeline import preprocess_grid
from .solver import Simulation, TrtParams
from .sparse_io import check_body_size, read_header, read_sparse, write_sparse

@contextmanager
def _outputs(inputs, outputs):
    """Claim each output (create it, or open it untruncated if it exists),
    refuse two paths that are one file by (device, inode), run the work and
    on failure remove the outputs this run created. Writers open outputs in
    place after the work, so a symlink or /dev/null is written, not replaced."""
    made = []
    try:
        for path in outputs:
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
                made.append(path)
            except FileExistsError:
                fd = os.open(path, os.O_WRONLY)
            os.close(fd)
        paths = [*inputs, *outputs]
        if len({(s.st_dev, s.st_ino) for s in map(os.stat, paths)}) != len(paths):
            raise ParameterError(f"paths must be distinct: {sorted(paths)}")
        yield
    except BaseException:
        for path in made:
            os.remove(path)
        raise


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
    with _outputs([], [args.out]):
        grid = make_channel(args.d) if args.channel else make_packing(args.d, args.seed)
        save_voxels(args.out, grid)
    X, Y, Z = grid.dims
    print(f"wrote {args.out}: dims={X}x{Y}x{Z} fluid_cells={grid.fluid_count}")
    return 0


def _cmd_preprocess(args):
    with _outputs([args.infile], [args.out]):
        grid = load_voxels(args.infile)
        scheme = parse_scheme(args.scheme)
        header, records = preprocess_grid(grid, scheme, nranks=args.ranks, periodic=args.periodic)
        write_sparse(args.out, records, header)
    print(f"wrote {args.out}: fluid_cells={header.n_fluid} scheme={args.scheme}")
    return 0


def _cmd_analyze(args):
    paths = histogram_paths(args.out_prefix)
    with _outputs([args.infile], paths):
        header, records = read_sparse(args.infile)
        check_links(records, header)
        assignment = chunk_ranges(header.n_fluid, args.parts)
        stats = partition_stats(records, assignment)
        emit_histograms(stats, args.out_prefix)
    print(f"partitions={assignment.N} fluid_cells={header.n_fluid}")
    print(f"total_remote_links={stats.total_remote_links}")
    print(f"max_neighbor_count={stats.max_neighbor_count}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _report(sim, steps, seconds, flups) -> str:
    """The solve report: one CSV row per partition, the run's totals
    repeated, then the partition's cells and its timers' seconds."""
    run = (f"{len(sim.domains)},{steps},{sim.header.n_fluid},"
           f"{seconds:.6f},{flups:.3f}")
    lines = ["partitions,steps,fluid_cells,seconds,flups,"
             "part,owned_cells,ghost_cells,compute_s,exchange_s"]
    lines += [f"{run},{d.part},{d.n_own},{d.n_ghost},"
              f"{sim.compute_seconds[d.part]:.6f},{sim.exchange_seconds[d.part]:.6f}"
              for d in sim.domains]
    return "".join(line + "\n" for line in lines)


def _cmd_solve(args):
    params = TrtParams(tau_plus=args.tau, magic_lambda=args.magic, force=args.force)
    with _outputs([args.infile], [] if args.report is None else [args.report]):
        # no name holds the records: once the Simulation is built, only its coords stay
        sim = Simulation(*read_sparse(args.infile), nparts=args.parts, params=params)
        sim.init_equilibrium(1.0)
        sim.run(args.warmup)
        sim.reset_timers()
        t0 = time.perf_counter()
        sim.run(args.steps)
        seconds = time.perf_counter() - t0
        flup_count = sim.header.n_fluid * args.steps
        flups = flup_count / max(seconds, 1e-12)
        report = _report(sim, args.steps, seconds, flups)
        # a step checks the state it pulls: one more, untimed, checks
        # the state the last timed step left before any report is written
        sim.step()
        if args.report is not None:
            with open(args.report, "w") as fh:
                fh.write(report)
    if args.report is not None:
        print(f"wrote {args.report}")
    print(f"steps={args.steps} fluid_cells={sim.header.n_fluid} partitions={len(sim.domains)}")
    print(f"flup_count={flup_count} seconds={seconds:.3f}")
    print(f"flups={flups:.6e}")
    return 0


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
    return 0


def _add_input_flags(sub):
    sub.add_argument("--in", dest="infile", type=_input_path, required=True,
                     help="sparse domain file")
    sub.add_argument("--parts", type=_positive_int, default=1,
                     help="equal-chunk partition count (default 1)")


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

    sol = commands.add_parser("solve", help="run the TRT solver and report FLUP/s")
    _add_input_flags(sol)
    sol.add_argument("--tau", type=float, default=0.8,
                     help="even relaxation time tau+ (default 0.8)")
    sol.add_argument("--lambda", dest="magic", type=float, default=3.0 / 16.0,
                     help="magic parameter Lambda (default 3/16)")
    sol.add_argument("--force", type=_force_triple, default=(0.0, 0.0, 0.0),
                     metavar="GX,GY,GZ", help="body force per cell (default 0,0,0)")
    sol.add_argument("--steps", type=_positive_int, required=True,
                     help="number of timed steps")
    sol.add_argument("--warmup", type=_nonnegative_int, default=0,
                     help="untimed steps before the timed ones (default 0)")
    sol.add_argument("--report", default=None, help="write a CSV benchmark report here")
    sol.set_defaults(handler=_cmd_solve)

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
