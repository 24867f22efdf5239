"""The benchmark's workloads: set-up, closed operation loop and metrics.

Every workload starts from the voxel file of make_packing(d, seed) and
pays the same set-up a user pays for `listlbm preprocess` followed by
`listlbm solve` (or `analyze`): load the voxels, preprocess, write the
sparse file and read it back, and for the solve workloads build the
Simulation and set the equilibrium. One client then runs operations
back to back in whole rounds until the run's seconds are spent, and the
outputs are checked (see checks.py).
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from listlbm import (
    ListLbmError,
    SparseHeader,
    SparseRecords,
    Simulation,
    TrtParams,
    VoxelGrid,
    build_adjacency,
    build_rank_tree,
    chunk_ranges,
    decompose_ranks,
    emit_histograms,
    find_runs,
    halo_exchange,
    load_voxels,
    make_packing,
    octree_reduce,
    parse_scheme,
    partition_stats,
    preprocess_grid,
    read_sparse,
    save_voxels,
    write_sparse,
)
from listlbm.indexer import CellOrder, assign_contiguous

import checks
from checks import CheckFailed
from spans import Spans

PERIODIC = (True, False, False)
PARAMS = TrtParams(tau_plus=0.8, force=(1e-6, 0.0, 0.0))
RHO0 = 1.0
SETUP_REPEATS = 5  # setup_s is the median of this many full set-ups
WARMUP_STEPS = 2  # untimed steps before the loop; also the equality-check depth
PROBE_U = (0.05, -0.02, 0.03)  # start velocity of the post-loop kernel probe
INVARIANCE_PARTS = 64  # the 1-partition state must equal a run on this many partitions
STEPS_PER_ROUND = 4  # solver state is checked after every round
SWEEP = (2, 4, 8, 16, 32, 64, 128, 256, 512)  # partition counts, one per analyze op;
# an odd count keeps the median operation inside one count's cluster of times
TRACE_SOLVER_STEPS = 3  # solver steps of the traced preprocess-analyze run
COPY_BYTES = 448 << 20  # >= 4x the 105 MiB last-level cache of the reference machine
KERNEL_BYTES_PER_CELL = 19 * (8 + 8 + 8)  # read f, write f, read pull index


@dataclass(frozen=True)
class Workload:
    scheme: str
    ranks: int
    parts: int  # solver partitions, all stepped by one thread
    solve: bool  # False: the operation is partition analysis


# One solver thread throughout, and no 64-partition solve workload: on
# the 2-vCPU reference VM their step medians followed the host's load far more
# than the one-partition step did (see README).
WORKLOADS = {
    "solve-d48-p1": Workload("lex:b=1", ranks=1, parts=1, solve=True),
    "preprocess-analyze": Workload("morton:g=2", ranks=64, parts=64, solve=False),
}


@dataclass
class Domain:
    """What set-up leaves behind for the operations."""

    grid: VoxelGrid
    header: SparseHeader
    written: SparseRecords
    read: SparseRecords
    sim: Simulation | None
    # traced set-up only: preprocess_grid's stages called one by one
    staged: tuple[SparseHeader, SparseRecords] | None = None
    runs: int = 0  # incell runs submitted by all ranks


def _staged_preprocess(grid, w: Workload, spans: Spans):
    """preprocess_grid's stages called one by one, in its order."""
    scheme = parse_scheme(w.scheme)
    with spans.span("pipeline.stages"):
        boxes = decompose_ranks(grid.dims, w.ranks)
        order = CellOrder(grid.dims, scheme)
        tree = build_rank_tree(len(boxes))
        lists = []
        for b in boxes:
            with spans.span("indexer.find_runs"):
                lists.append(find_runs(grid, scheme, b, boxes, order=order))
        with spans.span("indexer.octree_reduce"):
            assigned = octree_reduce(lists, tree)
        ic_by_rank = []
        for b in boxes:
            with spans.span("indexer.assign_contiguous"):
                ic_by_rank.append(assign_contiguous(grid, scheme, b, assigned[b.rank], order=order))
        with spans.span("adjacency.halo_exchange"):
            halos = halo_exchange(grid, boxes, ic_by_rank, periodic=PERIODIC)
        batches = []
        for h in halos:
            with spans.span("adjacency.build_adjacency"):
                batches.append(build_adjacency(h))
        with spans.span("adjacency.sort"):
            records = SparseRecords.concat(batches).sorted_by_ic()
        header = SparseHeader(
            dims=grid.dims, n_fluid=grid.fluid_count, scheme_text=w.scheme, periodic=PERIODIC
        )
    return (header, records), sum(len(x) for x in lists)


def _setup(w: Workload, voxel_path, sparse_path, spans: Spans) -> Domain:
    with spans.span("geometry.load_voxels"):
        grid = load_voxels(voxel_path)
    with spans.span("pipeline.preprocess_grid"):
        header, written = preprocess_grid(
            grid, parse_scheme(w.scheme), nranks=w.ranks, periodic=PERIODIC
        )
    staged, runs = None, 0
    if spans.enabled:
        staged, runs = _staged_preprocess(grid, w, spans)
    with spans.span("sparse_io.write_sparse"):
        write_sparse(sparse_path, written, header)
    with spans.span("sparse_io.read_sparse"):
        header, read = read_sparse(sparse_path)
    sim = None
    if w.solve:
        sim = _simulation(header, read, w.parts, spans)
    return Domain(grid, header, written, read, sim, staged, runs)


def _simulation(header, records, parts, spans: Spans) -> Simulation:
    with spans.span("solver.simulation_init"):
        sim = Simulation(header, records, nparts=parts, params=PARAMS)
    with spans.span("solver.init_equilibrium"):
        sim.init_equilibrium(RHO0)
    return sim


class Loop:
    """Operation times and failure counts of one closed loop."""

    def __init__(self):
        self.op_seconds: list[float] = []
        self.compute: list[float] = []  # per solver step, summed over partitions
        self.exchange: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, n: int, exc: Exception) -> None:
        self.failed += n
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def _timed_step(sim: Simulation, loop: Loop, spans: Spans) -> None:
    c0 = sim.compute_seconds.sum()
    e0 = sim.exchange_seconds.sum()
    with spans.span("solver.step"):
        t0 = time.perf_counter()
        sim.step()
        dt = time.perf_counter() - t0
    loop.op_seconds.append(dt)
    loop.compute.append(float(sim.compute_seconds.sum() - c0))
    loop.exchange.append(float(sim.exchange_seconds.sum() - e0))


def _solve_loop(sim: Simulation, mass0: float, seconds: float, spans: Spans) -> Loop:
    loop = Loop()
    deadline = time.perf_counter() + seconds
    while not loop.attempted or time.perf_counter() < deadline:
        loop.attempted += STEPS_PER_ROUND
        try:
            for _ in range(STEPS_PER_ROUND):
                _timed_step(sim, loop, spans)
            checks.check_solver_state(sim, mass0, sim.step_count, PARAMS.force[0])
        except (ListLbmError, CheckFailed) as exc:
            loop.fail(STEPS_PER_ROUND, exc)
    return loop


def _analysis_refs(records, n_fluid: int, counts) -> dict:
    refs = {}
    for n in counts:
        a = chunk_ranges(n_fluid, n)
        refs[n] = (checks.link_matrix(records.nbr, a.boundaries), a.sizes)
    return refs


def _analyze_op(records, n_fluid: int, n: int, prefix: str, spans: Spans):
    with spans.span("partition.partition_stats"):
        stats = partition_stats(records, chunk_ranges(n_fluid, n))
    with spans.span("partition.emit_histograms"):
        paths = emit_histograms(stats, prefix)
    return stats, paths


def _check_analysis(stats, paths, ref) -> None:
    L, sizes = ref
    checks.check_partition_stats(stats, L, sizes)
    checks.check_histograms(paths, L)


def _analyze_loop(records, n_fluid, refs, seconds, prefix, spans: Spans) -> tuple[Loop, dict]:
    loop = Loop()
    last = {}
    deadline = time.perf_counter() + seconds
    while not loop.attempted or time.perf_counter() < deadline:
        for n in refs:
            loop.attempted += 1
            try:
                t0 = time.perf_counter()
                stats, paths = _analyze_op(records, n_fluid, n, prefix, spans)
                loop.op_seconds.append(time.perf_counter() - t0)
                last[n] = stats
                _check_analysis(stats, paths, refs[n])
            except (ListLbmError, CheckFailed) as exc:
                loop.fail(1, exc)
    return loop, last


def _quantiles(values) -> dict:
    """Quartiles, and the highest percentile with at least ten samples
    beyond it (none below forty samples)."""
    v = sorted(values)
    n = len(v)
    out = {"n": n, "p50": statistics.median(v)}
    if n >= 2:
        out["p25"], _, out["p75"] = statistics.quantiles(v, n=4)
    tail = None
    for pct in (99.9, 99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            tail = {"pct": pct, "value": statistics.quantiles(v, n=1000)[int(pct * 10) - 1]}
            break
    out["tail"] = tail
    return out


def _copy_gb_per_s(repeats: int = 3) -> float:
    src = np.ones(COPY_BYTES // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    best = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best.append(time.perf_counter() - t0)
    return 2 * COPY_BYTES / statistics.median(best) / 1e9


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(name: str, seed: int, seconds: float, trace: bool, workdir, d: int = 48) -> dict:
    """Run one workload; returns the result fields and the run's details."""
    w = WORKLOADS[name]
    spans = Spans(trace)
    voxel_path = str(workdir / "domain.voxl")
    sparse_path = str(workdir / "domain.sprs")
    prefix = str(workdir / "hist")
    save_voxels(voxel_path, make_packing(d, seed))

    setup_samples = []
    dom = None
    for _ in range(1 if trace else SETUP_REPEATS):
        dom = None  # free the previous set-up before timing the next
        t0 = time.perf_counter()
        dom = _setup(w, voxel_path, sparse_path, spans)
        setup_samples.append(time.perf_counter() - t0)
    n_fluid = dom.header.n_fluid

    snapshot = None
    if w.solve:
        mass0, _ = checks.solver_totals(dom.sim)
        dom.sim.run(WARMUP_STEPS)
        snapshot = dom.sim.gather_state()
        dom.sim.reset_timers()
        loop = _solve_loop(dom.sim, mass0, seconds, spans)
        last_stats = {}
    else:
        refs = _analysis_refs(dom.read, n_fluid, SWEEP)
        loop, last_stats = _analyze_loop(dom.read, n_fluid, refs, seconds, prefix, spans)
    peak_rss = _peak_rss_mb()
    probe = _probe_state(dom.sim) if w.solve else None

    problems = []
    if trace:
        metrics = _layer_metrics(w, dom, loop, last_stats, spans, prefix, sparse_path, problems)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "mcells_per_s": (n_fluid * len(loop.op_seconds) / sum(loop.op_seconds) / 1e6, "Mcell/s"),
            "op_ms_p50": (_median_ms(loop.op_seconds), "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    # set-up outputs are checked after the loop, so the checks'
    # temporaries stay out of the peak resident set
    dom.sim = None
    try:
        _check_setup(w, dom, sparse_path, snapshot, probe)
    except CheckFailed as exc:
        problems.append(str(exc))

    details = {
        "workload": name,
        "seed": seed,
        "d": d,
        "n_fluid": n_fluid,
        "setup_s_samples": setup_samples,
        "op_ms": _quantiles([s * 1e3 for s in loop.op_seconds]),
        "errors": loop.errors + problems,
    }
    if trace:
        details["trace_file"] = f"{name}-seed{seed}.json"
        details["spans"] = spans
    return {
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
        "details": details,
    }


def _probe_state(sim: Simulation) -> np.ndarray:
    """The workload's simulation restarted from a moving equilibrium: from
    rest at force 1e-6 the velocities stay so small that the equilibrium's
    quadratic terms sit below the comparison's tolerance."""
    sim.init_equilibrium(RHO0, PROBE_U)
    sim.run(WARMUP_STEPS)
    return sim.gather_state()


def _check_setup(w: Workload, dom: Domain, sparse_path, snapshot, probe) -> None:
    if dom.staged is not None:
        header, records = dom.staged
        if header != dom.header or not records.equals(dom.written):
            raise CheckFailed("preprocess_grid's stages called one by one give other records")
    dense = checks.reference_ic(dom.grid.flags, w.scheme)
    checks.check_ic(dom.written, dense)
    checks.check_ic(dom.read, dense)
    checks.check_neighbours(dom.read, dense, PERIODIC)
    checks.check_sparse_file(sparse_path, w.scheme, dom.written, dom.read)
    if snapshot is not None:
        trt = (dom.read, WARMUP_STEPS, PARAMS.tau_plus, PARAMS.magic_lambda, PARAMS.force, RHO0)
        checks.check_same_state(snapshot, checks.reference_trt(*trt))
        checks.check_same_state(probe, checks.reference_trt(*trt, u0=PROBE_U))
        ref = _simulation(dom.header, dom.read, INVARIANCE_PARTS, Spans(False))
        ref.run(WARMUP_STEPS)
        checks.check_same_state(snapshot, ref.gather_state())


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3


def _layer_metrics(w, dom, loop, last_stats, spans: Spans, prefix, sparse_path, problems) -> dict:
    """Per-layer metrics of a traced run; frees the simulation."""
    n_fluid = dom.header.n_fluid
    if w.solve:
        # one analysis of the partitions the solver runs on
        a = chunk_ranges(n_fluid, w.parts)
        stats, paths = _analyze_op(dom.read, n_fluid, w.parts, prefix, spans)
        try:
            _check_analysis(stats, paths, (checks.link_matrix(dom.read.nbr, a.boundaries), a.sizes))
        except CheckFailed as exc:
            problems.append(str(exc))
        sim, steps = dom.sim, loop
    else:
        stats = last_stats[w.parts]
        # a short solver pass over the same 64 partitions of the Morton domain
        sim = _simulation(dom.header, dom.read, w.parts, spans)
        mass0, _ = checks.solver_totals(sim)
        steps = Loop()
        for _ in range(TRACE_SOLVER_STEPS):
            _timed_step(sim, steps, spans)
        try:
            checks.check_solver_state(sim, mass0, sim.step_count, PARAMS.force[0])
        except CheckFailed as exc:
            problems.append(str(exc))
    ghost_cells = sum(d.n_ghost for d in sim.domains)
    dom.sim = sim = None  # free it before the copy reference allocates

    # other is what the step spends outside compute and exchange, so the
    # three add up to each step's wall time
    other = [s - c - e for s, c, e in zip(steps.op_seconds, steps.compute, steps.exchange)]
    compute_ms = _median_ms(steps.compute)

    stages = ("pipeline.stages", "geometry.load_voxels", "sparse_io.write_sparse",
              "sparse_io.read_sparse", "solver.simulation_init", "solver.init_equilibrium")
    setup_spans = stages if w.solve else stages[:4]
    m = {
        "geometry.load_voxels_s": (spans.total("geometry.load_voxels"), "s"),
        "indexer.find_runs_s": (spans.total("indexer.find_runs"), "s"),
        "indexer.octree_reduce_s": (spans.total("indexer.octree_reduce"), "s"),
        "indexer.assign_contiguous_s": (spans.total("indexer.assign_contiguous"), "s"),
        "indexer.runs": (dom.runs, "count"),
        "adjacency.halo_exchange_s": (spans.total("adjacency.halo_exchange"), "s"),
        "adjacency.build_adjacency_s": (spans.total("adjacency.build_adjacency"), "s"),
        "adjacency.sort_s": (spans.total("adjacency.sort"), "s"),
        "pipeline.preprocess_grid_s": (spans.total("pipeline.preprocess_grid"), "s"),
        "sparse_io.write_s": (spans.total("sparse_io.write_sparse"), "s"),
        "sparse_io.read_s": (spans.total("sparse_io.read_sparse"), "s"),
        "sparse_io.file_mb": (os.stat(sparse_path).st_size / 1e6, "MB"),
        "partition.partition_stats_ms": (_median_ms(spans.durations("partition.partition_stats")), "ms"),
        "partition.emit_histograms_ms": (_median_ms(spans.durations("partition.emit_histograms")), "ms"),
        "partition.remote_links": (stats.total_remote_links, "count"),
        "partition.max_neighbors": (stats.max_neighbor_count, "count"),
        "solver.simulation_init_s": (spans.durations("solver.simulation_init")[-1], "s"),
        "solver.init_equilibrium_s": (spans.durations("solver.init_equilibrium")[-1], "s"),
        "solver.compute_ms": (compute_ms, "ms"),
        "solver.exchange_ms": (_median_ms(steps.exchange), "ms"),
        "solver.other_ms": (_median_ms(other), "ms"),
        "solver.ghost_cells": (ghost_cells, "count"),
        "solver.kernel_gb_per_s": (n_fluid * KERNEL_BYTES_PER_CELL / (compute_ms / 1e3) / 1e9, "GB/s"),
        "machine.copy_gb_per_s": (_copy_gb_per_s(), "GB/s"),
        "trace.setup_s": (sum(spans.total(s) for s in setup_spans), "s"),
        "trace.op_ms_p50": (_median_ms(loop.op_seconds), "ms"),
    }
    m["trace.overhead_ms"] = (len(spans.records) * spans.cost_per_span() * 1e3, "ms")
    return m
