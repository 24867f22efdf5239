"""Self-tests of the benchmark: a reduced-size pass of every workload
through all of its checks, and for each check one corrupted output that
it must reject.

    python3 -m pytest -q benchmark/test_benchmark.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from listlbm import (  # noqa: E402
    PartitionStats,
    SparseRecords,
    chunk_ranges,
    emit_histograms,
    make_packing,
    parse_scheme,
    partition_stats,
    preprocess_grid,
    read_sparse,
    write_sparse,
)

D = 12  # smallest packing make_packing accepts
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_workload_passes_every_check(name, trace, tmp_path):
    r = workloads.run(name, seed=3, seconds=0.2, trace=trace, workdir=tmp_path, d=D)
    assert r["correct"], r["details"]["errors"]
    assert r["attempted"] >= 1 and r["failed"] == 0, r["details"]["errors"]
    listed = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(r["metrics"]) == sorted(listed)
    for name_, (value, unit) in r["metrics"].items():
        assert np.isfinite(value), name_
        assert unit == next(m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]
                            if m["name"] == name_)


@pytest.fixture(scope="module", params=["lex:b=1", "morton:g=2"])
def domain(request, tmp_path_factory):
    grid = make_packing(D, seed=5)
    header, written = preprocess_grid(grid, parse_scheme(request.param), nranks=8,
                                      periodic=workloads.PERIODIC)
    path = tmp_path_factory.mktemp("sprs") / "d.sprs"
    write_sparse(path, written, header)
    _, read = read_sparse(path)
    dense = checks.reference_ic(grid.flags, request.param)
    return request.param, grid, header, written, read, dense, path


def _copy(rec):
    return SparseRecords(rec.coords.copy(), rec.ic.copy(), rec.nbr.copy())


def test_checks_accept_program_output(domain):
    scheme, _, _, written, read, dense, path = domain
    checks.check_ic(read, dense)
    checks.check_neighbours(read, dense, workloads.PERIODIC)
    checks.check_sparse_file(path, scheme, written, read)


def test_swapped_ic_values_rejected(domain):
    _, _, _, _, read, dense, _ = domain
    bad = _copy(read)
    bad.ic[[10, 20]] = bad.ic[[20, 10]]
    with pytest.raises(CheckFailed):
        checks.check_ic(bad, dense)


def test_neighbour_pointing_at_own_record_rejected(domain):
    _, _, _, _, read, dense, _ = domain
    bad = _copy(read)
    k = int(np.flatnonzero(bad.nbr[:, 0])[0])
    bad.nbr[k, 0] = k + 1
    with pytest.raises(CheckFailed):
        checks.check_neighbours(bad, dense, workloads.PERIODIC)


def test_sparse_file_corruption_rejected(domain, tmp_path):
    scheme, _, _, written, read, _, path = domain
    longer = tmp_path / "longer.sprs"
    shutil.copy(path, longer)
    with open(longer, "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(CheckFailed, match="bytes"):
        checks.check_sparse_file(longer, scheme, written, read)
    bad = _copy(read)
    bad.coords[0, 0] += 1
    with pytest.raises(CheckFailed, match="coords"):
        checks.check_sparse_file(path, scheme, written, bad)


def test_remote_link_count_off_by_one_rejected(domain, tmp_path):
    _, _, header, _, read, _, _ = domain
    a = chunk_ranges(header.n_fluid, 8)
    L = checks.link_matrix(read.nbr, a.boundaries)
    stats = partition_stats(read, a)
    checks.check_partition_stats(stats, L, a.sizes)
    paths = emit_histograms(stats, str(tmp_path / "h"))
    checks.check_histograms(paths, L)

    remote = stats.remote_links.copy()
    remote[3] += 1
    bad = PartitionStats(stats.fluid_cells, stats.neighbor_count, remote)
    with pytest.raises(CheckFailed, match="remote_links"):
        checks.check_partition_stats(bad, L, a.sizes)
    with open(paths[1], "a", encoding="ascii") as fh:
        fh.write("9999,1\n")
    with pytest.raises(CheckFailed):
        checks.check_histograms(paths, L)


def test_changed_population_rejected(domain):
    _, _, header, _, read, _, _ = domain
    ref = workloads._simulation(header, read, 1, workloads.Spans(False))
    sim = workloads._simulation(header, read, 4, workloads.Spans(False))
    mass0, _ = checks.solver_totals(sim)
    ref.run(2)
    sim.run(2)
    checks.check_same_state(sim.gather_state(), ref.gather_state())
    checks.check_solver_state(sim, mass0, sim.step_count, workloads.PARAMS.force[0])

    sim.domains[2].f_src[5, 3] += 1e-6
    with pytest.raises(CheckFailed, match="reference"):
        checks.check_same_state(sim.gather_state(), ref.gather_state())
    with pytest.raises(CheckFailed, match="mass"):
        checks.check_solver_state(sim, mass0, sim.step_count, workloads.PARAMS.force[0])
    sim.domains[2].f_src[5, 3] = np.nan
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.solver_totals(sim)


def _reference(read, params, u0):
    return checks.reference_trt(read, 2, params.tau_plus, params.magic_lambda, params.force,
                                workloads.RHO0, u0)


def _stepped(header, read, params, u0):
    sim = workloads.Simulation(header, read, nparts=1, params=params)
    sim.init_equilibrium(workloads.RHO0, u0)
    sim.run(2)
    return sim.gather_state()


@pytest.mark.parametrize("wrong", [
    dict(tau_plus=0.81),  # omega+ off by about 1 %
    dict(magic_lambda=0.09),  # tau- = tau+: a BGK collision
])
@pytest.mark.parametrize("u0", [(0.0, 0.0, 0.0), workloads.PROBE_U])
def test_wrong_relaxation_rejected(domain, wrong, u0):
    _, _, header, _, read, _, _ = domain
    params = workloads.PARAMS
    checks.check_same_state(_stepped(header, read, params, u0), _reference(read, params, u0))

    bad = workloads.TrtParams(**{"tau_plus": params.tau_plus, "force": params.force, **wrong})
    with pytest.raises(CheckFailed, match="reference"):
        checks.check_same_state(_stepped(header, read, bad, u0), _reference(read, params, u0))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "solve-d48-p1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
