"""End-to-end acceptance checks.

One test per shipped criterion; each prints a single verdict line
(visible with -s, or in the captured output on failure) and carries the
stated tolerance in its asserts.
"""

import time

import numpy as np
import pytest

from listlbm import (
    LexBlocked,
    Morton,
    Simulation,
    TrtParams,
    VoxelGrid,
    chunk_ranges,
    make_channel,
    make_packing,
    partition_stats,
    poiseuille_error,
    preprocess_grid,
    serial_oracle,
    write_sparse,
)
from listlbm.cli import main
from listlbm.solver import macroscopic
from conftest import ic_field

MATRIX_SCHEMES = [LexBlocked(1), LexBlocked(4), LexBlocked(100), Morton(1), Morton(2)]
MATRIX_RANKS = [1, 2, 3, 7, 8, 13]


def verdict(name, fn):
    t0 = time.perf_counter()
    try:
        detail = fn()
    except AssertionError as exc:
        print(f"ACCEPTANCE {name}: FAIL ({exc})")
        raise
    print(f"ACCEPTANCE {name}: PASS ({detail}; {time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def matrix_grids():
    grids = {"channel_d6": make_channel(6), "packing_d24": make_packing(24, 1)}
    for i, dims in enumerate([(32, 32, 32), (17, 9, 24), (31, 5, 13)]):
        X, Y, Z = dims
        rng = np.random.default_rng(100 + i)
        grids[f"random_{X}x{Y}x{Z}"] = VoxelGrid(rng.random((Z, Y, X)) < 0.5)
    return grids


def test_criterion_1_distributed_index_equals_serial_oracle(matrix_grids):
    def body():
        checked = 0
        for gname, grid in matrix_grids.items():
            for scheme in MATRIX_SCHEMES:
                expected = serial_oracle(grid, scheme)
                for P in MATRIX_RANKS:
                    got = ic_field(grid, scheme, nranks=P)
                    assert np.array_equal(got, expected), \
                        f"mismatch for {gname}, {scheme}, P={P}"
                    checked += 1
        return f"{checked} grid/scheme/rank combinations, exact match"

    verdict("1 oracle equivalence", body)


def test_criterion_2_rank_count_keeps_files_byte_identical(matrix_grids, tmp_path):
    def body():
        checked = 0
        path = tmp_path / "records.sprs"
        for gname, grid in matrix_grids.items():
            for scheme in MATRIX_SCHEMES:
                files = []
                for P in MATRIX_RANKS:
                    header, records = preprocess_grid(grid, scheme, nranks=P)
                    write_sparse(path, records, header)
                    files.append(path.read_bytes())
                for P, data in zip(MATRIX_RANKS[1:], files[1:]):
                    assert data == files[0], f"file differs for {gname}, {scheme}, P={P}"
                    checked += 1
        return f"{checked} files byte-identical to 1 rank's at {MATRIX_RANKS[1:]} ranks"

    verdict("2 rank-count determinism", body)


def test_criterion_3_chunk_sizes_balanced_exhaustively():
    def body():
        cases = 0
        for n_fluid in range(1, 201):
            for N in range(1, n_fluid + 1):
                sizes = chunk_ranges(n_fluid, N).sizes
                assert sizes.sum() == n_fluid
                assert sizes.max() - sizes.min() <= 1, (n_fluid, N)
                cases += 1
        return f"{cases} (fluid count, chunk count) pairs, max-min <= 1"

    verdict("3 chunk balance", body)


def test_criterion_4_blocking_factor_trades_links_for_neighbors():
    def body():
        grid = make_packing(50, 1)
        assert grid.dims == (250, 50, 50)
        stats = {}
        for b in (1, 50):
            header, records = preprocess_grid(grid, LexBlocked(b))
            stats[b] = partition_stats(records, chunk_ranges(header.n_fluid, 64))
        assert stats[1].total_remote_links > stats[50].total_remote_links, (
            f"remote links: b=1 {stats[1].total_remote_links} "
            f"vs b=50 {stats[50].total_remote_links}")
        assert stats[50].max_neighbor_count > stats[1].max_neighbor_count, (
            f"max neighbors: b=50 {stats[50].max_neighbor_count} "
            f"vs b=1 {stats[1].max_neighbor_count}")
        return (f"remote links {stats[1].total_remote_links} (b=1) > "
                f"{stats[50].total_remote_links} (b=50); max neighbors "
                f"{stats[50].max_neighbor_count} (b=50) > "
                f"{stats[1].max_neighbor_count} (b=1)")

    verdict("4 blocking-factor trend", body)


def test_criterion_5_poiseuille_profile_and_mass():
    def body():
        Y, width = 32, 4
        g = 1e-6
        flags = np.ones((width, Y, width), dtype=bool)
        flags[:, 0, :] = False
        flags[:, Y - 1, :] = False
        sparse = preprocess_grid(VoxelGrid(flags), LexBlocked(1),
                                 periodic=(True, False, True))
        params = TrtParams(tau_plus=0.8, magic_lambda=3 / 16, force=(g, 0.0, 0.0))
        sim = Simulation(*sparse, nparts=4, params=params)
        sim.init_equilibrium(1.0)

        rows = sim.coords[:, 1].astype(np.int64)
        counts = np.bincount(rows, minlength=Y)[1:Y - 1]

        def profile():
            _, u = macroscopic(sim.gather_state(), params)
            return np.bincount(rows, weights=u[:, 0], minlength=Y)[1:Y - 1] / counts

        mass = sim.gather_state().sum()
        worst_drift = 0.0
        previous = None
        converged = False
        while sim.step_count < 100_000:
            for _ in range(100):
                sim.step()
                new_mass = sim.gather_state().sum()
                worst_drift = max(worst_drift, abs(new_mass - mass) / mass)
                mass = new_mass
            current = profile()
            if previous is not None:
                residual = np.abs(current - previous).max() / np.abs(current).max()
                if residual < 1e-10:
                    converged = True
                    break
            previous = current
        assert converged, "profile did not reach steady state"
        assert worst_drift <= 1e-12, f"mass drift {worst_drift:.2e} per step"

        L = Y - 2
        y_hat = np.arange(1, Y - 1) - 0.5
        analytic = g / (2 * params.nu) * y_hat * (L - y_hat)
        got = profile()
        err = np.linalg.norm(got - analytic) / np.linalg.norm(analytic)
        assert err < 2e-2, f"relative L2 error {err:.3e}"
        # the packaged validation op agrees on the converged state
        assert poiseuille_error(sim) < 2e-2
        return (f"relative L2 error {err:.3e} after {sim.step_count} steps, "
                f"worst mass drift {worst_drift:.1e}/step")

    verdict("5 Poiseuille physics", body)


def test_criterion_6_partition_count_does_not_change_physics():
    def body():
        sparse = preprocess_grid(make_channel(6), LexBlocked(1),
                                 periodic=(True, False, False))
        params = TrtParams(tau_plus=0.8, force=(1e-6, 0.0, 0.0))
        states = {}
        for nparts in (1, 2, 3, 8):
            sim = Simulation(*sparse, nparts=nparts, params=params)
            sim.init_equilibrium(1.0)
            sim.run(200)
            states[nparts] = sim.gather_state()
        for nparts in (2, 3, 8):
            diff = np.abs(states[nparts] - states[1]).max()
            assert np.array_equal(states[nparts], states[1]), f"N={nparts} deviates by {diff:.2e}"
        return "200 steps, states bitwise identical for N = 1, 2, 3 and 8"

    verdict("6 partition-count invariance", body)


def test_criterion_7_flup_accounting(tmp_path, capsys):
    def body():
        voxels, sparse = tmp_path / "c6.voxl", tmp_path / "c6.sprs"
        assert main(["generate", "--channel", "--d", "6", "--out", str(voxels)]) == 0
        assert main(["preprocess", "--in", str(voxels), "--periodic", "x",
                     "--out", str(sparse)]) == 0
        n_fluid = make_channel(6).fluid_count
        capsys.readouterr()
        counts = []
        for _ in range(2):
            assert main(["solve", "--in", str(sparse), "--parts", "2", "--force", "1e-6,0,0",
                         "--steps", "13"]) == 0
            out = capsys.readouterr().out
            fields = dict(f.split("=", 1) for line in out.splitlines() for f in line.split())
            counts.append(int(fields["flup_count"]))
        assert counts == [n_fluid * 13] * 2
        return f"flup count {counts[0]} = {n_fluid} cells x 13 steps on both runs"

    verdict("7 FLUP/s accounting", body)


def link_symmetry_holds(records):
    n = len(records)
    ic = records.ic
    assert np.array_equal(np.sort(ic), np.arange(1, n + 1))
    pos = np.empty(n + 1, dtype=np.int64)
    pos[ic] = np.arange(n)
    for i in range(18):
        target = records.nbr[:, i]
        mask = target > 0
        back = records.nbr[pos[target[mask]], i ^ 1]
        assert np.array_equal(back, ic[mask])


def test_criterion_8_link_symmetry_and_adjacency_invariance():
    def body():
        fixtures = [
            ((16, 16, 16), (False, False, False), 41),
            ((16, 16, 16), (True, True, True), 42),
            ((12, 7, 16), (True, False, True), 43),
            ((5, 16, 3), (False, True, False), 44),
        ]
        grids = []
        for dims, periodic, seed in fixtures:
            X, Y, Z = dims
            rng = np.random.default_rng(seed)
            grids.append((VoxelGrid(rng.random((Z, Y, X)) < 0.5), periodic))
        grids.append((make_channel(3), (True, False, False)))

        links = 0
        for grid, periodic in grids:
            for scheme in MATRIX_SCHEMES:
                _, single = preprocess_grid(grid, scheme, periodic=periodic)
                link_symmetry_holds(single)
                links += int((single.nbr > 0).sum())
                _, eight = preprocess_grid(grid, scheme, nranks=8, periodic=periodic)
                assert single.equals(eight), f"P=8 differs for {scheme}"
        return (f"{links} directed links symmetric over "
                f"{len(grids)} grids x {len(MATRIX_SCHEMES)} schemes; "
                f"8-rank adjacency identical to 1-rank")

    verdict("8 link symmetry / adjacency invariance", body)
