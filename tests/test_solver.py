import numpy as np
import pytest

from listlbm import (
    DataError,
    DivergenceError,
    LexBlocked,
    Morton,
    NotConvergedError,
    ParameterError,
    Simulation,
    SparseHeader,
    SparseRecords,
    TrtParams,
    VoxelGrid,
    make_channel,
    poiseuille_error,
    preprocess_grid,
    preprocess_to_file,
    read_sparse,
    run_benchmark,
    write_sparse,
)
from listlbm.solver import C19, W, init_equilibrium, macroscopic


@pytest.fixture(scope="module")
def channel6_sparse():
    return preprocess_grid(make_channel(6), LexBlocked(1), periodic=(True, False, False))


def make_sim(sparse, nparts=1, workers=None, **kw):
    header, records = sparse
    params = TrtParams(**kw) if kw else TrtParams(tau_plus=0.8)
    sim = Simulation(header, records, nparts=nparts, params=params, workers=workers)
    sim.init_equilibrium(1.0)
    return sim


class TestTrtParams:
    def test_relaxation_relations(self):
        params = TrtParams(tau_plus=1.0, magic_lambda=3 / 16)
        assert params.nu == pytest.approx(1 / 6)
        assert params.tau_minus == pytest.approx(0.5 + (3 / 16) / 0.5)
        assert params.omega_plus == pytest.approx(1.0)

    def test_rejects_unstable_values(self):
        with pytest.raises(ParameterError):
            TrtParams(tau_plus=0.5)
        with pytest.raises(ParameterError):
            TrtParams(tau_plus=0.8, magic_lambda=0.0)

    @pytest.mark.parametrize("kw", [
        {"tau_plus": float("inf")},
        {"tau_plus": 0.8, "magic_lambda": float("inf")},
        {"tau_plus": 0.8, "force": (float("inf"), 0.0, 0.0)},
        {"tau_plus": 0.8, "force": (0.0, float("nan"), 0.0)},
    ])
    def test_rejects_non_finite_values(self, kw):
        with pytest.raises(ParameterError, match="finite"):
            TrtParams(**kw)

    def test_weights(self):
        assert W.sum() == pytest.approx(1.0)
        assert W[0] == pytest.approx(1 / 3)
        assert sorted(np.unique(W[1:]).tolist()) == [pytest.approx(1 / 36),
                                                     pytest.approx(1 / 18)]


class TestEquilibrium:
    def test_rest_state_is_weights(self, channel6_sparse):
        sim = make_sim(channel6_sparse)
        f = sim.gather_state()
        assert np.allclose(f, W[:, None], atol=1e-16)
        rho, u = sim.macroscopic_all()
        assert np.abs(rho - 1.0).max() < 1e-14
        assert np.abs(u).max() < 1e-15

    def test_momentum_identity(self, channel6_sparse):
        sim = make_sim(channel6_sparse)
        domain = sim.domains[0]
        init_equilibrium(domain, 1.0, (0.01, 0.0, 0.0))
        rho, u = macroscopic(domain, sim.params)
        assert np.abs(u[:, 0] - 0.01).max() < 1e-14
        assert np.abs(rho - 1.0).max() < 1e-14

    def test_scaled_density(self, channel6_sparse):
        sim = make_sim(channel6_sparse)
        domain = sim.domains[0]
        init_equilibrium(domain, 1.2, (0.0, 0.0, 0.0))
        rho, _ = macroscopic(domain, sim.params)
        assert np.abs(rho - 1.2).max() < 1e-14

    def test_rejects_nonpositive_density(self, channel6_sparse):
        sim = make_sim(channel6_sparse)
        with pytest.raises(ParameterError):
            sim.init_equilibrium(0.0)


class TestStep:
    def test_equilibrium_is_fixed_point(self, channel6_sparse):
        sim = make_sim(channel6_sparse, nparts=2)
        before = sim.gather_state().copy()
        sim.run(5)
        assert np.abs(sim.gather_state() - before).max() < 1e-15

    def test_closed_box_at_rest_is_fixed_point(self):
        flags = np.zeros((5, 5, 5), dtype=bool)
        flags[1:4, 1:4, 1:4] = True
        sparse = preprocess_grid(VoxelGrid(flags), LexBlocked(1))
        sim = make_sim(sparse)
        before = sim.gather_state().copy()
        sim.run(10)
        assert np.abs(sim.gather_state() - before).max() < 1e-15

    def test_isolated_cell_bounce_back_closure(self):
        flags = np.zeros((3, 3, 3), dtype=bool)
        flags[1, 1, 1] = True
        sparse = preprocess_grid(VoxelGrid(flags), LexBlocked(1))
        sim = make_sim(sparse)
        before = sim.gather_state().copy()
        sim.run(3)
        assert np.abs(sim.gather_state() - before).max() < 1e-15

    def test_mass_conserved_from_any_state(self, channel6_sparse):
        sim = make_sim(channel6_sparse, nparts=3)
        rng = np.random.default_rng(4)
        for domain in sim.domains:
            domain.f_src[:, :domain.n_own] += 0.01 * rng.random((19, domain.n_own))
        sim._exchange()
        for _ in range(5):
            before = sim.total_mass()
            sim.step()
            assert abs(sim.total_mass() - before) / before < 1e-12

    def test_forcing_adds_momentum_per_step(self):
        grid = VoxelGrid(np.ones((4, 4, 4), dtype=bool))
        sparse = preprocess_grid(grid, LexBlocked(1), periodic=(True, True, True))
        g = 1e-5
        sim = make_sim(sparse, nparts=2, tau_plus=0.9, force=(g, 0.0, 0.0))
        n_fluid = sparse[0].n_fluid
        cx = C19[:, 0].astype(float)

        def raw_x_momentum():
            return float((sim.gather_state() * cx[:, None]).sum())

        before = raw_x_momentum()
        for _ in range(3):
            sim.step()
            after = raw_x_momentum()
            assert after - before == pytest.approx(n_fluid * g, rel=1e-12)
            before = after

    def test_mean_velocity_grows_by_g(self):
        grid = VoxelGrid(np.ones((4, 4, 4), dtype=bool))
        sparse = preprocess_grid(grid, LexBlocked(1), periodic=(True, True, True))
        g = 1e-5
        sim = make_sim(sparse, tau_plus=0.9, force=(g, 0.0, 0.0))
        _, u0 = sim.macroscopic_all()
        sim.step()
        _, u1 = sim.macroscopic_all()
        assert u1[:, 0].mean() - u0[:, 0].mean() == pytest.approx(g, rel=1e-10)

    def test_nan_raises_named_step(self, channel6_sparse):
        sim = make_sim(channel6_sparse)
        sim.run(2)
        sim.domains[0].f_src[4, 7] = np.nan
        with pytest.raises(DivergenceError, match="step 3"):
            sim.step()


class TestPartitionInvariance:
    def test_state_identical_across_partition_counts(self, channel6_sparse):
        states = {}
        for nparts in (1, 2, 3, 8):
            sim = make_sim(channel6_sparse, nparts=nparts,
                           tau_plus=0.8, force=(1e-6, 0.0, 0.0))
            sim.run(60)
            states[nparts] = sim.gather_state()
        for nparts in (2, 3, 8):
            assert np.abs(states[nparts] - states[1]).max() <= 1e-13

    def test_start_table_is_the_default_partition(self, channel6_sparse, tmp_path):
        header, records = channel6_sparse
        path = tmp_path / "stamped.sprs"
        write_sparse(path, records, SparseHeader(header.dims, header.n_fluid, header.scheme_text,
                                                 header.periodic, part_starts=(1, 11, 50)))
        stamped = read_sparse(path)
        params = TrtParams(tau_plus=0.8, force=(1e-5, 0.0, 0.0))
        states = []
        for sparse, nparts in ((stamped, None), (channel6_sparse, None), (stamped, 1)):
            sim = Simulation(*sparse, nparts, params)
            sim.init_equilibrium(1.0, (0.05, -0.02, 0.03))
            sim.run(3)
            states.append((sim.nparts, sim.gather_state()))
        assert [n for n, _ in states] == [3, 1, 1]
        assert np.array_equal(states[0][1], states[1][1])
        assert np.array_equal(states[0][1], states[2][1])

    def test_worker_threads_do_not_change_state(self, channel6_sparse):
        serial = make_sim(channel6_sparse, nparts=8, tau_plus=0.8, force=(1e-6, 0.0, 0.0))
        threaded = make_sim(channel6_sparse, nparts=8, workers=4,
                            tau_plus=0.8, force=(1e-6, 0.0, 0.0))
        serial.run(40)
        threaded.run(40)
        assert np.array_equal(serial.gather_state(), threaded.gather_state())

    def test_numbering_scheme_does_not_change_physics(self):
        grid = make_channel(6)
        fields = {}
        for scheme in (LexBlocked(1), LexBlocked(100), Morton(2)):
            sparse = preprocess_grid(grid, scheme, periodic=(True, False, False))
            sim = make_sim(sparse, nparts=3, tau_plus=0.8, force=(1e-6, 0.0, 0.0))
            sim.run(60)
            coords = sim.gather_coords()
            _, u = sim.macroscopic_all()
            order = np.lexsort((coords[:, 0], coords[:, 1], coords[:, 2]))
            fields[str(scheme)] = u[order]
        values = list(fields.values())
        for other in values[1:]:
            assert np.abs(other - values[0]).max() < 1e-15


class TestLocalization:
    def test_two_cell_domains_exchange_one_ghost(self):
        grid = VoxelGrid(np.ones((1, 1, 2), dtype=bool))
        sparse = preprocess_grid(grid, LexBlocked(1))
        sim = make_sim(sparse, nparts=2)
        assert [d.n_own for d in sim.domains] == [1, 1]
        assert sim.domains[0].ghost_ic.tolist() == [2]
        assert sim.domains[1].ghost_ic.tolist() == [1]

    def test_single_partition_has_no_ghosts(self, channel6_sparse):
        sim = make_sim(channel6_sparse, nparts=1)
        assert sim.domains[0].ghost_ic.size == 0

    def test_ghost_slots_hold_owner_state(self, channel6_sparse):
        header, records = channel6_sparse
        sim = Simulation(header, records, nparts=5,
                         params=TrtParams(tau_plus=0.8, force=(1e-5, 0.0, 0.0)))
        sim.init_equilibrium(1.0, (0.05, -0.02, 0.03))
        sim.run(2)
        state = sim.gather_state()
        for d in sim.domains:
            assert d.n_ghost > 0
            assert np.array_equal(d.f_src[:, d.n_own:], state[:, d.ghost_ic - 1])

    @pytest.mark.parametrize("nparts", [1, 3])
    def test_one_way_link_rejected(self, channel6_sparse, nparts):
        header, records = channel6_sparse
        nbr = records.nbr.copy()
        nbr[9, 0] = 10  # +x of I_c=10 points at itself
        bad = SparseRecords(records.coords, records.ic, nbr)
        with pytest.raises(DataError, match="link 0 of I_c=10 to 10 has no link back"):
            Simulation(header, bad, nparts=nparts, params=TrtParams(tau_plus=0.8))

    def test_neighbor_above_fluid_count_rejected(self, channel6_sparse):
        header, records = channel6_sparse
        nbr = records.nbr.copy()
        nbr[4, 7] = header.n_fluid + 1
        bad = SparseRecords(records.coords, records.ic, nbr)
        with pytest.raises(DataError, match=f"I_c=5 to {header.n_fluid + 1} is outside"):
            Simulation(header, bad, nparts=2, params=TrtParams(tau_plus=0.8))

    def test_unsorted_records_rejected(self, channel6_sparse):
        header, records = channel6_sparse
        idx = np.random.default_rng(0).permutation(len(records))
        shuffled = SparseRecords(records.coords[idx], records.ic[idx], records.nbr[idx])
        with pytest.raises(DataError, match="in order"):
            Simulation(header, shuffled, nparts=2, params=TrtParams(tau_plus=0.8))

    def test_gather_orders_by_contiguous_index(self, channel6_sparse):
        sim = make_sim(channel6_sparse, nparts=8)
        header, records = channel6_sparse
        assert sim.gather_state().shape == (19, header.n_fluid)
        assert np.array_equal(sim.gather_coords(), records.sorted_by_ic().coords)


class TestBenchmark:
    def test_flup_accounting(self, channel6_sparse):
        sim = make_sim(channel6_sparse, nparts=2)
        report = run_benchmark(sim, steps=7, warmup=2)
        assert report.flup_count == channel6_sparse[0].n_fluid * 7
        assert report.flups == pytest.approx(report.flup_count / report.seconds)
        assert report.gflops_est == pytest.approx(report.flups * 200 / 1e9)
        assert len(report.compute_seconds) == 2
        assert len(report.exchange_seconds) == 2

    def test_flup_count_is_deterministic(self, channel6_sparse):
        a = run_benchmark(make_sim(channel6_sparse), steps=5)
        b = run_benchmark(make_sim(channel6_sparse), steps=5)
        assert a.flup_count == b.flup_count

    def test_csv_layout(self, channel6_sparse):
        report = run_benchmark(make_sim(channel6_sparse), steps=3)
        lines = report.csv().splitlines()
        assert lines[0] == "partitions,steps,fluid_cells,seconds,flups,gflops_est"
        assert len(lines) == 2
        assert lines[1].startswith("1,3,")

    def test_rejects_zero_steps(self, channel6_sparse):
        with pytest.raises(ParameterError):
            run_benchmark(make_sim(channel6_sparse), steps=0)


def plate_channel(Y, width=4):
    flags = np.ones((width, Y, width), dtype=bool)
    flags[:, 0, :] = False
    flags[:, Y - 1, :] = False
    return VoxelGrid(flags)


class TestPoiseuille:
    def test_converges_within_tolerance(self):
        sparse = preprocess_grid(plate_channel(16), LexBlocked(1),
                                 periodic=(True, False, True))
        sim = make_sim(sparse, nparts=2, tau_plus=0.8, force=(1e-6, 0.0, 0.0))
        err = poiseuille_error(sim)
        assert err < 2e-2

    def test_zero_force_has_zero_error(self):
        sparse = preprocess_grid(plate_channel(8), LexBlocked(1),
                                 periodic=(True, False, True))
        sim = make_sim(sparse, nparts=1, tau_plus=0.8)
        assert poiseuille_error(sim) == 0.0

    def test_not_converged_reports_residual(self):
        sparse = preprocess_grid(plate_channel(16), LexBlocked(1),
                                 periodic=(True, False, True))
        sim = make_sim(sparse, nparts=1, tau_plus=0.8, force=(1e-6, 0.0, 0.0))
        with pytest.raises(NotConvergedError) as excinfo:
            poiseuille_error(sim, max_steps=200)
        assert excinfo.value.residual > 0

    def test_analytic_centerline_value(self):
        L, g, nu = 30, 1e-6, 1 / 6
        assert g * (L / 2) ** 2 / (2 * nu) == pytest.approx(6.75e-4)
