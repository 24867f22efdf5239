import tracemalloc
import warnings
import weakref

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
    SparseRecords,
    TrtParams,
    VoxelGrid,
    make_channel,
    poiseuille_error,
    preprocess_grid,
)
from listlbm import solver
from listlbm.adjacency import STENCIL
from listlbm.solver import OPP, W, macroscopic

# population velocities: the rest population, then STENCIL order
C19 = np.vstack([np.zeros((1, 3), dtype=np.int64), STENCIL])


@pytest.fixture(scope="module")
def channel6_sparse():
    return preprocess_grid(make_channel(6), LexBlocked(1), periodic=(True, False, False))


def make_sim(sparse, nparts=1, **kw):
    header, records = sparse
    params = TrtParams(**kw) if kw else TrtParams(tau_plus=0.8)
    sim = Simulation(header, records, nparts=nparts, params=params)
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
        {"tau_plus": 0.8, "force": (0.0, 0.0)},  # a force needs three components
        {"tau_plus": 0.8, "force": (1e-5, 0.0)},
        {"tau_plus": 0.8, "force": (0, 0, 0, 1)},
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
        rho, u = macroscopic(f, sim.params)
        assert np.abs(rho - 1.0).max() < 1e-14
        assert np.abs(u).max() < 1e-15

    def test_momentum_identity(self, channel6_sparse):
        sim = make_sim(channel6_sparse)
        sim.init_equilibrium(1.0, (0.01, 0.0, 0.0))
        rho, u = macroscopic(sim.gather_state(), sim.params)
        assert np.abs(u[:, 0] - 0.01).max() < 1e-14
        assert np.abs(rho - 1.0).max() < 1e-14

    def test_scaled_density(self, channel6_sparse):
        sim = make_sim(channel6_sparse)
        sim.init_equilibrium(1.2, (0.0, 0.0, 0.0))
        rho, _ = macroscopic(sim.gather_state(), sim.params)
        assert np.abs(rho - 1.2).max() < 1e-14

    def test_rejects_nonpositive_density(self, channel6_sparse):
        sim = make_sim(channel6_sparse)
        for rho0 in (0.0, float("inf")):
            with pytest.raises(ParameterError, match="rho0"):
                sim.init_equilibrium(rho0)

    def test_accepts_a_huge_finite_density(self, channel6_sparse):
        sim = make_sim(channel6_sparse)
        sim.init_equilibrium(1e308)
        sim.run(2)

    def test_a_huge_density_in_motion_stays_finite(self, channel6_sparse):
        """Every product that meets rho holds a weight first: a kernel
        that formed 4.5 rho, or 4.5 rho (c.u)^2 before the weight, would
        overflow at rho = 1e308 once the fluid moves."""
        sim = make_sim(channel6_sparse, nparts=3)
        sim.init_equilibrium(1e308, (0.3, -0.2, 0.1))
        sim.run(3)
        assert np.isfinite(sim.gather_state()).all()

    @pytest.mark.parametrize("u0", [
        (1e200, 0.0, 0.0),  # |u|^2 overflows
        (0.6, 0.0, 0.0),  # Mach 0.6 sqrt(3) = 1.04
        (0.0, float("nan"), 0.0),
        (0.1, 0.0),
    ])
    def test_rejects_velocity_outside_the_health_bound(self, channel6_sparse, u0):
        """A start velocity the step would reject raises ParameterError,
        with no numpy warning and with the state left as it was."""
        sim = make_sim(channel6_sparse)
        before = sim.gather_state()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="within Mach 1"):
                sim.init_equilibrium(1.0, u0)
        assert np.array_equal(sim.gather_state(), before)

    def test_accepts_velocity_just_within_mach_one(self, channel6_sparse):
        sim = make_sim(channel6_sparse)
        sim.init_equilibrium(1.0, (0.57, 0.0, 0.0))  # Mach 0.987
        _, u = macroscopic(sim.gather_state(), sim.params)
        assert np.abs(u[:, 0] - 0.57).max() < 1e-14


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
            before = sim.gather_state().sum()
            sim.step()
            assert abs(sim.gather_state().sum() - before) / before < 1e-12

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
        _, u0 = macroscopic(sim.gather_state(), sim.params)
        sim.step()
        _, u1 = macroscopic(sim.gather_state(), sim.params)
        assert u1[:, 0].mean() - u0[:, 0].mean() == pytest.approx(g, rel=1e-10)

    def test_nan_raises_named_step(self, channel6_sparse):
        sim = make_sim(channel6_sparse)
        sim.run(2)
        sim.domains[0].f_src[4, 7] = np.nan
        # population 4 of I_c=8 streams along c_4 = STENCIL[3] into that
        # neighbour, or bounces back into I_c=8 when the neighbour is solid
        _, records = channel6_sparse
        ic = int(records.nbr[7, 3]) or 8
        x, y, z = records.coords[ic - 1]
        with pytest.raises(DivergenceError, match=rf"step 3 at I_c={ic} \({x}, {y}, {z}\): "):
            sim.step()

    @pytest.mark.parametrize("nparts", [1, 3])
    @pytest.mark.parametrize("pop", [0, 5])
    def test_infinite_density_is_named_where_it_is_pulled(self, channel6_sparse, nparts, pop):
        """A +inf population of I_c=101 fails the density bound at the
        next step, in the cell that pulls it: population 0 stays in its
        cell, population 5 streams along c_5 = STENCIL[4] (or bounces
        back when that neighbour is solid). Its velocity is 0 or NaN, so
        the Mach bound would name it late or under the wrong name."""
        sim = make_sim(channel6_sparse, nparts=nparts)
        sim.run(2)
        d = next(d for d in sim.domains if d.lo <= 101 < d.lo + d.n_own)
        d.f_src[pop, 101 - d.lo] = np.inf
        sim._exchange()  # the ghosts of I_c=101 copy it, as after a step
        before = sim.gather_state()
        _, records = channel6_sparse
        ic = 101 if pop == 0 else int(records.nbr[100, 4]) or 101
        x, y, z = records.coords[ic - 1]
        with pytest.raises(DivergenceError) as info:
            sim.step()
        err = info.value
        assert (err.bound, err.step, err.ic, err.cell) == ("density not finite", 3, ic, (x, y, z))
        assert str(err) == (f"density not finite at step 3 at I_c={ic} ({x}, {y}, {z}): "
                            "the run diverged")
        assert np.array_equal(sim.gather_state(), before, equal_nan=True)

    def test_overflow_raises_divergence(self, channel6_sparse):
        """A state that overflows ends in DivergenceError, not in a numpy
        RuntimeWarning (which the test suite turns into an error)."""
        sim = make_sim(channel6_sparse, tau_plus=0.8, force=(1e300, 0.0, 0.0))
        with pytest.raises(DivergenceError):
            sim.run(5)

    def test_mach_bound_fails_a_run_with_positive_density(self, channel6_sparse):
        """Force 0.1 drives the channel past Mach 1 long before any density
        turns negative; the failing step names the Mach bound and leaves
        the state as it was before that step."""
        sim = make_sim(channel6_sparse, nparts=3, tau_plus=0.8, force=(0.1, 0.0, 0.0))
        with pytest.raises(DivergenceError) as info:
            for _ in range(200):
                before = sim.gather_state()
                sim.step()
        err = info.value
        assert err.bound == "velocity not within Mach 1"
        assert str(err).startswith(f"velocity not within Mach 1 at step {err.step} at I_c={err.ic} ")
        assert err.step == sim.step_count + 1
        assert np.array_equal(sim.gather_state(), before)
        rho, _ = macroscopic(before, sim.params)
        assert rho.min() > 0.0

    def test_divergence_names_the_smallest_failing_cell(self, channel6_sparse, monkeypatch):
        """Cells that fail in a later block, a later partition or by
        density <= 0 instead of NaN do not hide the smallest I_c."""
        monkeypatch.setattr(solver, "_BLOCK", 10)
        sim = make_sim(channel6_sparse, nparts=3)
        _, mid, last = sim.domains
        # population 0 stays in its cell, so each write spoils one density
        last.f_src[0, 3] = np.nan
        mid.f_src[0, 31] = np.nan
        mid.f_src[0, 25] = -1.0
        ic = mid.lo + 25
        x, y, z = sim.coords[ic - 1]
        want = rf"step 1 at I_c={ic} \({x}, {y}, {z}\): "
        with pytest.raises(DivergenceError, match=want) as info:
            sim.step()
        assert (info.value.step, info.value.ic, info.value.cell) == (1, ic, (x, y, z))


class TestBlockedKernel:
    """The step evaluated over column blocks of `_BLOCK` owned cells
    equals the same expression over the whole (19, N_f) array, bit for
    bit, at any block size and partition count."""

    PARAMS = TrtParams(tau_plus=0.8, force=(1e-5, -2e-6, 3e-6))
    STEPS = 3

    @staticmethod
    def states(sparse, nparts, steps):
        sim = Simulation(*sparse, nparts, TestBlockedKernel.PARAMS)
        sim.init_equilibrium(1.0, (0.05, -0.02, 0.03))
        out = []
        for _ in range(steps):
            sim.step()
            out.append(sim.gather_state().view(np.uint64))
        return out

    @pytest.fixture(scope="class")
    def packing24_sparse(self, packing24):
        return preprocess_grid(packing24, LexBlocked(1), periodic=(True, False, False))

    @pytest.fixture(scope="class")
    def whole_array(self, packing24_sparse):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_BLOCK", packing24_sparse[0].n_fluid)
            return self.states(packing24_sparse, 1, self.STEPS)

    # N_f = 37,327: 1000, 4096 and 5000 leave a partial last block; 7
    # partitions hold one full block and a partial one each, 16 hold
    # less than one block each
    @pytest.mark.parametrize("block,nparts", [
        (1, 1), (1000, 1), (4096, 1), (5000, 1), (4096, 7), (4096, 16),
    ])
    def test_equals_whole_array(self, packing24_sparse, whole_array, monkeypatch,
                                block, nparts):
        assert packing24_sparse[0].n_fluid == 37327
        monkeypatch.setattr(solver, "_BLOCK", block)
        # a block of one cell makes N_f blocks, about 4 s a step
        steps = 1 if block == 1 else self.STEPS
        for got, want in zip(self.states(packing24_sparse, nparts, steps), whole_array):
            assert np.array_equal(got, want)


_CF = C19.astype(float)


def reference_equilibrium(rho, u):
    """(19, n) D3Q19 equilibrium, every row from the full formula."""
    cu = _CF[:, 0, None] * u[0] + _CF[:, 1, None] * u[1] + _CF[:, 2, None] * u[2]
    usq = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
    return W[:, None] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * usq)


def reference_pull(state, nbr):
    """The (19, N_f) populations each cell of a state in I_c order pulls:
    population p pulls from the neighbour in direction OPP[p], or bounces
    back from the cell's own OPP[p] where that entry is 0."""
    cells = np.arange(state.shape[1])
    f = np.empty_like(state)
    f[0] = state[0]
    for p in range(1, 19):
        src = nbr[:, OPP[p] - 1].astype(np.int64) - 1
        wall = src < 0
        f[p] = np.where(wall, state[OPP[p]], state[p, np.where(wall, cells, src)])
    return f


def reference_step(state, nbr, params):
    """One pull + TRT + forcing step of a (19, N_f) state in I_c order,
    written as the whole-array expression over all 19 rows."""
    f = reference_pull(state, nbr)
    # the density adds rows in population order and each momentum
    # component is (sum of its c = +1 rows) - (sum of its c = -1 rows)
    rho = f[0].copy()
    for p in range(1, 19):
        rho += f[p]
    m = np.stack([f[C19[:, a] == 1].sum(axis=0) - f[C19[:, a] == -1].sum(axis=0)
                  for a in range(3)])
    feq = reference_equilibrium(rho, m / rho)
    f_opp = f[OPP]
    feq_opp = feq[OPP]
    post = (
        f
        - (0.5 * params.omega_plus) * ((f + f_opp) - (feq + feq_opp))
        - (0.5 * params.omega_minus) * ((f - f_opp) - (feq - feq_opp))
    )
    return post + (3.0 * W * (_CF @ np.asarray(params.force)))[:, None] * rho


_HEADS = C19[1::2]  # pair heads; the tails C19[2::2] are their negatives


def signed_row_sum(rows, signs):
    """The rows whose sign is +1 or -1, added or subtracted one at a time
    in order, starting from the first such row (which has sign +1)."""
    ks = np.flatnonzero(signs)
    assert signs[ks[0]] == 1
    total = rows[ks[0]].copy()
    for k in ks[1:]:
        total = total + rows[k] if signs[k] == 1 else total - rows[k]
    return total


def heads_dot(v):
    """(9, n) rows c . v of the pair heads c for the rows v[0], v[1],
    v[2], each as the signed sum c_x v_x + c_y v_y + c_z v_z."""
    hf = _HEADS.astype(float)
    return hf[:, 0, None] * v[0] + hf[:, 1, None] * v[1] + hf[:, 2, None] * v[2]


def pair_reference_step(state, nbr, params):
    """The step of `reference_step` in the pair variables s = fp + fm and
    d = fp - fm of the 9 pairs (fp, fm) = (f[1::2], f[2::2]), with the
    rates folded into the weights: the density adds f0 and the rows of s
    in order, momentum component a the rows of d signed by the heads'
    c_a; with r = rho (1 - usq), the half sums' term is
    q = (4.5 omega+ W) rho (c.u)^2 + (omega+ W) r and the half
    differences' term h = c . hd scaled by W / W_diagonal, where
    hd = rho ((3 omega- W_diagonal) u + 3 W_diagonal g) per axis; the
    new half sum is (1 - omega+) s / 2 + q, the new half difference
    (1 - omega-) d / 2 + h, the head takes their sum and the tail their
    difference, and the rest population becomes
    (1 - omega+) f0 + (omega+ W_0) r."""
    f = reference_pull(state, nbr)
    s, d = f[1::2] + f[2::2], f[1::2] - f[2::2]
    rho = f[0] + s[0]
    for row in s[1:]:
        rho += row
    u = np.stack([signed_row_sum(d, _HEADS[:, a]) for a in range(3)]) / rho
    cu = heads_dot(u)
    usq = 1.5 * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    r = (1.0 - usq) * rho
    wp, wm = params.omega_plus, params.omega_minus
    wd, wpair = W[7], W[1::2, None]
    hd = ((3.0 * wm * wd) * u + (3.0 * wd) * np.asarray(params.force)[:, None]) * rho
    h = heads_dot(hd) * (wpair / wd)
    q = (cu * cu) * ((4.5 * wp * wpair) * rho) + (wp * wpair) * r
    half_sum = (0.5 * (1.0 - wp)) * s + q
    half_diff = (0.5 * (1.0 - wm)) * d + h
    post = np.empty_like(f)
    post[0] = f[0] * (1.0 - wp) + r * (wp * W[0])
    post[1::2], post[2::2] = half_sum + half_diff, half_sum - half_diff
    return post


class TestPairForm:
    """The kernel works on the pair sums and differences of the 9
    opposite pairs f[1::2], f[2::2]. It must equal the pair-variable
    expression above bit for bit, and the 19-row TRT expression, which
    adds and rounds in another order, to within a few ulps."""

    def test_pair_layout(self):
        # a reorder of STENCIL must fail here, not change the physics
        assert OPP[1::2].tolist() == list(range(2, 19, 2))
        assert OPP[2::2].tolist() == list(range(1, 18, 2))
        assert np.array_equal(C19[2::2], -C19[1::2])
        rng = np.random.default_rng(7)
        u = rng.standard_normal((3, 5))
        assert np.array_equal(solver._pair_cu(u, np.empty((9, 5))), _HEADS @ u)
        # integer rows add exactly, so a wrong sign or row fails here
        f0, s, d = (rng.integers(-1000, 1000, shape).astype(float) for shape in
                    ((50,), (9, 50), (9, 50)))
        rho, m = solver._moments(f0, s, d)
        assert np.array_equal(rho, f0 + s.sum(axis=0))
        assert np.array_equal(m, _HEADS.T @ d)

    def test_pair_equilibrium_matches_full_formula(self):
        """q + h and q - h are the heads' and tails' rows of the 19-row
        equilibrium to within 4 ulps of the largest population."""
        rng = np.random.default_rng(3)
        rho = 1.0 + 0.5 * rng.random(1000)
        u = 0.3 * rng.standard_normal((3, 1000))
        rest, q, h, usq = solver._equilibrium(rho, u)
        full = reference_equilibrium(rho, u)
        assert np.array_equal(usq, 1.5 * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]))
        ulp = np.spacing(np.abs(full).max())
        for got, want in ((rest, full[0]), (q + h, full[1::2]), (q - h, full[2::2])):
            assert np.abs(got - want).max() <= 4 * ulp

    @pytest.mark.parametrize("nparts", [1, 3])
    def test_step_matches_whole_array_formula(self, channel6_sparse, monkeypatch, nparts):
        header, records = channel6_sparse
        assert (records.nbr == 0).any()  # bounce-back links take part
        monkeypatch.setattr(solver, "_BLOCK", 16)
        params = TrtParams(tau_plus=0.8, force=(1e-5, -2e-6, 3e-6))
        assert params.omega_plus != params.omega_minus
        # far from equilibrium in both halves, so omega+ and omega- both act
        rng = np.random.default_rng(11)
        n = header.n_fluid
        state = reference_equilibrium(1.0 + 0.1 * rng.random(n), 0.05 * rng.standard_normal((3, n)))
        state *= 1.0 + 0.2 * (rng.random((19, n)) - 0.5)
        sim = Simulation(header, records, nparts, params)
        for d in sim.domains:
            d.f_src[:, :d.n_own] = state[:, d.lo - 1 : d.lo - 1 + d.n_own]
        sim._exchange()
        sim.step()
        got = sim.gather_state()
        assert np.array_equal(got, pair_reference_step(state, records.nbr, params))
        # the 19-row expression sums and rounds in another order: after
        # one step the two differ by about 1.5e-15 relative
        np.testing.assert_allclose(got, reference_step(state, records.nbr, params),
                                   rtol=4e-15, atol=0)


class TestPartitionInvariance:
    def test_state_identical_across_partition_counts(self, channel6_sparse):
        states = {}
        for nparts in (1, 2, 3, 8):
            sim = make_sim(channel6_sparse, nparts=nparts,
                           tau_plus=0.8, force=(1e-6, 0.0, 0.0))
            sim.run(60)
            states[nparts] = sim.gather_state()
        for nparts in (2, 3, 8):
            assert np.array_equal(states[nparts], states[1])

    def test_numbering_scheme_does_not_change_physics(self):
        grid = make_channel(6)
        fields = {}
        for scheme in (LexBlocked(1), LexBlocked(100), Morton(2)):
            sparse = preprocess_grid(grid, scheme, periodic=(True, False, False))
            sim = make_sim(sparse, nparts=3, tau_plus=0.8, force=(1e-6, 0.0, 0.0))
            sim.run(60)
            coords = sim.coords
            order = np.lexsort((coords[:, 0], coords[:, 1], coords[:, 2]))
            fields[str(scheme)] = sim.gather_state()[:, order]
        values = list(fields.values())
        for other in values[1:]:
            assert np.array_equal(other, values[0])

    @pytest.mark.parametrize("nparts", [1, 5])
    def test_no_value_of_f_dst_is_read(self, channel6_sparse, nparts):
        """`f_dst` is allocated empty: a step writes every owned column and
        the exchange every ghost column before either is read, so NaN
        there changes no bit of the state."""
        params = {"tau_plus": 0.8, "force": (1e-5, 0.0, 0.0)}
        want = make_sim(channel6_sparse, nparts, **params)
        got = make_sim(channel6_sparse, nparts, **params)
        for d in got.domains:
            d.f_dst.fill(np.nan)
        want.run(3)
        got.run(3)
        assert np.array_equal(got.gather_state().view(np.uint64),
                              want.gather_state().view(np.uint64))


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
        with pytest.raises(DataError, match=r"link 0 of I_c=10 at \(9, 1, 1\) to 10 does not"):
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
        assert np.array_equal(sim.coords, records.sorted_by_ic().coords)


class TestSetupMemory:
    def test_peak_stays_near_what_the_domains_keep(self, channel6_sparse, packing24):
        """Each domain reads its rows of `records.nbr` as stored and
        rewrites its pull table a block at a time, so set-up peaks at
        about 1.002x the bytes the domains keep (f_src and f_dst, 38 x 8
        bytes a cell at one partition, and the int32 pull table, 18 x 4).
        One bool mask over the whole table adds 18 bytes a cell, 0.048x,
        and must fail the bound."""
        header, records = preprocess_grid(packing24, LexBlocked(1), periodic=(True, False, False))
        make_sim(channel6_sparse)  # modules imported on a first call are not set-up memory
        tracemalloc.start()
        try:
            sim = Simulation(header, records, 1, TrtParams(tau_plus=0.8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(d.f_src.nbytes + d.f_dst.nbytes + d._pull_flat.nbytes for d in sim.domains)
        assert peak < 1.04 * kept, peak / kept

    @pytest.mark.parametrize("nparts", [1, 4])
    def test_keeps_only_the_coords_of_the_records(self, channel6_sparse, nparts):
        """A caller that drops its records frees their `nbr` and `ic`; the
        Simulation steps as one built from records that stay alive."""
        header, records = preprocess_grid(make_channel(6), LexBlocked(1),
                                          periodic=(True, False, False))
        refs = [weakref.ref(records.nbr), weakref.ref(records.ic)]
        sim = Simulation(header, records, nparts, TrtParams(tau_plus=0.8, force=(1e-5, 0, 0)))
        del records
        assert [ref() for ref in refs] == [None, None]
        sim.init_equilibrium(1.0)
        sim.run(3)
        kept = make_sim(channel6_sparse, nparts, tau_plus=0.8, force=(1e-5, 0, 0))
        kept.run(3)
        assert np.array_equal(sim.gather_state(), kept.gather_state())


class TestStepMemory:
    def test_a_step_allocates_only_its_buffer(self, packing24):
        """Every temporary of every block is a view of the one buffer a
        step makes, `_ROWS` rows of `_BLOCK` doubles; the rest of a step's
        peak is the intp copy of a block's 18 pull-index rows that np.take
        makes from the int32 table. Fresh pair sums and differences per
        block, which live together, outgrow that copy and fail the bound,
        as the equilibrium's (9, _BLOCK) arrays did when they were fresh."""
        header, records = preprocess_grid(packing24, LexBlocked(1), periodic=(True, False, False))
        assert header.n_fluid > solver._BLOCK
        sim = Simulation(header, records, 1, TrtParams(tau_plus=0.8, force=(1e-5, 0, 0)))
        sim.init_equilibrium(1.0)
        sim.step()  # modules imported on a first call are not step memory
        tracemalloc.start()
        try:
            sim.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = (solver._ROWS + 18) * solver._BLOCK * 8 + 64 * 1024
        assert peak < bound, (peak, bound)


class TestPullTable:
    @pytest.mark.parametrize("nparts", [1, 4])
    def test_fixtures_build_an_int32_table(self, channel6_sparse, packing24, nparts):
        packing = preprocess_grid(packing24, Morton(2), periodic=(True, False, False))
        for sparse in (channel6_sparse, packing):
            sim = make_sim(sparse, nparts)
            assert [d._pull_flat.dtype for d in sim.domains] == [np.int32] * nparts

    def test_int32_rule_at_its_boundary(self):
        """19 * N_f < 2^31 holds up to N_f = 113,025,455; the rule reads
        N_f alone, so it is checked here without a table."""
        n = (2**31 - 1) // 19
        assert 19 * n < 2**31 <= 19 * (n + 1)
        assert solver._pull_dtype(n) is np.int32
        assert solver._pull_dtype(n + 1) is np.int64

    @pytest.mark.parametrize("nparts", [1, 3])
    def test_int64_table_steps_the_same_bits(self, channel6_sparse, monkeypatch, nparts):
        params = {"tau_plus": 0.8, "force": (1e-5, 0.0, 0.0)}
        want = make_sim(channel6_sparse, nparts, **params)
        monkeypatch.setattr(solver, "_pull_dtype", lambda n_fluid: np.int64)
        got = make_sim(channel6_sparse, nparts, **params)
        assert got.domains[0]._pull_flat.dtype == np.int64
        for d, e in zip(got.domains, want.domains):
            assert np.array_equal(d._pull_flat, e._pull_flat)
        want.run(3)
        got.run(3)
        assert np.array_equal(got.gather_state().view(np.uint64),
                              want.gather_state().view(np.uint64))


def reference_table(nbr, lo, hi):
    """Ghost I_c and the (18, n_own) pull table of the cells [lo, hi),
    whole-array: row k pulls population p = _PULLED[k] of the neighbor
    against p's direction (STENCIL row OPP[p] - 1), as the flat index
    OPP[p] nslots + slot of its own cell when solid, p nslots + I_c - lo
    when owned, and p nslots + n_own + its rank in the sorted ghosts
    when remote."""
    n_own = hi - lo
    ic = np.stack([nbr[lo - 1 : hi - 1, OPP[p] - 1] for p in solver._PULLED]).astype(np.int64)
    remote = (ic != 0) & ((ic < lo) | (ic >= hi))
    ghosts = np.unique(ic[remote])
    nslots = n_own + ghosts.size
    p = solver._PULLED[:, None]
    slot = np.where(remote, n_own + np.searchsorted(ghosts, ic), ic - lo)
    return ghosts, np.where(ic == 0, OPP[p] * nslots + np.arange(n_own), p * nslots + slot)


class TestPullTableBlocks:
    """`LocalDomain` writes its table in blocks of `_BLOCK` columns, in
    one pass for the whole list (one partition) and two for any other
    range; no block size changes a ghost or an entry."""

    @pytest.fixture(scope="class", params=[LexBlocked(1), Morton(2)],
                    ids=["lex:b=1", "morton:g=2"])
    def packing24_sparse(self, request, packing24):
        return preprocess_grid(packing24, request.param, periodic=(True, False, False))

    # N_f = 37,327: 7 and 64 leave a partial last block in every domain;
    # at the default, 16 partitions hold less than one block each
    @pytest.mark.parametrize("block", [7, 64, "default"])
    @pytest.mark.parametrize("nparts", [1, 3, 16])
    def test_table_equals_a_whole_array_reference(self, packing24_sparse, monkeypatch,
                                                  nparts, block):
        if block != "default":
            monkeypatch.setattr(solver, "_BLOCK", block)
        header, records = packing24_sparse
        sim = Simulation(header, records, nparts, TrtParams(tau_plus=0.8))
        bounds = sim.assignment.boundaries.tolist()
        for d, lo, hi in zip(sim.domains, bounds[:-1], bounds[1:]):
            ghosts, table = reference_table(records.nbr, lo, hi)
            assert np.array_equal(d.ghost_ic, ghosts)
            assert np.array_equal(d._pull_flat, table)


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

    @pytest.mark.parametrize("check_every", [0, -5])
    def test_rejects_check_every_below_one(self, channel6_sparse, check_every):
        """A check every 0 steps would compare the profile with itself and
        call the unstepped state converged."""
        sim = make_sim(channel6_sparse, tau_plus=0.8, force=(1e-6, 0.0, 0.0))
        with pytest.raises(ParameterError, match="check_every"):
            poiseuille_error(sim, check_every=check_every)
        assert sim.step_count == 0

    def test_analytic_centerline_value(self):
        L, g, nu = 30, 1e-6, 1 / 6
        assert g * (L / 2) ** 2 / (2 * nu) == pytest.approx(6.75e-4)
