"""List-based D3Q19 TRT flow solver over the sparse representation.

Each partition takes its range of the 1-D fluid cell list, rewrites the
adjacency to local slot ids (ghost slots for remote fluid neighbors,
bounce-back self-references for solid neighbors) and runs a fused
pull-scheme stream-collide step on two population arrays. Once per
step each partition copies the full 19 populations of its ghosts from
their owners; results are bit-identical for any partition count and
any worker scheduling.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adjacency import STENCIL, check_links, check_records
from .errors import DivergenceError, NotConvergedError, ParameterError

__all__ = [
    "BenchReport",
    "LocalDomain",
    "Simulation",
    "TrtParams",
    "init_equilibrium",
    "macroscopic",
    "poiseuille_error",
    "run_benchmark",
]

# population 0 is the rest population; 1..18 follow STENCIL order
C19 = np.vstack([np.zeros((1, 3), dtype=np.int64), STENCIL])
CF = C19.astype(float)
W = np.array([1.0 / 3.0] + [1.0 / 18.0] * 6 + [1.0 / 36.0] * 12)
OPP = np.array([0] + [((p - 1) ^ 1) + 1 for p in range(1, 19)], dtype=np.int64)

# index lists for moment sums; fixed expressions keep the arithmetic
# identical for every partition size
_POS = [np.flatnonzero(C19[:, a] == 1) for a in range(3)]
_NEG = [np.flatnonzero(C19[:, a] == -1) for a in range(3)]

FLOPS_PER_UPDATE = 200


@dataclass(frozen=True)
class TrtParams:
    """Two-relaxation-time parameters and body force (lattice units)."""

    tau_plus: float
    magic_lambda: float = 3.0 / 16.0
    force: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not 0.5 < self.tau_plus < math.inf:
            raise ParameterError(f"tau_plus must be finite and exceed 1/2, got {self.tau_plus}")
        if not 0.0 < self.magic_lambda < math.inf:
            raise ParameterError(
                f"magic lambda must be finite and positive, got {self.magic_lambda}"
            )
        if not all(map(math.isfinite, self.force)):
            raise ParameterError(f"force must be finite, got {self.force}")

    @property
    def nu(self) -> float:
        return (self.tau_plus - 0.5) / 3.0

    @property
    def tau_minus(self) -> float:
        return 0.5 + self.magic_lambda / (self.tau_plus - 0.5)

    @property
    def omega_plus(self) -> float:
        return 1.0 / self.tau_plus

    @property
    def omega_minus(self) -> float:
        return 1.0 / self.tau_minus


class LocalDomain:
    """One partition's owned cells [lo, hi), ghosts and rewritten adjacency.

    `by_dir` is the direction-major adjacency of the whole domain:
    `by_dir[i, a]` is the I_c of the neighbor of cell I_c = a + 1 in
    stencil direction i, 0 for a solid one.
    """

    def __init__(self, coords, by_dir: np.ndarray, lo: int, hi: int, part: int):
        self.part = part
        self.n_own = hi - lo
        self.coords = coords

        # population p at a cell pulls from the neighbor opposite to its
        # direction of travel; nbr 0 turns into a bounce-back self-pull
        # of the opposite population
        src = by_dir[OPP[1:] - 1, lo - 1 : hi - 1]
        solid = src == 0
        remote = ~solid & ((src < lo) | (src >= hi))
        # ascending I_c, so the ghosts owned by one partition are contiguous
        self.ghost_ic = np.unique(src[remote])
        self.n_ghost = int(self.ghost_ic.size)
        nslots = self.n_own + self.n_ghost

        slot = src - lo
        slot[remote] = self.n_own + np.searchsorted(self.ghost_ic, src[remote])
        self_slots = np.arange(self.n_own, dtype=np.int64)
        pull_slot = np.where(solid, self_slots, slot)
        pull_pop = np.where(solid, OPP[1:, None], np.arange(1, 19)[:, None])
        # population 0 stays in place: flat index p * nslots + slot
        self._pull_flat = np.vstack([self_slots, pull_pop * nslots + pull_slot])

        self.f_src = np.zeros((19, nslots))
        self.f_dst = np.zeros((19, nslots))


def init_equilibrium(domain: LocalDomain, rho0: float, u0=(0.0, 0.0, 0.0)) -> None:
    """Set every slot (owned and ghost) to the equilibrium of (rho0, u0)."""
    if not rho0 > 0.0:
        raise ParameterError(f"rho0 must be positive, got {rho0}")
    u = np.asarray(u0, dtype=float)
    cu = CF @ u
    feq = W * rho0 * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * float(u @ u))
    domain.f_src[:] = feq[:, None]
    domain.f_dst[:] = feq[:, None]


def _moments(f: np.ndarray):
    """Density and raw momentum with a partition-size-independent
    summation order."""
    rho = f.sum(axis=0)
    m = np.empty((3, f.shape[1]))
    for a in range(3):
        m[a] = f[_POS[a]].sum(axis=0) - f[_NEG[a]].sum(axis=0)
    return rho, m


def _collide_stream(domain: LocalDomain, params: TrtParams) -> bool:
    """Fused pull + TRT collision + forcing into the destination array.

    Returns whether the density of every pulled cell is positive (False
    also for NaN)."""
    n = domain.n_own
    f = domain.f_src.reshape(-1)[domain._pull_flat]
    rho, m = _moments(f)
    u = m / rho
    cu = (
        CF[:, 0, None] * u[0]
        + CF[:, 1, None] * u[1]
        + CF[:, 2, None] * u[2]
    )
    usq = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
    feq = W[:, None] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * usq)
    f_opp = f[OPP]
    feq_opp = feq[OPP]
    post = (
        f
        - (0.5 * params.omega_plus) * ((f + f_opp) - (feq + feq_opp))
        - (0.5 * params.omega_minus) * ((f - f_opp) - (feq - feq_opp))
    )
    g = params.force
    if g[0] or g[1] or g[2]:
        cg = CF[:, 0] * g[0] + CF[:, 1] * g[1] + CF[:, 2] * g[2]
        post += (3.0 * W * cg)[:, None] * rho
    domain.f_dst[:, :n] = post
    return bool(rho.min() > 0.0)


def macroscopic(domain: LocalDomain, params: TrtParams):
    """Per-cell density and velocity, with the half-force correction
    u = (sum c_i f_i + g/2) / rho."""
    f = domain.f_src[:, : domain.n_own]
    rho, m = _moments(f)
    g = np.asarray(params.force, dtype=float)
    u = (m + 0.5 * g[:, None]) / rho
    return rho, u.T.copy()


class Simulation:
    """Coordinator for N partitions stepping in lockstep.

    The partitions are `header.partition(nparts)`: `nparts` equal chunks,
    or with None the file's start table or one partition. `records` must
    be sorted by I_c, as `preprocess_grid` and `read_sparse` return them;
    each partition takes its slice. Records that fail `check_records` or
    `check_links` raise DataError. Workers only ever write their own
    arrays; the ghost exchange runs at a barrier between steps, so
    results do not depend on scheduling.
    """

    def __init__(self, header, records, nparts: int | None, params: TrtParams,
                 workers: int | None = None):
        self.header = header
        self.params = params
        self.assignment = header.partition(nparts)
        self.workers = workers
        check_records(records, header.n_fluid)
        by_dir = np.ascontiguousarray(records.nbr.T, dtype=np.int64)
        check_links(by_dir)
        bounds = [int(b) for b in self.assignment.boundaries]
        self.domains = [
            LocalDomain(records.coords[lo - 1 : hi - 1], by_dir, lo, hi, p)
            for p, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]
        # exchange plan (q, p, ghost slots of q, own slots of p): each
        # receiver's ghosts from p form one contiguous run of its list
        self._plan = []
        for q, dq in enumerate(self.domains):
            cut = np.searchsorted(dq.ghost_ic, bounds)
            for p in np.flatnonzero(np.diff(cut)):
                g0, g1 = int(cut[p]), int(cut[p + 1])
                dst = slice(dq.n_own + g0, dq.n_own + g1)
                self._plan.append((q, int(p), dst, dq.ghost_ic[g0:g1] - bounds[p]))
        self.step_count = 0
        self.compute_seconds = np.zeros(self.assignment.N)
        self.exchange_seconds = np.zeros(self.assignment.N)

    @property
    def nparts(self) -> int:
        return len(self.domains)

    def init_equilibrium(self, rho0: float = 1.0, u0=(0.0, 0.0, 0.0)) -> None:
        for d in self.domains:
            init_equilibrium(d, rho0, u0)
        self._exchange()

    def _exchange(self):
        for q, p, dst, src in self._plan:
            t0 = time.perf_counter()
            self.domains[q].f_src[:, dst] = self.domains[p].f_src[:, src]
            self.exchange_seconds[q] += time.perf_counter() - t0

    def _compute_one(self, d: LocalDomain) -> bool:
        t0 = time.perf_counter()
        healthy = _collide_stream(d, self.params)
        self.compute_seconds[d.part] += time.perf_counter() - t0
        return healthy

    def step(self) -> None:
        """One stream-collide-exchange cycle for all partitions."""
        if self.workers and self.workers > 1 and len(self.domains) > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                healthy = list(pool.map(self._compute_one, self.domains))
        else:
            healthy = [self._compute_one(d) for d in self.domains]
        if not all(healthy):
            raise DivergenceError(self.step_count + 1)
        for d in self.domains:
            d.f_src, d.f_dst = d.f_dst, d.f_src
        self._exchange()
        self.step_count += 1

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def reset_timers(self):
        self.compute_seconds[:] = 0.0
        self.exchange_seconds[:] = 0.0

    def gather_state(self) -> np.ndarray:
        """(19, N_f) population state assembled in I_c order."""
        return np.concatenate([d.f_src[:, : d.n_own] for d in self.domains], axis=1)

    def gather_coords(self) -> np.ndarray:
        return np.concatenate([d.coords for d in self.domains], axis=0)

    def macroscopic_all(self):
        """(rho, u) over all fluid cells in I_c order."""
        parts = [macroscopic(d, self.params) for d in self.domains]
        rho = np.concatenate([p[0] for p in parts])
        u = np.concatenate([p[1] for p in parts], axis=0)
        return rho, u

    def total_mass(self) -> float:
        return float(sum(d.f_src[:, : d.n_own].sum() for d in self.domains))


@dataclass(frozen=True)
class BenchReport:
    """Throughput report in fluid lattice updates per second."""

    partitions: int
    steps: int
    fluid_cells: int
    seconds: float
    compute_seconds: tuple[float, ...]
    exchange_seconds: tuple[float, ...]

    @property
    def flup_count(self) -> int:
        return self.fluid_cells * self.steps

    @property
    def flups(self) -> float:
        return self.flup_count / max(self.seconds, 1e-12)

    @property
    def gflops_est(self) -> float:
        return self.flups * FLOPS_PER_UPDATE / 1e9

    def csv(self) -> str:
        return (
            "partitions,steps,fluid_cells,seconds,flups,gflops_est\n"
            f"{self.partitions},{self.steps},{self.fluid_cells},"
            f"{self.seconds:.6f},{self.flups:.3f},{self.gflops_est:.6f}\n"
        )


def run_benchmark(sim: Simulation, steps: int, warmup: int = 0) -> BenchReport:
    """Time `steps` updates (after `warmup` untimed ones)."""
    if steps < 1:
        raise ParameterError(f"benchmark needs steps >= 1, got {steps}")
    if warmup:
        sim.run(warmup)
    sim.reset_timers()
    t0 = time.perf_counter()
    sim.run(steps)
    seconds = time.perf_counter() - t0
    return BenchReport(
        partitions=sim.nparts,
        steps=steps,
        fluid_cells=sim.header.n_fluid,
        seconds=seconds,
        compute_seconds=tuple(sim.compute_seconds),
        exchange_seconds=tuple(sim.exchange_seconds),
    )


def _ux_profile(sim: Simulation):
    """Mean u_x per y row over all fluid cells, rows sorted ascending."""
    _, u = sim.macroscopic_all()
    ys = sim.gather_coords()[:, 1].astype(np.int64)
    rows = np.unique(ys)
    sums = np.bincount(ys, weights=u[:, 0], minlength=int(rows.max()) + 1)
    counts = np.bincount(ys, minlength=int(rows.max()) + 1)
    return rows, sums[rows] / counts[rows]


def poiseuille_error(
    sim: Simulation,
    max_steps: int = 200_000,
    check_every: int = 100,
    tol: float = 1e-10,
) -> float:
    """Converge a plate-channel flow and return the relative L2 error of
    u_x(y) against the parabolic profile.

    Geometry expectation: solid plates at y = 0 and y = Y-1, periodic x
    and z, body force along x. The analytic wall sits half a cell off
    the solid nodes, so yhat = j - 1/2 and L = Y - 2.
    """
    gx = sim.params.force[0]
    if gx == 0.0:
        return 0.0
    rows, prof = _ux_profile(sim)
    residual = np.inf
    stepped = 0
    while stepped < max_steps:
        todo = min(check_every, max_steps - stepped)
        sim.run(todo)
        stepped += todo
        rows, new = _ux_profile(sim)
        scale = max(float(np.abs(new).max()), 1e-300)
        residual = float(np.abs(new - prof).max()) / scale
        prof = new
        if residual < tol:
            break
    else:
        raise NotConvergedError(
            f"profile residual {residual:.3e} above {tol:.1e} "
            f"after {max_steps} steps",
            residual=residual,
        )
    Y = sim.header.dims[1]
    L = Y - 2
    yhat = rows.astype(float) - 0.5
    analytic = gx / (2.0 * sim.params.nu) * yhat * (L - yhat)
    return float(np.linalg.norm(prof - analytic) / np.linalg.norm(analytic))
