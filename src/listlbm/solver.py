"""List-based D3Q19 TRT flow solver over the sparse representation.

Each partition takes its range of the 1-D fluid cell list, rewrites the
adjacency to local slot ids (ghost slots for remote fluid neighbors,
bounce-back self-references for solid neighbors) and runs a fused
pull-scheme stream-collide step on two population arrays. The step
works over blocks of `_BLOCK` owned cells, so the kernel's temporaries
stay in cache instead of streaming (19, N) arrays through memory.

Within a block the collision runs in pair variables. In STENCIL order
populations 2k + 1 and 2k + 2 are opposites, so the 9 pairs are the row
slices f[1::2] and f[2::2]. Straight after the pull the kernel forms
each pair's sum s = fp + fm and difference d = fp - fm; the density and
momentum, the equilibrium's half sums q and half differences h, and the
TRT relaxation (s at omega+, d at omega-) are all written in s and d,
and the head and tail take the new half sum plus and minus the new half
difference. Population 0 pulls from its own slot, so it is read as a
slice and the pull table has 18 rows.

Every operation is column by column and the moment sums add rows in
one fixed order, so the state is bitwise the same for any block size.
Once per step each partition copies the full 19 populations of its
ghosts from their owners; results are bit-identical for any partition
count.
Each block also checks that every density is positive and finite and
every velocity within Mach `_MAX_MACH`; a failing step raises before any
swap. A step checks the state it pulls, so the state the last step
leaves is checked by the next one.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .adjacency import check_links
from .errors import DivergenceError, NotConvergedError, ParameterError
from .partition import chunk_ranges

__all__ = [
    "LocalDomain",
    "Simulation",
    "TrtParams",
    "macroscopic",
    "poiseuille_error",
]

# population 0 is the rest population; 1..18 follow STENCIL order, so
# populations 2k + 1 and 2k + 2 (k = 0..8) are the 9 opposite pairs:
# heads f[1::2], tails f[2::2]
W = np.array([1.0 / 3.0] + [1.0 / 18.0] * 6 + [1.0 / 36.0] * 12)
OPP = np.array([0] + [((p - 1) ^ 1) + 1 for p in range(1, 19)], dtype=np.int64)
_WP = W[1::2, None]

# owned cells per block of the collide-stream step
_BLOCK = 4096

# health bound next to positive density: Mach |u| sqrt(3) <= 1, that is
# usq = 1.5 |u|^2 <= 0.5 (the rest equilibrium turns negative near Mach 1.41)
_MAX_MACH = 1.0
_MAX_USQ = 0.5 * _MAX_MACH**2


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
        if not (np.shape(self.force) == (3,) and all(map(math.isfinite, self.force))):
            raise ParameterError(f"force must be three finite components, got {self.force}")

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


def _pull_dtype(n_fluid: int) -> type:
    """int32 when the flat index 19 * nslots of any partition fits, else
    int64: nslots = n_own + n_ghost <= N_f, so N_f decides it before
    anything is allocated."""
    return np.int32 if 19 * n_fluid < 2**31 else np.int64


class LocalDomain:
    """One partition's owned cells [lo, hi), ghosts and rewritten adjacency.

    `nbr` is the records' (N_f, 18) adjacency as stored: `nbr[a, i]` is
    the I_c of cell I_c = a + 1's neighbor in stencil direction i, 0 for
    a solid one; the rows of cells [lo, hi) become the (18, n_own) pull
    table, in `_pull_dtype(N_f)`.
    """

    def __init__(self, nbr: np.ndarray, lo: int, hi: int, part: int):
        self.part = part
        self.lo = lo
        self.n_own = hi - lo

        # population p at a cell pulls from the neighbor opposite to its
        # direction of travel; nbr 0 turns into a bounce-back self-pull
        # of the opposite population
        own = nbr[lo - 1 : hi - 1]
        pull = self._pull_flat = np.empty((18, self.n_own), dtype=_pull_dtype(nbr.shape[0]))
        for b0 in range(0, self.n_own, _BLOCK):  # row blocks: one pass over nbr
            pull[:, b0 : b0 + _BLOCK] = own[b0 : b0 + _BLOCK, OPP[1:] - 1].T
        solid = pull == 0
        remote = ~solid & ((pull < lo) | (pull >= hi))
        # ascending I_c, so the ghosts owned by one partition are contiguous
        self.ghost_ic, ghost = np.unique(pull[remote], return_inverse=True)
        self.n_ghost = int(self.ghost_ic.size)
        nslots = self.n_own + self.n_ghost

        pull -= lo
        pull[remote] = self.n_own + ghost
        itype = pull.dtype
        np.copyto(pull, np.arange(self.n_own, dtype=itype), where=solid)
        # flat index p * nslots + slot of populations 1..18; population 0
        # stays in place, so it needs no row
        np.add(pull, OPP[1:, None].astype(itype) * nslots, out=pull, where=solid)
        np.add(pull, np.arange(1, 19, dtype=itype)[:, None] * nslots, out=pull, where=~solid)

        self.f_src = np.zeros((19, nslots))
        self.f_dst = np.zeros((19, nslots))


def _pair_cu(u) -> np.ndarray:
    """(9, n) rows c_p . u of the pair heads p = 1, 3, ..., 17 for the
    velocity rows u[0], u[1], u[2], written out as adds."""
    ux, uy, uz = u
    return np.stack([ux, uy, uz, ux + uy, ux - uy, ux + uz, ux - uz, uy + uz, uy - uz])


def _moments(f0, s, d):
    """Density and raw momentum of the rest row f0, the (9, n) pair sums
    s = fp + fm and differences d = fp - fm. The density adds f0 and the
    rows of s in order; each momentum component adds, written out, the
    signed rows of d whose pair head has that component. Every sum is
    row by row, so each column is summed the same way whatever the
    column count (numpy sums the values of a single column pairwise)."""
    rho = f0 + s[0]
    for row in s[1:]:
        rho += row
    m = np.stack([d[0] + d[3] + d[4] + d[5] + d[6],
                  d[1] + d[3] - d[4] + d[7] + d[8],
                  d[2] + d[5] - d[6] + d[7] - d[8]])
    return rho, m


def _equilibrium(rho, u):
    """D3Q19 equilibrium of density rho (a scalar or length n) and
    velocity rows u[0], u[1], u[2] of length n in pair variables: the
    rest row W_0 rho (1 - 1.5 u.u), the (9, n) half sums
    q = W rho (1 + 4.5 (c.u)^2 - 1.5 u.u) and half differences
    h = 3 W rho c.u of each pair, c its head, so that the head's
    equilibrium is q + h and the tail's q - h; and usq = 1.5 u.u
    (Ma^2 / 2)."""
    cu = _pair_cu(u)
    usq = 1.5 * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    wr = _WP * rho
    h = 3.0 * cu
    h *= wr
    q = np.square(cu, out=cu)
    q *= 4.5
    q += 1.0
    q -= usq
    q *= wr
    return W[0] * rho * (1.0 - usq), q, h, usq


def _collide_stream(domain: LocalDomain, params: TrtParams) -> tuple[int, str] | None:
    """Fused pull + TRT collision + forcing into the destination array,
    one block of `_BLOCK` owned cells at a time, in pair variables: the
    new half sum is (1 - omega+) s / 2 + omega+ q, the new half
    difference (1 - omega-) d / 2 + (omega- h + 3 W rho c.g), and the
    head takes their sum, the tail their difference. The force term is
    always added: a zero force turns a -0.0 population into +0.0 and
    changes nothing else.

    Returns None when every pulled cell has a positive, finite density
    and a velocity within Mach `_MAX_MACH`, else the local index of the
    first cell that has not (NaN fails both) and the bound it fails,
    stopping after its block."""
    f_flat = domain.f_src.reshape(-1)
    omega_plus, omega_minus = params.omega_plus, params.omega_minus
    keep_plus, keep_minus = 0.5 * (1.0 - omega_plus), 0.5 * (1.0 - omega_minus)
    force_p = 3.0 * _WP * _pair_cu(np.asarray(params.force, dtype=float)[:, None])
    # one gather and one difference buffer a step: a fresh (18, B) or
    # (9, B) array each block costs more than the operation filling it
    width = min(_BLOCK, domain.n_own)
    f_buf, d_buf = np.empty(18 * width), np.empty(9 * width)
    for b0 in range(0, domain.n_own, _BLOCK):
        b1 = min(b0 + _BLOCK, domain.n_own)
        n = b1 - b0
        # the pull table's flat indices are in range by construction;
        # mode="clip" lets take write straight into the contiguous buffer
        f = np.take(f_flat, domain._pull_flat[:, b0:b1], mode="clip",
                    out=f_buf[: 18 * n].reshape(18, n))
        f0, fp, fm = domain.f_src[0, b0:b1], f[0::2], f[1::2]
        d = np.subtract(fp, fm, out=d_buf[: 9 * n].reshape(9, n))
        s = np.add(fp, fm, out=fp)
        rho, u = _moments(f0, s, d)
        u /= rho
        rest, q, h, usq = _equilibrium(rho, u)
        # the force term goes into the omega- term, built in q's spent buffer
        s *= keep_plus
        q *= omega_plus
        s += q
        d *= keep_minus
        h *= omega_minus
        h += np.multiply(force_p, rho, out=q)
        d += h
        np.add(s, d, out=domain.f_dst[1::2, b0:b1])
        np.subtract(s, d, out=domain.f_dst[2::2, b0:b1])
        domain.f_dst[0, b0:b1] = f0 - omega_plus * (f0 - rest)
        if not (rho.min() > 0.0 and rho.max() < math.inf and usq.max() <= _MAX_USQ):
            k = int(np.argmin((rho > 0.0) & (rho < math.inf) & (usq <= _MAX_USQ)))
            return b0 + k, ("density not positive" if not rho[k] > 0.0
                            else "density not finite" if rho[k] == math.inf
                            else f"velocity not within Mach {_MAX_MACH:g}")
    return None


def macroscopic(f: np.ndarray, params: TrtParams):
    """Per-cell density and velocity of a (19, n) population array, such
    as `Simulation.gather_state()`, with the half-force correction
    u = (sum c_i f_i + g/2) / rho; u is shaped (n, 3)."""
    rho, m = _moments(f[0], f[1::2] + f[2::2], f[1::2] - f[2::2])
    g = np.asarray(params.force, dtype=float)
    u = (m + 0.5 * g[:, None]) / rho
    return rho, u.T.copy()


class Simulation:
    """Coordinator for N partitions stepping in lockstep.

    The partitions are `chunk_ranges(header.n_fluid, nparts)`: `nparts`
    equal chunks of the fluid cell list. `records` must be sorted by
    I_c, as `preprocess_grid` and `read_sparse` return them; one
    `check_links` call validates them (DataError otherwise), and each
    partition reads its rows of `records.nbr`, not a copy of the whole
    adjacency. It keeps only `coords`, the records' (N_f, 3) cell coordinates
    in I_c order, so a caller that drops the records frees `nbr` and `ic`.
    """

    def __init__(self, header, records, nparts: int, params: TrtParams):
        self.header = header
        self.params = params
        self.assignment = chunk_ranges(header.n_fluid, nparts)
        check_links(records, header)
        self.coords = records.coords
        bounds = [int(b) for b in self.assignment.boundaries]
        self.domains = [
            LocalDomain(records.nbr, lo, hi, p)
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

    def init_equilibrium(self, rho0: float = 1.0, u0=(0.0, 0.0, 0.0)) -> None:
        """Set every slot, owned and ghost, of `f_src` to the equilibrium of
        (rho0, u0), u0 within the bound each step checks. `f_dst` is not
        filled: a step writes all its owned columns before the swap and the
        exchange all its ghost columns after it, so no value set there is read."""
        if not 0.0 < rho0 < math.inf:
            raise ParameterError(f"rho0 must be positive and finite, got {rho0}")
        u = np.asarray(u0, dtype=float)
        # in Python floats, NaN or an overflow to inf fails without a numpy warning
        if not (u.shape == (3,) and 1.5 * sum(x * x for x in u.tolist()) <= _MAX_USQ):
            raise ParameterError(
                f"u0 must be three finite components within Mach {_MAX_MACH:g}, got {u0}")
        rest, q, h, _ = _equilibrium(rho0, u[:, None])
        feq = np.empty((19, 1))
        feq[0], feq[1::2], feq[2::2] = rest, q + h, q - h
        for d in self.domains:
            d.f_src[:] = feq

    def _exchange(self):
        for q, p, dst, src in self._plan:
            t0 = time.perf_counter()
            self.domains[q].f_src[:, dst] = self.domains[p].f_src[:, src]
            self.exchange_seconds[q] += time.perf_counter() - t0

    def step(self) -> None:
        """One stream-collide-exchange cycle for all partitions.

        Raises DivergenceError naming the bound that failed and the
        smallest I_c whose density is not positive (or is NaN), is +inf,
        or whose velocity is above Mach `_MAX_MACH`. Partitions run in I_c
        order and the first failing one raises before any swap: the state
        is unchanged."""
        # an overflowing state ends in the health check, not in warnings
        with np.errstate(all="ignore"):
            for d in self.domains:
                t0 = time.perf_counter()
                bad = _collide_stream(d, self.params)
                self.compute_seconds[d.part] += time.perf_counter() - t0
                if bad is not None:
                    ic = d.lo + bad[0]
                    raise DivergenceError(self.step_count + 1, ic,
                                          tuple(self.coords[ic - 1].tolist()), bad[1])
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


def _ux_profile(sim: Simulation):
    """Mean u_x per y row over all fluid cells, rows sorted ascending."""
    _, u = macroscopic(sim.gather_state(), sim.params)
    ys = sim.coords[:, 1].astype(np.int64)
    counts = np.bincount(ys)
    rows = np.flatnonzero(counts)
    return rows, np.bincount(ys, weights=u[:, 0])[rows] / counts[rows]


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
    if check_every < 1:
        raise ParameterError(f"check_every must be at least 1, got {check_every}")
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
