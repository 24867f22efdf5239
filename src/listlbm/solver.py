"""List-based D3Q19 TRT flow solver over the sparse representation.

Each partition takes its range of the 1-D fluid cell list, rewrites the
adjacency to local slot ids (ghost slots for remote fluid neighbors,
bounce-back self-references for solid neighbors) and runs a fused
pull-scheme stream-collide step on two population arrays. The step
works over blocks of `_BLOCK` owned cells, so the kernel's temporaries
stay in cache instead of streaming (19, N) arrays through memory.

Within a block the collision runs in pair variables. In STENCIL order
populations 2k + 1 and 2k + 2 are opposites, so the 9 pairs are the row
slices f[1::2] and f[2::2]; the pull table gathers the heads and the
tails as two slabs. Straight after the pull the kernel forms each
pair's sum s = fp + fm and difference d = fp - fm; the density and
momentum, the equilibrium and the TRT relaxation (s at omega+, d at
omega-) are all written in s and d, and the head and tail take the new
half sum plus and minus the new half difference. The rates and the
force are folded into per-pair constants once a step (`_Fold`), so the
equilibrium's half sums come out as omega+ times their value and its
half differences as omega- times theirs plus the force term. Every
temporary of every block is a view of one buffer made once a step and
shared by the partitions (`_views`). Population 0 pulls from its own
slot, so it is read as a slice and the pull table has 18 rows.

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
# the populations of the pull table's rows: the pair heads, then the tails
_PULLED = np.r_[1:19:2, 2:19:2]
# the weight of each slab of 3 pairs: the axis pairs (rows 0-2), then two
# slabs of diagonal pairs (rows 3-5 and 6-8)
_W_SLAB = np.array([W[1], W[7], W[7]])[:, None]

# owned cells per block of the collide-stream step, and the rows of n
# doubles a block of n takes in the step's buffer (`_views`)
_BLOCK = 4096
_ROWS = 42

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
    table, in `_pull_dtype(N_f)`. Its rows pull the populations
    `_PULLED`: the pair heads 1, 3, ..., 17, then the tails 2, 4, ..., 18,
    so a block's gather holds the heads and the tails as two contiguous
    (9, n) slabs. The whole list, [1, N_f + 1), has no ghost, and its
    table is written in one pass; any other range takes two, the first
    to find its ghosts. `f_dst` is allocated empty: no value there is read.
    """

    def __init__(self, nbr: np.ndarray, lo: int, hi: int, part: int):
        self.part = part
        self.lo = lo
        self.n_own = hi - lo

        # population p at a cell pulls from the neighbor opposite to its
        # direction of travel; nbr 0 turns into a bounce-back self-pull
        # of the opposite population. The table is written a block of
        # `_BLOCK` columns at a time, each block rewritten while it is in
        # cache, into the flat index of each entry of the populations
        # p = _PULLED: p * nslots + slot for a fluid neighbor and
        # OPP[p] * nslots + the cell's own slot for a solid one. The whole
        # list (lo = 1, hi = N_f + 1) has no remote entry, so it takes one
        # pass: each block's rows are copied in and rewritten at once.
        # Any other range takes two: the first copies the rows in,
        # collects the remote entries and marks them -1, the second gives
        # each its ghost slot, from the inverse in the order the first
        # pass collected them, and rewrites the block.
        # Population 0 stays in place, so it needs no row.
        own = nbr[lo - 1 : hi - 1]
        pull = self._pull_flat = np.empty((18, self.n_own), dtype=_pull_dtype(nbr.shape[0]))
        itype = pull.dtype
        cols = OPP[_PULLED] - 1
        starts = range(0, self.n_own, _BLOCK)
        counts = None  # remote entries per block, when a first pass ran
        if lo == 1 and hi == nbr.shape[0] + 1:
            self.ghost_ic = np.empty(0, dtype=itype)
        else:
            remote = []
            for b0 in starts:
                block = pull[:, b0 : b0 + _BLOCK]
                block[...] = own[b0 : b0 + _BLOCK, cols].T
                # fluid (not 0) and held outside [lo, hi)
                mask = block < lo
                mask &= block != 0
                mask |= block >= hi
                remote.append(block[mask])
                block[mask] = -1
            counts = [r.size for r in remote]
            # ascending I_c, so the ghosts owned by one partition are contiguous
            self.ghost_ic, ghost = np.unique(np.concatenate(remote), return_inverse=True)
            del remote
            # a remote entry becomes its ghost slot + lo, so that adding
            # p * nslots - lo to every entry leaves each fluid one's flat index
            ghost = ghost.astype(itype)
            ghost += self.n_own + lo
        self.n_ghost = int(self.ghost_ic.size)
        nslots = self.n_own + self.n_ghost
        pulled = _PULLED[:, None].astype(itype) * nslots - lo
        # adding pulled leaves a solid entry (0) at pulled; adding rebound
        # + its slot then gives OPP[p] * nslots + slot. Unmasked passes
        # into two reused buffers: an add masked to the solid entries
        # took 8x as long as an unmasked one
        rebound = OPP[_PULLED, None].astype(itype) * nslots - pulled
        width = min(_BLOCK, self.n_own)
        solid_buf = np.empty((18, width), dtype=bool)
        fix_buf = np.empty((18, width), dtype=itype)
        g0 = 0
        for k, b0 in enumerate(starts):
            block = pull[:, b0 : b0 + _BLOCK]
            if counts is None:
                block[...] = own[b0 : b0 + _BLOCK, cols].T
            elif counts[k]:
                block[block < 0] = ghost[g0 : g0 + counts[k]]
                g0 += counts[k]
            n = block.shape[1]
            solid, fix = solid_buf[:, :n], fix_buf[:, :n]
            np.equal(block, 0, out=solid)
            block += pulled
            np.add(rebound, np.arange(b0, b0 + n, dtype=itype), out=fix)
            fix *= solid
            block += fix

        self.f_src = np.zeros((19, nslots))
        self.f_dst = np.empty((19, nslots))


def _pair_cu(u, out) -> np.ndarray:
    """(9, n) rows c_p . u of the pair heads p = 1, 3, ..., 17 for the
    velocity rows u[0], u[1], u[2]: rows 0-2 are u itself (no copy when
    u is already out[:3]), rows 3-8 its written-out sums and differences."""
    ux, uy, uz = u
    out[:3] = u
    np.add(ux, uy, out=out[3])
    np.subtract(ux, uy, out=out[4])
    np.add(ux, uz, out=out[5])
    np.subtract(ux, uz, out=out[6])
    np.add(uy, uz, out=out[7])
    np.subtract(uy, uz, out=out[8])
    return out


def _moments(f0, s, d, out=None):
    """Density and raw momentum of the rest row f0, the (9, n) pair sums
    s = fp + fm and differences d = fp - fm, into `out` = (rho, m) when
    given. The density adds f0 and the rows of s in order; each momentum
    component adds, written out, the signed rows of d whose pair head
    has that component. Every sum is row by row, so each column is
    summed the same way whatever the column count (numpy sums the
    values of a single column pairwise)."""
    if out is None:
        out = np.empty(s.shape[1:]), np.empty((3,) + s.shape[1:])
    rho, (mx, my, mz) = out
    np.add(f0, s[0], out=rho)
    for row in s[1:]:
        rho += row
    np.add(d[0], d[3], out=mx)
    mx += d[4]
    mx += d[5]
    mx += d[6]
    np.add(d[1], d[3], out=my)
    my -= d[4]
    my += d[7]
    my += d[8]
    np.add(d[2], d[5], out=mz)
    mz -= d[6]
    mz += d[7]
    mz -= d[8]
    return out


class _Fold:
    """The TRT rates and the body force folded into per-pair constants,
    made once a step. The 9 pairs fall into two weight classes, rows 0-2
    (axis pairs, W = 1/18) and rows 3-8 (diagonal pairs, 1/36), so every
    constant is a scalar or one value per slab of 3 rows (`_W_SLAB`),
    never a (9, 1) column. Each constant that meets rho holds a weight,
    so rho never meets the factor 4.5 alone. The defaults (unit rates,
    no force) give the plain equilibrium."""

    def __init__(self, omega_plus=1.0, omega_minus=1.0, force=(0.0, 0.0, 0.0)):
        self.keep_rest = 1.0 - omega_plus
        self.keep_plus = 0.5 * (1.0 - omega_plus)
        self.keep_minus = 0.5 * (1.0 - omega_minus)
        self.rest = omega_plus * W[0]
        self.plus = omega_plus * _W_SLAB
        self.plus_sq = 4.5 * omega_plus * _W_SLAB
        # the diagonal pairs' weight: an axis pair's term is twice the
        # per-axis term, a diagonal pair's the sum or difference of two
        self.minus = 3.0 * omega_minus * W[7]
        self.force = 3.0 * W[7] * np.asarray(force, dtype=float)[:, None]


_UNIT = _Fold()


def _views(flat, n):
    """A block of n cells' views of a step's flat buffer, `_ROWS` rows of
    n: the pulled populations f (18 rows; the heads' slab then takes the
    pair sums, the tails' slab the half-difference term h), the pair
    differences d, the equilibrium's scratch (c.u, h, three spare rows,
    usq and rho (1 - usq)) and last the density rho."""
    v = flat[: _ROWS * n].reshape(_ROWS, n)
    return v[0:18], v[18:27], (v[27:36], v[9:18], v[36:39], v[39], v[40]), v[41]


def _equilibrium(rho, u, fold=_UNIT, scratch=None):
    """D3Q19 equilibrium of density rho (a scalar or length n) and
    velocity rows u[0], u[1], u[2] of length n in pair variables, with
    the rates and the force of `fold` folded in. With usq = 1.5 u.u
    (Ma^2 / 2), r = rho (1 - usq) and cu = c . u of each pair head c, it
    returns
      rest = (omega+ W_0) r,
      q = (omega+ W) r + (4.5 omega+ W) rho cu^2, the (9, n) half sums,
      h = rho ((3 omega- W) cu + 3 W c . g), the half differences,
    and usq. At unit rates and no force the head's equilibrium is q + h,
    the tail's q - h and the rest population's `rest`. All of it is
    written into `scratch` (`_views`; fresh when None); its spare rows
    take u^2, then rho and r times each slab's constant."""
    if scratch is None:
        scratch = _views(np.empty(_ROWS * u.shape[1]), u.shape[1])[2]
    cu, h, spare, usq, r = scratch
    _pair_cu(u, out=cu)
    np.square(u, out=spare)
    np.add(spare[0], spare[1], out=usq)
    usq += spare[2]
    usq *= 1.5
    np.subtract(1.0, usq, out=r)
    r *= rho
    # per axis rho (3 omega- W u + 3 W g) at the diagonal weight; the
    # axis pairs take twice it, the diagonal pairs its sums and differences
    hd = np.multiply(u, fold.minus, out=h[:3])
    hd += fold.force
    hd *= rho
    _pair_cu(hd, out=h)
    h[:3] *= 2.0
    q = np.square(cu, out=cu)
    by_slab = q.reshape(3, 3, -1)
    np.multiply(fold.plus_sq, rho, out=spare)
    by_slab *= spare[:, None]
    np.multiply(fold.plus, r, out=spare)
    by_slab += spare[:, None]
    return np.multiply(r, fold.rest, out=r), q, h, usq


def _collide_stream(domain: LocalDomain, fold: _Fold, flat: np.ndarray) -> tuple[int, str] | None:
    """Fused pull + TRT collision + forcing into the destination array,
    one block of `_BLOCK` owned cells at a time, in pair variables: with
    `_equilibrium`'s folded terms, the new half sum is
    (1 - omega+) s / 2 + q, the new half difference (1 - omega-) d / 2 + h,
    the head takes their sum, the tail their difference, and the rest
    population becomes (1 - omega+) f0 + rest. Every temporary is a view
    of `flat`, the step's buffer. The force term is always added: a zero
    force turns a -0.0 population into +0.0 and changes nothing else.

    Returns None when every pulled cell has a positive, finite density
    and a velocity within Mach `_MAX_MACH`, else the local index of the
    first cell that has not (NaN fails both) and the bound it fails,
    stopping after its block."""
    f_flat = domain.f_src.reshape(-1)
    for b0 in range(0, domain.n_own, _BLOCK):
        b1 = min(b0 + _BLOCK, domain.n_own)
        f, d, scratch, rho = _views(flat, b1 - b0)
        # the pull table's flat indices are in range by construction;
        # mode="clip" lets take write straight into the contiguous buffer
        np.take(f_flat, domain._pull_flat[:, b0:b1], mode="clip", out=f)
        f0, fp, fm = domain.f_src[0, b0:b1], f[:9], f[9:]
        np.subtract(fp, fm, out=d)
        s = np.add(fp, fm, out=fp)
        # the momentum takes the spare rows; the velocity, c.u's first rows
        _, m = _moments(f0, s, d, out=(rho, scratch[2]))
        u = np.divide(m, rho, out=scratch[0][:3])
        rest, q, h, usq = _equilibrium(rho, u, fold, scratch)
        s *= fold.keep_plus
        s += q
        d *= fold.keep_minus
        d += h
        np.add(s, d, out=domain.f_dst[1::2, b0:b1])
        np.subtract(s, d, out=domain.f_dst[2::2, b0:b1])
        f0_new = np.multiply(f0, fold.keep_rest, out=domain.f_dst[0, b0:b1])
        f0_new += rest
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
        rest, q, h, _ = _equilibrium(rho0, u[:, None])  # unit rates, no force
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
        p = self.params
        fold = _Fold(p.omega_plus, p.omega_minus, p.force)
        # one buffer a step for every temporary of every block: the
        # partitions step one after another, so they share it
        flat = np.empty(_ROWS * min(_BLOCK, max(d.n_own for d in self.domains)))
        # an overflowing state ends in the health check, not in warnings
        with np.errstate(all="ignore"):
            for d in self.domains:
                t0 = time.perf_counter()
                bad = _collide_stream(d, fold, flat)
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
