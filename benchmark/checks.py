"""Correctness checks for the benchmark's outputs.

Every check recomputes what it needs from the voxel grid or from a
property the method must have; none compares against a stored copy of
earlier output. A check returns None when the output is correct and
raises CheckFailed otherwise.
"""

from __future__ import annotations

import os

import numpy as np

from listlbm import STENCIL

RECORD_BYTES = 156  # u32 x, y, z + 18 u64 neighbour entries
FIXED_HEADER_BYTES = 46  # magic, version, X, Y, Z, N_f, periodic bits, scheme length

# x-velocity of each population in the solver's order: rest, then the
# file's 18 stencil directions
_CX = np.concatenate([[0], STENCIL[:, 0]]).astype(float)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _morton2_key(x, y, z):
    # interleave 2-bit groups of x, y, z, x least significant
    key = np.zeros(x.shape, dtype=np.uint64)
    for k in range(10):
        for axis, c in enumerate((x, y, z)):
            group = (c.astype(np.uint64) >> np.uint64(2 * k)) & np.uint64(3)
            key |= group << np.uint64(6 * k + 2 * axis)
    return key


def reference_ic(flags: np.ndarray, scheme_text: str) -> np.ndarray:
    """Dense (Z, Y, X) map of the expected I_c: fluid cells numbered
    1..N_f in the scheme's order, solid cells 0."""
    fl = flags.reshape(-1)
    if scheme_text == "lex:b=1":
        order = None  # row-major, x fastest: the flag array's own order
    elif scheme_text == "morton:g=2":
        z, y, x = np.indices(flags.shape).reshape(3, -1)
        order = np.argsort(_morton2_key(x, y, z), kind="stable")
    else:
        raise ValueError(f"no reference order for scheme {scheme_text!r}")
    ordered = fl if order is None else fl[order]
    ic = np.where(ordered, np.cumsum(ordered, dtype=np.int64), 0)
    if order is None:
        return ic.reshape(flags.shape)
    dense = np.empty_like(ic)
    dense[order] = ic
    return dense.reshape(flags.shape)


def check_ic(records, dense_ic: np.ndarray) -> None:
    """I_c is a bijection onto [1, N_f] that follows the scheme's order."""
    n_fluid = int(dense_ic.max())
    if len(records) != n_fluid:
        raise CheckFailed(f"{len(records)} records for {n_fluid} fluid cells")
    ic = records.ic.astype(np.int64)
    if not np.array_equal(np.sort(ic), np.arange(1, n_fluid + 1)):
        raise CheckFailed("I_c values are not exactly 1..N_f")
    x, y, z = (records.coords[:, a].astype(np.int64) for a in range(3))
    bad = np.flatnonzero(dense_ic[z, y, x] != ic)
    if bad.size:
        k = int(bad[0])
        raise CheckFailed(
            f"record at {(int(x[k]), int(y[k]), int(z[k]))} has I_c {int(ic[k])}, "
            f"expected {int(dense_ic[z[k], y[k], x[k]])}"
        )


def check_neighbours(records, dense_ic: np.ndarray, periodic) -> None:
    """Each entry is the stencil neighbour's I_c when that neighbour is
    fluid and 0 otherwise, with wrap on periodic axes; links are symmetric.
    Records must be sorted by I_c."""
    # pad (z, y, x) by one cell: wrapped copies on periodic axes, solid else
    padded = dense_ic
    for axis, per in zip((2, 1, 0), periodic):
        width = [(0, 0)] * 3
        width[axis] = (1, 1)
        padded = np.pad(padded, width, mode="wrap" if per else "constant")
    x, y, z = (records.coords[:, a].astype(np.int64) + 1 for a in range(3))
    nbr = records.nbr.astype(np.int64)
    for i, (dx, dy, dz) in enumerate(STENCIL):
        expect = padded[z + dz, y + dy, x + dx]
        bad = np.flatnonzero(nbr[:, i] != expect)
        if bad.size:
            k = int(bad[0])
            raise CheckFailed(
                f"record {k + 1} direction {i}: entry {int(nbr[k, i])}, "
                f"voxel grid says {int(expect[k])}"
            )
    a, i = np.nonzero(nbr)
    back = nbr[nbr[a, i] - 1, i ^ 1]
    bad = np.flatnonzero(back != a + 1)
    if bad.size:
        k = int(bad[0])
        raise CheckFailed(f"link {int(a[k]) + 1} -> {int(nbr[a[k], i[k]])} is not mirrored")


def check_sparse_file(path, scheme_text: str, written, read) -> None:
    """File size is header plus one fixed record per fluid cell, and the
    records read back equal the records written."""
    expect = FIXED_HEADER_BYTES + len(scheme_text.encode("ascii")) + 4
    expect += RECORD_BYTES * len(written)
    size = os.stat(path).st_size
    if size != expect:
        raise CheckFailed(f"sparse file has {size} bytes, expected {expect}")
    for field in ("coords", "ic", "nbr"):
        if not np.array_equal(getattr(written, field), getattr(read, field)):
            raise CheckFailed(f"records read back differ in {field}")


def link_matrix(nbr: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """L[p, q]: directed links from partition p's cells into q's range,
    counted by plain comparison against each partition's [lo, hi).
    Records must be sorted by I_c."""
    b = boundaries.astype(np.int64)
    n = b.size - 1
    L = np.zeros((n, n), dtype=np.int64)
    for p in range(n):
        lo, hi = b[p], b[p + 1]
        ent = nbr[lo - 1 : hi - 1].reshape(-1).astype(np.int64)
        remote = np.sort(ent[(ent != 0) & ((ent < lo) | (ent >= hi))])
        L[p] = np.diff(np.searchsorted(remote, b))
    return L


def check_partition_stats(stats, L: np.ndarray, sizes: np.ndarray) -> None:
    """partition_stats agrees with the link matrix, which is symmetric."""
    if not np.array_equal(L, L.T):
        p, q = (int(v[0]) for v in np.nonzero(L != L.T))
        raise CheckFailed(f"links {p}->{q} = {L[p, q]} but {q}->{p} = {L[q, p]}")
    expect = {
        "fluid_cells": sizes,
        "remote_links": L.sum(axis=1),
        "neighbor_count": (L > 0).sum(axis=1),
    }
    for field, want in expect.items():
        got = np.asarray(getattr(stats, field))
        if got.shape != want.shape:
            raise CheckFailed(f"{field} has shape {got.shape}, expected {want.shape}")
        if not np.array_equal(got, want):
            p = int(np.flatnonzero(got != want)[0])
            raise CheckFailed(f"{field} of partition {p}: got {got[p]}, expected {want[p]}")


def _read_bins(path) -> dict[int, int]:
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "bin,count":
        raise CheckFailed(f"{path}: bad header {lines[0]!r}")
    return {int(a): int(b) for a, b in (ln.split(",") for ln in lines[1:])}


def check_histograms(paths, L: np.ndarray) -> None:
    """The two CSV histograms bin the reference counts: unit bins of
    neighbour counts, and 64 equal bins of remote links."""
    neighbours = (L > 0).sum(axis=1)
    values, counts = np.unique(neighbours, return_counts=True)
    if _read_bins(paths[0]) != dict(zip(values.tolist(), counts.tolist())):
        raise CheckFailed(f"{paths[0]} does not bin the neighbour counts")
    remote = L.sum(axis=1)
    width = max(1, -(-(int(remote.max()) + 1) // 64))
    want = {k * width: 0 for k in range(64)}
    for r in remote.tolist():
        want[min(r // width, 63) * width] += 1
    if _read_bins(paths[1]) != want:
        raise CheckFailed(f"{paths[1]} does not bin the remote link counts")


def solver_totals(sim) -> tuple[float, float]:
    """Total mass and raw x-momentum of the owned cells; raises if a
    population is not finite or a density is not positive."""
    mass = 0.0
    px = 0.0
    for d in sim.domains:
        f = d.f_src[:, : d.n_own]
        if not np.isfinite(f).all():
            raise CheckFailed(f"partition {d.part}: non-finite population")
        rho = f.sum(axis=0)
        if not (rho > 0.0).all():
            k = int(np.flatnonzero(~(rho > 0.0))[0])
            raise CheckFailed(f"partition {d.part}: density {rho[k]} at slot {k}")
        mass += float(rho.sum())
        px += float(_CX @ f.sum(axis=1))
    return mass, px


def check_solver_state(sim, mass0: float, steps: int, gx: float) -> None:
    """Mass conserved to round-off (1e-12 per step, as the tier-1 tests
    require); x-momentum positive and at most the injected steps*g*mass."""
    mass, px = solver_totals(sim)
    if abs(mass - mass0) > 1e-12 * max(steps, 1) * mass0:
        raise CheckFailed(f"mass drifted from {mass0!r} to {mass!r} in {steps} steps")
    injected = steps * gx * mass0
    if not 0.0 < px <= injected * (1.0 + 1e-9):
        raise CheckFailed(f"x-momentum {px!r} outside (0, {injected!r}] after {steps} steps")


def reference_trt(records, steps: int, tau_plus: float, magic_lambda: float,
                  force, rho0: float, u0=(0.0, 0.0, 0.0)) -> np.ndarray:
    """(19, N_f) populations in I_c order after `steps` plain D3Q19 TRT
    steps from the equilibrium of (rho0, u0), written from the method's
    formulas and the records alone.

    Population p at a cell pulls the post-collision f_p of the cell at
    x - c_p; where that neighbour entry is 0 it takes the cell's own
    post-collision f of the opposite population (bounce-back). Then
    f <- f - w+ (f+ - feq+) - w- (f- - feq-) + 3 w_p (c_p . g) rho, with
    w+ = 1/tau+, tau- = 1/2 + Lambda / (tau+ - 1/2), feq the second-order
    equilibrium of u = sum c f / rho, and f+-, feq+- the halves of the sum
    and difference of each population and its opposite. Records must be
    sorted by I_c."""
    c = np.vstack([np.zeros((1, 3), dtype=np.int64), STENCIL])
    c2 = (c * c).sum(axis=1)
    w = np.select([c2 == 0, c2 == 1, c2 == 2], [1.0 / 3.0, 1.0 / 18.0, 1.0 / 36.0], 0.0)
    opp = np.array([int(np.flatnonzero((c == -c[p]).all(axis=1))[0]) for p in range(19)])
    cf = c.astype(float)
    omega_plus = 1.0 / tau_plus
    omega_minus = 1.0 / (0.5 + magic_lambda / (tau_plus - 0.5))
    force_term = 3.0 * w * (cf @ np.asarray(force, dtype=float))

    def equilibrium(rho, u):
        cu = cf @ u
        return w[:, None] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * (u * u).sum(axis=0))

    nbr = records.nbr.astype(np.int64)
    n = nbr.shape[0]
    cells = np.arange(n)
    # the file's direction i is c[i + 1]; x - c_p is the direction of -c_p
    upstream = [cells] + [nbr[:, opp[p] - 1] - 1 for p in range(1, 19)]
    f = np.repeat(equilibrium(rho0, np.asarray(u0, dtype=float)[:, None]), n, axis=1)
    for _ in range(steps):
        pulled = np.empty_like(f)
        for p in range(19):
            src = upstream[p]
            wall = src < 0
            pulled[p] = np.where(wall, f[opp[p]], f[p, np.where(wall, cells, src)])
        rho = pulled.sum(axis=0)
        feq = equilibrium(rho, (cf.T @ pulled) / rho)
        f_plus = 0.5 * (pulled + pulled[opp])
        f_minus = 0.5 * (pulled - pulled[opp])
        eq_plus = 0.5 * (feq + feq[opp])
        eq_minus = 0.5 * (feq - feq[opp])
        f = (pulled - omega_plus * (f_plus - eq_plus) - omega_minus * (f_minus - eq_minus)
             + force_term[:, None] * rho)
    return f


def check_same_state(state: np.ndarray, reference: np.ndarray, tol: float = 1e-13) -> None:
    """The program's state equals a reference state within tol."""
    if state.shape != reference.shape:
        raise CheckFailed(f"state shape {state.shape}, reference {reference.shape}")
    diff = np.abs(state - reference)
    worst = float(diff.max()) if diff.size else 0.0
    if not worst <= tol:
        p, k = (int(v[0]) for v in np.nonzero(~(diff <= tol)))
        raise CheckFailed(
            f"population {p} of cell I_c={k + 1} differs by {worst:.3e} "
            f"from the reference state"
        )
