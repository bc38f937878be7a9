"""Reference implementations that the tests compare the package against.

Each computes by scalar loops or block by block what the package computes in bulk.
"""
from __future__ import annotations

import numpy as np

from shiftunital import (FieldCtx, FieldError, PlanarSpec, SpectrumResult, ThetaSetup,
                         TowerCtx, UnitalDesign, VerificationError, make_char_field,
                         trace_table)
from shiftunital.charspec import SpectrumCtx
from shiftunital.fields import CharFieldCtx
from shiftunital.geometry import _cover_exactly_once, fiber_map
from shiftunital.kloosterman import CyclotomicInt


def theta_multiples(setup: ThetaSetup) -> np.ndarray:
    """Extension-field indices of t*theta for t in GF(q), indexed by t."""
    tower = setup.tower
    q = tower.base.n
    return tower.ext.vmul(tower.embed[np.arange(q)],
                          np.full(q, setup.theta, dtype=np.int64))


def unembed(tower: TowerCtx) -> np.ndarray:
    """ext index -> base index of an element of GF(q), or -1 outside GF(q)."""
    return np.where(tower.dec1 == 0, tower.dec0, -1)


def circles_by_scan(setup: ThetaSetup, f: PlanarSpec) -> np.ndarray:
    """C_{0,beta} at row beta - 1 for beta = 1..q-1, each by one scan of the fiber map."""
    g = fiber_map(setup, f)
    return np.stack([np.flatnonzero(g == b) for b in range(1, setup.tower.base.n)])


def vneg(fld: FieldCtx, a) -> np.ndarray:
    """-a elementwise, from the negation table."""
    return fld.neg_table[a].astype(np.int32)


def recompose(tower: TowerCtx, x0: int, x1: int) -> int:
    """x0 + x1*xi in GF(q^2), the inverse of tower.decompose."""
    ext = tower.ext
    return ext.add(int(tower.embed[x0]), ext.mul(int(tower.embed[x1]), tower.xi))


def member(res: SpectrumResult, u: int, v: int, w: int) -> bool:
    """members_of(u)[v, w]; for w != 0 it must equal lowest_of(u)[v, w] > 0."""
    out = bool(res.members_of(u)[v, w])
    assert w == 0 or out == (res.lowest_of(u)[v, w] > 0), (u, v, w)
    return out


def members(res: SpectrumResult) -> np.ndarray:
    """members_of(u) of every u, indexed [u, v, w]; for w != 0 it must equal lowest_of(u) > 0."""
    out = np.stack([res.members_of(u) for u in range(res.q)])
    for u in range(res.q):
        assert np.array_equal(out[u, :, 1:], res.lowest_of(u)[:, 1:] > 0), u
    return out


def witnesses(res: SpectrumResult, witness_all: bool = False) -> dict:
    """Character index (u*q + v)*q + w -> witness, for every member in index order.

    The witness is the lowest certifying beta, 0 for w = 0; with witness_all,
    members with w != 0 map to the tuple of every certifying beta. One entry
    per member: q^3 - q + 1 of them when the upper bound is met. Members are
    read off members_of(u) and must be the w != 0 entries with lowest_of(u) > 0.
    """
    q = res.q
    out = {}
    for u in range(q):
        mem, low = res.members_of(u), res.lowest_of(u)
        assert np.array_equal(mem[:, 1:], low[:, 1:] > 0), u
        idx = np.flatnonzero(mem)
        vals = low.ravel()[idx].tolist()
        if witness_all:
            sets = res.certifying_sets(u)
            vals = [sets[i] or low for i, low in zip(idx.tolist(), vals)]
        out.update(zip((idx + u * q * q).tolist(), vals))
    return out


def canonical(c: CyclotomicInt) -> tuple[int, ...]:
    """The counts shifted so that N_{p-1} = 0; equal values have equal canonical forms."""
    return tuple(n - c.counts[-1] for n in c.counts)


def cyclotomic_key(c: CyclotomicInt) -> tuple:
    """(p, canonical form): equal exactly when the two values are equal."""
    return c.p, canonical(c)


def cyclotomic_add(a: CyclotomicInt, b: CyclotomicInt) -> CyclotomicInt:
    if a.p != b.p:
        raise FieldError("mixed cyclotomic orders")
    return CyclotomicInt(a.p, [x + y for x, y in zip(a.counts, b.counts)])


def is_real(c: CyclotomicInt) -> bool:
    """Whether the value is fixed by complex conjugation: N_j = N_{p-j} for every j."""
    return all(c.counts[j] == c.counts[c.p - j] for j in range(1, c.p))


def to_int(c: CyclotomicInt) -> int:
    can = canonical(c)
    if any(can[1:]):
        raise FieldError(f"{c!r} is not a rational integer")
    return can[0]


def trace(ctx: FieldCtx, x: int) -> int:
    """Trace of x from GF(p^m) onto GF(p), returned as an element index."""
    acc = 0
    y = x
    for _ in range(ctx.m):
        acc = ctx.add(acc, y)
        y = ctx.pow(y, ctx.p)
    return acc


def chi_array(cf: CharFieldCtx, fld: FieldCtx) -> np.ndarray:
    """chi over all of GF(q), indexed by element."""
    return np.array(cf.eps_pows, dtype=np.int64)[trace_table(fld)]


def chi_block(design: UnitalDesign, chi: tuple[int, int, int], block,
              chitab: np.ndarray | None = None) -> int:
    """Sum of chi(u*x0 + v*x1 + w*t) over a punctured block's points.

    `chitab` is chi_array of the base field, for callers that scan many blocks.
    """
    setup = design.setup
    if setup is None:
        raise FieldError("design lacks a live field context")
    tower = setup.tower
    base = tower.base
    q = design.q
    u, v, w = chi
    pids = np.asarray(block, dtype=np.int64)
    if pids.size and int(pids.max()) >= design.inf_id:
        raise FieldError("chi_block requires punctured blocks (no infinity point)")
    xs = pids // q
    ts = pids % q
    if chitab is None:
        chitab = chi_array(make_char_field(base.p), base)
    args = base.vadd(
        base.vadd(base.vmul(np.full(xs.shape, u, dtype=np.int64),
                            tower.dec0[xs].astype(np.int64)),
                  base.vmul(np.full(xs.shape, v, dtype=np.int64),
                            tower.dec1[xs].astype(np.int64))),
        base.vmul(np.full(ts.shape, w, dtype=np.int64), ts))
    return int(np.bitwise_xor.reduce(chitab[args]))


def s_beta(ctx: SpectrumCtx, chi: tuple[int, int, int], beta: int) -> int:
    """S(beta) = sum over D_beta of chi(u*x0 + v*x1 + w*t)."""
    if beta == 0:
        raise FieldError("beta must be nonzero")
    u, v, w = chi
    tf, b = ctx.trace_form, beta - 1
    k = tf[u, ctx.x0[b]] + tf[v, ctx.x1[b]] + tf[w, ctx.t[b]]
    return int(np.bitwise_xor.reduce(ctx.epsx[k]))


def in_spectrum_by_scan(design: UnitalDesign, chi: tuple[int, int, int]) -> bool:
    """Oracle: scan every block of the punctured design for a nonzero chi sum."""
    if design.setup is None:
        raise FieldError("design lacks a live field context")
    q = design.q
    base = design.setup.tower.base
    chitab = chi_array(make_char_field(base.p), base)
    for i in range(design.n_blocks):
        block = design.blocks[i]
        if i < q * q:
            block = block[:-1]          # strip (inf) from B_a
        if chi_block(design, chi, block, chitab):
            return True
    return False


class ShiftPlane:
    """Incidence of Pi(f): affine (x, y) = x*n + y, infinite (a) = n^2 + a, (inf) last.

    Lines are indexed L_{a,b} = a*n + b, N_a = n^2 + a, L_inf = n^2 + n.
    """

    def __init__(self, spec: PlanarSpec):
        self.spec = spec
        self.ext = spec.field
        self.n = self.ext.n
        self.n_points = self.n**2 + self.n + 1
        self.n_lines = self.n_points
        self.inf_pid = self.n**2 + self.n

    def all_lines(self) -> np.ndarray:
        n = self.n
        ext = self.ext
        idx = np.arange(n, dtype=np.int64)
        lines = np.empty((self.n_lines, n + 1), dtype=np.int64)
        for a in range(n):
            fxa = self.spec.table[ext.vadd(idx, a)].astype(np.int64)
            ys = ext.vsub(fxa[None, :], idx[:, None])       # row b: y = f(x+a) - b
            lines[a * n:(a + 1) * n, :n] = idx[None, :] * n + ys
            lines[a * n:(a + 1) * n, n] = n * n + a
        lines[n * n:n * n + n, :n] = idx[:, None] * n + idx[None, :]
        lines[n * n:n * n + n, n] = self.inf_pid
        lines[n * n + n] = np.arange(n * n, n * n + n + 1)
        return lines

    def point_perm(self, u: int, v: int) -> np.ndarray:
        """The shift map tau_{u,v} as a point permutation."""
        n = self.n
        ext = self.ext
        idx = np.arange(n, dtype=np.int64)
        perm = np.empty(self.n_points, dtype=np.int64)
        px = ext.vadd(idx, u)
        py = ext.vadd(idx, v)
        perm[:n * n] = (px[:, None] * n + py[None, :]).ravel()
        perm[n * n:n * n + n] = n * n + ext.vsub(idx, np.full(n, u, dtype=np.int64))
        perm[self.inf_pid] = self.inf_pid
        return perm

    def line_perm(self, u: int, v: int) -> np.ndarray:
        """Image line indices under tau_{u,v}: L_{a,b} -> L_{a-u,b-v}, N_a -> N_{a+u}."""
        n = self.n
        ext = self.ext
        idx = np.arange(n, dtype=np.int64)
        lperm = np.empty(self.n_lines, dtype=np.int64)
        la = ext.vsub(idx, np.full(n, u, dtype=np.int64))
        lb = ext.vsub(idx, np.full(n, v, dtype=np.int64))
        lperm[:n * n] = (la[:, None] * n + lb[None, :]).ravel()
        lperm[n * n:n * n + n] = n * n + ext.vadd(idx, u)
        lperm[n * n + n] = n * n + n
        return lperm


def _verify_plane_small(plane: ShiftPlane) -> dict:
    """Pair-by-pair oracle: both axioms on the full incidence, and every shift (u, v)."""
    n = plane.n
    lines = plane.all_lines()
    _cover_exactly_once(lines, plane.n_points, n + 1)
    order = np.argsort(lines.ravel(), kind="stable")
    pencils = (order // (n + 1)).reshape(plane.n_points, n + 1)
    _cover_exactly_once(pencils, plane.n_lines, n + 1)
    for u in range(n):
        for v in range(n):
            perm = plane.point_perm(u, v)
            image = np.sort(perm[lines], axis=1)
            if not np.array_equal(image, lines[plane.line_perm(u, v)]):
                raise VerificationError(f"shift map ({u},{v}) does not permute the lines")
    return {"axiom_pairs": "exhaustive", "axiom_meets": "exhaustive",
            "axiom_shifts": "exhaustive"}


def difference_counts(setup: ThetaSetup, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """count[dx*q + dt]: the ordered pairs of distinct points of a block differing by (dx, dt).

    Every difference of every base block, all at once, counted by np.unique.
    """
    tower = setup.tower
    q = tower.base.n
    i, j = np.nonzero(~np.eye(x.shape[1], dtype=bool))
    codes = (tower.ext.vsub(x[:, j], x[:, i]).astype(np.int64) * q
             + tower.base.vsub(t[:, j], t[:, i]))
    count = np.zeros(q**3, dtype=np.int64)
    vals, n = np.unique(codes, return_counts=True)
    count[vals] = n
    return count


def difference_family_fault(setup: ThetaSetup, x: np.ndarray, t: np.ndarray) -> str | None:
    """What geometry._check_difference_family raises for the base blocks x, t, or None.

    The least code whose difference_counts entry differs from the wanted count: 1 for
    each code in [q, q^3), 0 below q.
    """
    q = setup.tower.base.n
    count = difference_counts(setup, x, t)
    want = np.ones(q**3, dtype=np.int64)
    want[:q] = 0
    bad = np.flatnonzero(count != want)
    if not bad.size:
        return None
    c = int(bad[0])
    return (f"difference ({c // q}, {c % q}) arises {count[c]} times in the "
            f"base blocks, expected {want[c]}")
