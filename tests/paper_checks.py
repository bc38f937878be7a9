"""The paper's lemmas and formulas checked by enumeration, apart from what the commands run."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from shiftunital import (FieldCtx, FieldError, PlanarSpec, ThetaSetup, UnitalDesign,
                         VerificationError, bounds, make_char_field, make_field, make_tower,
                         quadratic_character, spectrum_size, square_spec, trace_table)
from shiftunital.fields import prime_power
from shiftunital.geometry import fiber_map
from shiftunital.gf2rank import RankAccumulator, row_int

from oracles import canonical, chi_array, members


@dataclass(frozen=True, eq=False)
class Circle:
    """C_{a,beta} = {x : theta1*f0(x+a) - theta0*f1(x+a) = beta}."""

    a: int
    beta: int
    points: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class CircleParam:
    """Rational parametrization of a circle, checked against enumeration."""

    points: list[tuple[int, int]]
    source: str                      # "printed" | "corrected"
    formula: str
    discrepancy: dict | None = None


def circle(setup: ThetaSetup, f: PlanarSpec, a: int, beta: int) -> Circle:
    """Exhaustive enumeration of C_{a,beta}."""
    if beta == 0:
        raise FieldError("beta must be nonzero")
    ext = setup.tower.ext
    g = fiber_map(setup, f)
    xs = np.flatnonzero(g[ext.vadd(np.arange(ext.n), a)] == beta)
    return Circle(a=a, beta=beta, points=tuple(int(x) for x in xs))


def _printed_points(setup: ThetaSetup, beta: int) -> tuple[list[tuple[int, int]], str]:
    """The parametrization exactly as printed, before any correction."""
    base = setup.tower.base
    q = base.n
    alpha = setup.tower.alpha
    pts = set()
    if q % 4 == 1:
        if beta == 1:
            for t in range(1, q):
                d = base.add(1, base.mul(alpha, base.mul(t, t)))
                pts.add((base.div(base.sub(1, base.mul(alpha, base.mul(t, t))), d),
                         base.div(base.mul(base.element_from_int(2), t), d)))
            pts.update({(1, 0), (base.neg(1), 0)})
            desc = "x0 = (1-a*t^2)/(1+a*t^2), x1 = 2t/(1+a*t^2), t in GF(q)*, plus (+-1, 0)"
        else:
            for t in range(1, q):
                d = base.add(alpha, base.mul(t, t))
                pts.add((base.div(base.mul(base.element_from_int(2),
                                           base.mul(alpha, t)), d),
                         base.div(base.sub(alpha, base.mul(t, t)), d)))
            pts.update({(0, 1), (0, base.neg(1))})
            desc = "x0 = 2a*t/(a+t^2), x1 = (a-t^2)/(a+t^2), t in GF(q)*, plus (0, +-1)"
    else:
        th0 = setup.theta0
        at = base.sub(alpha, base.mul(th0, th0))
        if beta == 1:
            for t in range(q):
                d = base.add(1, base.mul(at, base.mul(t, t)))
                num = base.sub(base.sub(1, base.mul(base.element_from_int(2),
                                                    base.mul(th0, t))),
                               base.mul(at, base.mul(t, t)))
                pts.add((base.div(num, d),
                         base.div(base.mul(base.element_from_int(2), t), d)))
            pts.add((base.neg(1), 0))
            desc = ("x0 = (1-2*th0*t-at*t^2)/(1+at*t^2), x1 = 2t/(1+at*t^2), "
                    "t in GF(q), plus (-1, 0)")
        else:
            a2 = base.mul(alpha, alpha)
            for t in range(q):
                d = base.add(1, base.mul(at, base.mul(t, t)))
                x0 = base.div(base.div(base.mul(base.element_from_int(2), t),
                                       alpha), d)
                num = base.sub(base.sub(1, base.div(base.mul(base.element_from_int(2),
                                                             base.mul(th0, t)), a2)),
                               base.mul(at, base.mul(t, t)))
                pts.add((x0, base.div(num, d)))
            pts.add((0, base.neg(1)))
            desc = ("x0 = (2t/a)/(1+at*t^2), x1 = (1-2*th0*t/a^2-at*t^2)/(1+at*t^2), "
                    "t in GF(q), plus (0, -1)")
    return sorted(pts), desc


def _corrected_points(setup: ThetaSetup, beta: int) -> tuple[list[tuple[int, int]], str]:
    """Sign/scale-repaired q = 3 (mod 4) parametrizations (the q = 1 case needs none)."""
    base = setup.tower.base
    q = base.n
    alpha = setup.tower.alpha
    th0 = setup.theta0
    at = base.sub(alpha, base.mul(th0, th0))
    pts = set()
    if beta == 1:
        for t in range(q):
            d = base.add(1, base.mul(at, base.mul(t, t)))
            num = base.sub(base.add(1, base.mul(base.element_from_int(2),
                                                base.mul(th0, t))),
                           base.mul(at, base.mul(t, t)))
            pts.add((base.div(num, d),
                     base.div(base.mul(base.element_from_int(2), t), d)))
        pts.add((base.neg(1), 0))
        desc = ("x0 = (1+2*th0*t-at*t^2)/(1+at*t^2), x1 = 2t/(1+at*t^2), "
                "t in GF(q), plus (-1, 0)")
    else:
        for t in range(q):
            d = base.add(1, base.mul(at, base.mul(t, t)))
            x0 = base.div(base.neg(base.mul(base.element_from_int(2),
                                            base.mul(alpha, t))), d)
            num = base.sub(base.sub(1, base.mul(base.element_from_int(2),
                                                base.mul(th0, t))),
                           base.mul(at, base.mul(t, t)))
            pts.add((x0, base.div(num, d)))
        pts.add((0, base.neg(1)))
        desc = ("x0 = -2a*t/(1+at*t^2), x1 = (1-2*th0*t-at*t^2)/(1+at*t^2), "
                "t in GF(q), plus (0, -1)")
    return sorted(pts), desc


def parametrize_circle(setup: ThetaSetup, case: int, beta: int) -> CircleParam:
    """Rational points of C_{0,beta}, beta in {1, alpha}, for f = x^2; enumeration-checked."""
    base = setup.tower.base
    q = base.n
    if case not in (1, 3) or q % 4 != case:
        raise FieldError(f"case {case} does not match q = {q} (mod 4)")
    if beta not in (1, setup.tower.alpha):
        raise FieldError(f"beta must be 1 or alpha = {setup.tower.alpha}")
    f = square_spec(setup.tower.ext)
    enum = circle(setup, f, 0, beta)
    tower = setup.tower
    enum_pairs = sorted((int(tower.dec0[x]), int(tower.dec1[x])) for x in enum.points)

    printed, printed_desc = _printed_points(setup, beta)
    if printed == enum_pairs:
        return CircleParam(points=printed, source="printed", formula=printed_desc)
    discrepancy = {
        "printed_formula": printed_desc,
        "printed_only": [p for p in printed if p not in set(enum_pairs)],
        "enumerated_only": [p for p in enum_pairs if p not in set(printed)],
    }
    if case == 1:
        raise VerificationError(
            f"q = 1 (mod 4) parametrization of C_(0,{beta}) disagrees with "
            f"enumeration: {discrepancy}")
    corrected, corrected_desc = _corrected_points(setup, beta)
    if corrected != enum_pairs:
        raise VerificationError(
            f"no parametrization matches C_(0,{beta}): printed {discrepancy}, "
            f"corrected also fails")
    discrepancy["corrected_formula"] = corrected_desc
    return CircleParam(points=corrected, source="corrected",
                       formula=corrected_desc, discrepancy=discrepancy)


def verify_trace_criterion(setup: ThetaSetup, f: PlanarSpec) -> dict:
    """Tr(u*v*theta1/w) != 0 with w != 0 forces membership; recount the complement."""
    tower = setup.tower
    base = tower.base
    q = base.n
    if setup.theta1 == 0:
        raise FieldError("criterion requires theta1 != 0")
    x0 = tower.dec0.astype(np.int64)
    x1 = tower.dec1.astype(np.int64)
    two = base.element_from_int(2)
    want_f1 = base.vmul(np.full(x0.shape, two, dtype=np.int64), base.vmul(x0, x1))
    if not np.array_equal(tower.dec1[f.table], want_f1):
        raise FieldError("criterion requires the squaring map (f1 = 2*x0*x1)")
    result = spectrum_size(setup, f)
    idx = np.arange(q, dtype=np.int64)
    uv1 = base.vmul(base.vmul(idx[:, None], idx[None, :]), setup.theta1)   # (u, v)
    ratio = base.vmul(uv1[:, :, None], base.vpow(idx[1:], q - 2))          # / w
    qualifies = trace_table(base)[ratio] != 0
    qualifying = int(qualifies.sum())
    zero_trace = qualifies.size - qualifying
    counterexamples = int((qualifies & ~members(result)[:, :, 1:]).sum())
    if counterexamples:
        raise VerificationError(
            f"{counterexamples} qualifying characters are missing from the spectrum")
    paper_expr = (q - 1)**2 * (1 + q // base.p)
    implied = q**2 + qualifying
    lx = bounds(q, base.p, base.m)["leung_xiang"]
    return {"qualifying": qualifying, "zero_trace": zero_trace,
            "paper_zero_trace_expression": paper_expr,
            "recount_matches_paper_expression": zero_trace == paper_expr,
            "implied_lower_bound": implied, "leung_xiang": lx,
            "implied_equals_leung_xiang": implied == lx,
            "counterexamples": 0, "spectrum_size": result.size, "ok": True}


def verify_chi_square_lemma(q: int) -> dict:
    """Sum over c of chi(a*c^2) equals 1 for every a != 0."""
    fld = make_field(*prime_power(q))
    chitab = chi_array(make_char_field(fld.p), fld)
    sq = fld.vpow(np.arange(q, dtype=np.int64), 2)
    one = 1
    for a in range(1, q):
        s = int(np.bitwise_xor.reduce(
            chitab[fld.vmul(np.full(q, a, dtype=np.int64), sq)]))
        if s != one:
            raise VerificationError(f"sum chi({a}*c^2) = {s}, expected 1")
    return {"q": q, "checked": q - 1, "value": 1, "ok": True}


def verify_orthogonality(q: int) -> dict:
    """Character orthogonality on GF(q) and on F_{q^2} coordinates, exhaustively."""
    fld = make_field(*prime_power(q))
    chitab = chi_array(make_char_field(fld.p), fld)
    idx = np.arange(q, dtype=np.int64)
    for w in range(q):
        s = int(np.bitwise_xor.reduce(
            chitab[fld.vmul(np.full(q, w, dtype=np.int64), idx)]))
        want = 1 if w == 0 else 0
        if s != want:
            raise VerificationError(f"sum_t chi({w}*t) = {s}, expected {want}")
    tower = make_tower(fld)
    x0 = tower.dec0.astype(np.int64)
    x1 = tower.dec1.astype(np.int64)
    for u in range(q):
        cu = fld.vmul(np.full(x0.shape, u, dtype=np.int64), x0)
        for v in range(q):
            s = int(np.bitwise_xor.reduce(chitab[fld.vadd(
                cu, fld.vmul(np.full(x1.shape, v, dtype=np.int64), x1))]))
            want = 1 if (u == 0 and v == 0) else 0
            if s != want:
                raise VerificationError(
                    f"sum_x chi({u}*x0+{v}*x1) = {s}, expected {want}")
    return {"q": q, "pointwise": q, "planewise": q * q, "ok": True}


def square_table(ctx: FieldCtx) -> np.ndarray:
    """Boolean table: square_table[x] iff x is a square (0 counts as a square)."""
    out = np.zeros(ctx.n, dtype=bool)
    out[0] = True
    sq = ctx.vpow(np.arange(1, ctx.n), 2)
    out[sq] = True
    return out


def _det(ctx: FieldCtx, mat: list[list[int]]) -> int:
    """Determinant over GF(q) by Gaussian elimination on a copy."""
    n = len(mat)
    a = [row[:] for row in mat]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = ctx.neg(det)
        det = ctx.mul(det, a[col][col])
        inv = ctx.inv(a[col][col])
        for r in range(col + 1, n):
            if a[r][col]:
                factor = ctx.mul(a[r][col], inv)
                for c in range(col, n):
                    a[r][c] = ctx.sub(a[r][c], ctx.mul(factor, a[col][c]))
    return det


def quadratic_form_values(ctx: FieldCtx, form: list[list[int]]) -> np.ndarray:
    """Values x^T F x over all of GF(q)^n in odometer order (last coordinate fastest)."""
    n = len(form)
    q = ctx.n
    grids = np.meshgrid(*([np.arange(q)] * n), indexing="ij")
    coords = [g.ravel() for g in grids]
    vals = np.zeros(q**n, dtype=np.int32)
    for i in range(n):
        for j in range(n):
            fij = form[i][j]
            if fij:
                term = ctx.vmul(np.full(1, fij, dtype=np.int32),
                                ctx.vmul(coords[i], coords[j]))
                vals = ctx.vadd(vals, term)
    return vals


def quadratic_form_count(ctx: FieldCtx, form: list[list[int]], b: int) -> int:
    """Number of solutions of x^T F x = b over GF(q)^n, enumeration checked against the closed form.

    F must be symmetric and nondegenerate.  The closed forms are
    q^(n-1) + v(b) q^(n/2-1) eta((-1)^(n/2) det F)          for even n,
    q^(n-1) + q^((n-1)/2) eta((-1)^((n-1)/2) b det F)       for odd n,
    with v(0) = q-1 and v(b) = -1 otherwise.
    """
    n = len(form)
    q = ctx.n
    for i in range(n):
        if len(form[i]) != n:
            raise FieldError("form matrix must be square")
        for j in range(n):
            if form[i][j] != form[j][i]:
                raise FieldError("form matrix must be symmetric")
    delta = _det(ctx, form)
    if delta == 0:
        raise FieldError("degenerate quadratic form")

    vals = quadratic_form_values(ctx, form)
    count = int(np.count_nonzero(vals == b))

    minus1 = ctx.neg(1)
    if n % 2 == 0:
        v_b = q - 1 if b == 0 else -1
        sign = ctx.pow(minus1, n // 2)
        closed = q ** (n - 1) + v_b * q ** (n // 2 - 1) * quadratic_character(ctx, ctx.mul(sign, delta))
    else:
        sign = ctx.pow(minus1, (n - 1) // 2)
        arg = ctx.mul(ctx.mul(sign, b), delta)
        closed = q ** (n - 1) + q ** ((n - 1) // 2) * quadratic_character(ctx, arg)
    if count != closed:
        raise VerificationError(
            f"quadratic form count mismatch: enumerated {count}, closed form {closed}")
    return count


def verify_dual_ovals(design: UnitalDesign, setup: ThetaSetup) -> dict:
    """Blocks meet every oval evenly; the q oval vectors are independent in the dual."""
    q = design.q
    n = q * q
    blocks = design.blocks
    # B_a rows: the q affine points hit each t-class once, so each oval is met in
    # exactly (a, t*theta) plus (inf) = 2 points
    ba_t = blocks[:n, :q].astype(np.int64) % q
    if not np.array_equal(ba_t, np.tile(np.arange(q), (n, 1))):
        a = int(np.flatnonzero(np.any(ba_t != np.arange(q), axis=1))[0])
        raise VerificationError(f"block B_{a} does not meet every oval in 2 points")
    if not np.all(blocks[:n, q] == design.inf_id):
        raise VerificationError("a B_a block is missing (inf)")
    # B_{a,b} rows: affine only; per-oval meets must be 0 or 2
    res = blocks[n:].astype(np.int64) % q
    for t in range(q):
        cnt = (res == t).sum(axis=1)
        bad = np.flatnonzero((cnt != 0) & (cnt != 2))
        if bad.size:
            i = int(bad[0])
            raise VerificationError(
                f"block {n + i} meets oval t = {t} in {int(cnt[i])} points")
    # independence of the q oval characteristic vectors
    width = design.n_points
    nbytes = (width + 7) >> 3
    acc = RankAccumulator(width)
    for t in range(q):
        pids = [x * q + t for x in range(n)] + [design.inf_id]
        acc.absorb(row_int(pids, nbytes))
    if acc.rank != q:
        raise VerificationError(f"oval vectors span rank {acc.rank}, expected {q}")
    return {"blocks_even": True, "b_a_meet": 2, "oval_rank": q,
            "rank_upper_bound": q**3 - q + 1, "ok": True}


def lambda_vanishes_mod2(fld: FieldCtx, values) -> bool:
    """Whether sum of lambda(c) over the multiset lies in 2*Z[zeta_p], coefficientwise."""
    traces = trace_table(fld)[np.asarray(list(values), dtype=np.int64)]
    counts = np.bincount(traces, minlength=fld.p)
    return all(c % 2 == 0 for c in canonical(tuple(counts.tolist())))
