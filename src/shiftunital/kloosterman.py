"""Exact Kloosterman sums as cyclotomic integers, with the p = 3 mod-4 classification."""
from __future__ import annotations

from typing import NamedTuple

from .fields import FieldCtx, ThetaSetup, _chunk_rows, quadratic_character, trace_table
from .errors import FieldError, VerificationError

import numpy as np

class CyclotomicInt:
    """Sum of N_j * zeta_p^j with integer counts; counts that differ by a constant agree."""

    __slots__ = ("p", "counts")

    def __init__(self, p: int, counts):
        counts = tuple(int(c) for c in counts)
        if len(counts) != p:
            raise FieldError(f"expected {p} counts, got {len(counts)}")
        self.p = p
        self.counts = counts

    def __repr__(self) -> str:
        return f"CyclotomicInt(p={self.p}, counts={self.counts})"


class KloostermanRecord(NamedTuple):
    a: int
    value: object                 # int for p = 3, CyclotomicInt otherwise
    cyclotomic: CyclotomicInt
    mod4: int | None = None


def _trace_counts(fld: FieldCtx, a) -> np.ndarray:
    """The (len(a), p) histogram N_j(a) = #{x != 0 : Tr(1/x + a*x) = j} for an int array a.

    Tr is additive, and at x = omega^k, a = omega^j the term Tr(a*x) is entry j + k
    of the trace sequence of omega, so each row is one gather from that sequence,
    a block of rows at a time. Raises VerificationError at the first a whose sum
    is not real or, for p = 3, breaks the Weil bound K(a)^2 <= 4q.
    """
    p, n = fld.p, fld.n
    a = np.asarray(a, dtype=np.int64)
    seq = np.tile(trace_table(fld)[fld.exp].astype(np.int16), 2)
    win = np.lib.stride_tricks.sliding_window_view(seq, n - 1)   # win[j, k] = Tr(omega^(j+k))
    inv_tr = seq[(-np.arange(n - 1)) % (n - 1)]                  # Tr(1/x) at x = omega^k
    counts = np.zeros((len(a), p), dtype=np.int64)
    step = _chunk_rows(2 * (n - 1))               # int16 trace values, n - 1 per row
    for lo in range(0, len(a), step):
        rows = a[lo:lo + step]
        tr = win[fld.log[rows]]
        tr[rows == 0] = 0
        tr += inv_tr                              # 0..2p - 2: counted without a modulo
        for j in range(2 * p - 1):
            counts[lo:lo + step, j % p] += np.count_nonzero(tr == j, axis=1)
    bad = (counts != counts[:, (-np.arange(p)) % p]).any(axis=1)
    if p == 3:
        bad |= (counts[:, 0] - counts[:, 1]) ** 2 > 4 * n
    if bad.any():
        i = int(np.argmax(bad))
        raise VerificationError(f"K({int(a[i])}) with counts {tuple(counts[i].tolist())} "
                                f"is not real or breaks the Weil bound for q = {n}")
    return counts


def kloosterman(fld: FieldCtx, a: int) -> KloostermanRecord:
    """K(a) = sum over x != 0 of lambda(1/x + a*x), exactly."""
    counts = _trace_counts(fld, [a])[0].tolist()
    cyc = CyclotomicInt(fld.p, counts)
    if fld.p != 3:
        return KloostermanRecord(a=a, value=cyc, cyclotomic=cyc)
    value = counts[0] - counts[1]
    return KloostermanRecord(a=a, value=value, cyclotomic=cyc, mod4=value % 4)


CASES = ("odd_square_trace", "case_b", "case_c")


class KloostermanTable(NamedTuple):
    """K(a) for every a of one field; for p = 3 also each a's case and lowest witness."""

    fld: FieldCtx
    counts: np.ndarray                   # (q, p): the histogram N_j(a) of _trace_counts
    value: np.ndarray | None = None      # p = 3: K(a) = N_0(a) - N_1(a)
    case: np.ndarray | None = None       # p = 3: index into CASES
    t_witness: np.ndarray | None = None  # p = 3: least t not in {0, 1} with t^2 - t^3 = a, or -1


def kloosterman_table(fld: FieldCtx) -> KloostermanTable:
    """Every K(a), one _trace_counts row per Frobenius orbit; for p = 3 each a's mod-4
    case, asserted against K.

    x -> x^p permutes GF(q)* and fixes Tr, so N_j(a^p) = N_j(a) (Lidl-Niederreiter,
    Finite Fields, ch. 5): the rows are counted at a = 0 and at one a = omega^r per
    orbit, r the least j p^i mod (q - 1) of its logs j, and copied to the orbit. The
    cases: odd_square_trace when a = 0 or a = r^2 with Tr(r) != 0 (Tr(-r) =
    -Tr(r), so either root answers); case_b when a = t^2 - t^3 for some t not in
    {0, 1} with eta(t) = 1 or eta(1 - t) = 1; case_c for the other such a. Each a
    must fall in exactly one case, and K(a) must be odd, = 2m + 2 or = 2m mod 4
    in the three cases; VerificationError names the first a that does not.
    """
    n, m = fld.n, fld.m
    least = np.arange(n - 1, dtype=np.min_scalar_type((n - 1) * fld.p))
    conj = least.copy()
    for _ in range(m):              # j p^i mod (q - 1), i = 1..m; i = m is j again
        conj *= fld.p
        conj %= n - 1
        np.minimum(least, conj, out=least)
    reps = np.flatnonzero(least == conj)                   # each orbit's least log
    row_of = np.full(n, reps.size, dtype=least.dtype)      # a -> its row; a = 0: the last
    row_of[fld.exp] = np.searchsorted(reps, least)
    counts = _trace_counts(fld, np.append(fld.exp[reps], 0))[row_of]
    if fld.p != 3:
        return KloostermanTable(fld=fld, counts=counts)
    value = counts[:, 0] - counts[:, 1]
    log = fld.log
    tr = trace_table(fld)
    in_case = np.zeros((len(CASES), n), dtype=bool)
    in_case[0, 0] = True
    in_case[0, 1:] = (log[1:] % 2 == 0) & (tr[fld.exp[log[1:] // 2]] != 0)
    ts = np.arange(2, n)
    one_minus_t = fld.vsub(1, ts)
    a_t = fld.vmul(fld.vmul(ts, ts), one_minus_t)                # t^2 - t^3
    case_t = np.where((log[ts] % 2 == 0) | (log[one_minus_t] % 2 == 0), 1, 2)
    in_case[case_t, a_t] = True
    bad = in_case.sum(axis=0) != 1
    if bad.any():
        a = int(np.argmax(bad))
        tags = [CASES[c] for c in np.flatnonzero(in_case[:, a])]
        raise VerificationError(f"a = {a} falls in cases {tags}, expected exactly one")
    case = in_case.argmax(axis=0)
    # an a with a root t lies in that root's case only, so its least root is its witness
    t_witness = np.full(n, n, dtype=np.int64)
    np.minimum.at(t_witness, a_t, ts)
    t_witness[t_witness == n] = -1
    bad = np.where(case == 0, value % 2 == 0, value % 4 != (2 * m + 4 - 2 * case) % 4)
    if bad.any():
        a = int(np.argmax(bad))
        raise VerificationError(f"a = {a}: K = {int(value[a])} breaks the K mod 4 "
                                f"congruence of case {CASES[case[a]]} at m = {m}")
    return KloostermanTable(fld=fld, counts=counts, value=value, case=case,
                            t_witness=t_witness)


def count_classes(table: KloostermanTable) -> dict:
    """Tallies of the cases over GF(3^m)*, asserted against the closed-form counts."""
    if table.case is None:
        raise FieldError("classification requires characteristic 3")
    m, q = table.fld.m, table.fld.n
    count_a, count_b, count_c = np.bincount(table.case[1:], minlength=len(CASES)).tolist()
    # count_b = (5q - 15)/12 or (5q - 9)/12, count_c = (q + 1)/4 or (q - 1)/4, at odd or
    # even m; compared multiplied out, in integers
    want_b, want_c = (5 * q - 15, q + 1) if m % 2 else (5 * q - 9, q - 1)
    if 12 * count_b != want_b or 4 * count_c != want_c:
        raise VerificationError(
            f"m = {m}: tallies (b, c) = ({count_b}, {count_c}), "
            f"formulas give ({want_b}/12, {want_c}/4)")
    return {"count_a": count_a, "count_b": count_b, "count_c": count_c}


def make_atlas(table: KloostermanTable) -> str:
    """CSV `a_index,K,K_mod4,case,t_witness`; classification columns only for p = 3."""
    fld = table.fld
    lines = [f"# p={fld.p} m={fld.m} modulus={','.join(str(c) for c in fld.modulus)}",
             "a_index,K,K_mod4,case,t_witness"]
    if table.case is None:
        canonical = (table.counts - table.counts[:, -1:]).tolist()
        lines += [f"{a},{':'.join(map(str, row))},,," for a, row in enumerate(canonical)]
    else:
        for a, (k, c, t) in enumerate(zip(table.value.tolist(), table.case.tolist(),
                                          table.t_witness.tolist())):
            lines.append(f"{a},{k},{k % 4},{CASES[c]},{'' if t < 0 else t}")
    return "\n".join(lines) + "\n"


def criterion_constants(setup: ThetaSetup) -> tuple[int, int, int]:
    """(c_u, c_v, bad) of the Kloosterman-sum criterion for chi_{u,v,w}, uv = 0, w != 0.

    The argument of K is c_u u^4/w^2 when v = 0 and c_v v^4/w^2 when u = 0, and
    the criterion is met when K mod 4 != bad. With d = theta0^2 - alpha:
    c_u = -alpha/64, c_v = -1/(64 alpha), bad = 2 for q = 1 mod 4, and
    c_u = d/64, c_v = alpha^2 d/64, bad = 0 for q = 3 mod 4. FieldError unless
    p = 3 and theta follows the recipe of construct_theta.
    """
    base = setup.tower.base
    if base.p != 3:
        raise FieldError("the criterion is implemented for characteristic 3 only")
    alpha = setup.tower.alpha
    inv64 = base.inv(base.element_from_int(64))
    if base.n % 4 == 1:
        if (setup.theta0, setup.theta1) != (0, 1):
            raise FieldError("theta must be xi (the q = 1 mod 4 recipe)")
        return (base.neg(base.mul(alpha, inv64)), base.neg(base.div(inv64, alpha)), 2)
    d = base.sub(base.mul(setup.theta0, setup.theta0), alpha)
    if setup.theta1 != 1 or quadratic_character(base, d) != -1:
        raise FieldError("theta must follow the q = 3 mod 4 recipe")
    return base.mul(d, inv64), base.mul(base.mul(base.mul(alpha, alpha), d), inv64), 0


def criterion_grid(setup: ThetaSetup, table: KloostermanTable) -> np.ndarray:
    """met[0, u, w] for chi_{u,0,w} and met[1, v, w] for chi_{0,v,w}, from the K table.

    Indexed by element; False where u, v or w is 0. Agrees with
    thm_membership_criterion wherever that is defined.
    """
    c_u, c_v, bad = criterion_constants(setup)
    fld = table.fld
    if fld is not setup.tower.base:
        raise FieldError("the K table is not over the base field of theta")
    q = fld.n
    log = fld.log[1:]
    met = np.zeros((2, q, q), dtype=bool)
    for row, c in enumerate((c_u, c_v)):
        arg = fld.exp[(fld.log[c] + 4 * log[:, None] - 2 * log[None, :]) % (q - 1)]
        met[row, 1:, 1:] = table.value[arg] % 4 != bad
    return met


def thm_membership_criterion(setup: ThetaSetup, u: int, v: int, w: int) -> dict:
    """The Kloosterman-sum membership test for chi_{u,v,w} with uv = 0, w != 0."""
    c_u, c_v, bad = criterion_constants(setup)
    if w == 0 or (u == 0) == (v == 0):
        raise FieldError("requires exactly one of u, v zero and w nonzero")
    base = setup.tower.base
    c, s = (c_u, u) if v == 0 else (c_v, v)
    arg = base.div(base.mul(c, base.pow(s, 4)), base.mul(w, w))
    rec = kloosterman(base, arg)
    return {"criterion_met": rec.mod4 != bad, "k_argument": arg, "k_value": rec.value,
            "k_value_mod4": rec.mod4}
