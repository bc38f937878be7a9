"""Field towers, traces, characters, and quadratic form counts."""
import hashlib
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from shiftunital import (FieldError, construct_theta, make_char_field, make_field,
                         make_tower, quadratic_character, theta_setup, trace_form_table,
                         trace_table)
from shiftunital import fields
from shiftunital.fields import default_modulus, prime_power
from shiftunital.kloosterman import kloosterman_table

from oracles import chi_array, recompose, trace, unembed, vneg
from paper_checks import quadratic_form_count, square_table


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1),
                                 (11, 1), (3, 4)])
def test_field_axioms_sampled(p, m):
    fld = make_field(p, m)
    assert fld.n == p**m
    rng = np.random.default_rng(0)
    a = rng.integers(0, fld.n, 200)
    b = rng.integers(0, fld.n, 200)
    c = rng.integers(0, fld.n, 200)
    assert np.array_equal(fld.vadd(a, b), fld.vadd(b, a))
    assert np.array_equal(fld.vmul(a, b), fld.vmul(b, a))
    left = fld.vmul(a, fld.vadd(b, c))
    right = fld.vadd(fld.vmul(a, b), fld.vmul(a, c))
    assert np.array_equal(left, right)
    assert np.array_equal(fld.vadd(a, vneg(fld, a)), np.zeros(200, dtype=a.dtype))
    # Frobenius is additive
    assert np.array_equal(fld.vpow(fld.vadd(a, b), p),
                          fld.vadd(fld.vpow(a, p), fld.vpow(b, p)))


def test_prime_field_is_integers_mod_p():
    fld = make_field(5, 1)
    i2e = [fld.element_from_int(c) for c in range(5)]
    e2i = {e: c for c, e in enumerate(i2e)}
    for a in range(5):
        for b in range(5):
            assert e2i[fld.add(i2e[a], i2e[b])] == (a + b) % 5
            assert e2i[fld.mul(i2e[a], i2e[b])] == (a * b) % 5


def test_default_modulus_is_primitive():
    for p, m in [(3, 1), (3, 2), (3, 3), (5, 1), (7, 1), (11, 1)]:
        mod = default_modulus(p, m)
        assert len(mod) == m + 1 and mod[-1] == 1
        fld = make_field(p, m, mod)
        g = int(fld.exp[1])
        seen = {1}
        cur = 1
        for _ in range(fld.n - 2):
            cur = fld.mul(cur, g)
            seen.add(cur)
        assert len(seen) == fld.n - 1


# Every (p, m) whose default modulus the suite builds, plus 3^1 .. 3^10, as found by
# the exhaustive trial-division search without the norm filter (coefficients low
# degree first), and 3^11, 3^12 as found with it. Any other irreducibility
# test must return exactly these: the moduli enter cache keys and every artifact.
DEFAULT_MODULI = {
    (3, 1): (1, 1), (3, 2): (2, 1, 1), (3, 3): (1, 0, 2, 1),
    (3, 4): (2, 0, 0, 1, 1), (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (2, 0, 0, 0, 0, 1, 1), (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
    (3, 8): (2, 0, 0, 0, 0, 1, 0, 0, 1), (3, 9): (1, 0, 0, 0, 0, 0, 2, 1, 0, 1),
    (3, 10): (2, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1),
    (3, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1),
    (3, 12): (2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 1),
    (5, 1): (2, 1), (5, 2): (2, 1, 1), (5, 4): (2, 0, 2, 1, 1),
    (7, 1): (2, 1), (7, 2): (3, 1, 1), (11, 1): (3, 1), (11, 2): (2, 4, 1),
    (13, 1): (2, 1), (13, 2): (2, 1, 1), (17, 1): (3, 1), (17, 2): (3, 1, 1),
    (19, 1): (4, 1), (19, 2): (2, 1, 1), (23, 1): (2, 1), (23, 2): (5, 2, 1),
}


@pytest.mark.parametrize("p,m", DEFAULT_MODULI)
def test_default_modulus_is_pinned(p, m):
    assert default_modulus(p, m) == DEFAULT_MODULI[p, m]


@pytest.mark.parametrize("p,m", [(25, 4), (2, 3), (3, 0), (3, -1)])
def test_make_field_checks_p_and_m_before_the_modulus_search(p, m, monkeypatch):
    def no_search(*args):
        raise AssertionError("default_modulus called")

    monkeypatch.setattr(fields, "default_modulus", no_search)
    with pytest.raises(FieldError):
        make_field(p, m)


def test_exp_log_roundtrip():
    fld = make_field(3, 2)
    for x in range(1, fld.n):
        assert fld.exp[fld.log[x]] == x


def _serial_exp(fld) -> list[int]:
    """omega^0, ..., omega^(n-2) as indices, one polynomial product at a time."""
    p = fld.p
    omega = fields._poly_trim(fld._poly(fld.omega))
    out, x = [], [1]
    for _ in range(fld.n - 1):
        out.append(sum(c * p**i for i, c in enumerate(x)))
        x = fields._poly_mulmod(x, omega, list(fld.modulus), p)
    assert x == [1]
    return out


@pytest.mark.parametrize("p,m", [pm for pm in DEFAULT_MODULI if pm[0]**pm[1] <= 3**8])
def test_exp_log_match_serial_powers(p, m):
    fld = fields.FieldCtx(p, m, DEFAULT_MODULI[p, m])
    assert fld.exp.tolist() == _serial_exp(fld)
    assert fld.log[0] == -1
    assert np.array_equal(fld.log[fld.exp], np.arange(fld.n - 1))


# sha256 of exp (int32 bytes) under the default modulus, recorded from the
# element-by-element construction that preceded the block one
EXP_DIGESTS = {
    (3, 9): "0fdcae9a4e8f06b9d5baa9ead7f30c5f5fc1ad216464edd520a1fb2a0e1e8066",
    (3, 10): "47b3e522fd7f07ff9f43243468ae02f342b2d24bcb3bdca4e45d12e6e9d16cde",
}


@pytest.mark.parametrize("p,m", EXP_DIGESTS)
def test_exp_pinned(p, m):
    fld = fields.FieldCtx(p, m, DEFAULT_MODULI[p, m])
    digest = hashlib.sha256(np.ascontiguousarray(fld.exp, dtype=np.int32).tobytes())
    assert digest.hexdigest() == EXP_DIGESTS[p, m]


@pytest.mark.parametrize("power", [0, 2, 4])
def test_non_primitive_omega_is_rejected(monkeypatch, power):
    # omega^0 = 1, omega^2 and omega^4 = -1 have orders 1, 4 and 2 in GF(9)*
    g = int(make_field(3, 2).exp[power])
    monkeypatch.setattr(fields.FieldCtx, "_find_primitive", lambda self: g)
    with pytest.raises(FieldError, match="wrong order"):
        fields.FieldCtx(3, 2, DEFAULT_MODULI[3, 2])


def test_trace_balanced_and_frobenius_invariant():
    fld = make_field(3, 2)
    tt = trace_table(fld)
    assert np.array_equal(np.bincount(tt, minlength=3), [3, 3, 3])
    for x in range(fld.n):
        assert trace(fld, fld.pow(x, 3)) == trace(fld, x)
        assert tt[x] == trace(fld, x)


def test_trace_additive():
    fld = make_field(3, 3)
    rng = np.random.default_rng(1)
    # trace lands in the prime field and respects addition there
    for _ in range(200):
        a, b = (int(v) for v in rng.integers(0, fld.n, 2))
        s = trace(fld, fld.add(a, b))
        assert s == (trace(fld, a) + trace(fld, b)) % 3


def test_quadratic_character():
    for p, m in [(3, 1), (3, 2), (5, 1), (7, 1)]:
        fld = make_field(p, m)
        sq = square_table(fld)
        total = 0
        for x in range(1, fld.n):
            eta = quadratic_character(fld, x)
            assert eta in (-1, 1)
            assert (eta == 1) == bool(sq[x])
            total += eta
        assert total == 0
        assert quadratic_character(fld, 0) == 0
        for x in range(1, fld.n):
            assert quadratic_character(fld, fld.mul(x, x)) == 1


def test_quadratic_character_multiplicative():
    fld = make_field(3, 2)
    for a in range(1, fld.n):
        for b in range(1, fld.n):
            assert quadratic_character(fld, fld.mul(a, b)) == \
                quadratic_character(fld, a) * quadratic_character(fld, b)


def test_tower_structure():
    for p, m in [(3, 1), (3, 2), (5, 1), (7, 1)]:
        base = make_field(p, m)
        tower = make_tower(base)
        q = base.n
        ext = tower.ext
        assert ext.n == q * q
        # xi^q = -xi and alpha = xi^2 is a nonsquare of the base field
        assert ext.pow(tower.xi, q) == ext.neg(tower.xi)
        assert ext.mul(tower.xi, tower.xi) == tower.embed[tower.alpha]
        assert quadratic_character(base, tower.alpha) == -1
        for x in range(ext.n):
            x0, x1 = tower.decompose(x)
            assert recompose(tower, x0, x1) == x
        assert np.array_equal(unembed(tower)[tower.embed], np.arange(q))
        for a in range(q):
            assert tower.decompose(int(tower.embed[a])) == (a, 0)


def test_tower_decompose_additive():
    tower = make_tower(make_field(3, 2))
    ext = tower.ext
    rng = np.random.default_rng(2)
    for _ in range(200):
        x, y = (int(v) for v in rng.integers(0, ext.n, 2))
        s = ext.add(x, y)
        base = tower.base
        assert tower.decompose(s)[0] == base.add(*[tower.decompose(z)[0]
                                                   for z in (x, y)])
        assert tower.decompose(s)[1] == base.add(*[tower.decompose(z)[1]
                                                   for z in (x, y)])


def test_construct_theta_recipe():
    for p, m in [(3, 1), (3, 2), (3, 3), (5, 1), (7, 1), (11, 1)]:
        base = make_field(p, m)
        tower = make_tower(base)
        q = base.n
        setup = construct_theta(tower)
        ext = tower.ext
        if q % 4 == 1:
            assert setup.theta == tower.xi
            assert (setup.theta0, setup.theta1) == (0, 1)
        else:
            assert setup.theta1 == 1
            assert setup.theta == ext.add(tower.embed[setup.theta0], tower.xi)
            diff = base.sub(base.mul(setup.theta0, setup.theta0), tower.alpha)
            assert quadratic_character(base, diff) == -1
        # the norm theta^(q+1) must be a nonsquare of the base field
        norm = ext.pow(setup.theta, q + 1)
        assert quadratic_character(base, int(unembed(tower)[norm])) == -1


def test_theta_setup_rejects_zero():
    tower = make_tower(make_field(3, 1))
    with pytest.raises(FieldError):
        theta_setup(tower, 0)


def test_char_field_gf4():
    cf = make_char_field(3)
    assert cf.e == 2
    # the cube roots of unity sum to 0 under xor, and eps has exact order 3
    eps = cf.eps
    assert eps != 1 and cf.pow(eps, 3) == 1
    assert 1 ^ eps ^ cf.mul(eps, eps) == 0
    assert cf.eps_pows == (1, eps, cf.mul(eps, eps))
    with pytest.raises(FieldError):
        make_char_field(2)


# (e, poly, eps) for every odd prime p <= 19, recorded from the scan of all of
# GF(2^e) for the smallest z != 1 with z^p = 1
CHAR_FIELDS = {3: (2, 7, 2), 5: (4, 19, 8), 7: (3, 11, 2), 11: (10, 1033, 138),
               13: (12, 4105, 541), 17: (8, 283, 8), 19: (18, 262153, 52434)}


@pytest.mark.parametrize("p", sorted(CHAR_FIELDS))
def test_char_field_pinned(p):
    cf = make_char_field(p)
    assert (cf.e, cf.poly, cf.eps) == CHAR_FIELDS[p]
    assert cf.eps_pows[1] == cf.eps and cf.mul(cf.eps_pows[-1], cf.eps) == 1


def test_char_field_without_a_full_scan():
    # e = 28: a scan of GF(2^28) for eps would not finish
    cf = make_char_field(29)
    assert cf.e == 28 and cf.eps != 1 and cf.pow(cf.eps, 29) == 1
    assert min(cf.pow(cf.eps, k) for k in range(1, 29)) == cf.eps


def test_trace_form_table():
    fld = make_field(3, 2)
    tab = trace_form_table(fld)
    assert tab.shape == (9, 9) and tab.dtype == np.uint8
    for a in range(9):
        for b in range(9):
            assert tab[a, b] == trace(fld, fld.mul(a, b))
    # three entries must sum without wrapping: 3 * 82 fits a byte, 3 * 88 does not
    assert trace_form_table(make_field(83, 1)).dtype == np.uint8
    assert trace_form_table(make_field(89, 1)).dtype == np.uint16


# (e, poly, eps) for 23 <= p <= 47, recorded from the trial-division modulus
# search that Rabin's test replaced (p = 37 took 1.35 s there)
CHAR_FIELDS_RABIN = {23: (11, 2053, 167), 29: (28, 268435459, 148472980),
                     31: (5, 37, 2), 37: (36, 68719476789, 3653604221),
                     41: (20, 1048585, 9677), 43: (14, 16417, 1357),
                     47: (23, 8388641, 594110)}


@pytest.mark.parametrize("p", sorted(CHAR_FIELDS_RABIN))
def test_char_field_rabin_matches_trial_division(p):
    cf = make_char_field(p)
    assert (cf.e, cf.poly, cf.eps) == CHAR_FIELDS_RABIN[p]


def test_char_field_e52_in_under_a_second():
    # trial division by every polynomial of degree <= 26 stalled here
    start = time.perf_counter()
    cf = make_char_field(53)
    assert time.perf_counter() - start < 1.0
    assert cf.e == 52 and cf.poly >> 52 == 1
    assert cf.eps != 1 and cf.pow(cf.eps, 53) == 1
    # no factor of degree <= 10, by direct division
    assert all(fields._gf2_polymod(cf.poly, div) for div in range(2, 1 << 11))


def test_char_field_refuses_e_above_64_before_any_search(monkeypatch):
    # e = ord_1019(2) = 1018: the modulus search alone took minutes
    def no_search(poly):
        raise AssertionError("searched GF(2^e) for a modulus")

    monkeypatch.setattr(fields, "_gf2_irreducible", no_search)
    with pytest.raises(FieldError, match=r"GF\(2\^1018\) do not fit in 64 bits"):
        make_char_field(1019)


def test_chi_is_multiplicative_character_of_addition():
    cf = make_char_field(3)
    fld = make_field(3, 2)
    tab = chi_array(cf, fld).tolist()
    for x in range(fld.n):
        assert tab[x] == cf.eps_pows[trace(fld, x)]
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = (int(v) for v in rng.integers(0, fld.n, 2))
        assert cf.eps_pows[trace(fld, fld.add(a, b))] == cf.mul(tab[a], tab[b])
    assert tab[0] == 1


def test_quadratic_form_count_small():
    fld = make_field(3, 1)
    one = 1
    # x^2 = b: 1 solution for b = 0, 1 + eta(b) otherwise
    assert quadratic_form_count(fld, [[one]], 0) == 1
    # hyperbolic plane x*y via symmetric matrix [[0, h], [h, 0]]
    half = fld.inv(fld.element_from_int(2))
    n0 = quadratic_form_count(fld, [[0, half], [half, 0]], 0)
    assert n0 == 2 * 3 - 1


def test_quadratic_form_count_random():
    rng = np.random.default_rng(4)
    for q, p, m in [(3, 3, 1), (5, 5, 1)]:
        fld = make_field(p, m)
        for n in (1, 2, 3):
            done = 0
            while done < 20:
                mat = rng.integers(0, q, (n, n))
                form = [[int(mat[min(i, j), max(i, j)]) for j in range(n)]
                        for i in range(n)]
                try:
                    quadratic_form_count(fld, form, int(rng.integers(0, q)))
                except FieldError:
                    continue
                done += 1


def test_quadratic_form_count_rejects_bad_forms():
    fld = make_field(3, 1)
    with pytest.raises(FieldError):
        quadratic_form_count(fld, [[0, 1], [2, 0]], 0)
    with pytest.raises(FieldError):
        quadratic_form_count(fld, [[0, 0], [0, 0]], 0)


def test_make_field_rejects_reducible_modulus():
    with pytest.raises(FieldError):
        make_field(3, 2, (1, 2, 1))


def test_vpow_matches_pow():
    fld = make_field(3, 2)
    xs = np.arange(fld.n)
    for e in (0, 1, 2, 3, 7, 8, 2**70 + 3):
        want = np.array([fld.pow(int(x), e) for x in xs])
        assert np.array_equal(fld.vpow(xs, e), want)


def test_vpow_of_zero_to_a_negative_power_raises_as_pow_does():
    fld = make_field(3, 2)
    units = np.arange(1, fld.n)
    assert np.array_equal(fld.vpow(units, -1), [fld.inv(int(x)) for x in units])
    for a in (0, np.arange(fld.n), np.array([[1, 2], [0, 3]])):
        with pytest.raises(FieldError, match="zero to a negative power"):
            fld.vpow(a, -1)
    with pytest.raises(FieldError, match="zero to a negative power"):
        fld.pow(0, -1)


@pytest.mark.parametrize("q, pm", [(3, (3, 1)), (17, (17, 1)), (25, (5, 2)),
                                   (243, (3, 5))])
def test_prime_power_factors_exactly(q, pm):
    assert prime_power(q) == pm


@pytest.mark.parametrize("q", [6, 1, 0, 12])
def test_prime_power_rejects(q):
    with pytest.raises(FieldError, match="prime power"):
        prime_power(q)


# Every pair of elements, in fields whose digits split evenly (even m) and
# unevenly (odd m) between the two halves, and a seeded sample of 2M pairs of
# GF(3^9) and of GF(3^12). Scalar add and sub read the sum table themselves; they
# are checked on every pair up to 243 elements, on 1000 pairs of each chunk above.
@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (3, 5), (5, 2), (5, 3),
                                 (7, 2), (5, 4), (7, 4), (3, 7), (3, 9), (3, 12)])
def test_add_sub_match_digit_arithmetic(p, m):
    fld = fields.FieldCtx(p, m, default_modulus(p, m))
    n = fld.n
    pows = p ** np.arange(m)
    rng = np.random.default_rng(9)
    chunk = 1 << 18
    if m >= 9:
        chunks = ((rng.integers(0, n, chunk), rng.integers(0, n, chunk)) for _ in range(8))
    else:
        rows = max(1, chunk // n)
        chunks = ((np.arange(lo, min(lo + rows, n))[:, None], np.arange(n)[None, :])
                  for lo in range(0, n, rows))
    for a, b in chunks:
        a, b = (v.ravel() for v in np.broadcast_arrays(a, b))
        da, db = (a[:, None] // pows) % p, (b[:, None] // pows) % p
        want_add, want_sub = (da + db) % p @ pows, (da - db) % p @ pows
        assert np.array_equal(fld.vadd(a, b), want_add)
        assert np.array_equal(fld.vsub(a, b), want_sub)
        pick = np.arange(a.size) if n <= 243 else rng.integers(0, a.size, 1000)
        assert [fld.add(int(a[i]), int(b[i])) for i in pick] == want_add[pick].tolist()
        assert [fld.sub(int(a[i]), int(b[i])) for i in pick] == want_sub[pick].tolist()


# vadd reads the digit halves off the index: every kind of operand takes the one
# path, and the sums come back as int32 of the broadcast shape. The context holds no
# table of n entries beyond log, _exp2 (and its view exp) and neg_table.
@pytest.mark.parametrize("p,m", [(3, 7), (7, 4), (19, 2)])
def test_sums_of_every_operand_kind_are_digit_wise(p, m):
    fld = make_field(p, m)
    pows = p ** np.arange(m)

    def digit_wise(a, b, sign):
        da, db = (np.asarray(v)[..., None] // pows % p for v in (a, b))
        return (da + sign * db) % p @ pows

    rng = np.random.default_rng(p)
    a, b = (rng.integers(0, fld.n, 60) for _ in range(2))
    scalars = [(int(a[0]), int(b[0])), (np.int32(a[1]), np.int32(b[1])),
               (np.int64(a[2]), np.int64(b[2])), (int(a[3]), np.int64(b[3])),
               (np.int32(a[4]), int(b[4]))]
    for x, y in scalars:
        assert fld.add(x, y) == digit_wise(x, y, 1) and fld.sub(x, y) == digit_wise(x, y, -1)
        for vop, sign in ((fld.vadd, 1), (fld.vsub, -1)):
            assert np.ndim(vop(x, y)) == 0 and vop(x, y).dtype == np.int32
            assert vop(x, y) == digit_wise(x, y, sign)
    arrays = [(a, b), (a.astype(np.int32), b.astype(np.int32)), (a.astype(np.int32), b),
              (a[:6, None], b[None, :10]), (a.reshape(6, 10), b[:10].astype(np.int32)),
              (int(a[0]), b), (a.astype(np.int32), np.int64(b[0]))]
    for x, y in arrays:
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        for vop, sign in ((fld.vadd, 1), (fld.vsub, -1)):
            got = vop(x, y)
            assert got.dtype == np.int32 and got.shape == shape
            assert np.array_equal(got, digit_wise(x, y, sign))
    big = {name for name, v in vars(fld).items()
           if isinstance(v, np.ndarray) and max(v.shape) >= fld.n - 1}
    assert big == {"log", "_exp2", "exp", "neg_table"}


# q = 81's tower and the table of `kloosterman --p 3 --m 8`, every field built
# afresh: with one 81^2-entry digit-sum table for GF(3^8), neither nears 8 MB.
@pytest.mark.parametrize("build", [lambda: make_tower(make_field(3, 4)),
                                   lambda: kloosterman_table(make_field(3, 8))],
                         ids=["tower-q81", "kloosterman-m8"])
def test_peak_memory_below_8mb(monkeypatch, build):
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# The q = 243 tower keeps each table once: exp is a view of _exp2, and no digit,
# unembed or digit-half index table is stored. Its tables measure 1.81 MiB retained
# and 2.27 MiB at the peak, against 2.72 and 3.04 MiB with the four digit-half
# index tables of vadd, and 4.3 and 6.3 MiB with the digit table, unembed and a
# second exp besides.
def test_tower_q243_retained_and_peak_memory(monkeypatch):
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    tracemalloc.start()
    try:
        tower = make_tower(make_field(3, 5))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tower.ext.n == 243**2
    assert retained < 2 * 2**20 and peak < 2.5 * 2**20


def test_vmul_vpow_gather_int32_from_one_exp_table():
    fld = make_field(3, 4)
    assert np.shares_memory(fld.exp, fld._exp2)
    for a in (np.arange(fld.n), np.arange(fld.n, dtype=np.int32)):
        b = a[::-1]
        assert fld.vmul(a, b).dtype == np.int32 and fld.vpow(a, 5).dtype == np.int32
        assert fld.vmul(a, b).tolist() == [fld.mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert fld.vpow(a, 5).tolist() == [fld.pow(x, 5) for x in a.tolist()]
    for x, y in [(7, 5), (0, 5), (7, 0), (np.int64(7), np.int32(5))]:
        assert fld.vmul(x, y).dtype == np.int32 and fld.vmul(x, y) == fld.mul(int(x), int(y))
        assert fld.vpow(x, 3).dtype == np.int32 and fld.vpow(x, 3) == fld.pow(int(x), 3)


# sha256 over embed, unembed, dec0, dec1 (int32 bytes) and repr((xi, alpha)) for
# every tower the suite builds, and q = 49 and 81, recorded from the scalar root
# search over all of GF(q^2) that preceded the vectorized one; q = 243 recorded
# from the digit-vector addition that preceded the one digit-sum table.
TOWER_DIGESTS = {
    (3, 1): "8987b192ab8498a35ad7c3fda02d5758c1d342946c4713889b4f111ccff8d855",
    (3, 2): "b9e723438685e03725dc75393a9d5af48b733301e3eba24bc935f226d5ef2cd9",
    (3, 3): "b8185f34c931d17b1457f04c36459de3f701ba326dad5e2acfc56f90ae4477db",
    (3, 4): "cca2ba7cea79b348f5e91d9a1b8912d3317422adfbf9248ac8a8c1b2671e7655",
    (3, 5): "65afdc84ccd388199f455680270bc00076c5e00e4986d2d86d86bd722308a481",
    (5, 1): "e69446d5d746452cb2075810e73a3121f405d644472c8c5349b709649713f260",
    (5, 2): "d21b90dc6da4a382631c937d59de53d2572dfa8ca818bc43071e8ba840813659",
    (7, 1): "ce95d42263b7f607cdfd6b0ff0d6544a4869b5aa85da96399f70d17b8f8027f9",
    (7, 2): "b5c4efd19fd08b5a0b09c45fdc2323605ac5718d7441f369753f3758ca5b62cd",
    (11, 1): "0c2b4ed23240143fcbb275556f11abb58a3d251dbf083fbe1fad0b97d7eea833",
    (13, 1): "5774ef6c6343f2942699affe54ccc1771e85c28f9a669bb5ad284a51a51c6d1c",
    (17, 1): "fadec0da33979b30dfb7bf1c050e1bd74fea4b230046b9812759e66fb48495e1",
    (19, 1): "2440b1ece730b3828e351f02dff3c19794469915cb7d45fa61d431f93089ea17",
    (23, 1): "2c1080b4165c95ef521d5da95a345c8b2f44c28a0c7a2a2bcabd7453764032e3",
}


@pytest.mark.parametrize("p,m", TOWER_DIGESTS)
def test_tower_tables_pinned(p, m):
    tower = make_tower(make_field(p, m))
    h = hashlib.sha256()
    for arr in (tower.embed, unembed(tower), tower.dec0, tower.dec1):
        h.update(np.ascontiguousarray(arr, dtype=np.int32).tobytes())
    h.update(repr((tower.xi, tower.alpha)).encode())
    assert h.hexdigest() == TOWER_DIGESTS[p, m]


# Same digest as TOWER_DIGESTS, over base moduli whose root y is not primitive, so
# omega != y and the embedding must pick the least conjugate of omega, not of y;
# recorded from the minimal-polynomial root search that preceded the conjugates.
NON_DEFAULT_TOWER_DIGESTS = {
    (3, 2, (1, 0, 1)): (4, "8822874463333bab10bf6f62a7a97bcb4a569c3af3c1369c18ebbce3c2531783"),
    (5, 2, (2, 0, 1)): (6, "ee8b0d3f9466dd9cfdf0c0215b3331c43804c296f5298f714a2cfb6ddee1c796"),
}


@pytest.mark.parametrize("p,m,modulus", NON_DEFAULT_TOWER_DIGESTS)
def test_tower_tables_pinned_over_non_default_base(p, m, modulus):
    omega, digest = NON_DEFAULT_TOWER_DIGESTS[p, m, modulus]
    tower = make_tower(make_field(p, m, modulus))
    assert tower.base.omega == omega
    h = hashlib.sha256()
    for arr in (tower.embed, unembed(tower), tower.dec0, tower.dec1):
        h.update(np.ascontiguousarray(arr, dtype=np.int32).tobytes())
    h.update(repr((tower.xi, tower.alpha)).encode())
    assert h.hexdigest() == digest


def _order_of_y(f, p):
    """Least k >= 1 with y^k = 1 modulo monic f, by repeated multiplication by y; or None."""
    d = len(f) - 1
    one = [1] + [0] * (d - 1)
    cur = one
    for k in range(1, p**d):
        # y * cur = shifted cur - lead * f, since y^d = -(f_0 + ... + f_(d-1) y^(d-1))
        cur = [(a - cur[-1] * c) % p for a, c in zip([0] + cur[:-1], f)]
        if cur == one:
            return k
    return None


# phi(p^d - 1) / d primitive polynomials of each degree d: (3, 1) 1, (3, 2) 2, (3, 3) 4, (5, 2) 4
@pytest.mark.parametrize("p,d,primitive", [(3, 1, 1), (3, 2, 2), (3, 3, 4), (5, 2, 4)])
def test_is_primitive_matches_order_count(p, d, primitive):
    found = 0
    for tail in itertools.product(range(p), repeat=d):
        f = [*tail, 1]
        got = fields._is_primitive([0, 1], f, p)
        assert got == (_order_of_y(f, p) == p**d - 1), f
        if f[0] == 0 or not fields._is_irreducible(f, p):
            assert not got, f
        found += got
    assert found == primitive


@pytest.mark.parametrize("explicit_first", [False, True])
def test_make_field_one_context_per_modulus(monkeypatch, explicit_first):
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    mod = default_modulus(3, 2)
    ctx = make_field(3, 2, mod if explicit_first else None)
    assert make_field(3, 2) is ctx and make_field(3, 2, mod) is ctx
    # coefficients are taken mod p
    assert make_field(3, 2, tuple(c + 3 for c in mod)) is ctx


@pytest.mark.parametrize("p", [-3, 0, 1, 2, 4, 9, 15])
def test_fields_and_char_fields_share_the_odd_prime_check(p):
    with pytest.raises(FieldError, match="odd prime"):
        make_field(p, 1)
    with pytest.raises(FieldError, match="odd prime"):
        make_char_field(p)



@pytest.mark.parametrize("p, m", [(3, 20), (3, 40), (3, 10**9), (32749, 3)])
def test_fields_beyond_the_int32_indices_are_refused(p, m):
    # before any table or modulus search: default_modulus at m = 40 does not end
    with pytest.raises(FieldError, match="int32"):
        make_field(p, m)


def test_a_tower_beyond_the_int32_indices_is_refused():
    with pytest.raises(FieldError, match=r"GF\(3\^20\) exceeds the int32"):
        make_tower(make_field(3, 10))
