"""Arithmetic contexts for GF(p^m), quadratic extension towers, and the GF(2^e) character codomain.

Elements of GF(p^m) are integers in range(p**m): the index encodes the coefficient
vector of the element in base p, least significant digit = constant coefficient.
All contexts are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import itertools
import math
import os
from typing import NamedTuple

from .errors import FieldError

import numpy as np

def _factorize(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m; FieldError unless q is a power of an odd prime."""
    primes = _factorize(q)
    if len(primes) != 1:
        raise FieldError(f"q = {q} is not a prime power")
    p, m = primes[0], 0
    while q > 1:
        q //= p
        m += 1
    _check_degree(p, m)
    return p, m


# ---------------------------------------------------------------------------
# Polynomial helpers over GF(p).  Coefficient lists, index 0 = constant term.
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    """Remainder of a by monic mod."""
    a = list(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _poly_trim(a)


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    return _poly_mod(_poly_mul(a, b, p), mod, p)


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(list(a), mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Exhaustive trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            if not _poly_mod(poly, div, p):
                return False
    return True


def _is_primitive(a: list[int], f: list[int], p: int) -> bool:
    """Whether a generates the multiplicative group of GF(p)[y]/(f): a^N = 1 with
    N = p^deg(f) - 1, and a^(N/r) != 1 for every prime r dividing N."""
    order = p**(len(f) - 1) - 1
    return (_poly_powmod(a, order, f, p) == [1]
            and all(_poly_powmod(a, order // r, f, p) != [1] for r in _factorize(order)))


def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p) whose root is primitive.

    Coefficients are compared low-degree-first. A primitive root y has norm
    (-1)^m f(0), which must generate GF(p)*, so candidates are drawn only with
    such a constant term f(0). Primitive polynomials exist in every degree, so
    the search always succeeds.
    """
    primes = _factorize(p - 1)
    consts = sorted((-1)**m * g % p for g in range(1, p)
                    if all(pow(g, (p - 1) // r, p) != 1 for r in primes))
    candidates = ([c0, *tail, 1] for c0 in consts
                  for tail in itertools.product(range(p), repeat=m - 1))
    return next(tuple(f) for f in candidates
                if _is_irreducible(f, p) and _is_primitive([0, 1], f, p))


def _check_degree(p: int, m: int) -> None:
    """FieldError unless p is an odd prime <= 32767 (int16 traces), m >= 1, p^m < 2^31."""
    if p > 32767:
        raise FieldError(f"p must be at most 32767 (int16 traces), got {p}")
    if p % 2 == 0 or _factorize(p) != [p]:
        raise FieldError(f"p must be an odd prime, got {p}")
    if m < 1:
        raise FieldError(f"extension degree must be positive, got {m}")
    if m >= 31 or p**m >= 2**31:          # m first: p**m of a huge m would not end
        raise FieldError(f"field GF({p}^{m}) exceeds the int32 indices (p^m must be below 2^31)")


# Bytes of working memory that one chunk of a kernel may take. Every chunked kernel
# (planarity, spectrum, gf2 rows and stacks, Kloosterman counts, design writes)
# divides it by the bytes that one row of its chunk takes in its widest
# temporaries. Larger chunks buy no speed: freed chunk temporaries stay resident
# and set the peak RSS of small runs.
_WORK_BYTES = 1 << 18


def _chunk_rows(row_bytes: int) -> int:
    """Rows of row_bytes each that one chunk holds within _WORK_BYTES; at least 1."""
    return max(1, _WORK_BYTES // row_bytes)


def _atomic_write_chunks(path: str, chunks) -> None:
    """Write the text chunks to a temporary file beside path, then os.replace it there."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        try:
            fh.writelines(chunks)
        except BaseException:
            os.remove(tmp)          # a chunk that raises leaves no partial file
            raise
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# GF(p^m) context
# ---------------------------------------------------------------------------

class FieldCtx:
    """Tables and scalar/vector arithmetic for GF(p^m) on integer element indices."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        _check_degree(p, m)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise FieldError(f"modulus must be monic of degree {m}, got {modulus}")
        if not _is_irreducible(list(modulus), p):
            raise FieldError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.n = p**m
        self.modulus = modulus

        n = self.n
        self._pows = np.array([p**i for i in range(m)], dtype=np.int32)
        self.omega = self._find_primitive()
        # exp doubled so products of two logs index without a modulo; exp is its first half
        self._exp2, self.log = self._build_logs()
        self.exp = self._exp2[:n - 1]
        # a = lo + p^h hi: the low h = ceil(m/2) digits and the high m - h both add
        # through one (p^h, p^h) table of digit-wise sums, built one digit per level:
        # T_{k+1}[a, b] = ((a_k + b_k) mod p) p^k + T_k[a mod p^k, b mod p^k]
        h = (m + 1) // 2
        top = (np.add.outer(np.arange(p), np.arange(p)) % p).astype(np.int32)
        tbl = np.zeros((1, 1), dtype=np.int32)
        for k in range(h):
            level = (top * p**k)[:, None, :, None] + tbl[None, :, None, :]
            tbl = level.reshape(p**(k + 1), p**(k + 1))
        self._add_tbl = tbl
        self._half = p**h
        # -a = -lo + p^h (-hi), both halves negated digit-wise by one p^h-entry table
        low = np.arange(self._half, dtype=np.int32)[:, None] // self._pows[:h] % p
        neg_half = -low % p @ self._pows[:h]
        hi, lo = np.divmod(np.arange(n, dtype=np.int32), self._half)
        self.neg_table = neg_half[hi] * self._half + neg_half[lo]

    # -- construction internals -------------------------------------------

    def _poly(self, a: int) -> list[int]:
        """Digit polynomial of a, constant term first: digit i is a // p^i % p."""
        return [int(a) // p_i % self.p for p_i in self._pows.tolist()]

    def _find_primitive(self) -> int:
        mod = list(self.modulus)
        return next(g for g in range(2, self.n) if _is_primitive(self._poly(g), mod, self.p))

    def _mul_matrix(self, c: int) -> np.ndarray:
        """(m, m) matrix of x -> c x on digit columns: column j holds the digits of c y^j."""
        a, m = self._poly(c), self.m
        cols = [_poly_mulmod(a, [0] * j + [1], list(self.modulus), self.p) for j in range(m)]
        return np.array([col + [0] * (m - len(col)) for col in cols], dtype=np.int64).T

    def _build_logs(self) -> tuple[np.ndarray, np.ndarray]:
        """exp in blocks of B = ceil(sqrt(n - 1)) powers of omega, then log by one scatter.

        With W the matrix of x -> omega x, the digit columns of omega^(kB), ...,
        omega^(kB + B - 1) are W^B times those of the block before, mod p: one
        (m, m) by (m, B) product per block. FieldError unless omega^(n-1) = 1 and
        exp hits every nonzero element exactly once, that is, omega is primitive.
        The exp returned is doubled: omega^k at k and at k + n - 1.
        """
        n, p = self.n, self.p
        size = math.isqrt(n - 2) + 1
        w = self._mul_matrix(self.omega)
        block = np.empty((self.m, size), dtype=np.int64)
        block[:, 0] = self._poly(1)
        for j in range(1, size):
            block[:, j] = w @ block[:, j - 1] % p
        step = self._mul_matrix(int(self._pows @ (w @ block[:, -1] % p)))   # W^B
        exp = np.empty(2 * (n - 1), dtype=np.int32)
        for lo in range(0, n - 1, size):
            hi = min(lo + size, n - 1)
            exp[lo:hi] = self._pows @ block[:, :hi - lo]
            last = block[:, hi - lo - 1]
            block = step @ block % p
        log = np.full(n, -1, dtype=np.int64)
        log[exp[:n - 1]] = np.arange(n - 1)
        if int(self._pows @ (w @ last % p)) != 1 or np.any(log[1:] < 0):
            raise FieldError("primitive element has wrong order")
        exp[n - 1:] = exp[:n - 1]
        return exp, log

    # -- scalar arithmetic --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """vadd of two scalars, the halves taken by Python divmod: no ufunc call."""
        (hi_a, lo_a), (hi_b, lo_b) = divmod(a, self._half), divmod(b, self._half)
        return int(self._add_tbl[hi_a, hi_b]) * self._half + int(self._add_tbl[lo_a, lo_b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, int(self.neg_table[b]))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp2[int(self.log[a]) + int(self.log[b])])

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("division by zero")
        return int(self.exp[(-int(self.log[a])) % (self.n - 1)])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise FieldError("zero to a negative power")
            return 0
        return int(self.exp[(int(self.log[a]) * e) % (self.n - 1)])

    def element_from_int(self, c: int) -> int:
        """Image of the rational integer c in the prime subfield."""
        return c % self.p

    # -- vector arithmetic on numpy index arrays -----------------------------

    def vadd(self, a, b):
        """Digit-wise sum mod p: the halves a // p^h and a % p^h of both operands, taken as
        int32 like the result, add through the one table and combine in place."""
        tbl, half = self._add_tbl.ravel(), self._half
        out = tbl[np.floor_divide(a, half, dtype=np.int32) * half
                  + np.floor_divide(b, half, dtype=np.int32)]
        out *= half
        out += tbl[np.remainder(a, half, dtype=np.int32) * half
                   + np.remainder(b, half, dtype=np.int32)]
        return out

    def addition_witness(self) -> str | None:
        """Where + fails to be the digit-wise group (Z/p)^m with inverse neg, or None."""
        low = np.arange(self._half)[:, None] // self._pows % self.p
        sums = (low[:, None, :] + low[None, :, :]) % self.p @ self._pows
        bad = np.argwhere(self._add_tbl != sums)
        if bad.size:
            return f"sum table entry {tuple(bad[0].tolist())} is not digit-wise"
        bad = np.flatnonzero(self.vadd(np.arange(self.n), self.neg_table))
        if bad.size:
            return f"{int(bad[0])} + neg({int(bad[0])}) != 0"
        return None

    def vsub(self, a, b):
        return self.vadd(a, self.neg_table[b])

    def vmul(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        out = self._exp2[self.log[a] + self.log[b]]
        if a.ndim == 0 and b.ndim == 0:
            if a == 0 or b == 0:
                return np.int32(0)
            return out

        zero = (a == 0) | (b == 0)
        return np.where(zero, 0, out)

    def vpow(self, a, e: int):
        a = np.asarray(a)
        if e < 0 and np.any(a == 0):
            raise FieldError("zero to a negative power")
        # reduce e first: a huge exponent, such as a cm:k power, overflows int64
        out = self.exp[(self.log[a] * (e % (self.n - 1))) % (self.n - 1)]
        return np.where(a == 0, 0 if e else 1, out)

    def __repr__(self) -> str:
        return f"FieldCtx(GF({self.p}^{self.m}), modulus={self.modulus})"


_FIELD_CACHE: dict[tuple, FieldCtx] = {}


def make_field(p: int, m: int, modulus: tuple[int, ...] | None = None) -> FieldCtx:
    """Shared immutable context for GF(p^m); default modulus per default_modulus.

    make_field(p, m) is make_field(p, m, default_modulus(p, m)): one context per modulus.
    """
    _check_degree(p, m)
    key = (p, m, None if modulus is None else tuple(int(c) % p for c in modulus))
    ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        modulus = default_modulus(p, m) if modulus is None else key[2]
        ctx = _FIELD_CACHE.get((p, m, modulus)) or FieldCtx(p, m, modulus)
        _FIELD_CACHE[key] = _FIELD_CACHE[p, m, modulus] = ctx
    return ctx


def trace_table(ctx: FieldCtx) -> np.ndarray:
    """Vectorized trace of every element onto GF(p): the digit sum of its m conjugates."""
    acc = np.zeros((ctx.n, ctx.m), dtype=np.int32)
    y = np.arange(ctx.n, dtype=np.int32)
    for _ in range(ctx.m):
        acc += y[:, None] // ctx._pows % ctx.p
        y = ctx.vpow(y, ctx.p)
    acc %= ctx.p
    if acc[:, 1:].any():
        raise FieldError("a trace left the prime field")  # pragma: no cover
    return acc[:, 0].copy()


def trace_form_table(ctx: FieldCtx) -> np.ndarray:
    """Tr(a*b) for every pair of elements, shape (n, n).

    Stored in the smallest unsigned dtype that holds 3(p - 1), so a sum of three
    entries, the trace of a sum of three products, does not overflow.
    """
    tr = trace_table(ctx).astype(np.min_scalar_type(3 * (ctx.p - 1)))
    idx = np.arange(ctx.n)
    return tr[ctx.vmul(idx[:, None], idx[None, :])]


def quadratic_character(ctx: FieldCtx, x: int) -> int:
    """eta(x): 1 for nonzero squares, -1 for nonsquares, 0 for x = 0, via x^((n-1)/2)."""
    if x == 0:
        return 0
    t = ctx.pow(x, (ctx.n - 1) // 2)
    if t == 1:
        return 1
    if t != ctx.neg(1):
        raise FieldError("quadratic character power was not +-1")  # pragma: no cover
    return -1


# ---------------------------------------------------------------------------
# Quadratic tower GF(q^2) = GF(q)(xi), xi = omega^((q+1)/2)
# ---------------------------------------------------------------------------

class TowerCtx(NamedTuple):
    """GF(q) together with GF(q^2) and the coordinate split x = x0 + x1*xi.

    x lies in GF(q) exactly when dec1[x] == 0, and dec0[x] is then its base index.
    """

    base: FieldCtx
    ext: FieldCtx
    xi: int                       # ext index, xi = omega_ext^((q+1)/2); xi^q = -xi
    alpha: int                    # base index of xi^2, a nonsquare generator of GF(q)*
    embed: np.ndarray             # base index -> ext index
    dec0: np.ndarray              # ext index -> base index of x0
    dec1: np.ndarray              # ext index -> base index of x1

    def decompose(self, x: int) -> tuple[int, int]:
        return int(self.dec0[x]), int(self.dec1[x])


def make_tower(base: FieldCtx, ext_modulus: tuple[int, ...] | None = None) -> TowerCtx:
    """Build GF(q^2) over base = GF(q) with the pinned xi = omega^((q+1)/2)."""
    q = base.n
    ext = make_field(base.p, 2 * base.m, ext_modulus)

    def horner(poly, xs):
        acc = np.zeros(len(xs), dtype=np.int32)
        for c in reversed(poly):
            acc = ext.vadd(ext.vmul(acc, xs), c)
        return acc

    # an embedding sends y to a root s of base.modulus in GF(q)* = {omega_ext^((q+1)k)},
    # so omega to its digit polynomial at s: a conjugate of omega; r is the least one
    cands = ext.exp[(q + 1) * np.arange(q - 1)]
    roots = cands[horner(base.modulus, cands) == 0]
    if len(roots) != base.m:
        raise FieldError("embedding root count mismatch")  # pragma: no cover
    r = int(horner(base._poly(base.omega), roots).min())
    j = int(ext.log[r])
    embed = np.zeros(q, dtype=np.int32)
    ks = np.arange(q - 1, dtype=np.int64)
    embed[base.exp] = ext.exp[(j * ks) % (ext.n - 1)]

    xi = int(ext.exp[(q + 1) // 2])
    idx = ext.vadd(embed[:, None], ext.vmul(embed, xi)[None, :])    # x0 + x1*xi at [x0, x1]
    dec0 = np.full(ext.n, -1, dtype=np.int32)
    dec1 = np.empty(ext.n, dtype=np.int32)
    dec0[idx] = np.arange(q)[:, None]
    dec1[idx] = np.arange(q)
    if np.any(dec0 < 0):        # q^2 writes fill the q^2 slots only if idx is a bijection
        raise FieldError("coordinate split is not a bijection")  # pragma: no cover

    xi2 = ext.mul(xi, xi)
    if dec1[xi2] != 0:
        raise FieldError("xi^2 did not land in the base field")  # pragma: no cover
    return TowerCtx(base=base, ext=ext, xi=xi, alpha=int(dec0[xi2]),
                    embed=embed, dec0=dec0, dec1=dec1)


class ThetaSetup(NamedTuple):
    """A direction theta = theta0 + theta1*xi defining the unital's t-axis."""

    tower: TowerCtx
    theta: int    # ext index
    theta0: int   # base index
    theta1: int   # base index


def theta_setup(tower: TowerCtx, theta: int) -> ThetaSetup:
    """Wrap an arbitrary nonzero ext element as a ThetaSetup (no admissibility check)."""
    if not 0 < theta < tower.ext.n:
        raise FieldError(f"theta index {theta} is outside 1..{tower.ext.n - 1}")
    t0, t1 = tower.decompose(theta)
    return ThetaSetup(tower=tower, theta=theta, theta0=t0, theta1=t1)


def construct_theta(tower: TowerCtx) -> ThetaSetup:
    """The recipe direction: theta = xi for q = 1 mod 4, theta = theta0 + xi otherwise.

    Asserts the norm theta^(q+1) is a nonsquare of GF(q) (and alpha too, in the
    q = 1 mod 4 case), which is exactly the admissibility condition for f = x^2.
    """
    base, ext = tower.base, tower.ext
    q = base.n
    if q % 4 == 1:
        theta = tower.xi
        if quadratic_character(base, tower.alpha) != -1:
            raise FieldError("alpha = xi^2 is unexpectedly a square")
    else:
        theta0 = next((t for t in range(1, q)
                       if quadratic_character(base, base.sub(base.mul(t, t), tower.alpha)) == -1),
                      None)
        if theta0 is None:
            raise FieldError("no theta0 with theta0^2 - alpha a nonsquare")
        theta = ext.add(int(tower.embed[theta0]), tower.xi)
    setup = theta_setup(tower, theta)
    norm = ext.pow(theta, q + 1)
    if tower.dec1[norm] != 0 or quadratic_character(base, int(tower.dec0[norm])) != -1:
        raise FieldError("theta^(q+1) is not a nonsquare of the base field")
    return setup


# ---------------------------------------------------------------------------
# GF(2^e) character codomain
# ---------------------------------------------------------------------------

def _gf2_polymod(a: int, b: int) -> int:
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _gf2_mulmod(a: int, b: int, poly: int) -> int:
    """a*b modulo poly over GF(2), polynomials held as bitmasks; a must be reduced."""
    deg = poly.bit_length() - 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> deg) & 1:
            a ^= poly
    return r


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_polymod(a, b)
    return a


def _gf2_irreducible(poly: int) -> bool:
    """Rabin's test: poly of degree n is irreducible over GF(2) iff x^(2^n) = x mod poly
    and gcd(x^(2^(n/r)) - x, poly) = 1 for every prime r dividing n."""
    n = poly.bit_length() - 1
    x = _gf2_polymod(2, poly)
    frob = [x]                                   # frob[k] = x^(2^k) mod poly
    for _ in range(n):
        frob.append(_gf2_mulmod(frob[-1], frob[-1], poly))
    return frob[n] == x and all(_gf2_gcd(poly, frob[n // r] ^ x) == 1
                                for r in _factorize(n))


class CharFieldCtx(NamedTuple):
    """GF(2^e), e = ord_2 mod p, holding a fixed primitive p-th root of unity eps."""

    p: int
    e: int
    poly: int                 # bitmask of the degree-e modulus, bit e set
    eps: int
    eps_pows: tuple[int, ...]

    def mul(self, a: int, b: int) -> int:
        return _gf2_mulmod(a, b, self.poly)

    def pow(self, a: int, k: int) -> int:
        r = 1
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r


_CHAR_CACHE: dict[int, CharFieldCtx] = {}


def make_char_field(p: int) -> CharFieldCtx:
    """GF(2^e) with the smallest-bitmask modulus and smallest eps of order p.

    FieldError when a character value needs more than 64 bits (e > 64), before any
    search of GF(2^e).
    """
    _check_degree(p, 1)
    ctx = _CHAR_CACHE.get(p)
    if ctx is not None:
        return ctx
    e, t = 1, 2 % p
    while t != 1:
        t = (2 * t) % p
        e += 1
    if e > 64:
        raise FieldError(f"character values of GF(2^{e}) do not fit in 64 bits")
    poly = next((1 << e) | low for low in range(1 << e) if _gf2_irreducible((1 << e) | low))
    tmp = CharFieldCtx(p=p, e=e, poly=poly, eps=0, eps_pows=())
    # the order-p elements are the powers z0^k, k = 1..p-1, of any one of them
    z0 = next(z for z in (tmp.pow(g, ((1 << e) - 1) // p) for g in range(2, 1 << e))
              if z != 1)
    eps = min(tmp.pow(z0, k) for k in range(1, p))
    pows = []
    acc = 1
    for _ in range(p):
        pows.append(acc)
        acc = tmp.mul(acc, eps)
    ctx = CharFieldCtx(p=p, e=e, poly=poly, eps=eps, eps_pows=tuple(pows))
    _CHAR_CACHE[p] = ctx
    return ctx
