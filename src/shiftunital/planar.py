"""Planar functions on GF(q^2): registry, planarity and normality checks."""
from __future__ import annotations

import math
from typing import NamedTuple

from .fields import FieldCtx, _chunk_rows
from .errors import DesignError, FieldError

import numpy as np

class PlanarSpec(NamedTuple):
    """A candidate planar function, tabulated densely over its field."""

    name: str
    family: str                  # "square" | "coulter_matthews" | "dembowski_ostrom"
    field: FieldCtx
    table: np.ndarray


def square_spec(ext: FieldCtx) -> PlanarSpec:
    tbl = ext.vpow(np.arange(ext.n), 2)
    return PlanarSpec(name="square", family="square", field=ext, table=tbl)


def coulter_matthews_spec(ext: FieldCtx, k: int) -> PlanarSpec:
    """x^((3^k+1)/2) on GF(3^e); planar exactly when gcd(k, 2e) = 1."""
    if ext.p != 3:
        raise FieldError("Coulter-Matthews functions require characteristic 3")
    if k < 1 or math.gcd(k, 2 * ext.m) != 1:
        raise FieldError(f"x^((3^{k}+1)/2) is not planar on GF(3^{ext.m})")
    # (3^k + 1)/2 mod 3^e - 1, all that vpow reads, without forming 3^k
    d = (pow(3, k, 2 * (ext.n - 1)) + 1) // 2
    tbl = ext.vpow(np.arange(ext.n), d)
    return PlanarSpec(name=f"cm{k}", family="coulter_matthews", field=ext, table=tbl)


def do_spec(ext: FieldCtx, entries: list[tuple[int, int, int]]) -> PlanarSpec:
    """Dembowski-Ostrom polynomial sum of a_ij x^(p^i + p^j), named do-<sha1 of the
    sorted entries>; rejected unless planar."""
    idx = np.arange(ext.n)
    tbl = np.zeros(ext.n, dtype=np.int32)
    for i, j, a in entries:
        if not (0 <= i < ext.m and 0 <= j < ext.m):
            raise FieldError(f"exponent indices ({i},{j}) out of range for degree {ext.m}")
        if not (0 <= a < ext.n):
            raise FieldError(f"coefficient index {a} out of range")
        if a:
            term = ext.vmul(np.full(ext.n, a, dtype=np.int32), ext.vpow(idx, ext.p**i + ext.p**j))
            tbl = ext.vadd(tbl, term)
    import hashlib          # loads OpenSSL; only this name needs it
    digest = hashlib.sha1(
        ",".join(f"{i}:{j}:{a}" for i, j, a in sorted(entries)).encode()).hexdigest()[:8]
    spec = PlanarSpec(name=f"do-{digest}", family="dembowski_ostrom", field=ext, table=tbl)
    w = planarity_witness(spec)
    if w is not None:
        raise DesignError(
            f"table is not planar: x -> f(x+a)-f(x) is not a bijection for a = {w}")
    return spec


def parse_do_table(text: str) -> list[tuple[int, int, int]]:
    """Parse lines 'i j a_ij_index'; blank lines and # comments are skipped."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FieldError(f"line {lineno}: expected 'i j a_ij_index', got {raw!r}")
        try:
            i, j, a = (int(v) for v in parts)
        except ValueError:
            raise FieldError(f"line {lineno}: non-integer entry in {raw!r}") from None
        entries.append((i, j, a))
    if not entries:
        raise FieldError("empty coefficient table")
    return entries


def _multiplicative(spec: PlanarSpec) -> bool:
    """Whether f(0) = 0, f(1) = 1 and f(g*x) = f(g)*f(x) for the primitive g and every x.

    Then f(a*x) = f(a)*f(x) for all a, x, so D_a(x) = f(a) * D_1(x/a) with
    f(a) != 0: every difference map is a bijection iff D_1 is.
    """
    ctx = spec.field
    tbl = spec.table
    g = int(ctx.exp[1])
    return (int(tbl[0]) == 0 and int(tbl[1]) == 1
            and np.array_equal(tbl[ctx.vmul(g, np.arange(ctx.n))], ctx.vmul(int(tbl[g]), tbl)))


def planarity_witness(spec: PlanarSpec) -> int | None:
    """Smallest a for which D_a(x) = f(x+a) - f(x) fails to be a bijection, or None.

    Exhaustive: a multiplicative table needs D_1 only, any other table has every
    D_a checked, a block of rows per gather.
    """
    ctx = spec.field
    n = ctx.n
    tbl = spec.table
    idx = np.arange(n)
    last = 2 if _multiplicative(spec) else n
    step = _chunk_rows(4 * n)                # int32 sums and differences, n per row
    for lo in range(1, last, step):
        a = idx[lo:min(lo + step, last), None]
        diffs = np.sort(ctx.vsub(tbl[ctx.vadd(a, idx[None, :])], tbl[None, :]), axis=1)
        bad = np.flatnonzero((diffs != idx).any(axis=1))
        if bad.size:
            return lo + int(bad[0])
    return None


def is_planar(spec: PlanarSpec) -> bool:
    """Whether x -> f(x+a) - f(x) is a bijection for every a != 0."""
    return planarity_witness(spec) is None


def is_normal(spec: PlanarSpec) -> bool:
    """Whether f(0) = 0 and f(a) = f(b) exactly when a = +-b."""
    ctx = spec.field
    tbl = spec.table
    if int(tbl[0]) != 0:
        return False
    if not np.array_equal(tbl[ctx.neg_table], tbl):
        return False
    counts = np.bincount(tbl, minlength=ctx.n)
    # even + 2-bounded fibers force each nonzero fiber to be exactly {a, -a}
    return int(counts[0]) == 1 and int(counts.max()) <= 2


def registry_list(ext: FieldCtx) -> list[PlanarSpec]:
    """Built-in planar families on the given field, each re-verified before return."""
    specs = [square_spec(ext)]
    if ext.p == 3:
        e = ext.m
        for k in range(2, e):
            if math.gcd(k, 2 * e) == 1:
                specs.append(coulter_matthews_spec(ext, k))
    for spec in specs:
        w = planarity_witness(spec)
        if w is not None:
            raise DesignError(f"registry spec {spec.name} failed planarity at a = {w}")
    return specs
