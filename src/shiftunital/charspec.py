"""The character context of both rank engines; the spectrum engine over GF(2^e); rank bounds."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FieldError, VerificationError
from .fields import ThetaSetup, _chunk_rows, make_char_field, trace_form_table
from .geometry import base_blocks
from .planar import PlanarSpec, is_normal

@dataclass(frozen=True, eq=False)
class SpectrumCtx:
    """The character data of one unital's base blocks, read by both rank engines.

    Tr is additive, so chi_{u,v,w}(x, t) = eps^(Tr(u*x0) + Tr(v*x1) + Tr(w*t)), and
    each trace is read from trace_form at a block's coordinates: trace_form[u, x0]
    and so on. x0, x1 and t are GF(q) indices, row beta - 1 for D_beta. epsx is
    eps_pows tiled three times, so a sum of three traces indexes it directly.
    """

    trace_form: np.ndarray = field(repr=False)  # (q, q) Tr(a*b)
    x0: np.ndarray = field(repr=False)        # (q - 1, q + 1) x0 of each point of D_beta
    x1: np.ndarray = field(repr=False)        # (q - 1, q + 1) x1 of each point of D_beta
    t: np.ndarray = field(repr=False)         # (q - 1, q + 1) t of each point of D_beta
    epsx: np.ndarray = field(repr=False)      # (3p,) eps^(k mod p)
    e: int                                    # eps lies in GF(2^e), e = ord_p(2)


def make_spectrum_ctx(setup: ThetaSetup, x: np.ndarray, t: np.ndarray) -> SpectrumCtx:
    """The character data of the base blocks x, t of base_blocks.

    FieldError when a character value needs more than 64 bits (e > 64).
    """
    tower = setup.tower
    base = tower.base
    cf = make_char_field(base.p)
    if cf.e > 64:
        raise FieldError(f"character values of GF(2^{cf.e}) do not fit in 64 bits")
    eps = np.array(cf.eps_pows, dtype=np.min_scalar_type((1 << cf.e) - 1))
    return SpectrumCtx(trace_form=trace_form_table(base), x0=tower.dec0[x],
                       x1=tower.dec1[x], t=t, epsx=np.tile(eps, 3), e=cf.e)


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Witness arrays over all q^3 characters, indexed [u, v, w].

    lowest holds the lowest certifying beta of each member with w != 0 and 0
    elsewhere. With witness_all, certifying holds every certifying beta of each
    character as little-endian bits, bit beta - 1 of its last axis; else None.
    """

    q: int
    lowest: np.ndarray = field(repr=False)
    certifying: np.ndarray | None = field(repr=False, default=None)

    @cached_property
    def members(self) -> np.ndarray:
        """Membership as a read-only bool array indexed [u, v, w]."""
        out = self.lowest > 0
        out[:, :, 0] = True
        out.setflags(write=False)
        return out

    @cached_property
    def size(self) -> int:
        return int(np.count_nonzero(self.members))

    @cached_property
    def bitmap(self) -> int:
        """Membership as an int, bit (u*q + v)*q + w per character."""
        return int.from_bytes(
            np.packbits(self.members, bitorder="little").tobytes(), "little")

    def certifying_sets(self, u: int) -> list[tuple[int, ...]]:
        """Every certifying beta of each chi_{u,v,w}, ascending, in (v, w) order.

        Needs a witness_all result; FieldError otherwise.
        """
        if self.certifying is None:
            raise FieldError("certifying sets need a witness_all spectrum")
        q = self.q
        bits = np.unpackbits(self.certifying[u], axis=-1, count=q - 1, bitorder="little")
        rows, cols = np.nonzero(bits.reshape(q * q, q - 1))
        betas = (cols + 1).tolist()
        ends = np.searchsorted(rows, np.arange(q * q + 1)).tolist()
        return [tuple(betas[lo:hi]) for lo, hi in zip(ends, ends[1:])]


def _nonzero(epsx: np.ndarray, k: np.ndarray) -> np.ndarray:
    """S != 0 for each row of trace sums k: eps^k, xor-reduced over the last axis."""
    return np.bitwise_xor.reduce(np.take(epsx, k), axis=-1) != 0


def spectrum_size(setup: ThetaSetup, f: PlanarSpec, witness_all: bool = False,
                  blocks: tuple[np.ndarray, np.ndarray] | None = None) -> SpectrumResult:
    """Evaluate all q^3 characters; the popcount equals dim C_2 of the punctured design.

    chi_{u,v,0} is a member via B_a. For each u, S(beta) is evaluated circle by
    circle, beta = 1..q-1, for every (v, w != 0) still pending, in chunks that
    fit the working-memory budget. A character leaves the pending set at its
    first nonzero sum, so its witness is the lowest certifying beta, and u = v = 0
    is scanned on every circle (the exclusion lemma). witness_all keeps every
    character pending and records all certifying betas. While every pair is
    pending, a block of v is summed against every w by broadcast; after that the
    pending pairs are gathered. Every sum is a sum of three trace values looked
    up in epsx, then xor-reduced. The S(beta) criterion holds for normal f only;
    FieldError otherwise. `blocks` is the checked (x, t) of base_blocks, built here
    when None.
    """
    if not is_normal(f):
        raise FieldError("spectrum engine requires a normal f")
    ctx = make_spectrum_ctx(setup, *(base_blocks(f, setup) if blocks is None else blocks))
    tf = ctx.trace_form
    q = setup.tower.base.n
    row = 8 * (q + 1)               # np.take widens each pair's q + 1 trace sums to intp
    step, vstep = _chunk_rows(row), _chunk_rows(row * (q - 1))
    lowest = np.zeros((q, q, q), dtype=np.min_scalar_type(q - 1))   # 0: no witness yet
    certifying = (np.zeros((q, q, q, (q + 6) // 8), dtype=np.uint8)
                  if witness_all else None)
    for u in range(q):
        low = lowest[u, :, 1:]
        pv = pw = None                                  # None: every (v, w - 1) pending
        for beta in range(1, q):
            uv = tf[u, ctx.x0[beta - 1]] + tf[:, ctx.x1[beta - 1]]      # (v, point)
            wt = tf[1:, ctx.t[beta - 1]]                                # (w - 1, point)
            if pv is None:
                hit = np.concatenate([_nonzero(ctx.epsx, uv[i:i + vstep, None] + wt)
                                      for i in range(0, q, vstep)])
                if witness_all:
                    bits = hit.view(np.uint8) << (beta - 1) % 8
                    certifying[u, :, 1:, (beta - 1) // 8] |= bits
                    hit &= low == 0
                else:
                    pv, pw = np.nonzero(~hit)
                low[hit] = beta
            elif pv.size:
                hit = np.concatenate([
                    _nonzero(ctx.epsx, uv[pv[i:i + step]] + wt[pw[i:i + step]])
                    for i in range(0, pv.size, step)])
                low[pv[hit], pw[hit]] = beta
                pv, pw = pv[~hit], pw[~hit]
            else:
                break
        if u == 0 and low[0].any():
            raise VerificationError(
                "S(beta) != 0 for u = v = 0: contradicts the exclusion lemma")
    return SpectrumResult(q=q, lowest=lowest, certifying=certifying)


def bounds(q: int, p: int, m: int) -> dict:
    """Exact integer rank bounds: proven upper, general lower, p = 3 improvement."""
    upper = q**3 - q + 1
    num = (q**3 - q**2 + q) * (p - 1) + q**2
    if num % p:
        raise FieldError(f"Leung-Xiang bound is not integral for q = {q}, p = {p}")
    lx = num // p
    corollary = None
    if p == 3:
        inner = q**3 + q**2 - 2 * q if m % 2 == 0 else q**3 + q**2 + q
        if (2 * inner) % 3:
            raise FieldError(f"corollary bound is not integral for q = {q}")
        corollary = (2 * inner) // 3 - 1
    return {"upper": upper, "leung_xiang": lx, "corollary": corollary}
