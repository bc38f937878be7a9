"""The character context of both rank engines; the spectrum engine over GF(2^e); rank bounds."""
from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import geometry
from .planar import PlanarSpec, is_normal
from .fields import ThetaSetup, _chunk_rows, make_char_field, trace_form_table
from .errors import FieldError, VerificationError

import numpy as np

class SpectrumCtx(NamedTuple):
    """The character data of one unital's base blocks, read by both rank engines.

    Tr is additive, so chi_{u,v,w}(x, t) = eps^(Tr(u*x0) + Tr(v*x1) + Tr(w*t)), and
    each trace is read from trace_form at a block's coordinates: trace_form[u, x0]
    and so on. x0, x1 and t are GF(q) indices, row beta - 1 for D_beta. epsx is
    eps_pows tiled three times, so a sum of three traces indexes it directly.
    """

    trace_form: np.ndarray    # (q, q) Tr(a*b)
    x0: np.ndarray            # (q - 1, q + 1) x0 of each point of D_beta
    x1: np.ndarray            # (q - 1, q + 1) x1 of each point of D_beta
    t: np.ndarray             # (q - 1, q + 1) t of each point of D_beta
    epsx: np.ndarray          # (3p,) eps^(k mod p)
    e: int                    # eps lies in GF(2^e), e = ord_p(2)


def make_spectrum_ctx(blocks: geometry.BaseBlocks) -> SpectrumCtx:
    """The character data of the checked base blocks.

    FieldError when a character value needs more than 64 bits (make_char_field).
    """
    tower = blocks.setup.tower
    base = tower.base
    cf = make_char_field(base.p)
    eps = np.array(cf.eps_pows, dtype=np.min_scalar_type((1 << cf.e) - 1))
    return SpectrumCtx(trace_form=trace_form_table(base), x0=tower.dec0[blocks.x],
                       x1=tower.dec1[blocks.x], t=blocks.t, epsx=np.tile(eps, 3), e=cf.e)


def slice_of(blocks: geometry.BaseBlocks, u, v, w):
    """(s, v', w'): the stored slice s that decides chi_{u,v,w}, and its indices there.

    Broadcasts. With M = {1} every u is stored: the identity. With M = GF(q)*, phi_c
    maps D_beta onto D_(c^d beta) (geometry.base_blocks), so chi_{u,v,w} sums over
    D_(c^d beta) as chi_{cu,cv,c^d w} does over D_beta. With c = 1/u (1 at u = 0) it
    is a member iff its image in slice uc is, and its certifying betas are u^-d times
    those of the image.
    """
    if blocks.size == 1:
        return u, v, w
    base = blocks.setup.tower.base
    c = base.vpow(np.where(u == 0, 1, u), -1)
    return base.vmul(u, c), base.vmul(c, v), base.vmul(base.vpow(c, blocks.d), w)


class SpectrumResult:
    """Membership of the q^3 characters chi_{u,v,w}, read off the evaluated u-slices.

    slices[s, v, w] holds the lowest certifying beta of each member with w != 0 and
    0 elsewhere, for the u-slices that spectrum_size evaluated: one per orbit of the
    multiplier group M of the blocks on u (geometry.base_blocks). slice_of sends each
    character to its slice. Nothing held is q^3-sized: other u are evaluated from ctx.
    The four fields are read-only; the cached properties fill in on first read.
    """

    def __init__(self, q: int, slices: np.ndarray, blocks: geometry.BaseBlocks,
                 ctx: SpectrumCtx):
        self.__dict__.update(q=q, slices=slices, blocks=blocks, ctx=ctx)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    @cached_property
    def size(self) -> int:
        n = np.count_nonzero(self.slices.reshape(len(self.slices), -1), axis=1).tolist()
        # chi_{u,v,0} for every (u, v), then w != 0: slice 0, and q - 1 u read the rest
        return self.q * self.q + n[0] + (self.q - 1) * sum(n[1:]) // (len(n) - 1)

    @cached_property
    def counts(self) -> np.ndarray:
        """Members chi_{u,v,w} over v, indexed [u, w]: the count of its slice (slice_of)."""
        q = self.q
        counts = np.count_nonzero(self.slices, axis=1)
        counts[:, 0] = q
        ar = np.arange(q)
        s, _, w = slice_of(self.blocks, ar[:, None], 0, ar)
        return counts[s, w]

    def members_of(self, u: int) -> np.ndarray:
        """Membership of chi_{u,v,w} as a bool array indexed [v, w], from the slices."""
        ar = np.arange(self.q)
        out = self.slices[slice_of(self.blocks, u, ar[:, None], ar)] > 0
        out[:, 0] = True
        return out

    def lowest_of(self, u: int) -> np.ndarray:
        """The u-slice of the lowest certifying betas: stored, or evaluated here (_scan)."""
        return self.slices[u] if u < len(self.slices) else _scan(self.ctx, u)

    @property
    def bitmap(self) -> int:
        """Membership as an int, bit (u*q + v)*q + w per character."""
        # eight slices of q^2 bits fill whole bytes, so the chunks concatenate
        return int.from_bytes(b"".join(
            np.packbits([self.members_of(u) for u in range(self.q)[lo:lo + 8]],
                        bitorder="little").tobytes() for lo in range(0, self.q, 8)), "little")

    def certifying_sets(self, u: int) -> list[tuple[int, ...]]:
        """Every certifying beta of each chi_{u,v,w} in (v, w) order, ascending; evaluated."""
        q = self.q
        hits = np.zeros((q, q, q - 1), dtype=bool)
        _scan(self.ctx, u, hits)
        rows, cols = np.nonzero(hits.reshape(q * q, q - 1))
        betas = (cols + 1).tolist()
        ends = np.searchsorted(rows, np.arange(q * q + 1)).tolist()
        return [tuple(betas[lo:hi]) for lo, hi in zip(ends, ends[1:])]


def _nonzero(epsx: np.ndarray, k: np.ndarray) -> np.ndarray:
    """S != 0 for each row of trace sums k: eps^k, xor-reduced over the last axis."""
    return np.bitwise_xor.reduce(np.take(epsx, k), axis=-1) != 0


def _scan(ctx: SpectrumCtx, u: int, hits: np.ndarray | None = None) -> np.ndarray:
    """u-slice [v, w] of lowest certifying betas, 0 for none and w = 0; all in hits[v, w]."""
    tf = ctx.trace_form
    q = tf.shape[0]
    row = 8 * (q + 1)               # np.take widens each pair's q + 1 trace sums to intp
    step, vstep = _chunk_rows(row), _chunk_rows(row * (q - 1))
    out = np.zeros((q, q), dtype=np.min_scalar_type(q - 1))
    low = out[:, 1:]
    pv = pw = None                                      # None: every (v, w - 1) pending
    for beta in range(1, q):
        uv = tf[u, ctx.x0[beta - 1]] + tf[:, ctx.x1[beta - 1]]          # (v, point)
        wt = tf[1:, ctx.t[beta - 1]]                                    # (w - 1, point)
        if pv is None:
            hit = np.concatenate([_nonzero(ctx.epsx, uv[i:i + vstep, None] + wt)
                                  for i in range(0, q, vstep)])
            if hits is not None:
                hits[:, 1:, beta - 1] = hit
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
    return out


def spectrum_size(setup: ThetaSetup, f: PlanarSpec,
                  blocks: geometry.BaseBlocks | None = None) -> SpectrumResult:
    """The characters in the spectrum; their number equals dim C_2 of the punctured design.

    chi_{u,v,0} is a member via B_a. For each u, S(beta) is evaluated circle by
    circle, beta = 1..q-1, for every (v, w != 0) still pending, in chunks that
    fit the working-memory budget. A character leaves the pending set at its
    first nonzero sum, so its witness is the lowest certifying beta, and u = v = 0
    is scanned on every circle (the exclusion lemma). While every pair is
    pending, a block of v is summed against every w by broadcast; after that the
    pending pairs are gathered. Every sum is a sum of three trace values looked
    up in epsx, then xor-reduced. When the base blocks have the multiplier group
    M = GF(q)*, only u = 0 and 1 are evaluated here (slice_of). The S(beta)
    criterion holds for normal f only; FieldError otherwise. `blocks` is
    base_blocks(f, setup), built here when None.
    """
    if not is_normal(f):
        raise FieldError("spectrum engine requires a normal f")
    blocks = geometry.base_blocks(f, setup) if blocks is None else blocks
    ctx = make_spectrum_ctx(blocks)
    q = setup.tower.base.n
    lowest = np.stack([_scan(ctx, u) for u in range(1 + (q - 1) // blocks.size)])
    lowest.setflags(write=False)
    return SpectrumResult(q=q, slices=lowest, blocks=blocks, ctx=ctx)


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
