"""GF(2) rank of the unital codes: per character of V x GF(q), and row by row.

`rank2_by_characters` is the engine: it splits the code by the (u, w)
characters of V x GF(q), V the embedded GF(q), and eliminates every component
of a batch together in one stacked kernel, `_eliminate`. `rank2_of_unital`
streams the rows of a developed block array into Python ints and is its test
oracle.
"""
from __future__ import annotations

import math

from .charspec import make_spectrum_ctx, slice_of
from . import geometry
from .fields import _chunk_rows
from .errors import FieldError, VerificationError

import numpy as np

_ORDER_SEED = 0
_SLACK = 8                 # (a1, beta) rows beyond q in a component's first batch


class RankAccumulator:
    """Pivot-keyed forward elimination; bit i of a row is column i."""

    def __init__(self, width: int, early_stop: int | None = None):
        if width <= 0:
            raise FieldError("width must be positive")
        self.width = width
        self.early_stop = early_stop
        self.rank = 0
        self._basis: dict[int, int] = {}

    @property
    def saturated(self) -> bool:
        return self.early_stop is not None and self.rank >= self.early_stop

    def absorb(self, row: int) -> bool:
        """Reduce row against the basis; keep a nonzero residue. True if rank grew."""
        if row < 0 or row.bit_length() > self.width:
            raise FieldError(
                f"row of width {row.bit_length()} does not fit {self.width} columns")
        if self.saturated:
            return False
        basis = self._basis
        while row:
            # bit_length reads the top limb, so top-bit pivoting costs O(1) per step
            piv = row.bit_length() - 1
            b = basis.get(piv)
            if b is None:
                basis[piv] = row
                self.rank += 1
                return True
            row ^= b
        return False


def row_int(pids, nbytes: int) -> int:
    """Pack point indices into a little-endian bitmap integer."""
    buf = bytearray(nbytes)
    for p in pids:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def rank2_of_unital(design: geometry.UnitalDesign, include_infinity: bool = True,
                    early_stop: bool = False) -> int:
    """dim C_2 of the (possibly punctured) incidence matrix, streamed block by block."""
    q = design.q
    inf_id = design.inf_id
    width = inf_id + 1 if include_infinity else inf_id
    bound = q**3 - q + 1
    acc = RankAccumulator(width, early_stop=bound if early_stop else None)
    blocks = design.blocks
    # The rank does not depend on block order, and elimination never overshoots,
    # so reaching the proven bound certifies it. A seeded shuffle reaches the
    # bound after about `bound` blocks (q=27: 19,658 of 551,124); the a-major
    # order needs far more.
    order = np.random.default_rng(_ORDER_SEED).permutation(blocks.shape[0])
    nbytes = (width + 7) >> 3
    for lo in range(0, blocks.shape[0], 4096):
        for row in blocks[order[lo:lo + 4096]].tolist():
            if not include_infinity and row[-1] == inf_id:
                row = row[:-1]
            acc.absorb(row_int(row, nbytes))
            if acc.saturated:
                break
        if acc.saturated:
            break
    if acc.rank > bound:
        raise VerificationError(
            f"rank {acc.rank} exceeds the proven upper bound {bound}")
    return acc.rank


def _seeded_order(n: int) -> np.ndarray:
    """A fixed shuffle of range(n): the argsort of splitmix64 (Steele-Lea-Flood) of i.

    The splitmix64 finalizer is a bijection of 64-bit words, so no two keys tie.
    """
    z = np.uint64(_ORDER_SEED) + (np.arange(1, n + 1, dtype=np.uint64)
                                  * np.uint64(0x9E3779B97F4A7C15))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return np.argsort(z ^ (z >> np.uint64(31)))


def _eliminate(stack: np.ndarray) -> np.ndarray:
    """GF(2) rank of each matrix of a (W, C, R) uint64 stack; the stack is consumed.

    Matrix j has the R rows stack[:, j, r]; its column c is bit c % 64 of word
    c // 64. Every matrix is eliminated at once, one column at a time: in each,
    the first row with the bit set is the pivot and is added to every row with
    the bit set, itself included. That clears the column in the others and
    turns the pivot row into zero, which sets it aside. Words are the leading
    axis, so each step reads one contiguous (C, R) plane, and a column clear in
    every row of the stack is skipped.
    """
    width, n, _ = stack.shape
    ranks = np.zeros(n, dtype=np.int64)
    comp = np.arange(n)
    for word in range(width):
        live, plane = stack[word:], stack[word]
        present = int(np.bitwise_or.reduce(plane, axis=None))
        for b in range(present.bit_length()):
            if present >> b & 1:
                bit = (plane >> np.uint64(b)) & np.uint64(1)
                piv = bit.argmax(axis=1)
                ranks += bit[comp, piv].astype(np.int64)
                live ^= live[:, comp, piv][:, :, None] * bit
    return ranks


def rank2_by_characters(blocks: geometry.BaseBlocks) -> tuple[int, np.ndarray]:
    """dim C_2 of U_theta, punctured or not, from the checked base blocks of base_blocks.

    Returns the total and the K-rank of every (u, w) component, indexed [u, w].
    H = V x GF(q), V = {x : x1 = 0}, has odd order and maps blocks to blocks, so
    over K = GF(2^e), e = ord_p(2), the code splits by the characters
    (x0, t) -> eps^(Tr(u x0) + Tr(w t)) of H (Maschke; MacWilliams-Mann, 1968).
    The w = 0 part has dimension q^2, q per u: B_a gives e_a + e_inf, and each
    D_beta has q + 1 points, an even number. For w != 0, M_{u,w} has one row per
    (a1, beta) and one column per coset x1 = c; entry c sums the character over
    the points of D_beta + (a1 xi, 0) with x1 = c. A shift by (a0, s) only
    scales a row, and the B_a rows vanish. Frobenius gives rank_K(M_{u,w}) =
    rank_K(M_{2u,2w}), and when the multiplier group M of the blocks is GF(q)*
    (geometry.base_blocks), phi_c maps the code onto itself, so rank_K(M_{u,w}) =
    rank_K(M_{cu,c^d w}). One (u, w) per orbit of the group they generate is
    eliminated, realified over GF(2): K-row r becomes the e rows eps^i r, whose
    GF(2) rank is e rank_K. Column c holds its e bits in slot c % (64 // e) of word
    c // (64 // e); a row's word is the XOR of eps^(i + k) shifted to the slot
    of each point, the parity of the hit counts of each bit.

    Every component takes the first q + _SLACK (a1, beta) of a seeded order,
    twice as many while it falls short, up to all of them, and stops at e q,
    or at e (q - 1) for u = 0 when every D_beta meets every t-class evenly (all
    ones is then in the kernel of M_{0,w}). Elimination never overshoots, so
    each component either met its maximum or absorbed all its rows, and the
    total is exact; above q^3 - q + 1, the proven bound, it is an error.
    FieldError when e > 64.
    """
    base = blocks.setup.tower.base
    q, p = base.n, base.p
    ctx = make_spectrum_ctx(blocks)
    e = ctx.e
    slots = 64 // e
    width = -(-q // slots)
    eps = ctx.epsx.astype(np.uint64)
    # one (u, w) per orbit with w != 0: the least u q + w over the x2 images of its
    # M-orbit representative rep, slice_of's (s, w') for u != 0 and (0, w') with
    # log w' = log w mod gcd(d, q - 1) for u = 0 (w' = w when M = {1}, d = 0)
    pair = np.arange(q * q).reshape(q, q)[:, 1:].ravel()
    rep = np.arange(q * q)
    s, _, w1 = slice_of(blocks, np.arange(1, q)[:, None], 0, np.arange(1, q))   # [u - 1, w - 1]
    rep[pair[q - 1:]] = (s * q + w1).ravel()
    rep[1:q] = base.exp[base.log[1:q] % math.gcd(blocks.d, q - 1)]
    double = base.vmul(2 % p, np.arange(q))
    least = img = rep[pair]             # a gather, so np.minimum never writes into rep
    for _ in range(e - 1):
        img = rep[double[img // q] * q + double[img % q]]
        np.minimum(least, img, out=least)
    reps = pair[least == pair]
    meets = np.bincount((np.arange(q - 1)[:, None] * q + ctx.t).ravel(), minlength=(q - 1) * q)
    even = not np.any(meets & 1)
    caps = np.where((reps // q == 0) & even, e * (q - 1), e * q)
    tr_u, tr_w = ctx.trace_form[reps // q], ctx.trace_form[reps % q]
    x0, x1, t = ctx.x0.ravel(), ctx.x1, ctx.t.ravel()
    powers = np.arange(e)                   # K-row r gives the GF(2) rows eps^i r
    n_pairs = q * (q - 1)
    order = _seeded_order(n_pairs)
    got = np.zeros(reps.size, dtype=np.int64)
    todo = np.arange(reps.size)
    size = q + _SLACK
    while todo.size:
        size = min(size, n_pairs)
        a1, beta = np.divmod(order[:size], q - 1)
        # points sorted by column in each row: the points of one word are adjacent,
        # and each run of them is one segment of the XOR reduceat
        cols = base.vadd(x1[beta], a1[:, None])
        by_col = np.argsort(cols, axis=1, kind="stable")
        cols = np.take_along_axis(cols, by_col, axis=1)
        pts = beta[:, None] * (q + 1) + by_col
        word = cols // slots
        slot = ((cols % slots) * e).astype(np.uint64)
        new = np.ones(cols.shape, dtype=bool)
        new[:, 1:] = word[:, 1:] != word[:, :-1]
        starts = np.flatnonzero(new)
        seg_word, seg_row = word[new], np.nonzero(new)[0]
        # per component: its stack words and _eliminate's temporary of the same size,
        # and, while its rows are built, an int64 index and a uint64 value per point
        # and power of eps
        step = _chunk_rows(16 * width * e * size)
        sub = _chunk_rows(16 * e * cols.size)
        for lo in range(0, todo.size, step):
            chunk = todo[lo:lo + step]
            stack = np.zeros((width, chunk.size, e, size), dtype=np.uint64)
            for j in range(0, chunk.size, sub):
                part = chunk[j:j + sub]
                k = tr_u[part][:, x0[pts]] + tr_w[part][:, t[pts]]
                vals = eps[k[:, None] + powers[None, :, None, None]]
                vals <<= slot
                stack[seg_word, j:j + sub, :, seg_row] = np.bitwise_xor.reduceat(
                    vals.reshape(part.size, e, -1), starts, axis=2).transpose(2, 0, 1)
            got[chunk] = _eliminate(stack.reshape(width, chunk.size, e * size))
        todo = todo[got[todo] < caps[todo]] if size < n_pairs else todo[:0]
        size *= 2
    ranks = np.full(q * q, q, dtype=np.int64)
    krank = np.zeros(q * q, dtype=np.int64)
    krank[reps] = got // e
    ranks[pair] = krank[least]
    total = int(ranks.sum())
    bound = q**3 - q + 1
    if total > bound:
        raise VerificationError(f"rank {total} exceeds the proven upper bound {bound}")
    return total, ranks.reshape(q, q)
