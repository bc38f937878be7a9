"""GF(2) rank of the unital codes: per t-character from the base blocks, and row by row.

`rank2_by_characters` is the engine; `rank2_of_unital` streams the rows of a
developed block array into Python ints and is its test oracle.
"""
from __future__ import annotations

import numpy as np

from .errors import FieldError, VerificationError
from .fields import ThetaSetup, make_char_field, trace_form_table
from .geometry import UnitalDesign

_ORDER_SEED = 0
_SLACK = 8                 # K-rows beyond q^2 - 1 in a component's first batch
_STRIP = 8                 # columns per Four Russians strip; divides 64
_CHUNK_WORDS = 1 << 16     # words per chunk of a gather or copy, to keep temporaries small


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


def rank2_of_unital(design: UnitalDesign, include_infinity: bool = True,
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


def _eliminate(rows: np.ndarray, stop: int) -> int:
    """GF(2) rank of uint64 rows (column c is bit c % 64 of word c // 64); rows is consumed.

    Four Russians strips (Albrecht-Bard-Hart, M4RI): for each strip of _STRIP
    columns, move r <= _STRIP rows independent on the strip to the top, tabulate
    all 2^r sums of them, and clear the strip in every row below with one table
    row. The pivot rows are then set aside, and a word that is clear in every
    remaining row is cut off in place, so each update runs on one contiguous
    block and no second matrix is allocated. Stops once the rank reaches `stop`.
    """
    buf = rows.reshape(-1)
    rank = 0
    while rows.size and rank < stop:
        word = rows[:, 0].copy()
        for shift in range(0, 64, _STRIP):
            strip = ((word >> shift) & ((1 << _STRIP) - 1)).astype(np.intp)
            # pivots among the distinct strip values, then some row holding each
            vals = np.flatnonzero(np.bincount(strip, minlength=1 << _STRIP))
            reduced = vals.copy()
            chosen = []
            for j in range(_STRIP):
                hit = np.flatnonzero(reduced & (1 << j))
                if hit.size:
                    chosen.append(vals[hit[0]])
                    reduced[hit] ^= reduced[hit[0]]
            if not chosen:
                continue
            holder = np.zeros(1 << _STRIP, dtype=np.intp)
            holder[strip] = np.arange(strip.size)
            r = len(chosen)
            piv = set(holder[chosen].tolist())
            # pivots below the top r rows trade places with the non-pivots in them
            swap = [i for i in piv if i >= r] + [k for k in range(r) if k not in piv]
            back = swap[len(swap) // 2:] + swap[:len(swap) // 2]
            for arr in (rows, strip, word):
                arr[swap] = arr[back]
            table = np.zeros((1 << r, rows.shape[1]), dtype=np.uint64)
            sums = np.zeros(1 << r, dtype=np.intp)
            for k in range(r):
                table[1 << k:2 << k] = table[:1 << k] ^ rows[k]
                sums[1 << k:2 << k] = sums[:1 << k] ^ strip[k]
            lut = np.zeros(1 << _STRIP, dtype=np.intp)
            lut[sums] = np.arange(1 << r)
            idx = lut[strip[r:]]
            rows = rows[r:]
            step = max(1, _CHUNK_WORDS // rows.shape[1])
            for lo in range(0, rows.shape[0], step):
                rows[lo:lo + step] ^= table[idx[lo:lo + step]]
            word = word[r:] ^ table[idx, 0]
            rank += r
            if rank >= stop:
                return rank
        n, width = rows.shape
        packed = buf[:n * (width - 1)].reshape(n, width - 1)
        step = max(1, _CHUNK_WORDS // width)
        for lo in range(0, n, step):             # each chunk lands below its source
            packed[lo:lo + step] = rows[lo:lo + step, 1:]
        rows = packed
    return rank


def _realify(ext, x: np.ndarray, bits: np.ndarray, pairs: np.ndarray,
             width: int) -> np.ndarray:
    """The GF(2) rows eps^i r, i < e, of the K-rows r of M_w for the (a, beta) ids in pairs.

    bits[beta - 1, i, j, b] is bit b of eps^i psi_w(t_j) for point j of D_beta; it
    goes to column b q^2 + x_j + a.
    """
    n_blocks, e = bits.shape[:2]
    out = np.empty((pairs.size * e, width), dtype=np.uint64)
    step = max(1, _CHUNK_WORDS // (8 * e * width))     # 8 * _CHUNK_WORDS dense bytes
    for lo in range(0, pairs.size, step):
        a, b = np.divmod(pairs[lo:lo + step], n_blocks)
        cols = ext.vadd(x[b], a[:, None])
        r, i, j, plane = np.nonzero(bits[b])
        dense = np.zeros((a.size * e, 64 * width), dtype=bool)
        dense[r * e + i, plane * ext.n + cols[r, j]] = True
        out[lo * e:(lo + a.size) * e] = np.packbits(dense, axis=1,
                                                    bitorder="little").view("<u8")
    return out


def rank2_by_characters(setup: ThetaSetup, x: np.ndarray, t: np.ndarray) -> int:
    """dim C_2 of U_theta, punctured or not, from the checked base blocks x, t of base_blocks.

    T = {0} x GF(q) has odd order and maps blocks to blocks, so over K = GF(2^e),
    e = ord_p(2), the code splits by the characters psi_w(t) = eps^Tr(w t)
    (Maschke; MacWilliams-Mann, 1968): dim C_2 = q^2 + sum over w != 0 of
    rank_K(M_w). The q^2 is the trivial part: B_a gives e_a + e_inf, and each
    D_beta has q + 1 points, an even number. M_w has one row per (a, beta), with
    psi_w(t) at column x + a for each point (x, t) of D_beta; t-translates of a
    row are multiples of it, and the B_a rows vanish. Frobenius gives
    rank_K(M_w) = rank_K(M_2w), so one w per orbit of x2 on GF(q)* (e members)
    is eliminated, realified over GF(2) by _realify: its GF(2) rank is
    e rank_K(M_w).

    A component takes the first q^2 - 1 + _SLACK (a, beta) of a seeded order,
    twice as many while it falls short, up to all of them, and stops at
    e(q^2 - 1), its maximum when every D_beta meets every t-class evenly
    (all-ones is then in the kernel of M_w), or at e q^2 otherwise. Elimination
    never overshoots, so each component either met its maximum or absorbed all
    its rows, and the total is exact; above q^3 - q + 1, the proven bound, it
    is an error.
    """
    tower = setup.tower
    base, ext = tower.base, tower.ext
    q, n = base.n, ext.n
    cf = make_char_field(base.p)
    e = cf.e
    n_pairs = n * (q - 1)
    order = _seeded_order(n_pairs)
    meets = np.bincount((np.arange(q - 1)[:, None] * q + t).ravel(), minlength=(q - 1) * q)
    stop = e * n if np.any(meets & 1) else e * (n - 1)
    width = -(-e * n // 64)
    trace_form = trace_form_table(base)
    eps = np.array(cf.eps_pows, dtype=np.int64)
    shifts = np.arange(e)
    two = base.element_from_int(2)
    seen = np.zeros(q, dtype=bool)
    total = n
    for w in range(1, q):
        if seen[w]:
            continue
        v = w
        while not seen[v]:
            seen[v] = True
            v = base.mul(v, two)
        k = trace_form[w, t]
        powers = eps[(k[:, None, :] + shifts[None, :, None]) % base.p]
        bits = ((powers[..., None] >> shifts) & 1).astype(bool)
        size = n - 1 + _SLACK
        while True:
            size = min(size, n_pairs)
            rank = _eliminate(_realify(ext, x, bits, order[:size], width), stop)
            if rank >= stop or size == n_pairs:
                break
            size *= 2
        total += rank
    bound = q**3 - q + 1
    if total > bound:
        raise VerificationError(f"rank {total} exceeds the proven upper bound {bound}")
    return total
