"""Streaming GF(2) rank of block incidence matrices, bit-packed into Python ints."""
from __future__ import annotations

import numpy as np

from .errors import FieldError, VerificationError
from .fields import ThetaSetup
from .geometry import UnitalDesign

_ORDER_SEED = 0


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
