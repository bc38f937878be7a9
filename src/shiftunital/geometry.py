"""Shift planes, their ovals and circles, and the embedded unital designs."""
from __future__ import annotations

import itertools
import math
import warnings
from typing import NamedTuple

from .planar import PlanarSpec, is_normal, planarity_witness
from .fields import ThetaSetup, TowerCtx, _atomic_write_chunks, _chunk_rows, theta_setup
from .errors import DesignError, FieldError, VerificationError

import numpy as np

class UnitalDesign(NamedTuple):
    """A 2-(q^3+1, q+1, 1) design; point (x, t) has index x*q + t, infinity is last."""

    q: int
    p: int
    m: int
    f_name: str
    theta_index: int
    modulus: tuple[int, ...]
    blocks: np.ndarray = None
    setup: ThetaSetup | None = None

    @property
    def n_points(self) -> int:
        return self.q**3 + 1

    @property
    def inf_id(self) -> int:
        return self.q**3

    @property
    def n_blocks(self) -> int:
        return self.blocks.shape[0]


def fiber_map(setup: ThetaSetup, f: PlanarSpec) -> np.ndarray:
    """g(x) = theta1*f0(x) - theta0*f1(x) = beta(f(x)) for every x in F_{q^2}.

    FieldError unless f is tabulated over the tower's extension field; DesignError
    unless the fibers of g are 1 at 0 and q+1 elsewhere.
    """
    if f.field is not setup.tower.ext:
        raise FieldError("spec is tabulated over a different field than the tower's extension")
    q = setup.tower.base.n
    g = beta_of_table(setup)[f.table]
    counts = np.bincount(g, minlength=q)
    expected = np.full(q, q + 1, dtype=counts.dtype)
    expected[0] = 1
    bad = np.flatnonzero(counts != expected)
    if bad.size:
        c = int(bad[0])
        raise DesignError(
            f"fiber condition fails for theta index {setup.theta}: "
            f"|g^-1({c})| = {int(counts[c])}, expected {int(expected[c])}")
    return g


def circles_of(setup: ThetaSetup, f: PlanarSpec) -> np.ndarray:
    """The circles C_{0,beta}, beta != 0, at row beta - 1, each ascending: the codes
    g(x) n + x sorted once, after the one x with g(x) = 0."""
    g = fiber_map(setup, f)
    codes = np.sort(g * np.int64(g.size) + np.arange(g.size))
    return (codes[1:] % g.size).reshape(-1, setup.tower.base.n + 1)


def find_thetas(f: PlanarSpec, tower: TowerCtx) -> list[ThetaSetup]:
    """All theta in F_{q^2}* satisfying the fiber condition, ascending, by exhaustive scan.

    For c in GF(q)*, g of c*theta is c times g of theta, whose fibers it permutes
    fixing 0, so the condition holds on whole classes theta*GF(q)*. One theta is
    checked per class: 1, and s + xi for each s in GF(q).
    """
    ext = tower.ext
    good = []
    for r in [1, *ext.vadd(tower.embed, tower.xi).tolist()]:
        try:
            fiber_map(theta_setup(tower, r), f)
        except DesignError:
            continue
        good.append(r)
    thetas = np.sort(ext.vmul(tower.embed[1:, None], np.array(good, dtype=np.int64)),
                     axis=None)
    if f.family == "square":
        # known classification: admissible theta are exactly those with
        # eta(theta^(q+1)) = theta^((q^2-1)/2) = -1, that is, with log theta odd
        want = np.flatnonzero(ext.log[1:] % 2) + 1
        if not np.array_equal(thetas, want):
            raise VerificationError("fiber scan disagrees with the norm criterion: "
                                    f"{sorted(set(thetas.tolist()) ^ set(want.tolist()))}")
    return [theta_setup(tower, th) for th in thetas.tolist()]


def beta_of_table(setup: ThetaSetup) -> np.ndarray:
    """beta(b) = b0*theta1 - b1*theta0 for every b in F_{q^2}."""
    base = setup.tower.base
    return base.vsub(base.vmul(setup.theta1, setup.tower.dec0),
                     base.vmul(setup.theta0, setup.tower.dec1))


def _t_axis(setup: ThetaSetup) -> tuple[int, int]:
    """(j, theta_j): the coordinate of theta that the t-axis is read from."""
    return (1, setup.theta1) if setup.theta1 != 0 else (0, setup.theta0)


class BaseBlocks(NamedTuple):
    """The checked base blocks of U_theta (base_blocks) and their multiplier group M."""

    setup: ThetaSetup
    x: np.ndarray           # (q - 1, q + 1) GF(q^2) indices, row beta - 1
    t: np.ndarray           # (q - 1, q + 1) GF(q) indices
    size: int               # |M|: q - 1 for M = <phi>, 1 for M = {1}
    d: int                  # phi(x, t) = (w x, w^d t); 0 for M = {1}
    rows: np.ndarray        # one row per M-orbit of the blocks


def base_blocks(f: PlanarSpec, setup: ThetaSetup) -> BaseBlocks:
    """D_beta = {(y, f_j(y)/theta_j) : y in C_{0,beta}} at row beta - 1, and its certificate.

    x holds GF(q^2) indices (ascending per row), t GF(q) indices. U_theta is the
    development of the D_beta under G = GF(q^2) x GF(q), plus the short orbit of
    {(0, t)} + (inf). The blocks pass the exact difference-family check, through the
    multiplier group computed here once, before they are returned.
    """
    tower, base = setup.tower, setup.tower.base
    x = circles_of(setup, f)
    j, theta_j = _t_axis(setup)
    fj = (tower.dec1 if j else tower.dec0)[f.table[x]].astype(np.int64)
    t = base.vmul(base.inv(theta_j), fj).astype(np.int64)
    for a in (x, t):   # read-only: the certificate holds only for these blocks
        a.setflags(write=False)
    multiplier = _multiplier(setup, x, t)
    _check_difference_family(setup, x, t, multiplier)
    return BaseBlocks(setup, x, t, *multiplier)


def _multiplier(setup: ThetaSetup, x: np.ndarray, t: np.ndarray):
    """(|M|, d, rows): the multiplier group M of the base blocks, one row per M-orbit.

    phi(x, t) = (w x, w^d t), w generating GF(q)*, is an automorphism of G; d is read
    from the row D_(w^d) holding phi of the first point of D_1. If phi maps each D_beta
    onto D_(w^d beta) (one sort per row of codes x*q + t, ascending from base_blocks),
    M = <phi> has order q - 1, and its block orbits, the cosets of <w^d>, have the rows
    beta = w^i, i < gcd(d, q - 1) (M. Hall Jr., Duke Math. J. 14, 1947). Else M = {1}.
    """
    base, ext, q = setup.tower.base, setup.tower.ext, setup.tower.base.n
    w = int(setup.tower.embed[base.omega])
    d = int(base.log[np.argmax((x == ext.mul(w, int(x[0, 0]))).any(axis=1)) + 1])
    image = np.sort(ext.vmul(w, x).astype(np.int64) * q + base.vmul(base.exp[d], t), axis=1)
    if np.array_equal(image, (x * q + t)[base.vmul(base.exp[d], np.arange(1, q)) - 1]):
        return q - 1, d, base.exp[:math.gcd(d, q - 1)] - 1
    return 1, 0, np.arange(q - 1)


def _check_difference_family(setup: ThetaSetup, x: np.ndarray, t: np.ndarray,
                             multiplier: tuple) -> None:
    """The differences inside the base blocks cover G minus {0} x GF(q) exactly once.

    With the short orbit, this is exactly the 2-(q^3+1, q+1, 1) property of the
    development (a relative difference family; Beth-Jungnickel-Lenz, Design Theory).
    M (multiplier) permutes the blocks by automorphisms of G, so a difference arises
    as often as each of its M-images; on dx != 0, M acts freely with orbit labels
    (k, c^-d dt), dx = z^k c, z generating GF(q^2)*, c in GF(q)*, k < (q^2 - 1)/|M|.
    The cover is exact iff no row repeats an x and each label arises |rows||M|/(q - 1)
    times in the rows. Else the message names (0, least dt) or the least code z^k q + dt'
    of a wrong label, and how often its phi^j-images, j < (q - 1)/|rows|, arise in the
    rows: with M = {1}, the least code with a wrong count in all blocks. The labels are
    counted one chunk of rows at a time (_chunk_rows) into one count per label, q^3 - q
    of them with M = {1}; a failure reads the chunks again.
    """
    tower = setup.tower
    base, ext, q = tower.base, tower.ext, tower.base.n
    size, d, rows = multiplier
    off_diagonal = ~np.eye(x.shape[1], dtype=bool)
    step = _chunk_rows(52 * q * (q + 1))   # dx, dt, the labels and their temporaries

    def differences():
        for lo in range(0, rows.size, step):
            xs, ts = x[rows[lo:lo + step]], t[rows[lo:lo + step]]
            yield (ext.vsub(xs[:, None, :], xs[:, :, None])[:, off_diagonal],
                   base.vsub(ts[:, None, :], ts[:, :, None])[:, off_diagonal])

    n_classes = (q * q - 1) // size
    counts = np.zeros(n_classes * q, dtype=np.int64)   # q^3 - q labels when M = {1}
    for dx, dt in differences():
        if not np.all(dx):
            gx, gt = 0, min(int(dt[dx == 0].min()) for dx, dt in differences() if not dx.all())
            break
        log_dx = ext.log[dx]
        k = log_dx % n_classes
        c_to_minus_d = tower.dec0[ext.exp[(log_dx - k) * -d % (q * q - 1)]]
        labels = (k * q + base.vmul(c_to_minus_d, dt)).ravel()
        if labels.size < counts.size:       # no count-sized temporary per chunk
            np.add.at(counts, labels, 1)
        else:
            counts += np.bincount(labels, minlength=counts.size)
    else:
        wrong = np.flatnonzero(counts != rows.size * size // (q - 1))
        if not wrong.size:
            return
        gx, gt = divmod(int((ext.exp[wrong // q].astype(np.int64) * q + wrong % q).min()), q)
    c = base.exp[:(q - 1) // rows.size]
    images = ext.vmul(tower.embed[c], gx).astype(np.int64) * q + base.vmul(base.vpow(c, d), gt)
    arises = sum(np.count_nonzero(dx.astype(np.int64) * q + dt == i)
                 for dx, dt in differences() for i in images)
    raise VerificationError(f"difference ({gx}, {gt}) arises {arises} times in the base "
                            f"blocks, expected {int(gx != 0)}")


def build_unital(f: PlanarSpec, setup: ThetaSetup) -> UnitalDesign:
    """Construct U_theta with blocks B_a (a-major) then B_{a,b} ((a,b)-lexicographic).

    B_{a,b} is the base block D_beta(b) shifted by (-a, -b_j/theta_j).
    """
    tower = setup.tower
    base, ext = tower.base, tower.ext
    q, n = base.n, ext.n
    d_beta = base_blocks(f, setup)
    betas = beta_of_table(setup)
    slot_of_b = np.cumsum(betas != 0) - 1       # rank of b among the b with beta(b) != 0
    fibers = (np.sort(betas * np.int64(n) + np.arange(n)) % n).reshape(q, q)  # row k: beta^-1(k)
    j, theta_j = _t_axis(setup)
    t_shift = base.vmul(base.inv(theta_j), tower.dec1 if j else tower.dec0)

    n_blocks = q**4 - q**3 + q**2
    dtype = np.uint16 if q**3 < 2**16 else np.uint32
    blocks = np.empty((n_blocks, q + 1), dtype=dtype)

    a_ids = np.arange(n, dtype=np.int64)
    blocks[:n, :q] = (a_ids[:, None] * q + np.arange(q)[None, :]).astype(dtype)
    blocks[:n, q] = q**3

    a_stride = n + a_ids * (n - q)
    for beta in range(1, q):
        bs = fibers[beta]
        xs = ext.vadd(ext.neg_table[:, None], d_beta.x[beta - 1][None, :]).astype(np.int64)
        ts = base.vsub(d_beta.t[beta - 1][None, :], t_shift[bs][:, None])   # (b, point)
        rows = a_stride[:, None] + slot_of_b[bs][None, :]              # (a, b)
        blocks[rows] = (xs[:, None, :] * q + ts[None, :, :]).astype(dtype)
    blocks[n:].sort(axis=1)
    blocks.setflags(write=False)
    return UnitalDesign(q=q, p=base.p, m=base.m, f_name=f.name,
                        theta_index=setup.theta, modulus=ext.modulus,
                        blocks=blocks, setup=setup)


def _cover_exactly_once(rows: np.ndarray, n_items: int, replication: int) -> None:
    """Every item in exactly `replication` rows, every pair together in exactly one."""
    k = rows.shape[1]
    flat = rows.astype(np.int64).ravel()
    counts = np.bincount(flat, minlength=n_items)
    if counts.size > n_items:
        raise VerificationError(f"item index {int(flat.max())} out of range {n_items}")
    bad = np.flatnonzero(counts != replication)
    if bad.size:
        i = int(bad[0])
        raise VerificationError(
            f"item {i} lies in {int(counts[i])} rows, expected {replication}")
    order = np.argsort(flat, kind="stable")
    row_of = order // k
    starts = np.zeros(n_items + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    for item in range(n_items):
        c = np.bincount(rows[row_of[starts[item]:starts[item + 1]]].ravel(),
                        minlength=n_items)
        c[item] = 1
        bad = np.flatnonzero(c != 1)
        if bad.size:
            j = int(bad[0])
            raise VerificationError(
                f"pair ({item}, {j}) covered {int(c[j])} times, expected 1")


def _basic_design_checks(design: UnitalDesign) -> None:
    q = design.q
    blocks = design.blocks
    if blocks.shape != (q**4 - q**3 + q**2, q + 1):
        raise VerificationError(f"block array shape {blocks.shape} is wrong")
    if not np.all(blocks[:, 1:] > blocks[:, :-1]):
        raise VerificationError("a block has repeated points or is unsorted")
    counts = np.bincount(blocks.astype(np.int64).ravel(), minlength=design.n_points)
    if counts.size > design.n_points or not np.all(counts == q**2):
        raise VerificationError(f"replication is not uniformly {q**2}")


def verify_design(design: UnitalDesign) -> dict:
    """Exhaustive 2-(q^3+1, q+1, 1) check: sizes, replication, and lambda = 1."""
    q = design.q
    _basic_design_checks(design)
    _cover_exactly_once(design.blocks, design.n_points, q**2)
    return {"v": design.n_points, "b": design.n_blocks, "k": q + 1,
            "r": q**2, "lambda": 1, "mode": "exhaustive"}


def verify_plane(f: PlanarSpec) -> dict:
    """Check the projective-plane axioms and the shift collineations of Pi(f).

    Pi(f) is a projective plane iff f is planar (Dembowski-Ostrom, Planes of order
    n with collineation groups of order n^2, 1968), so the exhaustive planarity
    check covers both axioms. tau_{u,v} maps L_{a,b} onto L_{a-u,b-v} iff
    f((x+u) + (a-u)) = f(x+a) for all x, a; v cancels. That holds for every f
    when + is the group (Z/p)^m and a - u = a + neg(u), which
    FieldCtx.addition_witness checks exhaustively: vadd adds both digit halves
    through one table, whose p^(2h) entries are each compared with the digit-wise
    sum, and x + neg(x) = 0 is checked for all n elements x.
    """
    w = planarity_witness(f)
    if w is not None:
        raise DesignError(f"f is not planar (difference map fails at a = {w})")
    w = f.field.addition_witness()
    if w is not None:
        raise VerificationError(f"shift map check: {w}")
    n = f.field.n
    return {"order": n, "points": n * n + n + 1, "lines": n * n + n + 1, "ok": True,
            "axiom_pairs": "exhaustive", "axiom_meets": "exhaustive",
            "axiom_shifts": "exhaustive"}


def verify_unital_in_plane(f: PlanarSpec, setup: ThetaSetup) -> dict:
    """Every line of Pi(f) meets U in exactly 1 or q+1 points; tally tangents/secants.

    A shift x -> x + u fixes U and maps L_{a,b} onto L_{a-u,b}, so the meets of
    the family L_{0,b} are those of every L_{a,b}. (x, t*theta) lies on L_{0,b} for
    b = f(x) - t*theta, so L_{0,b} meets U in the x with f(x) in b + GF(q)theta.
    beta is additive (verify_plane's addition_witness), GF(q)-linear and not zero,
    and vanishes on GF(q)theta, so that coset is the fiber of beta over beta(b):
    cnt[b] = |g^-1(beta(b))| with g = beta(f), read off one histogram of g.
    Once every cnt[b] is 1 or q+1, sum_b cnt[b] = q^3 over the q^2 lines L_{0,b}
    leaves exactly q with cnt[b] = 1, so the totals q^3 + 1 and q^4 - q^3 + q^2
    follow and are reported, not tested. Besides the secant N_y, (y, t*theta) lies
    on L_{x-y, f(x) - t*theta} for every x, and beta(f(x) - t*theta) = g(x); once
    the tangents are the lines with beta(b) = 0, they number |g^-1(0)| = cnt[0] = 1
    through every affine point, so tangents_per_point is reported, not tested.
    """
    q, n = setup.tower.base.n, setup.tower.ext.n
    betas = beta_of_table(setup)
    cnt = np.bincount(betas[f.table], minlength=q)[betas]
    ok = (cnt == 1) | (cnt == q + 1)
    if not np.all(ok):
        b = int(np.flatnonzero(~ok)[0])
        raise VerificationError(f"line L_(0,{b}) meets the unital in {int(cnt[b])} points")
    tangent = cnt == 1
    if not np.array_equal(tangent, betas == 0):
        raise VerificationError("tangency does not align with beta(b) = 0")
    tangents = 1 + n * int(tangent.sum())               # L_inf meets U exactly in (inf)
    secants = n * int((cnt == q + 1).sum()) + n         # every N_a meets U in B_a
    return {"lines": n * n + n + 1, "tangents": tangents, "secants": secants,
            "ok": True, "tangents_per_point": 1}


def verify_ovals(f: PlanarSpec, setup: ThetaSetup) -> dict:
    """U is the union over t of ovals O_{t*theta}, pairwise meeting only at (inf).

    Oval t meets L_{0,b} in a fiber of f (the x with f(x) = b + t*theta), and the
    shifts carry this to every L_{a,b}; a normal f has fibers of size at most 2,
    so `max_affine_line_meet`, the largest fiber, is reported, not tested. N_a
    meets each oval in {(a, t*theta), (inf)} and L_inf only in (inf); the t*theta
    are distinct since theta != 0, so the ovals share only (inf).
    """
    if not is_normal(f):
        raise DesignError("oval decomposition requires a normal f")
    q = setup.tower.base.n
    n = setup.tower.ext.n
    worst = int(np.bincount(f.table, minlength=n).max())
    return {"ovals": q, "oval_size": n + 1, "max_affine_line_meet": worst,
            "union_is_unital": True, "pairwise_common": "(inf)", "ok": True}


def verify_transitivity(blocks: BaseBlocks) -> dict:
    """G = GF(q^2) x GF(q) acts by shifts (x, t) -> (x + u, t + s) and maps blocks to blocks.

    base_blocks checked that the differences of distinct points of the D_beta cover
    G minus {0} x GF(q) exactly once. The shifts act regularly on the affine points by
    definition, and B_a + (u, s) = B_{a+u}; the other blocks are the translates D_beta + g.
    If D_beta + g = D_beta' + g', pick P != Q in D_beta: their images P' != Q' lie in
    D_beta', and Q - P = Q' - P'. The exact cover gives each such difference one ordered
    pair in one block, so beta = beta', P = P' and g = g'. Hence the q^3 (q - 1)
    translates are distinct, and G permutes them regularly; nothing is left to compute.
    """
    q = blocks.setup.tower.base.n
    return {"group_order": q**3, "regular": True, "blocks_closed": "exhaustive",
            "ok": True}


def write_design(design: UnitalDesign, path: str) -> None:
    """Serialize in the canonical text format, atomically, a chunk of rows at a time."""
    blocks = design.blocks
    step = _chunk_rows(100 * blocks.shape[1])   # a Python int and its str: ~100 B an entry
    header = (f"UNITAL v1\n"
              f"p={design.p} m={design.m} q={design.q} f={design.f_name} "
              f"theta_index={design.theta_index} "
              f"modulus={','.join(str(c) for c in design.modulus)}\n"
              f"points={design.n_points} blocks={design.n_blocks}\n")
    rows = ("".join(" ".join(map(str, row)) + "\n" for row in blocks[lo:lo + step].tolist())
            for lo in range(0, blocks.shape[0], step))
    _atomic_write_chunks(path, itertools.chain([header], rows))


def read_design(path: str) -> UnitalDesign:
    """Parse the canonical text format; field contexts are not reconstructed.

    DesignError on text that is not UTF-8, a missing or non-integer header entry,
    points != q^3 + 1, or a body other than `blocks` rows of q + 1 point ids in
    range(points): np.loadtxt reads one row more, and a blank line, on which it only
    warns, raises too.
    """
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        try:
            head = [fh.readline().rstrip("\n") for _ in range(3)]
        except UnicodeDecodeError as exc:
            raise DesignError(f"{path}: not a text file ({exc.reason})") from None
        if head[0] != "UNITAL v1":
            raise DesignError(f"{path}: not a design file")
        meta = dict(tok.partition("=")[::2] for line in head[1:] for tok in line.split())
        try:
            p, m, q, theta, n_points, n_blocks = (
                int(meta[k]) for k in ("p", "m", "q", "theta_index", "points", "blocks"))
            modulus, f_name = tuple(int(c) for c in meta["modulus"].split(",")), meta["f"]
            blocks = np.loadtxt(fh, dtype=np.uint16 if q**3 < 2**16 else np.uint32,
                                comments=None, max_rows=n_blocks + 1, ndmin=2)
        except KeyError as exc:
            raise DesignError(f"{path}: header has no {exc.args[0]}= entry") from None
        except (ValueError, OverflowError, UserWarning) as exc:
            raise DesignError(f"{path}: malformed header or block row ({exc})") from None
    if n_points != q**3 + 1:
        raise DesignError(f"{path}: points={n_points} inconsistent with q={q}")
    if blocks.shape != (n_blocks, q + 1):
        raise DesignError(f"{path}: block table shape {blocks.shape} is wrong")
    top = int(blocks.max(initial=0))
    if top >= n_points:
        raise DesignError(f"{path}: point id {top} is not below points={n_points}")
    blocks.setflags(write=False)
    return UnitalDesign(q=q, p=p, m=m, f_name=f_name, theta_index=theta,
                        modulus=modulus, blocks=blocks)
