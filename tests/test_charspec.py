"""Character-spectrum engine against the block-scan oracle and closed bounds."""
import gc
import sys

import numpy as np
import pytest

from shiftunital import (FieldCtx, FieldError, VerificationError, base_blocks, bounds,
                         construct_theta, find_thetas, make_char_field, make_field,
                         make_tower, rank2_of_unital, registry_list, spectrum_size,
                         square_spec)
from shiftunital import charspec

import oracles
from oracles import chi_array, chi_block, in_spectrum_by_scan, member, s_beta, witnesses
from paper_checks import verify_chi_square_lemma, verify_orthogonality, verify_trace_criterion
from test_geometry import swap_one_point


def all_chars(q):
    return [(u, v, w) for u in range(q) for v in range(q) for w in range(q)]


def test_spectrum_sizes_small(instances):
    for (q, name), (tower, f, setup, design) in instances.items():
        res = spectrum_size(setup, f)
        assert res.size == q**3 - q + 1
        assert res.size == bin(res.bitmap).count("1")


def test_spectrum_equals_rank(instances):
    for (q, name), (tower, f, setup, design) in instances.items():
        if q > 5:
            continue
        assert spectrum_size(setup, f).size == rank2_of_unital(design)


@pytest.mark.parametrize("q", [3, 5])
def test_in_spectrum_matches_scan_exhaustively(instances, q):
    tower, f, setup, design = instances[q, "square"]
    res = spectrum_size(setup, f)
    for ch in all_chars(q):
        assert member(res, *ch) == in_spectrum_by_scan(design, ch)


def test_in_spectrum_matches_scan_sampled_q9(instances):
    tower, f, setup, design = instances[9, "square"]
    res = spectrum_size(setup, f)
    rng = np.random.default_rng(5)
    for _ in range(60):
        ch = tuple(int(x) for x in rng.integers(0, 9, 3))
        assert member(res, *ch) == in_spectrum_by_scan(design, ch)


def test_w_zero_always_member_and_uv_zero_never(instances):
    for (q, name), (tower, f, setup, design) in instances.items():
        res = spectrum_size(setup, f)
        for u in range(q):
            for v in range(q):
                assert member(res, u, v, 0)
        for w in range(1, q):
            assert not member(res, 0, 0, w)


def test_witnesses_certify_membership(instances):
    tower, f, setup, design = instances[3, "square"]
    res = spectrum_size(setup, f)
    ctx = charspec.make_spectrum_ctx(base_blocks(f, setup))
    q = 3
    wits = witnesses(res)
    for idx, wit in wits.items():
        u, rest = divmod(idx, q * q)
        v, w = divmod(rest, q)
        if w == 0:
            assert wit == 0
            continue
        assert 1 <= wit < q
        assert s_beta(ctx, (u, v, w), wit) != 0
    # non-members carry no witness
    for ch in all_chars(q):
        idx = (ch[0] * q + ch[1]) * q + ch[2]
        assert (idx in wits) == member(res, *ch)


def test_witness_all_lists_every_nonzero_beta(instances):
    tower, f, setup, design = instances[3, "square"]
    res = spectrum_size(setup, f)
    ctx = charspec.make_spectrum_ctx(base_blocks(f, setup))
    q = 3
    for idx, wit in witnesses(res, witness_all=True).items():
        w = idx % q
        if w == 0:
            continue
        u, rest = divmod(idx, q * q)
        v = rest // q
        assert isinstance(wit, tuple) and wit
        nonzero = {b for b in range(1, q) if s_beta(ctx, (u, v, w), b) != 0}
        assert set(wit) == nonzero


def test_spectrum_invariant_over_admissible_thetas(towers):
    for q in (3, 5):
        tower = towers[q]
        f = square_spec(tower.ext)
        sizes = {spectrum_size(s, f).size for s in find_thetas(f, tower)}
        assert sizes == {q**3 - q + 1}


def test_bounds_exact():
    assert bounds(3, 3, 1) == {"upper": 25, "leung_xiang": 17, "corollary": 25}
    assert bounds(9, 3, 2) == {"upper": 721, "leung_xiang": 465, "corollary": 527}
    assert bounds(27, 3, 3) == {"upper": 19657, "leung_xiang": 12897,
                                "corollary": 13625}
    b5 = bounds(5, 5, 1)
    assert b5["upper"] == 121 and b5["leung_xiang"] == 89
    assert b5["corollary"] is None
    b7 = bounds(7, 7, 1)
    assert b7["upper"] == 337 and b7["corollary"] is None


def test_trace_criterion_q3(instances):
    tower, f, setup, design = instances[3, "square"]
    rep = verify_trace_criterion(setup, f)
    assert rep["ok"] and rep["counterexamples"] == 0
    assert rep["qualifying"] == 8
    assert rep["zero_trace"] == 10
    assert rep["implied_lower_bound"] == 17 == rep["leung_xiang"]
    assert rep["implied_equals_leung_xiang"]
    # the printed intermediate count does not match the recount at q = 3
    assert rep["paper_zero_trace_expression"] == 8
    assert not rep["recount_matches_paper_expression"]


def test_trace_criterion_q9(instances):
    tower, f, setup, design = instances[9, "square"]
    rep = verify_trace_criterion(setup, f)
    assert rep["ok"] and rep["counterexamples"] == 0
    assert rep["zero_trace"] == 264
    assert rep["paper_zero_trace_expression"] == 256
    assert not rep["recount_matches_paper_expression"]
    assert rep["implied_lower_bound"] == 465 == rep["leung_xiang"]


def test_trace_criterion_requires_squaring_shape(instances):
    tower, f, setup, design = instances[9, "cm3"]
    with pytest.raises(FieldError):
        verify_trace_criterion(setup, f)


@pytest.mark.parametrize("q", [3, 9])
def test_chi_square_lemma(q):
    rep = verify_chi_square_lemma(q)
    assert rep["ok"]


@pytest.mark.parametrize("q", [3, 9])
def test_orthogonality(q):
    rep = verify_orthogonality(q)
    assert rep["ok"]


def test_spectrum_rejects_non_normal_f(instances, monkeypatch):
    tower, f, setup, design = instances[3, "square"]
    monkeypatch.setattr(charspec, "is_normal", lambda spec: False)
    with pytest.raises(FieldError, match="normal"):
        spectrum_size(setup, f)


def test_spectrum_ctx_holds_no_cubic_array(tower27):
    # the traces are read from the (q, q) table per circle; nothing is q^3-sized
    f = square_spec(tower27.ext)
    setup = construct_theta(tower27)
    ctx = charspec.make_spectrum_ctx(base_blocks(f, setup))
    arrays = [getattr(ctx, name) for name in ctx._fields]
    sizes = [a.size for a in arrays if isinstance(a, np.ndarray)]
    assert sizes and max(sizes) <= 27**2


def test_spectrum_keeps_no_reference_to_setup():
    tower = make_tower(make_field(3, 1))
    f = square_spec(tower.ext)
    setup = construct_theta(tower)
    refs = sys.getrefcount(setup)
    assert spectrum_size(setup, f).size == 25
    gc.collect()
    assert sys.getrefcount(setup) == refs


def _trivial(blocks):
    """The base blocks with the multiplier group M = {1}, which is one for any block set."""
    return blocks._replace(size=1, d=0, rows=np.arange(len(blocks.x)))


def test_lowest_of_evaluates_the_other_u(tower9):
    # M = GF(q)*: only u = 0 and 1 are stored, and lowest_of evaluates the others
    # one at a time; they equal the slices that M = {1} stores
    f = square_spec(tower9.ext)
    setup = construct_theta(tower9)
    blocks = base_blocks(f, setup)
    res, full = spectrum_size(setup, f, blocks=blocks), spectrum_size(setup, f, _trivial(blocks))
    assert len(res.slices) == 2 and len(full.slices) == 9
    assert res.size == full.size == 9**3 - 9 + 1 and res.bitmap == full.bitmap
    assert np.array_equal(res.counts, full.counts)
    for u in range(9):
        assert np.array_equal(res.lowest_of(u), full.slices[u])
        assert np.array_equal(res.members_of(u), full.members_of(u))
    assert len(res.slices) == 2                 # an evaluated u is not kept


def test_spectrum_result_holds_no_cubic_array(tower27):
    # every public read, each u-slice included, leaves the result O(q^2)-sized
    f = square_spec(tower27.ext)
    setup = construct_theta(tower27)
    q = 27
    res = spectrum_size(setup, f)
    assert res.size == q**3 - q + 1 and res.counts.shape == (q, q)
    assert bin(res.bitmap).count("1") == res.size
    for u in range(q):
        res.members_of(u), res.lowest_of(u), res.certifying_sets(u)
    held = [*vars(res).values(), *res.ctx]
    sizes = [a.size for a in held if isinstance(a, np.ndarray)]
    assert sizes and max(sizes) <= 2 * q**2


@pytest.mark.parametrize("m", [2, 3])
def test_slice_of_is_the_identity_under_the_trivial_group(m):
    # M = {1} stores every u-slice, so each character reads its own; the certified
    # M = GF(q)* stores slices 0 and 1, and u <= 1 reads its own there too
    tower = make_tower(make_field(3, m))
    q = tower.base.n
    u, v, w = np.meshgrid(*[np.arange(q)] * 3, indexing="ij")
    f = square_spec(tower.ext)
    blocks = base_blocks(f, construct_theta(tower))
    assert blocks.size == q - 1
    for got, want in zip(charspec.slice_of(_trivial(blocks), u, v, w), (u, v, w)):
        assert np.array_equal(got, want)
    s, v1, w1 = charspec.slice_of(blocks, u, v, w)
    assert np.array_equal(s, np.minimum(u, 1))
    assert np.array_equal(v1[:2], v[:2]) and np.array_equal(w1[:2], w[:2])


@pytest.mark.parametrize("p, m", [(3, 2), (5, 2), (3, 3)])
def test_slice_of_maps_certifying_sets(p, m):
    # phi_c maps D_beta onto D_(c^d beta), so with c = 1/u the certifying betas of
    # chi_{u,v,w} are u^-d times those of chi_{1,v',w'}, (1, v', w') = slice_of(u, v, w);
    # the sets differ between characters even where every count is maximal
    tower = make_tower(make_field(p, m))
    base, q = tower.base, tower.base.n
    ar = np.arange(q)
    for f in registry_list(tower.ext):
        setup = find_thetas(f, tower)[0]
        blocks = base_blocks(f, setup)
        assert blocks.size == q - 1
        full = spectrum_size(setup, f, blocks=blocks)
        ones = full.certifying_sets(1)
        for u in range(2, q):
            s, v1, w1 = charspec.slice_of(blocks, u, ar[:, None], ar[None, 1:])
            assert s == 1
            scale = base.vpow(u, -blocks.d)
            got = [tuple(sorted(base.vmul(scale, np.array(ones[k], dtype=np.int64)).tolist()))
                   for k in (v1 * q + w1).ravel().tolist()]
            sets = full.certifying_sets(u)
            assert got == [sets[v * q + w] for v in range(q) for w in range(1, q)], (f.name, u)


def test_s_beta_rejects_zero_beta(instances):
    tower, f, setup, design = instances[3, "square"]
    with pytest.raises(FieldError):
        s_beta(charspec.make_spectrum_ctx(base_blocks(f, setup)), (1, 0, 1), 0)


def test_chi_block_requires_punctured_block(instances):
    tower, f, setup, design = instances[3, "square"]
    with pytest.raises(FieldError):
        chi_block(design, (1, 0, 1), design.blocks[0])
    # the same block with (inf) stripped is fine
    chi_block(design, (1, 0, 1), design.blocks[0][:-1])


def test_chi_block_zero_char_counts_parity(instances):
    tower, f, setup, design = instances[3, "square"]
    # chi_{0,0,0} sums q+1 ones, and q+1 = 4 is even, so every block cancels
    for blk in design.blocks[9:20]:
        assert chi_block(design, (0, 0, 0), blk) == 0


def test_scan_oracle_builds_one_character_table(instances, monkeypatch):
    tower, f, setup, design = instances[3, "square"]
    calls = []
    real = oracles.chi_array

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracles, "chi_array", counted)
    # chi_{0,0,w} is outside the spectrum, so the oracle scans every block
    assert not in_spectrum_by_scan(design, (0, 0, 1))
    assert len(calls) == 1


def _full_scan(setup, f):
    """S(beta) of every character on every circle, one (u, v) at a time: (u, v, w-1, beta-1).

    Built from chi_array and field arithmetic on the base blocks, independent of
    the engine's trace tables.
    """
    tower = setup.tower
    base = tower.base
    q = base.n
    chitab = chi_array(make_char_field(base.p), base)
    blocks = base_blocks(f, setup)
    x, t = blocks.x, blocks.t
    x0 = tower.dec0[x].astype(np.int64)
    x1 = tower.dec1[x].astype(np.int64)
    wt = base.vmul(np.arange(1, q)[:, None, None], t[None])        # (w-1, beta-1, point)
    out = np.empty((q, q, q - 1, q - 1), dtype=np.int64)
    for u in range(q):
        for v in range(q):
            uv = base.vadd(base.vmul(u, x0), base.vmul(v, x1))
            out[u, v] = np.bitwise_xor.reduce(chitab[base.vadd(uv[None], wt)], axis=2)
    return out


def _check_against_full_scan(setup, f):
    nonzero = _full_scan(setup, f) != 0
    assert not nonzero[0, 0].any()                     # the exclusion lemma
    lowest = np.where(nonzero.any(axis=3), nonzero.argmax(axis=3) + 1, 0)
    res = spectrum_size(setup, f)
    assert np.array_equal(oracles.members(res)[:, :, 1:], lowest > 0)
    q = setup.tower.base.n
    assert np.array_equal(np.stack([res.lowest_of(u) for u in range(q)])[:, :, 1:], lowest)
    # M = {1}: every u-slice evaluated by spectrum_size itself
    full = spectrum_size(setup, f, _trivial(base_blocks(f, setup)))
    assert full.bitmap == res.bitmap and np.array_equal(full.slices[:, :, 1:], lowest)
    for u in range(q):
        sets = res.certifying_sets(u)
        for v in range(q):
            assert sets[v * q] == ()
            for w in range(1, q):
                assert sets[v * q + w] == tuple(
                    (np.flatnonzero(nonzero[u, v, w - 1]) + 1).tolist())
    return nonzero, lowest, res


def test_witness_is_lowest_certifying_circle_q27(tower27):
    # at q = 27 the lowest witnesses reach beta 6-7
    f = square_spec(tower27.ext)
    setup = construct_theta(tower27)
    nonzero, lowest, res = _check_against_full_scan(setup, f)
    q = 27
    assert res.size == q**3 - q + 1
    ctx = charspec.make_spectrum_ctx(base_blocks(f, setup))
    for idx, wit in witnesses(res).items():
        u, rest = divmod(idx, q * q)
        v, w = divmod(rest, q)
        if w:
            assert wit == lowest[u, v, w - 1]
            # the public S(beta), directly
            assert s_beta(ctx, (u, v, w), wit) != 0
            assert all(s_beta(ctx, (u, v, w), b) == 0 for b in range(1, wit))
        else:
            assert wit == 0
    assert lowest.max() >= 6
    for idx, wit in witnesses(res, witness_all=True).items():
        u, rest = divmod(idx, q * q)
        v, w = divmod(rest, q)
        if w:
            assert wit == tuple((np.flatnonzero(nonzero[u, v, w - 1]) + 1).tolist())


@pytest.mark.parametrize("p", [11, 13, 19])
def test_wide_character_values_match_full_scan(p):
    # e = 10, 12, 18: character values need 16 or 32 bits
    tower = make_tower(make_field(p, 1))
    f = square_spec(tower.ext)
    setup = construct_theta(tower)
    ctx = charspec.make_spectrum_ctx(base_blocks(f, setup))
    e = make_char_field(p).e
    assert e > 8 and ctx.epsx.dtype.itemsize * 8 >= e
    assert int(ctx.epsx.max()) >= 1 << 8
    _check_against_full_scan(setup, f)


def test_wide_trace_sums_q89():
    # p = 89 is the first prime with 3(p - 1) >= 256: trace sums need 16 bits
    tower = make_tower(make_field(89, 1))
    base = tower.base
    q = base.n
    f = square_spec(tower.ext)
    setup = construct_theta(tower)
    blocks = base_blocks(f, setup)
    x, t = blocks.x, blocks.t
    ctx = charspec.make_spectrum_ctx(blocks)
    assert ctx.trace_form.dtype == np.uint16
    chitab = chi_array(make_char_field(base.p), base)
    x0 = tower.dec0[x].astype(np.int64)
    x1 = tower.dec1[x].astype(np.int64)

    def direct(u, v, w, beta):
        args = base.vadd(base.vadd(base.vmul(u, x0[beta - 1]), base.vmul(v, x1[beta - 1])),
                         base.vmul(w, t[beta - 1]))
        return int(np.bitwise_xor.reduce(chitab[args]))

    rng = np.random.default_rng(89)
    sums = set()
    for u, v, w, beta in rng.integers(1, q, (200, 4)).tolist():
        sums.add(s_beta(ctx, (u, v, w), beta))
        assert s_beta(ctx, (u, v, w), beta) == direct(u, v, w, beta)
    assert len(sums) > 2
    res = spectrum_size(setup, f)
    assert res.size == q**3 - q + 1
    for u, v, w in rng.integers(1, q, (40, 3)).tolist():
        assert member(res, u, v, w)
        wit = int(res.lowest_of(u)[v, w])
        assert direct(u, v, w, wit) != 0
        assert all(direct(u, v, w, b) == 0 for b in range(1, wit))


def test_spectrum_makes_no_field_additions_per_u(monkeypatch):
    instances = []
    for m in (2, 3):
        tower = make_tower(make_field(3, m))
        instances.append((construct_theta(tower), square_spec(tower.ext)))
    calls = []
    real = FieldCtx.vadd
    monkeypatch.setattr(FieldCtx, "vadd", lambda *a: calls.append(1) or real(*a))
    counts = []
    for setup, f in instances:
        calls.clear()
        spectrum_size(setup, f)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_character_values_beyond_64_bits_are_refused(instances, monkeypatch):
    tower, f, setup, design = instances[3, "square"]
    wide = charspec.make_char_field(3)
    monkeypatch.setattr(charspec, "make_char_field",
                        lambda p: wide._replace(e=65))
    with pytest.raises(FieldError, match="64 bits"):
        spectrum_size(setup, f)


def test_spectrum_checks_difference_family(instances, monkeypatch):
    tower, f, setup, design = instances[5, "square"]
    swap_one_point(monkeypatch)
    with pytest.raises(VerificationError, match="difference"):
        spectrum_size(setup, f)
