"""GF(2) ranks: the per-character engine and the row accumulator against dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftunital import (FieldError, VerificationError, base_blocks, build_unital,
                         construct_theta, coulter_matthews_spec, find_thetas, make_field,
                         make_tower, rank2_of_unital, registry_list, spectrum_size,
                         square_spec)
from shiftunital import gf2rank
from shiftunital.fields import make_char_field, prime_power, trace_form_table
from shiftunital.geometry import BaseBlocks, _multiplier
from shiftunital.gf2rank import RankAccumulator, _eliminate, rank2_by_characters, row_int

from conftest import gf2_rank_dense
from oracles import members
from paper_checks import verify_dual_ovals
from test_geometry import ODD_Q_UP_TO_81


def test_row_int_little_endian_bytes():
    assert row_int([0], 2) == 1
    assert row_int([7], 2) == 0x80
    assert row_int([8], 2) == 0x100
    assert row_int([0, 8, 15], 2) == 0x8101


def test_accumulator_basics():
    acc = RankAccumulator(8)
    assert acc.absorb(0b1011) is True
    assert acc.absorb(0b1011) is False
    assert acc.absorb(0b0010) is True
    # 0b1001 = 0b1011 ^ 0b0010 is already in the span
    assert acc.absorb(0b1001) is False
    assert acc.absorb(0) is False
    assert acc.rank == 2


def test_accumulator_width_check():
    acc = RankAccumulator(4)
    with pytest.raises(FieldError):
        acc.absorb(1 << 4)


def test_accumulator_early_stop():
    acc = RankAccumulator(8, early_stop=2)
    acc.absorb(1)
    assert not acc.saturated
    acc.absorb(2)
    assert acc.saturated


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 23), min_size=1, max_size=8),
                min_size=1, max_size=24),
       st.randoms(use_true_random=False))
def test_accumulator_matches_dense_oracle_any_order(rows, rnd):
    width = 24
    acc = RankAccumulator(width)
    for row in rows:
        acc.absorb(row_int(row, (width + 7) // 8))
    want = gf2_rank_dense([set(r) for r in rows], width)
    assert acc.rank == want
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    acc2 = RankAccumulator(width)
    for row in shuffled:
        acc2.absorb(row_int(row, (width + 7) // 8))
    assert acc2.rank == want


def test_rank_q3_matches_dense_oracle(design3):
    rows = [set(map(int, blk)) for blk in design3.blocks]
    want = gf2_rank_dense(rows, design3.n_points)
    assert rank2_of_unital(design3) == want == 25


def test_rank_values_small(design3, design5):
    assert rank2_of_unital(design3) == 25
    assert rank2_of_unital(design5) == 121


def test_rank_early_stop_agrees(design3, design5):
    assert rank2_of_unital(design3, early_stop=True) == 25
    assert rank2_of_unital(design5, early_stop=True) == 121


def test_rank_early_stop_shuffled_matches_full(instances):
    # early stop absorbs blocks in a shuffled order; the rank must not change
    for (q, name), (tower, f, setup, design) in instances.items():
        for punct in (True, False):
            assert rank2_of_unital(design, include_infinity=punct, early_stop=True) \
                == rank2_of_unital(design, include_infinity=punct)


def test_rank_puncturing_invariance(design3, design5):
    for design in (design3, design5):
        assert rank2_of_unital(design, include_infinity=False) == \
            rank2_of_unital(design, include_infinity=True)


def test_dual_ovals(instances):
    for (q, name), (tower, f, setup, design) in instances.items():
        rep = verify_dual_ovals(design, setup)
        assert rep["ok"]
        assert rep["oval_rank"] == q


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 90), st.integers(0, 150), st.integers(0, 3)),
                min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
def test_eliminate_matches_dense_oracle(shapes, seed):
    # one stack of matrices that differ in shape (zero padded), sparsity and rank
    rng = np.random.default_rng(seed)
    n_rows = max(r for r, _, _ in shapes) + 1
    width = -(-max(c for _, c, _ in shapes) // 64) or 1
    padded = np.zeros((len(shapes), n_rows, 64 * width), dtype=np.uint8)
    want = []
    for j, (rows, cols, sparsity) in enumerate(shapes):
        dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        for _ in range(sparsity):                # sparser rows, and some repeats
            dense &= rng.integers(0, 2, size=dense.shape, dtype=np.uint8)
        if rows:
            dense[rng.integers(0, rows, rows // 3)] = dense[rng.integers(0, rows, rows // 3)]
        want.append(gf2_rank_dense([set(np.flatnonzero(row).tolist()) for row in dense], cols))
        padded[j, rng.permutation(n_rows)[:rows], :cols] = dense
    words = np.packbits(padded, axis=2, bitorder="little").view("<u8")
    stack = np.ascontiguousarray(words.transpose(2, 0, 1))
    assert _eliminate(stack).tolist() == want


def _characters(setup, f):
    return rank2_by_characters(base_blocks(f, setup))[0]


def _any_blocks(setup, x, t):
    """Blocks x, t, checked or not, with M = {1}: a multiplier group of any block set."""
    return BaseBlocks(setup, x, t, 1, 0, np.arange(x.shape[0]))


def test_characters_match_row_oracle(instances):
    # the engine against both modes of the row oracle, punctured or not
    for (q, name), (tower, f, setup, design) in instances.items():
        got = _characters(setup, f)
        for early in (True, False):
            for punct in (True, False):
                want = rank2_of_unital(design, include_infinity=punct, early_stop=early)
                assert got == want, (q, name, early, punct)


@pytest.mark.parametrize("p", [11, 13])
def test_characters_match_row_oracle_early_stop(p):
    # e = q - 1, so q components, each stopped at its cap from a seeded batch
    tower = make_tower(make_field(p, 1))
    f = square_spec(tower.ext)
    setup = construct_theta(tower)
    got = _characters(setup, f)
    assert got == rank2_of_unital(build_unital(f, setup), early_stop=True) == p**3 - p + 1


def _developed_rank(setup, x, t) -> int:
    """Row oracle for any base blocks: every D_beta + (a, s), then the B_a."""
    tower = setup.tower
    base, ext = tower.base, tower.ext
    q = base.n
    acc = RankAccumulator(q**3 + 1)
    nbytes = (q**3 + 8) // 8
    for a in range(ext.n):
        for s in range(q):
            for xs, ts in zip(x.tolist(), t.tolist()):
                acc.absorb(row_int([ext.add(xv, a) * q + base.add(tv, s)
                                    for xv, tv in zip(xs, ts)], nbytes))
        acc.absorb(row_int([a * q + s for s in range(q)] + [q**3], nbytes))
    return acc.rank


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 5]), st.data())
def test_characters_match_developed_rows_for_any_blocks(q, data):
    # the splitting needs only distinct x in each base block; other blocks break
    # the even meets (no cap then) and the proven bound alike
    tower = make_tower(make_field(q, 1))
    setup = construct_theta(tower)
    blocks = base_blocks(square_spec(tower.ext), setup)
    x, t = blocks.x, blocks.t
    if data.draw(st.booleans(), label="redraw x"):
        x = np.array([data.draw(st.permutations(range(q * q)))[:q + 1]
                      for _ in range(q - 1)])
    t = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=t.size,
                                    max_size=t.size), label="t")).reshape(t.shape)
    want = _developed_rank(setup, x, t)
    # through the blocks' own multiplier group (the orbit-reduced path) and M = {1}
    for blocks in (BaseBlocks(setup, x, t, *_multiplier(setup, x, t)),
                   _any_blocks(setup, x, t)):
        if want > q**3 - q + 1:
            with pytest.raises(VerificationError, match="exceeds the proven upper bound"):
                rank2_by_characters(blocks)
        else:
            total, ranks = rank2_by_characters(blocks)
            assert total == want
            assert ranks.tolist() == _member_counts(setup, x, t).tolist()


def _member_counts(setup, x, t) -> np.ndarray:
    """#{v : some base block has a nonzero chi_{u,v,w}-sum}, indexed [u, w], for any blocks.

    A translate scales a block's sum by a character value, so the base blocks
    decide; w = 0 counts q (the B_a). The sums are taken point by point in K.
    """
    tower = setup.tower
    q, p = tower.base.n, tower.base.p
    eps = np.array(make_char_field(p).eps_pows)
    tf = trace_form_table(tower.base).astype(np.int64)
    k = (tf[:, None, None, tower.dec0[x]] + tf[None, :, None, tower.dec1[x]]
         + tf[None, None, :, t])                          # (u, v, w, beta, point)
    sums = np.bitwise_xor.reduce(eps[k % p], axis=4)
    counts = np.count_nonzero(sums.any(axis=3), axis=1)
    counts[:, 0] = q
    return counts


def test_character_ranks_match_spectrum_counts(instances, tower27):
    # the (u, w) component has one K-dimension per member chi_{u,v,w}: q - 1 at
    # u = 0 (the exclusion lemma) and q elsewhere, Frobenius images included
    cases = [(q, f, setup) for (q, _), (_, f, setup, _) in instances.items()]
    f = coulter_matthews_spec(tower27.ext, 5)
    cases.append((27, f, find_thetas(f, tower27)[0]))
    for q, f, setup in cases:
        total, ranks = rank2_by_characters(base_blocks(f, setup))
        counts = members(spectrum_size(setup, f)).sum(axis=1)
        assert ranks.tolist() == counts.tolist(), (q, f.name)
        assert (ranks[0, 1:] == q - 1).all() and (ranks[1:, 1:] == q).all()
        assert total == int(ranks.sum()) == q**3 - q + 1


@pytest.mark.parametrize("q", [q for q in ODD_Q_UP_TO_81 if q <= 49] + [81])
def test_orbit_reduced_engines_equal_the_unreduced(q):
    # every total equals the bound, so the reduction is checked per (u, w): the
    # spectrum's counts, read off the u-slices 0 and 1, against the member counts of
    # every u, and the ranks of one (u, w) per multiplier and x2 orbit against those
    # of one per x2 orbit (M = {1}). The unreduced gf2 run grows with e = ord_p(2),
    # 1.6-5.3 s a theta at q = 37 to 47 (e = 14 to 36), so it is left out above
    # e = 12; square only at q = 81
    p, m = prime_power(q)
    tower = make_tower(make_field(p, m))
    with_gf2 = make_char_field(p).e <= 12
    cases = []
    for f in registry_list(tower.ext)[:1 if q == 81 else None]:
        setups = [construct_theta(tower)] if q == 81 else find_thetas(f, tower)
        for setup in {s.theta: s for s in (setups[0], setups[-1])}.values():
            blocks = base_blocks(f, setup)
            res = spectrum_size(setup, f, blocks=blocks)
            assert len(res.slices) == 2, (f.name, setup.theta)
            ranks = rank2_by_characters(blocks)[1] if with_gf2 else None
            trivial = blocks._replace(size=1, d=0, rows=np.arange(q - 1))
            cases.append((f, setup, trivial, res.counts, ranks))
    for f, setup, blocks, counts, ranks in cases:
        full = spectrum_size(setup, f, blocks=blocks)
        assert len(full.slices) == q
        assert counts.tolist() == members(full).sum(axis=1).tolist(), (f.name, setup.theta)
        if with_gf2:
            assert ranks.tolist() == rank2_by_characters(blocks)[1].tolist(), (
                f.name, setup.theta)


@pytest.mark.parametrize("q", [5, 7, 9])
def test_batches_double_until_every_component_is_done(monkeypatch, q):
    # a first batch of one (a1, beta) per component reaches no cap; the batches
    # double up to all q(q - 1) rows, and the result does not change
    p, m = (3, 2) if q == 9 else (q, 1)
    tower = make_tower(make_field(p, m))
    setup = construct_theta(tower)
    blocks = base_blocks(square_spec(tower.ext), setup)
    want = rank2_by_characters(blocks)
    monkeypatch.setattr(gf2rank, "_SLACK", 1 - q)
    got = rank2_by_characters(blocks)
    assert got[0] == want[0] == q**3 - q + 1
    assert got[1].tolist() == want[1].tolist()


def test_character_ranks_match_member_counts_for_seeded_blocks():
    # blocks with no symmetry between x0 and x1: the (u, w) ranks still count
    # the members chi_{u,v,w} over v, so the cosets must be those of x1; at
    # q = 5 such blocks all exceed the proven bound
    q = 3
    tower = make_tower(make_field(q, 1))
    setup = construct_theta(tower)
    rng = np.random.default_rng(q)
    compared = 0
    for _ in range(20):
        x = np.array([rng.permutation(q * q)[:q + 1] for _ in range(q - 1)])
        t = rng.integers(0, q, size=x.shape)
        try:
            total, ranks = rank2_by_characters(_any_blocks(setup, x, t))
        except VerificationError:
            continue
        counts = _member_counts(setup, x, t)
        assert ranks.tolist() == counts.tolist()
        assert total == _developed_rank(setup, x, t)
        compared += 1
    assert compared >= 5


def test_characters_refuse_character_values_wider_than_a_word():
    # e = ord_67(2) = 66: the e bits of a column no longer fit in one uint64 slot
    tower = make_tower(make_field(67, 1))
    setup = construct_theta(tower)
    with pytest.raises(FieldError, match="do not fit in 64 bits"):
        rank2_by_characters(base_blocks(square_spec(tower.ext), setup))
