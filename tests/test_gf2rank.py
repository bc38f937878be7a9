"""Bit-packed GF(2) rank accumulation against dense oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftunital import (FieldError, RankAccumulator, rank2_of_unital,
                         verify_dual_ovals)
from shiftunital.gf2rank import row_int

from conftest import gf2_rank_dense


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
