"""Kloosterman sums, mod-4 classification, and the membership criterion."""
import hashlib
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftunital import (FieldError, VerificationError, construct_theta, count_classes,
                         kloosterman, kloosterman_table, make_atlas, make_char_field,
                         make_field, make_tower, quadratic_character, spectrum_size,
                         thm_membership_criterion)
from shiftunital.kloosterman import CASES, CyclotomicInt, _trace_counts, criterion_grid

from oracles import (chi_array, cyclotomic_add, cyclotomic_key, is_real, member, to_int,
                     trace)
from paper_checks import lambda_vanishes_mod2

kloosterman_mod = importlib.import_module("shiftunital.kloosterman")   # the export shadows it


def slow_kloosterman_counts(fld, a):
    """Direct trace histogram of x^-1 + a*x over the multiplicative group."""
    counts = [0] * fld.p
    for x in range(1, fld.n):
        counts[trace(fld, fld.add(fld.inv(x), fld.mul(a, x)))] += 1
    return tuple(counts)


def test_gf3_values():
    fld = make_field(3, 1)
    vals = [kloosterman(fld, a).value for a in range(3)]
    assert sorted(vals) == [-1, -1, 2]
    assert kloosterman(fld, 0).value == -1


@pytest.mark.parametrize("m", [1, 2, 3])
def test_matches_direct_sum(m):
    fld = make_field(3, m)
    for a in range(0, fld.n, max(1, fld.n // 9)):
        rec = kloosterman(fld, a)
        assert rec.cyclotomic.counts == slow_kloosterman_counts(fld, a)
        n0, n1, n2 = rec.cyclotomic.counts
        assert n1 == n2
        assert rec.value == n0 - n1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_weil_bound_and_reality(m):
    fld = make_field(3, m)
    for a in range(fld.n):
        rec = kloosterman(fld, a)
        assert rec.value * rec.value <= 4 * fld.n
        assert is_real(rec.cyclotomic)
    assert kloosterman(fld, 0).value == -1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_exchange_of_sums(m):
    fld = make_field(3, m)
    vals = [kloosterman(fld, a).value for a in range(fld.n)]
    assert sum(vals) == 0
    assert sum(vals[1:]) == 1


@pytest.mark.parametrize("m,counts", [(1, (0, 1)), (2, (3, 2)), (3, (10, 7)),
                                      (4, (33, 20)), (5, (100, 61)), (6, (303, 182)),
                                      (7, (910, 547)), (8, (2733, 1640))])
def test_class_counts(m, counts):
    got = count_classes(kloosterman_table(make_field(3, m)))
    assert (got["count_b"], got["count_c"]) == counts
    assert got["count_a"] == 3**m - counts[0] - counts[1] - 1


def test_count_classes_requires_characteristic_3():
    with pytest.raises(FieldError):
        count_classes(kloosterman_table(make_field(5, 1)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_classification_congruences(m):
    fld = make_field(3, m)
    table = kloosterman_table(fld)
    tally = {"odd_square_trace": 0, "case_b": 0, "case_c": 0}
    for a in range(1, fld.n):
        tag, t = CASES[table.case[a]], int(table.t_witness[a])
        tally[tag] += 1
        k = kloosterman(fld, a).value
        assert k == table.value[a]
        if tag == "odd_square_trace":
            assert k % 2 == 1
            assert t == -1
        else:
            assert k % 4 == (2 * m + 2 if tag == "case_b" else 2 * m) % 4
            # the witness is a nontrivial root of t^2 - t^3 = a
            assert t not in (0, 1)
            t2 = fld.mul(t, t)
            assert fld.sub(t2, fld.mul(t2, t)) == a
    counts = count_classes(table)
    assert tally["case_b"] == counts["count_b"]
    assert tally["case_c"] == counts["count_c"]
    assert tally["odd_square_trace"] == counts["count_a"]


def slow_case(fld, a):
    """The case of a and its least witness t (or -1), by scalar scans over GF(q)."""
    tags = []
    if a == 0:
        tags.append("odd_square_trace")
    else:
        roots = [x for x in range(1, fld.n) if fld.mul(x, x) == a]
        if roots and trace(fld, roots[0]) != 0:
            tags.append("odd_square_trace")
    witness = {}
    for t in range(2, fld.n):
        t2 = fld.mul(t, t)
        if fld.sub(t2, fld.mul(t2, t)) != a:
            continue
        square_part = (quadratic_character(fld, t) == 1
                       or quadratic_character(fld, fld.sub(1, t)) == 1)
        witness.setdefault("case_b" if square_part else "case_c", t)
    tags += list(witness)
    assert len(tags) == 1, (a, tags)
    return tags[0], witness.get(tags[0], -1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_table_matches_scalar_scans(m):
    fld = make_field(3, m)
    table = kloosterman_table(fld)
    got = [(CASES[c], t) for c, t in zip(table.case.tolist(), table.t_witness.tolist())]
    assert got == [slow_case(fld, a) for a in range(fld.n)]


@pytest.mark.parametrize("p,m", [*((3, m) for m in range(1, 8)),
                                 *((p, m) for p in (5, 7) for m in (1, 2, 3))])
def test_table_over_frobenius_orbits_equals_the_unreduced_counts(p, m, monkeypatch):
    # N_j(a^p) = N_j(a): one row per orbit of x -> x^p on GF(q)*, plus a = 0, is read,
    # Burnside's count of (1/m) sum over d | m of phi(d) (p^(m/d) - 1) orbits
    fld = make_field(p, m)
    read = []
    monkeypatch.setattr(kloosterman_mod, "_trace_counts",
                        lambda fld, a: read.append(len(a)) or _trace_counts(fld, a))
    table = kloosterman_table(fld)
    def phi(d):
        return sum(math.gcd(k, d) == 1 for k in range(1, d + 1))

    orbits = sum(phi(d) * (p**(m // d) - 1) for d in range(1, m + 1) if m % d == 0) // m
    assert read == [1 + orbits]
    assert np.array_equal(table.counts, _trace_counts(fld, np.arange(fld.n)))


# sha256 of make_atlas text, recorded from the per-a classifier that preceded the table.
ATLAS_DIGESTS = {
    (3, 1): "e96e85a39092f38a2a6b5fcf6d04191737a2a422224e37e39a291d7b27c892c9",
    (3, 2): "6704fd688f96e5070d19dd997446d1c27ecc001cd8d4886a9620beb29195944f",
    (3, 3): "9543a4bb3781557158608cf06777ce8dc98e73d64c372457df4ef0a84eababd6",
    (3, 4): "8ce9bdb765c1e88c92669f3bc7963cc362a623a96ed138fcba667d56c004192f",
    (3, 5): "55844e26efe3241e46b20181218909aadb3dd03863e66193b3494e96545de0db",
    (3, 6): "ca82aebbebed7875f036af16e85a1bf7479b5c7b584fc6cd9b9c5db83dfdce1e",
    (3, 7): "910373b83700565ac6a9b639448ec4f81aac957fb16f14c1c7094315f556f150",
    (5, 2): "aa22fe4137de0a4ff10ba69408f5b7433d013ce1b4248d02b3b27c13cc8541c0",
    (7, 2): "a21de42348a02a67b27612c259d25c7564dd35dfe842400cf00daa3b3db898cf",
}


@pytest.mark.parametrize("p,m", ATLAS_DIGESTS)
def test_atlas_pinned(p, m):
    atlas = make_atlas(kloosterman_table(make_field(p, m)))
    assert hashlib.sha256(atlas.encode()).hexdigest() == ATLAS_DIGESTS[p, m]


@pytest.mark.parametrize("m", [3, 4])
def test_count_classes_rejects_one_a_moved_from_case_c_to_b(m):
    # the tallies are checked as 12 count_b = 5q - 15 | 5q - 9, 4 count_c = q +- 1
    table = kloosterman_table(make_field(3, m))
    count_classes(table)
    case = table.case.copy()
    case[np.flatnonzero(case == CASES.index("case_c"))[0]] = CASES.index("case_b")
    with pytest.raises(VerificationError, match=f"m = {m}: tallies"):
        count_classes(table._replace(case=case))


def test_cyclotomic_int_identities():
    zeta_plus_zeta2 = CyclotomicInt(3, (0, 1, 1))
    minus_one = CyclotomicInt(3, (-1, 0, 0))
    assert cyclotomic_key(zeta_plus_zeta2) == cyclotomic_key(minus_one)
    total = cyclotomic_add(CyclotomicInt(3, (1, 2, 3)), CyclotomicInt(3, (1, 1, 1)))
    assert cyclotomic_key(total) == cyclotomic_key(CyclotomicInt(3, (2, 3, 4)))
    assert to_int(CyclotomicInt(3, (5, 2, 2))) == 3
    with pytest.raises(FieldError):
        CyclotomicInt(3, (1, 2))


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50))
@settings(max_examples=100, deadline=None)
def test_cyclotomic_shift_invariance(a, b, c, k):
    assert cyclotomic_key(CyclotomicInt(3, (a, b, c))) == \
        cyclotomic_key(CyclotomicInt(3, (a + k, b + k, c + k)))
    assert is_real(CyclotomicInt(3, (a, b, b)))


def test_lambda_vanishes_mod2_matches_gf4_sum():
    fld = make_field(3, 2)
    cf = make_char_field(3)
    rng = np.random.default_rng(6)
    tab = chi_array(cf, fld).tolist()
    for _ in range(300):
        vals = [int(x) for x in rng.integers(0, fld.n, rng.integers(1, 12))]
        acc = 0
        for x in vals:
            acc ^= tab[x]
        assert lambda_vanishes_mod2(fld, vals) == (acc == 0)


def test_atlas_format():
    fld = make_field(3, 2)
    atlas = make_atlas(kloosterman_table(fld))
    lines = atlas.splitlines()
    assert lines[0] == "# p=3 m=2 modulus=2,1,1"
    assert lines[1] == "a_index,K,K_mod4,case,t_witness"
    assert len(lines) == 2 + fld.n
    assert lines[2].startswith("0,-1,3,odd_square_trace,")
    assert make_atlas(kloosterman_table(fld)) == atlas


def test_atlas_p5_degrades_gracefully():
    fld = make_field(5, 1)
    rec = kloosterman(fld, 2)
    assert isinstance(rec.value, CyclotomicInt)
    assert is_real(rec.value)
    assert rec.mod4 is None
    atlas = make_atlas(kloosterman_table(fld))
    for line in atlas.splitlines()[2:]:
        fields = line.split(",")
        assert fields[2] == fields[3] == fields[4] == ""
        assert ":" in fields[1]


def test_membership_criterion_validation(instances):
    tower, f, setup, design = instances[9, "square"]
    with pytest.raises(FieldError):
        thm_membership_criterion(setup, 1, 1, 1)
    with pytest.raises(FieldError):
        thm_membership_criterion(setup, 0, 0, 1)
    with pytest.raises(FieldError):
        thm_membership_criterion(setup, 1, 0, 0)


def test_membership_criterion_sound_q9(instances):
    tower, f, setup, design = instances[9, "square"]
    res = spectrum_size(setup, f)
    checked = met = 0
    for w in range(1, 9):
        for u in range(1, 9):
            for ch in ((u, 0, w), (0, u, w)):
                out = thm_membership_criterion(setup, *ch[:2], ch[2])
                checked += 1
                if out["criterion_met"]:
                    met += 1
                    assert member(res, *ch)
    assert checked == 2 * 8 * 8
    assert met == 64


@pytest.mark.parametrize("m,met", [(1, 8), (2, 64), (3, 728), (4, 6400)])
def test_criterion_grid_matches_scalar_criterion(m, met):
    # q = 3 and 27 follow the q = 3 mod 4 recipe, q = 9 and 81 the q = 1 mod 4 one
    tower = make_tower(make_field(3, m))
    setup = construct_theta(tower)
    q = tower.base.n
    grid = criterion_grid(setup, kloosterman_table(tower.base))
    assert grid.shape == (2, q, q)
    assert not grid[:, 0, :].any() and not grid[:, :, 0].any()
    want = np.zeros_like(grid)
    for s in range(1, q):
        for w in range(1, q):
            want[0, s, w] = thm_membership_criterion(setup, s, 0, w)["criterion_met"]
            want[1, s, w] = thm_membership_criterion(setup, 0, s, w)["criterion_met"]
    assert np.array_equal(grid, want)
    assert int(grid.sum()) == met


def test_criterion_grid_rejects_other_tables(instances):
    tower, f, setup, design = instances[9, "square"]
    with pytest.raises(FieldError, match="not over the base field"):
        criterion_grid(setup, kloosterman_table(make_field(3, 3)))
    tower, f, setup, design = instances[9, "cm3"]
    with pytest.raises(FieldError, match="recipe"):
        criterion_grid(setup, kloosterman_table(tower.base))


def test_membership_criterion_sound_q3(instances):
    tower, f, setup, design = instances[3, "square"]
    res = spectrum_size(setup, f)
    for w in range(1, 3):
        for u in range(1, 3):
            for ch in ((u, 0, w), (0, u, w)):
                out = thm_membership_criterion(setup, *ch[:2], ch[2])
                if out["criterion_met"]:
                    assert member(res, *ch)
