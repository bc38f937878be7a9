"""Planar function specs, planarity witnesses, and coordinate components."""
import math

import numpy as np
import pytest

from shiftunital import (DesignError, FieldError, PlanarSpec, construct_theta,
                         coulter_matthews_spec, do_spec, is_normal,
                         is_planar, make_field, make_tower, parse_do_table,
                         planarity_witness, registry_list, square_spec)
from shiftunital import fields, planar
from shiftunital.geometry import fiber_map
from shiftunital.fields import prime_power


def shifted_square_spec(ext):
    """f(x) = x^2 + x: planar but not normal, for fallback-path tests."""
    xs = np.arange(ext.n)
    tbl = ext.vadd(ext.vpow(xs, 2), xs)
    return PlanarSpec(name="square-shifted", family="custom", field=ext,
                      table=tbl, param=None)


def cube_spec(ext):
    """f(x) = x^3 is additive in characteristic 3, hence never planar."""
    return PlanarSpec(name="cube", family="custom", field=ext,
                      table=ext.vpow(np.arange(ext.n), 3), param=None)


def test_square_spec_planar_and_normal(tower3, tower5, tower9):
    for tower in (tower3, tower5, tower9):
        f = square_spec(tower.ext)
        assert f.family == "square"
        assert is_planar(f)
        assert is_normal(f)
        xs = np.arange(tower.ext.n)
        assert np.array_equal(f.table, tower.ext.vmul(xs, xs))
        assert int(f.table[5]) == tower.ext.mul(5, 5)


def test_coulter_matthews_gf81(tower9):
    f = coulter_matthews_spec(tower9.ext, 3)
    assert f.name == "cm3"
    assert f.param == 3
    assert is_planar(f)
    assert is_normal(f)
    # exponent (3^3 + 1) / 2 = 14
    xs = np.arange(tower9.ext.n)
    assert np.array_equal(f.table, tower9.ext.vpow(xs, 14))
    # the function differs from every scaled square, so the plane is new
    sq = square_spec(tower9.ext)
    assert not np.array_equal(f.table, sq.table)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_coulter_matthews_tables_equal_the_unreduced_power(m):
    ext = make_tower(make_field(3, m)).ext
    xs = np.arange(ext.n)
    for k in range(1, 4 * m + 3, 2):
        if math.gcd(k, 4 * m) == 1:         # planar: gcd(k, 2e) = 1, e = 2m
            assert np.array_equal(coulter_matthews_spec(ext, k).table,
                                  ext.vpow(xs, (3**k + 1) // 2)), k


def test_coulter_matthews_takes_a_huge_k(tower3):
    # 3^(2e) = 1 mod 2(3^e - 1), so k reads as k mod 2e; 3^k is never formed
    k = 99999999999999999999
    f = coulter_matthews_spec(tower3.ext, k)
    assert f.name == f"cm{k}"
    assert np.array_equal(f.table, coulter_matthews_spec(tower3.ext, k % 4).table)


def test_coulter_matthews_rejects_bad_k(tower9):
    with pytest.raises(FieldError):
        coulter_matthews_spec(tower9.ext, 2)


def test_cm_requires_char3(tower5):
    with pytest.raises(FieldError):
        coulter_matthews_spec(tower5.ext, 3)


def test_shifted_square_planar_not_normal(tower3):
    f = shifted_square_spec(tower3.ext)
    assert is_planar(f)
    assert not is_normal(f)


def test_cube_not_planar(tower3):
    f = cube_spec(tower3.ext)
    assert not is_planar(f)
    assert planarity_witness(f) == 1


def test_planarity_witness_none_for_planar(tower3):
    assert planarity_witness(square_spec(tower3.ext)) is None


def reference_witness(spec):
    """Smallest a whose difference map is not a bijection, one a at a time."""
    ctx = spec.field
    idx = np.arange(ctx.n)
    for a in range(1, ctx.n):
        if len(np.unique(ctx.vsub(spec.table[ctx.vadd(idx, a)], spec.table))) != ctx.n:
            return a
    return None


def power_spec(ext, d, name):
    return PlanarSpec(name=name, family="custom", field=ext,
                      table=ext.vpow(np.arange(ext.n), d), param=None)


def corrupted_square_spec(ext, x, delta):
    """x^2 with f(x) moved by delta: no longer multiplicative, so it takes the scan."""
    tbl = square_spec(ext).table.copy()
    tbl[x] = ext.add(int(tbl[x]), delta)
    return PlanarSpec(name="square-corrupted", family="custom", field=ext,
                      table=tbl, param=None)


def test_planarity_witness_cube_q9(tower9):
    f = cube_spec(tower9.ext)
    assert planarity_witness(f) == reference_witness(f) == 1


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27])
def test_planarity_witness_matches_reference_on_registry(q):
    p, m = prime_power(q)
    ext = make_tower(make_field(p, m)).ext
    for f in registry_list(ext):
        assert planar._multiplicative(f)
        assert planarity_witness(f) is None
        assert reference_witness(f) is None


def test_planarity_witness_matches_reference_off_registry(tower3, tower5, tower9):
    for tower in (tower3, tower5, tower9):
        ext = tower.ext
        specs = [cube_spec(ext), power_spec(ext, 4, "x^4"), shifted_square_spec(ext),
                 corrupted_square_spec(ext, 5, 1), corrupted_square_spec(ext, 7, 2)]
        assert [planar._multiplicative(f) for f in specs] == [True, True, False, False, False]
        for f in specs:
            assert planarity_witness(f) == reference_witness(f), (ext.n, f.name)


def test_planarity_scan_finds_a_late_witness(tower9, monkeypatch):
    # f(x) + 2 at x = c keeps D_a a bijection exactly when 2a^2 = 2, so the
    # witness is past a = +-1; one row per block makes it a later block
    ext = tower9.ext
    f = corrupted_square_spec(ext, 5, 2)
    want = reference_witness(f)
    assert want is not None and want > 2
    monkeypatch.setattr(fields, "_WORK_BYTES", 1)
    assert planarity_witness(f) == want


def test_do_spec_square(tower3):
    ext = tower3.ext
    f = do_spec(ext, [(0, 0, 1)], name="do-square")
    assert np.array_equal(f.table, square_spec(ext).table)
    assert f.name == "do-square"


def test_do_spec_rejects_nonplanar(tower3):
    ext = tower3.ext
    # x^(3+3) = (x^2)^3 is a permuted square and stays planar, but
    # x^(1+3) + x^(3+1) = 2*x^4 has difference kernels; over GF(9) the
    # additive x^3 shape below is never planar
    with pytest.raises(DesignError):
        do_spec(ext, [(0, 1, 1), (0, 1, 1)])


def test_parse_do_table():
    entries = parse_do_table("# comment\n0 0 1\n\n1 0 2  # trailing\n")
    assert entries == [(0, 0, 1), (1, 0, 2)]
    with pytest.raises(FieldError):
        parse_do_table("0 0\n")
    with pytest.raises(FieldError):
        parse_do_table("a b c\n")


def test_do_spec_name_is_stable(tower3):
    ext = tower3.ext
    f1 = do_spec(ext, [(0, 0, 1)])
    f2 = do_spec(ext, [(0, 0, 1)])
    assert f1.name == f2.name
    assert f1.name.startswith("do-")


def test_components_split(tower9):
    f = square_spec(tower9.ext)
    f0, f1 = tower9.dec0[f.table], tower9.dec1[f.table]
    # for f = x^2: f0 = x0^2 + alpha*x1^2 and f1 = 2*x0*x1
    base = tower9.base
    x0 = tower9.dec0.astype(np.int64)
    x1 = tower9.dec1.astype(np.int64)
    want0 = base.vadd(base.vmul(x0, x0),
                      base.vmul(np.full(x0.shape, tower9.alpha), base.vmul(x1, x1)))
    two = base.element_from_int(2)
    want1 = base.vmul(np.full(x0.shape, two), base.vmul(x0, x1))
    assert np.array_equal(f0, want0)
    assert np.array_equal(f1, want1)


def test_components_wrong_tower(tower3, tower9):
    f = square_spec(tower9.ext)
    with pytest.raises(FieldError):
        fiber_map(construct_theta(tower3), f)


def test_registry_list(tower3, tower5, tower9):
    names3 = [f.name for f in registry_list(tower3.ext)]
    assert names3 == ["square"]
    names5 = [f.name for f in registry_list(tower5.ext)]
    assert names5 == ["square"]
    names9 = [f.name for f in registry_list(tower9.ext)]
    assert names9 == ["square", "cm3"]
    for f in registry_list(tower9.ext):
        assert is_planar(f)


def test_registry_list_gf729():
    tower = make_tower(make_field(3, 3))
    names = [f.name for f in registry_list(tower.ext)]
    assert names == ["square", "cm5"]
