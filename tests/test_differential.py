"""Differential test: block construction, design oracle, and the three rank engines."""
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from shiftunital import (base_blocks, build_unital, do_spec, find_thetas, is_normal,
                         make_field, make_tower, rank2_of_unital, registry_list,
                         spectrum_size, verify_design)
from shiftunital.fields import _is_irreducible, prime_power
from shiftunital.gf2rank import rank2_by_characters

from oracles import members


def _ext_moduli(p: int, m: int) -> list[tuple[int, ...]]:
    """Every monic irreducible of degree 2m over GF(p): the moduli of GF(q^2)."""
    return [(*tail, 1) for tail in itertools.product(range(p), repeat=2 * m)
            if _is_irreducible([*tail, 1], p)]


def _linearized_square(ext):
    """x^2 + c x^(2q) = L(x^2) on GF(q^2), not in the registry.

    L(y) = y + c y^q is bijective, since c = -1/g for a primitive g makes -1/c
    no (q - 1)-th power, so f is planar.
    """
    c = ext.neg(ext.inv(int(ext.exp[1])))
    return do_spec(ext, [(0, 0, 1), (ext.m // 2, ext.m // 2, c)])


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_engines_agree_on_random_instances(data):
    q = data.draw(st.sampled_from([3, 5, 7, 9, 11, 13]), label="q")
    p, m = prime_power(q)
    modulus = data.draw(st.sampled_from(_ext_moduli(p, m)), label="extension modulus")
    tower = make_tower(make_field(p, m), ext_modulus=modulus)
    f = data.draw(st.sampled_from([*registry_list(tower.ext), _linearized_square(tower.ext)]),
                  label="f")
    setup = data.draw(st.sampled_from(find_thetas(f, tower)), label="theta")
    design = build_unital(f, setup)          # runs the difference-family check
    assert verify_design(design)["mode"] == "exhaustive"
    # early stop ends only on reaching the proven bound, so the ranks stay exact;
    # it keeps the full row rank at q = 13 (about 4.5 s) out of the run
    early = q > 7
    rank = rank2_of_unital(design, early_stop=early)
    total, ranks = rank2_by_characters(base_blocks(f, setup))
    assert total == rank
    if is_normal(f):
        res = spectrum_size(setup, f)
        assert res.size == rank
        assert ranks.tolist() == members(res).sum(axis=1).tolist()
