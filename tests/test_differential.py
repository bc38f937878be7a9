"""Differential test: block construction, design oracle, gf2 and spectrum engines."""
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from shiftunital import (build_unital, find_thetas, make_field, make_tower,
                         rank2_of_unital, registry_list, spectrum_size, verify_design)
from shiftunital.fields import _is_irreducible, prime_power


def _ext_moduli(p: int, m: int) -> list[tuple[int, ...]]:
    """Every monic irreducible of degree 2m over GF(p): the moduli of GF(q^2)."""
    return [(*tail, 1) for tail in itertools.product(range(p), repeat=2 * m)
            if _is_irreducible([*tail, 1], p)]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_engines_agree_on_random_instances(data):
    q = data.draw(st.sampled_from([3, 5, 7, 9, 11, 13]), label="q")
    p, m = prime_power(q)
    modulus = data.draw(st.sampled_from(_ext_moduli(p, m)), label="extension modulus")
    tower = make_tower(make_field(p, m), ext_modulus=modulus)
    f = data.draw(st.sampled_from(registry_list(tower.ext)), label="f")
    setup = data.draw(st.sampled_from(find_thetas(f, tower)), label="theta")
    design = build_unital(f, setup)          # runs the difference-family check
    assert verify_design(design)["mode"] == "exhaustive"
    # early stop ends only on reaching the proven bound, so the rank stays exact;
    # it keeps the full rank at q = 13 (about 4.5 s) out of the run
    assert rank2_of_unital(design, early_stop=q > 7) == spectrum_size(setup, f).size
