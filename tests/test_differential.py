"""Differential test: block construction, design oracle, gf2 and spectrum engines."""
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftunital import (build_unital, find_thetas, make_field, make_tower,
                         rank2_of_unital, registry_list, spectrum_size, verify_design)
from shiftunital.fields import _is_irreducible


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_engines_agree_on_random_instances(data):
    p = data.draw(st.sampled_from([3, 5, 7]), label="q")
    moduli = [(c0, c1, 1) for c0 in range(p) for c1 in range(p)
              if _is_irreducible([c0, c1, 1], p)]
    modulus = data.draw(st.sampled_from(moduli), label="extension modulus")
    tower = make_tower(make_field(p, 1), ext_modulus=modulus)
    f = data.draw(st.sampled_from(registry_list(tower.ext)), label="f")
    setup = data.draw(st.sampled_from(find_thetas(f, tower)), label="theta")
    design = build_unital(f, setup)          # runs the difference-family check
    assert verify_design(design)["mode"] == "exhaustive"
    assert rank2_of_unital(design) == spectrum_size(setup, f).size
