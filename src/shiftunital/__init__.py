"""Unitals in shift planes over GF(q^2): construction, GF(2) code rank, spectra.

Exports resolve on first use (PEP 562): `import shiftunital` loads no submodule.
"""
import importlib

# module -> the names it exports; __all__ is this table's names, in order
_EXPORTS = {
    "errors": ("DesignError", "FieldError", "VerificationError"),
    "fields": ("FieldCtx", "ThetaSetup", "TowerCtx", "construct_theta", "make_char_field",
               "make_field", "make_tower", "quadratic_character", "theta_setup",
               "trace_form_table", "trace_table"),
    "planar": ("PlanarSpec", "coulter_matthews_spec", "do_spec", "is_normal", "is_planar",
               "parse_do_table", "planarity_witness", "registry_list", "square_spec"),
    "geometry": ("UnitalDesign", "base_blocks", "build_unital", "find_thetas",
                 "read_design", "verify_design", "verify_ovals", "verify_plane",
                 "verify_transitivity", "verify_unital_in_plane", "write_design"),
    "gf2rank": ("rank2_of_unital",),
    "charspec": ("SpectrumResult", "bounds", "make_spectrum_ctx", "spectrum_size"),
    "kloosterman": ("KloostermanTable", "count_classes", "kloosterman_table", "make_atlas",
                    "thm_membership_criterion"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{mod}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

