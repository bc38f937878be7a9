"""Unitals in shift planes over GF(q^2): construction, GF(2) code rank, spectra.

Exports resolve on first use (PEP 562): `import shiftunital` loads no submodule.
numpy loads on first use too: every package source a process imports compiles
before numpy's import allocates, so no compile adds to the peak RSS of a run.
"""
import importlib.util
import sys
import types


def _defer_numpy() -> None:
    """Put a numpy in sys.modules that imports itself on its first attribute read.

    importlib.util.LazyLoader makes the stub; the import statement reads __spec__
    of a module found in sys.modules, so that one read does not load numpy. Any
    other read first restores the LazyLoader class, which the loader of Python
    3.12.3 and later must see to load, then reads through it, which loads numpy.
    """
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        return
    spec.loader = importlib.util.LazyLoader(spec.loader)
    numpy = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = numpy
    spec.loader.exec_module(numpy)
    lazy = type(numpy)

    class _Stub(lazy):
        def __getattribute__(self, name):
            if name == "__spec__":
                return types.ModuleType.__getattribute__(self, name)
            object.__setattr__(self, "__class__", lazy)
            return getattr(self, name)

    numpy.__class__ = _Stub


if "numpy" not in sys.modules:
    _defer_numpy()

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
    "kloosterman": ("KloostermanTable", "count_classes", "kloosterman", "kloosterman_table",
                    "make_atlas", "thm_membership_criterion"),
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


class _Package(types.ModuleType):
    """Keeps an export bound when its namesake submodule (kloosterman) is imported."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
