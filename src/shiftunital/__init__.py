"""Unitals in shift planes over GF(q^2): construction, GF(2) code rank, spectra."""

from .errors import DesignError, FieldError, VerificationError
from .fields import (FieldCtx, ThetaSetup, TowerCtx, construct_theta, make_char_field,
                     make_field, make_tower, quadratic_character, theta_setup,
                     trace_form_table, trace_table)
from .planar import (PlanarSpec, coulter_matthews_spec, do_spec, is_normal, is_planar,
                     parse_do_table, planarity_witness, registry_list, square_spec)
from .geometry import (UnitalDesign, base_blocks, build_unital, find_thetas, read_design,
                       verify_design, verify_ovals, verify_plane, verify_transitivity,
                       verify_unital_in_plane, write_design)
from .gf2rank import rank2_of_unital
from .charspec import SpectrumResult, bounds, make_spectrum_ctx, spectrum_size
from .kloosterman import (KloostermanTable, count_classes, kloosterman, kloosterman_table,
                          make_atlas, thm_membership_criterion)

__version__ = "0.1.0"

__all__ = [
    "DesignError", "FieldError", "VerificationError",
    "FieldCtx", "ThetaSetup", "TowerCtx", "construct_theta", "make_char_field",
    "make_field", "make_tower", "quadratic_character", "theta_setup", "trace_form_table",
    "trace_table",
    "PlanarSpec", "coulter_matthews_spec", "do_spec", "is_normal", "is_planar",
    "parse_do_table", "planarity_witness", "registry_list", "square_spec",
    "UnitalDesign", "base_blocks", "build_unital", "find_thetas", "read_design",
    "verify_design", "verify_ovals", "verify_plane", "verify_transitivity",
    "verify_unital_in_plane", "write_design",
    "rank2_of_unital",
    "SpectrumResult", "bounds", "make_spectrum_ctx", "spectrum_size",
    "KloostermanTable", "count_classes", "kloosterman", "kloosterman_table", "make_atlas",
    "thm_membership_criterion",
]
