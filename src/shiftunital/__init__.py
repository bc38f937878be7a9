"""Unitals in shift planes over GF(q^2): construction, GF(2) code rank, spectra."""

from .errors import DesignError, FieldError, VerificationError
from .fields import (CharFieldCtx, FieldCtx, ThetaSetup, TowerCtx, chi, chi_table,
                     construct_theta, default_modulus, make_char_field, make_field,
                     make_tower, quadratic_character, quadratic_form_count,
                     quadratic_form_values, square_table, theta_setup, trace,
                     trace_form_table, trace_table)
from .planar import (ComponentPair, PlanarSpec, components, coulter_matthews_spec,
                     do_spec, evaluate, is_normal, is_planar, parse_do_table,
                     planarity_witness, registry_list, square_spec)
from .geometry import (Circle, CircleParam, ShiftPlane, UnitalDesign, base_blocks,
                       build_unital, circle, circles_of, fiber_counts, fiber_map,
                       find_thetas, parametrize_circle, read_design, verify_design,
                       verify_ovals, verify_plane, verify_transitivity,
                       verify_unital_in_plane, write_design)
from .gf2rank import RankAccumulator, rank2_of_unital, verify_dual_ovals
from .charspec import (SpectrumResult, bounds, chi_block, in_spectrum,
                       in_spectrum_by_scan, make_spectrum_ctx, s_beta,
                       spectrum_size, verify_chi_square_lemma, verify_orthogonality,
                       verify_trace_criterion)
from .kloosterman import (CyclotomicInt, KloostermanRecord, KloostermanTable,
                          count_classes, kloosterman, kloosterman_table,
                          lambda_vanishes_mod2, make_atlas, thm_membership_criterion)

__version__ = "0.1.0"

__all__ = [
    "DesignError", "FieldError", "VerificationError",
    "CharFieldCtx", "FieldCtx", "ThetaSetup", "TowerCtx", "chi", "chi_table",
    "construct_theta", "default_modulus", "make_char_field", "make_field",
    "make_tower", "quadratic_character", "quadratic_form_count",
    "quadratic_form_values", "square_table", "theta_setup", "trace", "trace_form_table",
    "trace_table",
    "ComponentPair", "PlanarSpec", "components", "coulter_matthews_spec", "do_spec",
    "evaluate", "is_normal", "is_planar", "parse_do_table", "planarity_witness",
    "registry_list", "square_spec",
    "Circle", "CircleParam", "ShiftPlane", "UnitalDesign", "base_blocks",
    "build_unital", "circle",
    "circles_of", "fiber_counts", "fiber_map", "find_thetas", "parametrize_circle",
    "read_design", "verify_design", "verify_ovals", "verify_plane",
    "verify_transitivity", "verify_unital_in_plane", "write_design",
    "RankAccumulator", "rank2_of_unital", "verify_dual_ovals",
    "SpectrumResult", "bounds", "chi_block", "in_spectrum", "in_spectrum_by_scan",
    "make_spectrum_ctx", "s_beta", "spectrum_size", "verify_chi_square_lemma",
    "verify_orthogonality", "verify_trace_criterion",
    "CyclotomicInt", "KloostermanRecord", "KloostermanTable", "count_classes",
    "kloosterman", "kloosterman_table", "lambda_vanishes_mod2", "make_atlas",
    "thm_membership_criterion",
]
