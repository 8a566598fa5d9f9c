"""Exact dimer-monomer enumeration and certified entropy bounds on Tower of
Hanoi graphs."""

from .appendix_check import (
    CertificateReport,
    alpha_descending_certificate,
    omega_ascending_certificate,
    quadratic_contraction_certificate,
    run_certificates,
)
from .entropy import (
    BoundsResult,
    HighPrecisionReal,
    bounds,
    check_finite_sandwich,
    hp_ln,
)
from .evolve import (
    BoundaryClassVector,
    ContractionReport,
    RatioTrace,
    apply_system,
    check_contraction,
    evolve_to,
    initial_vector,
    ratios,
    render_decimal,
    render_quotient,
    step,
)
from .hanoi_graph import HanoiGraph, build, connector_edges
from .matching_oracle import (
    CornerConstraint,
    CornerState,
    boundary_class_vector,
    count_constrained,
    count_matchings,
)
from .multipoly import (
    Polynomial,
    evaluate_int,
    parse_polynomial,
    serialize,
    substitute,
)
from .recursion_gen import (
    RecursionSystem,
    cached_system,
    generate,
    mixed_count_expansion,
    ratio_form,
    reduced_ratio_form,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryClassVector",
    "BoundsResult",
    "CertificateReport",
    "ContractionReport",
    "CornerConstraint",
    "CornerState",
    "HanoiGraph",
    "HighPrecisionReal",
    "Polynomial",
    "RatioTrace",
    "RecursionSystem",
    "alpha_descending_certificate",
    "apply_system",
    "boundary_class_vector",
    "bounds",
    "build",
    "cached_system",
    "check_contraction",
    "check_finite_sandwich",
    "connector_edges",
    "count_constrained",
    "count_matchings",
    "evaluate_int",
    "evolve_to",
    "generate",
    "hp_ln",
    "initial_vector",
    "mixed_count_expansion",
    "omega_ascending_certificate",
    "parse_polynomial",
    "quadratic_contraction_certificate",
    "ratio_form",
    "ratios",
    "reduced_ratio_form",
    "render_decimal",
    "render_quotient",
    "run_certificates",
    "serialize",
    "step",
    "substitute",
]
