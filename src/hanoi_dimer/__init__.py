"""Exact dimer-monomer enumeration and certified entropy bounds on Tower of
Hanoi graphs.

Each public name is imported from its module on first access (PEP 562), so
importing the package, or one of its modules, loads no other module.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "appendix_check": (
        "CertificateReport",
        "alpha_descending_certificate",
        "omega_ascending_certificate",
        "quadratic_contraction_certificate",
        "run_certificates",
    ),
    "entropy": (
        "BoundsResult",
        "HighPrecisionReal",
        "bounds",
        "check_finite_sandwich",
        "hp_ln",
    ),
    "evolve": (
        "BoundaryClassVector",
        "ContractionReport",
        "RatioTrace",
        "apply_system",
        "check_contraction",
        "evolve_to",
        "initial_vector",
        "ratios",
        "render_decimal",
        "render_quotient",
        "step",
    ),
    "hanoi_graph": ("HanoiGraph", "build", "connector_edges"),
    "matching_oracle": (
        "CornerConstraint",
        "CornerState",
        "boundary_class_vector",
        "count_constrained",
        "count_matchings",
    ),
    "multipoly": (
        "Polynomial",
        "evaluate_int",
        "parse_polynomial",
        "serialize",
        "substitute",
    ),
    "recursion_gen": (
        "RecursionSystem",
        "cached_system",
        "generate",
        "mixed_count_expansion",
        "ratio_form",
        "reduced_ratio_form",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # also how `from hanoi_dimer import <submodule>` falls through to
        # importing the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
