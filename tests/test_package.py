"""The public names: each lives in, and is imported from, its own module; the
package root holds only ``__version__``."""

from __future__ import annotations

import importlib

import pytest

import hanoi_dimer

PUBLIC = {
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
        "generate",
        "mixed_count_expansion",
        "ratio_form",
        "reduced_ratio_form",
    ),
}
MODULE_OF = {name: module for module, names in PUBLIC.items() for name in names}


def module(name: str):
    return importlib.import_module(f"hanoi_dimer.{name}")


@pytest.mark.parametrize("name", sorted(MODULE_OF))
def test_each_public_name_is_the_object_of_its_defining_module(name):
    value = getattr(module(MODULE_OF[name]), name)
    assert value.__module__ == f"hanoi_dimer.{MODULE_OF[name]}"


def test_dir_lists_every_public_name():
    for name, names in PUBLIC.items():
        assert set(names) <= set(dir(module(name)))
    assert "__version__" in dir(hanoi_dimer)


def test_star_import_binds_every_public_name():
    for name, names in PUBLIC.items():
        namespace: dict = {}
        exec(f"from hanoi_dimer.{name} import *", namespace)
        assert {n: namespace[n] for n in names} == {
            n: getattr(module(name), n) for n in names}


def test_an_unknown_name_raises_attribute_error_and_submodules_still_import():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hanoi_dimer.no_such_name
    assert not hasattr(hanoi_dimer, "working_bits")  # public in entropy only
    from hanoi_dimer import appendix_check

    assert appendix_check.__name__ == "hanoi_dimer.appendix_check"
