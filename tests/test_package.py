"""The package namespace: each public name resolves to its module's object."""

from __future__ import annotations

import importlib

import pytest

import hanoi_dimer


@pytest.mark.parametrize("name", hanoi_dimer.__all__)
def test_each_public_name_is_the_object_of_its_defining_module(name):
    value = getattr(hanoi_dimer, name)
    assert value.__module__.startswith("hanoi_dimer.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_lists_every_public_name():
    assert set(hanoi_dimer.__all__) <= set(dir(hanoi_dimer))
    assert "__version__" in dir(hanoi_dimer)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from hanoi_dimer import *", namespace)
    assert {name: namespace[name] for name in hanoi_dimer.__all__} == {
        name: getattr(hanoi_dimer, name) for name in hanoi_dimer.__all__}


def test_an_unknown_name_raises_attribute_error_and_submodules_still_import():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hanoi_dimer.no_such_name
    assert not hasattr(hanoi_dimer, "working_bits")  # public in entropy only
    from hanoi_dimer import appendix_check

    assert appendix_check.__name__ == "hanoi_dimer.appendix_check"
