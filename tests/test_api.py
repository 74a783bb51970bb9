"""The package namespace is the union of its modules' ``__all__`` lists."""

import importlib
import pkgutil

import pytest

import aoarima


def module_lists() -> dict:
    """``__all__`` of every aoarima module that declares one, by module name."""
    lists = {}
    for info in pkgutil.iter_modules(aoarima.__path__):
        module = importlib.import_module(f"aoarima.{info.name}")
        if hasattr(module, "__all__"):
            lists[info.name] = (module, module.__all__)
    return lists


def test_api_modules():
    assert set(module_lists()) == {"diagnostics", "errors", "estimation", "outliers", "series", "simulate"}


@pytest.mark.parametrize("name", sorted(module_lists()))
def test_each_name_resolves_to_the_same_object(name):
    module, names = module_lists()[name]
    for attr in names:
        assert getattr(aoarima, attr) is getattr(module, attr), f"aoarima.{attr} is not {name}.{attr}"


def test_package_all_has_no_duplicates():
    assert len(aoarima.__all__) == len(set(aoarima.__all__))


def test_package_all_is_the_union_of_the_module_lists():
    union = {attr for _, names in module_lists().values() for attr in names}
    assert set(aoarima.__all__) == union
