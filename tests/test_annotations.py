"""Every annotation in the package resolves: ``typing.get_type_hints``
evaluates the annotations of each function and method a ``plausible``
module defines, as tools that read them do."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import plausible

MODULES = sorted(f"plausible.{info.name}" for info in pkgutil.iter_modules(plausible.__path__))


def defined_functions(module):
    """The functions ``module`` defines, its classes' methods included, by
    qualified name."""
    found = {}
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found[obj.__qualname__] = obj
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member) and member.__module__ == module.__name__:
                    found[member.__qualname__] = member
    return found


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    functions = defined_functions(importlib.import_module(name))
    for qualname, fn in functions.items():
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            pytest.fail(f"{name}.{qualname}: {exc}")


def test_the_modules_define_functions():
    assert {"plausible.search", "plausible.syntax", "plausible._kernel_py"} <= set(MODULES)
    assert "_draw_partition" in defined_functions(importlib.import_module("plausible.search"))
