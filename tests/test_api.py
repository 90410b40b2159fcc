"""The package's public names are exactly its library modules' ``__all__``, each documented."""

import types

import hopfarb
from hopfarb import embedding, invariants, minors, trees

MODULES = (trees, embedding, invariants, minors)


def test_package_exports_each_module_all_and_nothing_else():
    public = {
        name
        for name, value in vars(hopfarb).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))  # no name is declared twice
    assert public == set(declared)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hopfarb, name) is getattr(module, name), name


def test_every_public_name_has_a_docstring():
    for module in MODULES:
        for name in module.__all__:
            doc = getattr(module, name).__doc__
            assert doc and doc.strip(), f"{module.__name__}.{name}"
