"""Every private name of the package is used in the package: a module-level
name, a method of a class, and an attribute a private class stores on
`self`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "scatterkit"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree: ast.Module) -> list[str]:
    """The module-level functions, classes and constants named `_x`, not
    `__x__`."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if _private(n)]


def _private_methods(tree: ast.Module) -> list[str]:
    """The methods named `_x`, not `__x__`, of every class in the module."""
    return [node.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(node.name)]


def _private_class_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, attribute) of every attribute that a class named `_X` stores
    on `self` in one of its methods."""
    return [(cls.name, n.attr) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and _private(cls.name)
            for n in ast.walk(cls)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name) and n.value.id == "self"]


def _uses(tree: ast.Module) -> set[str]:
    """Every name the module reads, bare or as an attribute; an import, a
    definition or a store is not a use."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Every attribute the module reads: a bare name of the same spelling
    is not a read of the attribute."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


@pytest.fixture(scope="module")
def trees() -> dict[str, ast.Module]:
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert trees
    return trees


@pytest.fixture(scope="module")
def used(trees) -> set[str]:
    return set().union(*map(_uses, trees.values()))


def test_every_private_module_level_name_is_used_in_the_package(trees, used):
    """A retired path whose helpers stay behind fails here: a private
    function, class or constant that no module of the package reads."""
    unused = [(name, defined) for name, tree in trees.items()
              for defined in _private_definitions(tree) if defined not in used]
    assert unused == []


def test_every_private_method_is_used_in_the_package(trees, used):
    """A private method of a class that no module of the package calls."""
    unused = [(name, method) for name, tree in trees.items()
              for method in _private_methods(tree) if method not in used]
    assert unused == []


def test_every_field_a_private_class_stores_is_read_in_the_package(trees):
    """An attribute that a private class (such as `decouple._Frame`) stores
    on `self` and that no module of the package reads back."""
    read = set().union(*map(_attribute_reads, trees.values()))
    unread = [(name, cls, attr) for name, tree in trees.items()
              for cls, attr in _private_class_fields(tree) if attr not in read]
    assert unread == []
