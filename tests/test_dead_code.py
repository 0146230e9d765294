"""Every module-level private name of the package is used in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scatterkit"


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
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def _uses(tree: ast.Module) -> set[str]:
    """Every name the module reads, bare or as an attribute; an import or
    a definition is not a use."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def test_every_private_module_level_name_is_used_in_the_package():
    """A retired path whose helpers stay behind fails here: a private
    function, class or constant that no module of the package reads."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert trees
    used = set().union(*map(_uses, trees.values()))
    unused = [(name, defined) for name, tree in trees.items()
              for defined in _private_definitions(tree) if defined not in used]
    assert unused == []
