"""The runtime imports only the standard library and numpy."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scatterkit"}


def test_package_modules_import_only_stdlib_and_numpy():
    modules = sorted((SRC / "scatterkit").glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside += [(path.name, root) for root in roots if root not in ALLOWED]
    assert outside == []


def test_cli_import_loads_no_scipy():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import scatterkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
