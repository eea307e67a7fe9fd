"""The package's layout, read from its source with ``ast``: which module may
import which, where the certificate checks live, and the module list of the
package docstring."""

import ast
import re
from pathlib import Path

import superact

PACKAGE = Path(superact.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text())
           for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree: ast.Module) -> set[str]:
    """Every module an import statement of ``tree`` names, relative imports
    resolved inside ``superact``; imports inside functions included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(f"superact.{node.module}")
        elif isinstance(node, ast.ImportFrom):  # from . import a, b
            names.update(f"superact.{alias.name}" for alias in node.names)
    return names


def test_verify_imports_only_numpy_states_and_linalg():
    assert _imports(MODULES["verify"]) == {"numpy", "superact.states",
                                           "superact.linalg"}


def test_only_verify_imports_the_jacobi_solver():
    importers = {name for name, tree in MODULES.items()
                 if "superact.linalg" in _imports(tree)}
    assert importers == {"verify", "__init__"}


def test_only_verify_defines_certificate_checks():
    owners = {name for name, tree in MODULES.items()
              for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and node.name.startswith("verify_")}
    assert owners == {"verify"}


def test_package_docstring_lists_every_module():
    listed = re.findall(r"^- :mod:`superact\.(\w+)`", superact.__doc__,
                        flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == MODULES.keys() - {"__init__"}
