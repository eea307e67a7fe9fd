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


def test_x_certificate_check_reads_rho_alone():
    # The closed form's certificate check rebuilds its sectors from rho: it
    # names nothing that certify defines, so neither the search's objective
    # nor its closed form, and takes no Jacobi pass.
    certify = MODULES["certify"].body
    defined = {node.name for node in certify
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in certify if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert {"_SLEObjective", "_touching_points", "_x_closed_form",
            "_x_pattern"} <= defined
    check = next(node for node in MODULES["verify"].body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "verify_sle_x_certificate")
    names = {node.id for node in ast.walk(check) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(check)
              if isinstance(node, ast.Attribute)}
    assert names & defined == set()
    assert names & {"linalg", "jacobi_eigvalsh", "jacobi_eigh"} == set()


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


def _names_umath_linalg(tree: ast.Module) -> bool:
    """Whether ``tree`` imports or reaches ``numpy.linalg._umath_linalg``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                "_umath_linalg" in alias.name for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (
                "_umath_linalg" in (node.module or "")
                or any(alias.name == "_umath_linalg" for alias in node.names)):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "_umath_linalg":
            return True
    return False


def test_only_states_reaches_lapack_past_numpy_linalg():
    assert {name for name, tree in MODULES.items()
            if _names_umath_linalg(tree)} == {"states"}


def test_solver_hot_paths_take_the_lapack_entry():
    # Every eigensolve and linear solve of these modules goes through
    # states' LAPACK entry (see "LAPACK entry" in states), never through
    # numpy.linalg's wrapper.
    for name in ("sdp", "certify", "thresholds"):
        calls = [node.func.attr for node in ast.walk(MODULES[name])
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr in {"eigh", "eigvalsh", "solve"}
                 and isinstance(node.func.value, ast.Attribute)
                 and node.func.value.attr == "linalg"]
        assert calls == [], name
