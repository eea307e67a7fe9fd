"""The functions the benchmark's span tracer wraps must exist.

``bench/spans.py`` names each traced function as a (module, attribute)
pair; a rename or deletion would crash a traced benchmark run, so every
pair must resolve.  The tuple is read from the file without importing it,
and no tracer is installed.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return [(elt.elts[1].value, elt.elts[2].value)
                    for elt in node.value.elts]
    raise AssertionError(f"no TARGETS tuple in {SPANS}")


def test_targets_are_listed():
    assert len(_targets()) >= 20


@pytest.mark.parametrize("module_name,attribute", _targets(),
                         ids=lambda value: value)
def test_traced_function_resolves(module_name, attribute):
    owner = importlib.import_module(module_name)
    target = functools.reduce(getattr, attribute.split("."), owner)
    assert callable(target)
