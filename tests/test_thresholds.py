"""Every numeric threshold of the package comes from tolerances.py."""

import ast
import pathlib

import spinscatter

PACKAGE = pathlib.Path(spinscatter.__file__).parent


def test_no_module_but_tolerances_writes_a_tiny_float_literal():
    # a float literal below 1e-6 in magnitude is a threshold written in place
    # of its Tolerances field
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "tolerances.py")
    assert len(modules) > 5
    found = [f"{path.name}:{node.lineno}: {node.value!r}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and type(node.value) is float
             and 0 < abs(node.value) < 1e-6]
    assert found == []
