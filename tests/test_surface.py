"""The public surface: every function that opgeom exports has a caller in
the package, the demos or the benchmark harness."""

import ast
import inspect
from pathlib import Path

import opgeom

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(opgeom.__file__).parent


def exported_functions():
    """The names that opgeom/__init__.py imports and that are functions;
    classes and exceptions are exempt."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name
                  for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names
                  if inspect.isfunction(getattr(opgeom, alias.asname or alias.name)))


def referenced_names():
    """Every name read and every attribute taken in the package, the demos
    and the benchmark's Python files.  Definitions and import lines are
    not Name or Attribute nodes, and strings (docstrings, __all__, the
    tracer's target table) are not either, so neither counts."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "bench").rglob("*.py")]
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def test_every_exported_function_has_a_caller():
    functions = exported_functions()
    assert "geometric_series" in functions and "OperatorSpec" not in functions
    unused = sorted(set(functions) - referenced_names())
    assert not unused, f"exported but never called: {unused}"
