"""Source layout rules checked statically over ``src/pointdiff``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pointdiff"


def _top_level_references():
    """Every module-level statement of the package as (module, statement,
    names it references as a ``Name``, an ``Attribute`` or an import alias)."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update({node.name.split(".")[-1], node.asname} - {None})
            out.append((path.name, stmt, names))
    return out


def test_every_private_helper_has_a_caller():
    # a module-level ``_name`` function or class is referenced by some other
    # statement of the package; a reference from inside its own body does not count
    statements = _top_level_references()
    unused = [
        f"{module}:{stmt.name}"
        for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert unused == []
