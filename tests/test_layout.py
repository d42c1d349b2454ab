"""Source layout rules checked statically over ``src/pointdiff``, and the
package names the bench relies on."""

import ast
import importlib.util
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pointdiff"
REPO = SRC.parent.parent

# public names whose one caller lives outside the package: module:name -> that file
OUTSIDE_CALLERS = {
    "metrics:chamfer_l2": "bench/workloads.py",
    "metrics:hausdorff": "bench/workloads.py",
}


def _top_level_references(paths=None):
    """Every module-level statement of the package (or of ``paths``) as
    (module, statement, names it references as a ``Name``, an ``Attribute``
    or an import alias)."""
    out = []
    for path in sorted(SRC.glob("*.py")) if paths is None else paths:
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


def _uncalled(private):
    """``module:name`` of each module-level function or class, private or
    public as asked, that no other statement of the package references; a
    reference from inside its own body does not count, an import in
    ``__init__`` does."""
    statements = _top_level_references()
    return [
        f"{module[:-3]}:{stmt.name}"
        for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") == private
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]


def test_every_private_helper_has_a_caller():
    assert _uncalled(private=True) == []


def test_every_public_name_has_a_caller():
    # a public name no statement of the package references is on the
    # allow-list, and the file the list names does reference it
    assert sorted(_uncalled(private=False)) == sorted(OUTSIDE_CALLERS)
    for qualified, caller in OUTSIDE_CALLERS.items():
        names = set().union(*(n for _, _, n in _top_level_references([REPO / caller])))
        assert qualified.split(":")[1] in names, f"{caller} does not call {qualified}"


def test_every_traced_bench_name_is_a_package_callable():
    # ``bench/run.py --trace`` wraps each ``pointdiff.<module>.<attr>`` that
    # ``bench/spans.py`` lists in TRACED; a rename or deletion breaks it there
    spec = importlib.util.spec_from_file_location("bench_spans", REPO / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for module, attrs in spans.TRACED.items() for attr in attrs
               if not callable(getattr(importlib.import_module(f"pointdiff.{module}"), attr, None))]
    assert missing == []
