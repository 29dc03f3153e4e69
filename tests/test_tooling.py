"""The benchmark's tracer (``perfbench/spans.py``) wraps tnsc entry points by
module and name, so renaming or moving one must fail here, not first in a
traced benchmark run. The package's modules must also import each other
without a cycle at run time."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "tnsc"


def test_traced_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.ENTRY_POINTS
    for module_name, attr, _counter in spans.ENTRY_POINTS:
        target = importlib.import_module(f"tnsc.{module_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"tnsc.{module_name}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), f"tnsc.{module_name}.{attr}"


def _runtime_imports(node: ast.AST) -> set[str]:
    """Modules named by relative imports at any depth, except those under
    ``if TYPE_CHECKING:``, which never run."""
    found: set[str] = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom) and child.level:
            found.update([child.module.split(".")[0]] if child.module
                         else (alias.name for alias in child.names))
        if (isinstance(child, ast.If)
                and ast.unparse(child.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")):
            found |= _runtime_imports(ast.Module(body=child.orelse, type_ignores=[]))
        else:
            found |= _runtime_imports(child)
    return found


def test_runtime_imports_are_acyclic():
    graph = {path.stem: _runtime_imports(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert len(graph) > 1
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as err:
        raise AssertionError(f"import cycle: {' -> '.join(err.args[1])}") from None
