"""The benchmark's tracer (perfbench/tracing.py) times the program by
replacing module attributes of gridsec named in its BOUNDARIES table.  A
renamed or deleted attribute would only surface when a traced benchmark
run breaks, so every name is checked here against the imported modules."""
import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _boundaries():
    """BOUNDARIES read off the tracer's source; the module is not run."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no BOUNDARIES table in the tracer")


def test_every_tracer_boundary_resolves():
    boundaries = _boundaries()
    assert boundaries
    missing = [(module, attr) for module, attr, _ in boundaries
               if not callable(getattr(importlib.import_module(f"gridsec.{module}"), attr, None))]
    assert missing == []
