"""A broken exact invariant must surface as SolverDefect (exit code 4), never
as a bare AssertionError or an assert that `python -O` strips.  A new assert
in the package would only show when it fires, so the sources are parsed here
and none may remain."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gridsec"


def _offences(path: Path) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assert):
            out.append(f"{path.name}:{node.lineno}: assert")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                out.append(f"{path.name}:{node.lineno}: raise AssertionError")
    return out


def test_no_assert_and_no_assertion_error_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [o for f in files for o in _offences(f)] == []
