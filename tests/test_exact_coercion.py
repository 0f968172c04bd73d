"""Every exact value the package reads from outside goes through
exactla.to_fraction, so a float means its shortest decimal repr everywhere.
A bare Fraction(x) would read a float in binary, so the sources are parsed
here and none may remain outside to_fraction itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gridsec"


def _offences(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "to_fraction":
            exempt.update(map(id, ast.walk(node)))
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and id(node) not in exempt
                and isinstance(node.func, ast.Name) and node.func.id == "Fraction"
                and len(node.args) == 1 and not node.keywords
                and not isinstance(node.args[0], ast.Constant)):
            out.append(f"{path.name}:{node.lineno}: Fraction({ast.unparse(node.args[0])})")
    return out


def test_no_one_argument_fraction_of_a_variable_outside_to_fraction():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [o for f in files for o in _offences(f)] == []
