"""Line counts of the gridsec package, per module and in total.

Two counts per file: raw (every line) and code-only (lines holding a
token that is not a comment, a docstring or layout, as Python's tokenizer
reads them; a docstring is a string that stands alone as a statement).

Usage, from anywhere (stdlib only; pytest does not collect this file):

    python tests/loc.py            # src/gridsec of this checkout
    python tests/loc.py DIR        # the .py files of another package
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Lines holding a token other than a comment, a docstring or layout."""
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokens:
        if tok.type in _LAYOUT:
            if tok.type == tokenize.NEWLINE:
                # a statement that is one string alone is a docstring
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def main(args: list[str]) -> int:
    package = Path(args[0]) if args else ROOT / "src" / "gridsec"
    raw = code = 0
    for path in sorted(package.glob("*.py")):
        r, c = len(path.read_bytes().splitlines()), code_lines(path)
        raw, code = raw + r, code + c
        print(f"{r:6} {c:6}  {path.name}")
    print(f"{raw:6} {code:6}  total (raw, code-only)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
