"""The README's library quick start runs as written and prints what its
comments say."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_quick_start_prints_what_its_comments_say():
    code = quick_start()
    out, scope = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(code, scope)
    printed = out.getvalue().splitlines()
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert printed[:2] == ["3", "[2, 3, 6]"]
    for value, comment in zip(printed[:2], comments):
        assert comment == value or comment.startswith(value + ",")
    assert scope["res"].attack.delta_z[5] == 1.0 and "meter 6 moves by 1" in comments[2]
