"""Every recorded mutant (tests/mutants.py) still applies: each patch's old
text occurs exactly once in its file.  The mutants themselves are not run
here; a refactor that moves a mutant's text fails this test instead of
reading as stale in the slow mutant run."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _mutants()


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_every_patch_applies_once(mutant):
    # in order, as mutants.run applies them
    texts: dict[str, str] = {}
    for path, old, new in mutant.patches:
        text = texts.setdefault(path, (ROOT / path).read_text())
        assert old != new and text.count(old) == 1, f"{path}: {old!r}"
        texts[path] = text.replace(old, new)
