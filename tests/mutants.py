"""Recorded mutants of gridsec, each run against the tier-1 suite.

Each mutant is a small deliberate defect, written as one or more patches
(file under the repository root, exact old text, new text).  For each one
the script copies the repository to a temporary directory, applies the
patches there and runs the tier-1 suite with ``-x -q``.  A mutant is
reported as

- killed: the suite fails;
- survived: the suite passes (``survives=True`` marks a known survivor);
- stale: an old text is not found exactly once, so the patch no longer
  applies and must be rewritten against the code (tier-1's
  test_mutant_patches.py fails on it too, without running a mutant).

Usage, from anywhere (stdlib only; pytest does not collect this file):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

The unpatched copy must pass first.  The exit status is 1 when a mutant
not marked as a known survivor survives, or any mutant is stale; 2 when
the unpatched suite fails; 0 otherwise.  The repository itself is never
modified.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    patches: tuple[tuple[str, str, str], ...]   # (file, exact old text, new text)
    survives: bool = False                       # a known survivor


def _one(name, path, old, new, survives=False):
    return Mutant(name, ((path, old, new),), survives)


LP, ORACLE, TUMIN, GRID = (f"src/gridsec/{m}.py" for m in ("lp", "oracle", "tumin", "grid"))

MUTANTS = (
    # the MILP's kept root and its incumbent checks
    _one("target_tableau re-optimizes the kept root in place", ORACLE,
         "tab = root.tab.copy()", "tab = root.tab"),
    _one("milp_root ignores the protection", GRID,
         "_milp_root(self.flow_pairs, self.flow_matrix.shape[1], self.meas.protected,",
         "_milp_root(self.flow_pairs, self.flow_matrix.shape[1], frozenset(),"),
    _one("no incumbent check", ORACLE,
         "            _check_incumbent(root, k, X, den)\n", ""),
    _one("incumbent check without the target clause", ORACLE,
         "ok = image(k) == den and not any(", "ok = not any("),
    _one("incumbent check without the protected clause", ORACLE,
         "ok = image(k) == den and not any(image(i) for i in root.I)", "ok = image(k) == den"),
    _one("incumbent check without the link clause", ORACLE,
         "ok = (ok and image(j) == tp - tm\n              and", "ok = (ok\n              and"),
    _one("incumbent check without the box clause", ORACLE,
         "\n              and (tp + tm + u) * M.denominator == M.numerator * den)", ")"),
    _one("incumbent check reads d over 1", ORACLE,
         "ok = image(k) == den and", "ok = image(k) == 1 and"),
    _one("milp_root without its certificate", ORACLE,
         "    out.tableau.check_optimal()\n", ""),
    _one("branch and bound branches the target", ORACLE,
         "free = {j: c for j, c in root.tcol.items() if j != k}", "free = dict(root.tcol)"),
    _one("target tableau without its <= 1 row", ORACLE,
         "        tab.add_row({t: 1, t + 1: -1, lp.RHS: 1})\n", "", survives=True),
    _one("no zero-fixing check", ORACLE,
         "        if any(c in X for i in fixed0 for c in (free[i], free[i] + 1)):\n"
         "            raise SolverDefect(\"node vertex moves a row fixed to zero; solver defect\")\n",
         ""),
    _one("node cap off by one", ORACLE, "if nodes > cap:", "if nodes > cap + 1:"),
    _one("no final support check", ORACLE,
         "    if len(support) != best:\n"
         "        raise SolverDefect(\"incumbent support disagrees with the optimum\")\n", ""),
    # the dict tableau's denominators: each row's entry in its basic column
    _one("values ignores the row denominators", LP,
         "        den = lcm(*(d for _, _, d in held))\n"
         "        return {c: v * (den // d) for c, v, d in held}, den",
         "        return {c: v for c, v, _ in held}, 1"),
    _one("dual_leaving reads every denominator as 1", LP,
         "den = row[self.basis[i]]", "den = 1"),
    # the ternary kernel and the l1 base
    _one("ternary pivot without its +-2 guard", LP,
         "            if p & ap or n & an:\n                raise IntegralityError(_LEFT_TERNARY)\n",
         ""),
    _one("ternary leaving ties to the largest basic index", LP,
         "key=lambda i: (rhs[i], basis[i])", "key=lambda i: (rhs[i], -basis[i])"),
    _one("ternary entering always Dantzig", LP,
         "return self.z.index(low) if dantzig else next(j for j, v in enumerate(self.z) if v < 0)",
         "return self.z.index(low)"),
    _one("solve_l1_base without its certificate", TUMIN,
         "    lp._run_simplex(tab, [0])\n    tab.check_optimal()\n", "    lp._run_simplex(tab, [0])\n"),
    _one("meter space checks the state rows only", TUMIN,
         "for row in [*state.values(), *yrows]:", "for row in state.values():"),
    Mutant("meter space takes the protected rows last", (
        (TUMIN, "enumerate(sorted(I) + free, start=-len(I))", "enumerate(free + sorted(I))"),
        (TUMIN, "        if pos >= 0:\n", "        if pos < r:\n"))),
    _one("warm step pivots the kept base in place", TUMIN,
         "lp._TernaryTableau(base.pos[:], base.neg[:],", "lp._TernaryTableau(base.pos, base.neg,"),
    # the warm step's certificate and validate_integrality
    _one("certificate without the target clause", TUMIN,
         "if image.get(k) != 1 or any(", "if any("),
    _one("certificate without the protected clause", TUMIN,
         "if image.get(k) != 1 or any(j in base.I for j in image):", "if image.get(k) != 1:"),
    _one("certificate without the slack check", TUMIN,
         "    if any(c >= 2 * len(base.spos) for c in vals):\n"
         "        raise SolverDefect(\"the target row's slack is not zero; solver defect\")\n", ""),
    _one("certificate without the pattern check", TUMIN,
         "    if any(v not in (-1, 1) for v in moved.values()) or any(v not in (-1, 1) for v in image.values()):\n"
         "        raise IntegralityError(f\"witness violates the unimodular pattern: {sol}\")\n", ""),
    _one("validate_integrality without the x check", TUMIN,
         " or any(v not in (-1, 0, 1) for v in sol.x):", ":"),
    _one("validate_integrality without the image check", TUMIN,
         "return all(v in (-1, 1) for v in image.values()) and ", "return "),
    _one("validate_integrality without the support comparison", TUMIN,
         " and frozenset(image) == sol.support", ""),
)


def _copy_repo(dest: Path) -> None:
    for part in ("src", "tests", "cases", "perfbench"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", ".work"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _suite_passes(work: Path) -> bool:
    """Tier-1 on the copy in work, stopping at the first failure; no
    bytecode is written, so a patched module is never read from a stale
    cache.  test_mutant_patches is left out: it checks that each patch
    applies to the unpatched code, so it fails on every patched copy."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           "--ignore=tests/test_mutant_patches.py"],
                          cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def run(mutant: Mutant, work: Path) -> str:
    """killed, survived or stale; work holds a pristine copy on return."""
    originals: dict[Path, str] = {}
    try:
        for path, old, new in mutant.patches:
            target = work / path
            originals.setdefault(target, target.read_text())
            text = target.read_text()
            if text.count(old) != 1:
                return "stale"
            target.write_text(text.replace(old, new))
        return "survived" if _suite_passes(work) else "killed"
    finally:
        for target, text in originals.items():
            target.write_text(text)


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    start, bad = time.perf_counter(), 0
    with tempfile.TemporaryDirectory(prefix="gridsec-mutants-") as tmp:
        work = Path(tmp)
        _copy_repo(work)
        if not _suite_passes(work):     # else every mutant would read as killed
            print("the unpatched suite fails; no mutant was run", file=sys.stderr)
            return 2
        for m in chosen:
            t0 = time.perf_counter()
            result = run(m, work)
            note = " (known survivor)" if m.survives and result == "survived" else ""
            bad += result == "stale" or (result == "survived" and not m.survives)
            print(f"{result:8} {time.perf_counter() - t0:6.1f} s  {m.name}{note}", flush=True)
    print(f"{len(chosen)} mutants, {bad} unexpected, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
