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


LP, ORACLE, TUMIN, GRID, MINCUT, SECURITY = (
    f"src/gridsec/{m}.py" for m in ("lp", "oracle", "tumin", "grid", "mincut", "security"))

MUTANTS = (
    # the MILP's kept root and its incumbent checks
    _one("target_tableau re-optimizes the kept root in place", ORACLE,
         "tab = root.tab.copy()", "tab = root.tab"),
    _one("milp_root ignores the protection", GRID,
         "_milp_root(self.meter_space, ",
         "_milp_root(meter_space(self.flow_pairs, self.net.n_states, frozenset()), "),
    _one("no incumbent check", ORACLE,
         "            _check_incumbent(root, k, X, den, image, dden)\n", ""),
    _one("incumbent check without the target clause", ORACLE,
         "ok = image.get(k) == dden and not any(", "ok = not any("),
    _one("incumbent check without the protected clause", ORACLE,
         "ok = image.get(k) == dden and not any(j in space.I for j in image)",
         "ok = image.get(k) == dden"),
    _one("incumbent check without the link clause", ORACLE,
         "ok = (ok and image.get(j, 0) * den * Md == (tp - tm) * dden\n              and",
         "ok = (ok\n              and"),
    _one("incumbent check without the bound clause", ORACLE,
         "\n              and 0 <= tp <= top and 0 <= tm <= top)", ")"),
    _one("incumbent check skips the rows only X moves", ORACLE,
         "image.keys() | {space.free[c % r] for c in X if c < 2 * r}", "image.keys()"),
    _one("incumbent check reads d over 1", ORACLE,
         "ok = image.get(k) == dden and", "ok = image.get(k) == 1 and"),
    _one("milp_root without its certificate", ORACLE,
         "    tab.check_optimal()\n    # a copy holds", "    # a copy holds"),
    _one("the state map reads x with the wrong sign", TUMIN,
         "                x[c] += a * v\n", "                x[c] -= a * v\n"),
    _one("branch and bound branches the target", ORACLE,
         "free = {j: c for j, c in space.ycol.items() if j != k}", "free = dict(space.ycol)"),
    _one("the node loop skips a moved free row", ORACLE,
         "{owner[c % r] for c in X if c < 2 * r}", "{owner[c % r] for c in X if c < r}"),
    _one("no zero-fixing check", ORACLE,
         "                if tp or tm:\n"
         "                    raise SolverDefect(\"node vertex moves a row fixed to zero; solver defect\")\n",
         "                pass\n"),
    _one("a zero-fixing bounds only t'+_j", ORACLE,
         "            tab.fix(free[j] + r)\n", ""),
    Mutant("the MILP reads t'-_j at t + 1", (
        (ORACLE, "tab.add_cost({t: -1, t + len(root.space.free): -1})",
         "tab.add_cost({t: -1, t + 1: -1})"),
        (ORACLE, "tab.add_row({t: 1, t + len(root.space.free): -1,", "tab.add_row({t: 1, t + 1: -1,"),
        (ORACLE, "Md, r = root.big_m.denominator, len(space.free)", "Md, r = root.big_m.denominator, 1"),
        (ORACLE, "Mn, r = root.big_m.numerator, len(space.free)", "Mn, r = root.big_m.numerator, 1"))),
    _one("the state map reads y- unnegated", TUMIN,
         "                t, v = t - r, -v\n", "                t, v = t - r, v\n"),
    _one("_node_lp pivots the shared rows without copying", ORACLE,
         "    rows = [dict(row) for row in space.yrows]\n", "    rows = list(space.yrows)\n"),
    _one("node cap off by one", ORACLE, "if nodes > cap:", "if nodes > cap + 1:"),
    _one("no final support check", ORACLE,
         "    if len(support) != best:\n"
         "        raise SolverDefect(\"incumbent support disagrees with the optimum\")\n", ""),
    # the dict tableau's denominators: each row's entry in its basic column
    _one("values ignores the row denominators", LP,
         "        den = lcm(*(d for _, _, d in held))\n"
         "        nums = {c: v * (den // d) for c, v, d in held}\n",
         "        den = 1\n"
         "        nums = {c: v for c, v, _ in held}\n"),
    # the dual loops' steepest-edge pricing
    Mutant("dual_leaving's norm leaves out the basic entry", (
        (LP, "bs = _square_norm(rows[best])", "bs = _square_norm(rows[best]) - rows[best][basis[best]] ** 2"),
        (LP, "s = _square_norm(row)", "s = _square_norm(row) - row[basis[i]] ** 2"))),
    _one("ternary dual leaving ignores the row norm", LP,
         "v, s = rhs[i] * rhs[i], pos[i].bit_count() + neg[i].bit_count()", "v, s = rhs[i] * rhs[i], 1"),
    _one("ternary steepest edge compares unsquared values", LP,
         "v, s = rhs[i] * rhs[i], pos[i]", "v, s = -rhs[i], pos[i]"),
    # the dict tableau's upper bounds
    _one("check_optimal accepts a basic value above its bound", LP,
         "            if b in upper and v > upper[b] * row[b]:\n"
         "                raise SolverDefect(\"basic value above its bound in an optimal tableau; \"\n"
         "                                   \"solver defect\")\n", ""),
    _one("values() reads a complemented column uncomplemented", LP,
         "        for j in self.flipped:\n"
         "            v = self.upper[j] * den - nums.get(j, 0)\n"
         "            if v:\n"
         "                nums[j] = v\n"
         "            else:\n"
         "                nums.pop(j, None)\n", ""),
    _one("add_cost reads a complemented column uncomplemented", LP,
         "            if j in self.flipped:       # v x_j = v upper[j] - v x'_j\n"
         "                _add_rhs(zrow, -v * self.upper[j])\n"
         "                v = -v\n", ""),
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
         "for row in [*state.values(), *yrows]", "for row in state.values()"),
    _one("the elimination drops a y-row", TUMIN,
         "            if row:\n                yrows.append(row)\n",
         "            if row and pos != r - 1:\n                yrows.append(row)\n"),
    Mutant("meter space takes the protected rows last", (
        (TUMIN, "enumerate(sorted(I) + free, start=-len(I))", "enumerate(free + sorted(I))"),
        (TUMIN, "        if pos >= 0:\n", "        if pos < r:\n"))),
    _one("warm step pivots the kept base in place", TUMIN,
         "lp._TernaryTableau(base.pos[:], base.neg[:],", "lp._TernaryTableau(base.pos, base.neg,"),
    # the warm step's certificate and validate_integrality
    _one("certificate without the target clause", TUMIN,
         "if image.get(k) != 1 or any(", "if any("),
    _one("certificate without the protected clause", TUMIN,
         "if image.get(k) != 1 or any(j in space.I for j in image):", "if image.get(k) != 1:"),
    _one("certificate without the slack check", TUMIN,
         "    if any(c >= 2 * len(space.free) for c in vals):\n"
         "        raise SolverDefect(\"the target row's slack is not zero; solver defect\")\n", ""),
    _one("certificate without the pattern check", TUMIN,
         "    if any(v not in (-1, 0, 1) for v in x) or any(v not in (-1, 1) for v in image.values()):\n"
         "        raise IntegralityError(f\"witness violates the unimodular pattern: {sol}\")\n", ""),
    _one("validate_integrality without the x check", TUMIN,
         " or any(v not in (-1, 0, 1) for v in sol.x):", ":"),
    _one("validate_integrality without the image check", TUMIN,
         "return all(v in (-1, 1) for v in image.values()) and ", "return "),
    _one("validate_integrality without the support comparison", TUMIN,
         " and frozenset(image) == sol.support", ""),
    # the total-unimodularity test
    _one("the minor enumeration skips the last column", TUMIN,
         "for cols in combinations(range(n), order):", "for cols in combinations(range(n - 1), order):"),
    # the min cut's flow certificate
    _one("flow certificate without the capacity clause", MINCUT,
         "        if abs(f) > 1 and e + 1 not in protected:\n"
         "            raise SolverDefect(f\"unit line {mtr.meas.flow_meters[e]} carries {abs(f)}\")\n", ""),
    _one("flow certificate without the conservation clause", MINCUT,
         "    if any(excess):\n"
         "        bus = next(b for b, x in enumerate(excess) if x)\n"
         "        raise SolverDefect(f\"a flow of {value} is not conserved at bus {bus}\")\n", ""),
    _one("check_certificate compares the target's numerator with 1", MINCUT,
         "    if a != b:\n", "    if a != 1:\n"),
    _one("flow certificate without the value clause", MINCUT,
         "    if flows != value:\n"
         "        raise SolverDefect(f\"a flow of {value} but the witness touches {flows} flow meters\")\n", ""),
    # the max-flow's residual list
    _one("an augmenting push leaves the reverse residual", MINCUT,
         "            res[x ^ 1] += push\n", ""),
    _one("the sink side reads the forward residual", MINCUT,
         "if not seen[b] and res[x ^ 1]:", "if not seen[b] and res[x]:"),
    # the exact witness read-back
    Mutant("an injection sum drops its cross-multiplication", (
        (SECURITY, "dz[fi] = (c * b + a * d, d * b)", "dz[fi] = (c + a, b)"),
        (SECURITY, "dz[ti] = (c * b - a * d, d * b)", "dz[ti] = (c - a, b)"))),
    _one("the bracket moves the side holding the reference bus", MINCUT,
         "    if mtr.net.reference_bus in side:\n", "    if mtr.net.reference_bus not in side:\n"),
    _one("the float scatter writes a bus's angle one state column off", SECURITY,
         "dtheta[col[b]] = v * xk.numerator", "dtheta[col[b] - 1] = v * xk.numerator"),
    _one("the bracket drops the second candidate", SECURITY,
         "        moves.append(witness(mtr, k, cut.sink_side))\n", "        pass\n"),
    # the one flow-row form and the LP's column check
    _one("flow rows with their signs flipped", GRID,
         "rows[e].append((c, d))", "rows[e].append((c, -d))"),
    _one("from_int_rows without its column check", LP,
         "        if any(not 0 <= j < num_vars for j in cols):\n"
         "            raise DimensionMismatch(f\"a column outside 0..{num_vars - 1}\")\n", ""),
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
