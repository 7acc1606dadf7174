"""Mutation runner: each mutant in ``MUTANTS`` is one edit of the package
source that the tests it names must catch.

Run it from anywhere, with the test dependencies installed::

    python tests/mutation.py

First the named tests run on the unmutated source, and must pass.  Then,
for each mutant, ``src/`` is copied to a temporary directory, the mutant's
snippet, which must occur exactly once in its file, is replaced, and its
tests run with ``-x`` against the copy, which ``PYTHONPATH`` puts first.  A
mutant whose tests all pass has survived, and fails the run; so does a
snippet that no longer occurs exactly once, so the table cannot go stale
without notice.  ``EQUIVALENT`` lists mutants that no test can kill, each
with the reason; their snippets are checked, but they are not run.

Standard library only; pytest does not collect this file, whose name does
not start with ``test_``.  Hypothesis runs under the ``ci`` profile of
``tests/conftest.py``: the same examples on every run, and no example
database to carry a mutant's failures into a later run.
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

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/cutstrength
    snippet: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...] = ()  # node ids, relative to the repository root; any one must fail
    reason: str = ""  # why an equivalent mutant cannot be killed


_BAND_ENDS = "tests/test_montecarlo.py::TestRowWiseOracle::test_lattice_lines_and_band_ends_bit_identical"
_BAND_ENDS_DRAWN = "tests/test_montecarlo.py::TestRowWiseOracle::test_lattice_lines_and_band_ends_of_drawn_bodies"
_RATIO = "tests/test_ratio.py::TestRatio"
_OFF_NEW = "tests/test_ratio.py::TestOffFractionNew"

# the evaluator's folding of split rows, whose third mutant keeps the 0-ends
# of the first folded row non-strict
_FOLD = """\
    checks = []
    for pieces, split, *_ in regions:
        inside = all(any(b[:2] == split and b[3] and b[5] and 0 <= b[2] / b[3] and b[4] / b[5] <= 1 for b in piece)
                     for piece in pieces)
        folded = split if inside else None
"""

MUTANTS = [
    # a wrong coefficient of the region table: type 1 region 2's t_bar
    # (3 - u) / (2 - u) becomes (3 - u) / (3 - u)
    Mutant(
        "table-coefficient", "cuts.py",
        "((((*_S, *_LO, 1, 1),),), None, _S, (3, -1, 2)),",
        "((((*_S, *_LO, 1, 1),),), None, _S, (3, -1, 3)),",
        ("tests/test_cuts.py::TestAgainstOracles::test_profile_grid",),
    ),
    # den, k and s of the type 3 x1 term doubled together leave every value
    # as it is; only the terms that the bound spells out change
    Mutant(
        "t3-x1-doubled", "bounds.py",
        "return ((2 * R * (D * F) ** 2, A2, D * F, R * (F - A1 * B1), F, qb, -A2 * B1 * D),)",
        "return ((4 * R * (D * F) ** 2, 2 * A2, D * F, R * (F - A1 * B1), F, qb, -2 * A2 * B1 * D),)",
        ("tests/test_bounds.py::TestPublicData::test_digest",),
    ),
    # the band ends of a folded split row, compared non-strictly
    Mutant(
        "band-ends-at-0-non-strict", "montecarlo.py",
        "(np.greater_equal, np.greater, 2, 3, 0.0)",
        "(np.greater_equal, np.greater_equal, 2, 3, 0.0)",
        (_BAND_ENDS, _BAND_ENDS_DRAWN),
    ),
    Mutant(
        "band-ends-at-1-non-strict", "montecarlo.py",
        "(np.less_equal, np.less, 4, 5, 1.0)",
        "(np.less_equal, np.less_equal, 4, 5, 1.0)",
        (_BAND_ENDS, _BAND_ENDS_DRAWN),
    ),
    Mutant(
        "first-folded-row-0-ends-non-strict", "montecarlo.py",
        _FOLD + "        bands = [[(b[:2], strict if b[:2] == folded and b[num] / b[den] == end else compare",
        _FOLD.replace("checks = []", "checks, first_fold = [], True")
        + "        keep, first_fold = first_fold and inside, first_fold and not inside\n"
        + "        bands = [[(b[:2], strict if b[:2] == folded and b[num] / b[den] == end"
        + " and not (keep and end == 0.0) else compare",
        (_BAND_ENDS, _BAND_ENDS_DRAWN),
    ),
    # the one maker of exact results, each of its three steps left out
    Mutant(
        "ratio-no-sign-fix", "geometry.py",
        "    if d < 0:\n        g = -g\n    elif not d:\n",
        "    if not d:\n",
        (_RATIO,),
    ),
    Mutant("ratio-no-gcd", "geometry.py", "    g = gcd(n, d)\n", "    g = 1\n", (_RATIO,)),
    Mutant(
        "ratio-no-zero-check", "geometry.py",
        '    elif not d:\n        raise ZeroDivisionError(f"Fraction({n}, 0)")\n',
        "",
        (_RATIO,),
    ),
    # the hot paths sent back through Fraction's Python constructor
    Mutant(
        "t-bar-through-fraction", "cuts.py",
        "split, _ratio(a0 * q + s, b0 * q + s), None, None))",
        "split, Fraction(a0 * q + s, b0 * q + s), None, None))",
        (_OFF_NEW,),
    ),
    Mutant(
        "bound-value-through-fraction", "bounds.py",
        "return _ratio(num * sd, den * m * m * sn)",
        "return Fraction(num * sd, den * m * m * sn)",
        (_OFF_NEW,),
    ),
    # a family bound sent back through the checked public constructor
    Mutant(
        "t1-bound-checked", "bounds.py",
        "PiecewiseBound._unchecked(((4, ((u, 3, u, u), (v, -3, u, u), (v, 4, m, m))),), (), (1, 1))",
        "PiecewiseBound(((4, ((u, 3, u, u), (v, -3, u, u), (v, 4, m, m))),))",
        ("tests/test_bounds.py::TestFamilyBuild",),
    ),
]

EQUIVALENT = [
    Mutant(
        "corner-step-strict", "bounds.py",
        "                if l3 >= 0:\n",
        "                if l3 > 0:\n",
        reason="the corner step adds s l3^2, which is 0 at its own root l3 = 0",
    ),
]


def _source(mutant: Mutant, root: Path = SRC) -> Path:
    return root / "cutstrength" / mutant.file


def _env(src: Path) -> dict:
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, HYPOTHESIS_PROFILE="ci")


def _pytest(src: Path, tests, *options: str) -> subprocess.CompletedProcess:
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options, *tests]
    return subprocess.run(command, cwd=ROOT, env=_env(src), capture_output=True, text=True)


def _imports_from(src: Path) -> bool:
    """Whether ``cutstrength`` imports from ``src`` under :func:`_env`."""
    probe = [sys.executable, "-c", "import cutstrength; print(cutstrength.__file__)"]
    found = subprocess.run(probe, env=_env(src), capture_output=True, text=True).stdout.strip()
    return Path(found).resolve().parent == (src / "cutstrength").resolve()


def _tail(result: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((result.stdout + result.stderr).splitlines()[-lines:])


def main() -> int:
    # every snippet, equivalent ones included, must still occur once
    stale = [f"{m.name}: its snippet occurs {n} times in {m.file}, not once"
             for m in MUTANTS + EQUIVALENT if (n := _source(m).read_text(encoding="utf-8").count(m.snippet)) != 1]
    if stale:
        print("\n".join(stale))
        return 1

    start = time.perf_counter()
    tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    result = _pytest(SRC, tests)
    print(f"unmutated tree: {len(tests)} node ids, exit {result.returncode} ({time.perf_counter() - start:.1f} s)")
    if result.returncode != 0:
        print(_tail(result))
        return 1

    failures = []
    for m in MUTANTS:
        began = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
            path = _source(m, src)
            path.write_text(path.read_text(encoding="utf-8").replace(m.snippet, m.replacement), encoding="utf-8")
            if not _imports_from(src):
                failures.append(m.name)
                print(f"NOT RUN  {m.name}: cutstrength does not import from the mutated copy")
                continue
            result = _pytest(src, m.tests, "-x")
        seconds = time.perf_counter() - began
        # exit 1: some test failed; any other code is not a kill (0: all
        # passed, 2: interrupted or a collection error, 4: a node id not found)
        if result.returncode == 1:
            print(f"killed   {m.name} ({seconds:.1f} s)")
        else:
            print(f"NOT KILLED {m.name} ({seconds:.1f} s), pytest exit {result.returncode}")
            print(_tail(result))
            failures.append(m.name)
    for m in EQUIVALENT:
        print(f"equivalent, not run: {m.name}: {m.reason}")
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
