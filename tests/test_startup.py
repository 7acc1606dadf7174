"""The start-up contract: which of the package's modules a fresh interpreter
has loaded, and whether numpy and json are among them, after it imports the
package or the CLI, or runs one command.  A command loads only the modules
that it runs, so an eager import that a later change adds fails here."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cutstrength

SRC = str(Path(cutstrength.__file__).parents[1])
T2 = '{"type":"type2","a":["1/2","3/2"]}'
# what importing the CLI loads, and so what every command loads
CLI = ["bounds", "cli", "descriptors", "geometry", "sweeps"]
MONTE_CARLO = sorted([*CLI, "cuts", "montecarlo"])


def loaded(code: str) -> tuple[list[str], bool, bool]:
    """The ``cutstrength`` submodules loaded once ``code`` has run in a
    fresh interpreter, and whether numpy and json are loaded."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    check = (
        f"{code}\n"
        "import sys\n"
        "names = sorted(name.partition('.')[2] for name in sys.modules if name.startswith('cutstrength.'))\n"
        "print(repr([names, 'numpy' in sys.modules, 'json' in sys.modules]))\n"
    )
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True, check=True)
    names, numpy, json = ast.literal_eval(out.stdout.splitlines()[-1])
    return names, numpy, json


def command(*argv: str) -> str:
    """Code that runs ``cutstrength *argv`` through ``cli.run`` and checks its exit code."""
    return (
        "import contextlib, io\n"
        "from cutstrength import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run({list(argv)!r}) == 0\n"
    )


# (code, modules, numpy, json): a command that reads a body or writes a
# line of JSON loads json, and neither the CLI nor a CSV sweep does
CASES = [
    ("import cutstrength", [], False, False),
    ("import cutstrength.cli", CLI, False, False),
    (command("width", "--body", T2), CLI, False, True),
    (command("bound", "--body", T2, "--z", "7/4"), CLI, False, True),
    (command("sweep", "--family", "t3", "--z", "2", "--step", "1/10"), CLI, False, False),
    (command("strength", "--body", T2, "--f", '["-1/4","1/4"]', "--N", "2"), sorted([*CLI, "cuts"]), False, True),
    (command("classify", "--body", T2), sorted([*CLI, "lattice"]), False, True),
    (command("montecarlo", "--body", T2, "--z", "2", "--samples", "1000"), MONTE_CARLO, True, True),
    (command("sweep", "--family", "t2", "--z", "2", "--step", "1/2", "--mc-samples", "10"), MONTE_CARLO, True, False),
    (command("sweep", "--family", "t3", "--z", "2", "--step", "1/10", "--format", "json"), CLI, False, True),
]


class TestStartup:
    @pytest.mark.parametrize("code, modules, numpy, json", CASES,
                             ids=["package", "cli", "width", "bound", "sweep", "strength", "classify", "montecarlo",
                                  "sweep-mc", "sweep-json"])
    def test_modules_loaded(self, code, modules, numpy, json):
        assert loaded(code) == (modules, numpy, json)
