"""The start-up contract: which of the package's modules a fresh interpreter
has loaded, and whether numpy is among them, after it imports the package or
the CLI, or runs one command.  A command loads only the modules that it
runs, so an eager import that a later change adds fails here."""

import json
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


def loaded(code: str) -> tuple[list[str], bool]:
    """The ``cutstrength`` submodules loaded once ``code`` has run in a
    fresh interpreter, and whether numpy is loaded."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    check = (
        f"{code}\n"
        "import json, sys\n"
        "names = sorted(name.partition('.')[2] for name in sys.modules if name.startswith('cutstrength.'))\n"
        "print(json.dumps([names, 'numpy' in sys.modules]))\n"
    )
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True, check=True)
    names, numpy = json.loads(out.stdout.splitlines()[-1])
    return names, numpy


def command(*argv: str) -> str:
    """Code that runs ``cutstrength *argv`` through ``cli.run`` and checks its exit code."""
    return (
        "import contextlib, io\n"
        "from cutstrength import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run({list(argv)!r}) == 0\n"
    )


CASES = [
    ("import cutstrength", [], False),
    ("import cutstrength.cli", CLI, False),
    (command("width", "--body", T2), CLI, False),
    (command("bound", "--body", T2, "--z", "7/4"), CLI, False),
    (command("sweep", "--family", "t3", "--z", "2", "--step", "1/10"), CLI, False),
    (command("strength", "--body", T2, "--f", '["-1/4","1/4"]', "--N", "2"), sorted([*CLI, "cuts"]), False),
    (command("classify", "--body", T2), sorted([*CLI, "lattice"]), False),
    (command("montecarlo", "--body", T2, "--z", "2", "--samples", "1000"), MONTE_CARLO, True),
    (command("sweep", "--family", "t2", "--z", "2", "--step", "1/2", "--mc-samples", "10"), MONTE_CARLO, True),
]


class TestStartup:
    @pytest.mark.parametrize("code, modules, numpy", CASES,
                             ids=["package", "cli", "width", "bound", "sweep", "strength", "classify", "montecarlo",
                                  "sweep-mc"])
    def test_modules_loaded(self, code, modules, numpy):
        assert loaded(code) == (modules, numpy)
