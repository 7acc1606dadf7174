"""The package's surface: what its public names outside ``cuts`` raise on an
argument of the wrong type, and that no private name is left unused."""

import ast
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import cutstrength
from cutstrength import (
    BodyClass,
    LatticeFreeBody,
    PiecewiseBound,
    QuadBody,
    SplitBody,
    Type2Body,
    Type3Body,
    UnimodularMap,
    area,
    bound_for,
    canonicalize,
    classify,
    lattice_width,
    monte_carlo_lower,
    piecewise_bound_for,
    point,
    quad_bound,
    quad_lower,
    sweep_grid,
    t1_bound,
    t2_bound,
    t3_bound,
    t3_lower,
    thread_count,
)

from conftest import outcome

T2 = Type2Body(F(1, 2), F(3, 2))
QUAD = QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10))
T3 = Type3Body(F(11, 5), F(1, 2), F(1, 4))
NOT_A_NUMBER = "expected 'p/q' string or integer, got"
NOT_A_SCALE = "scale must be a pair of positive ints, got"
TERMS = ((1, (((1, 0), 1, (1, 0), (1, 0)),)),)  # one step that adds 1 from z = 1 on


def threads_from(text):
    """``thread_count()`` with ``CUTSTRENGTH_THREADS`` set to ``text``."""
    with pytest.MonkeyPatch.context() as env:
        env.setenv("CUTSTRENGTH_THREADS", text)
        return thread_count()


# (public name, call, arguments, error type, start of the message): at least
# one row per public function and class of geometry, bounds, montecarlo and
# sweeps.  A number is read by geometry._frac, whose ValueError quotes it.
# A PiecewiseBound's terms must be iterable, its scale a pair of positive
# ints, each term a pair (den, steps) with a nonzero int den and a tuple of
# steps, and each step a tuple (sel, k, l, l') of an int pair (a, b) with
# a > 0, an int and two int pairs, so a bound that is built is one that can
# be called
WRONG_ARGUMENTS = [
    ("BodyClass", BodyClass, ("x",), ValueError, "'x' is not a valid BodyClass"),
    ("LatticeFreeBody", LatticeFreeBody, (), TypeError,
     "LatticeFreeBody is the base of the body families; build a SplitBody, Type1Body, Type2Body, Type3Body or QuadBody"),
    ("SplitBody", SplitBody, (None,), ValueError, "split normal must be an integer pair, got None"),
    ("SplitBody", SplitBody, ((0, 1), "x"), ValueError, "split offset must be an integer, got 'x'"),
    ("Type2Body", Type2Body, (None, 2), ValueError, f"{NOT_A_NUMBER} None"),
    ("Type2Body", Type2Body, (F(1, 2), 1.5), ValueError, f"{NOT_A_NUMBER} 1.5"),
    ("Type3Body", Type3Body, ("x", 1, 1), ValueError, "malformed rational 'x'"),
    ("QuadBody", QuadBody, (0.5, 1, 1, 1), ValueError, f"{NOT_A_NUMBER} 0.5"),
    ("UnimodularMap", UnimodularMap, ("1", 0, 0, 1), ValueError, "map entry m11 must be an int, got '1'"),
    ("area", area, (None,), TypeError, "body must be a LatticeFreeBody, got None"),
    ("canonicalize", canonicalize, (None,), TypeError, "obj must be iterable, got None"),
    ("canonicalize", canonicalize, ([(0, 0), (2, 0), (0, 2)],), TypeError, "obj[0] must be a Rational2, got (0, 0)"),
    ("classify", classify, (5,), TypeError, "obj must be iterable, got 5"),
    ("lattice_width", lattice_width, ("x",), TypeError, "body must be a LatticeFreeBody, got 'x'"),
    ("point", point, (None, 0), ValueError, f"{NOT_A_NUMBER} None"),
    ("point", point, (0, 0.5), ValueError, f"{NOT_A_NUMBER} 0.5"),
    ("PiecewiseBound", PiecewiseBound, (None,), TypeError, "terms must be iterable, got None"),
    ("PiecewiseBound", PiecewiseBound, (5,), TypeError, "terms must be iterable, got 5"),
    ("PiecewiseBound", t2_bound(2), ("x",), ValueError, "malformed rational 'x'"),
    ("PiecewiseBound", t2_bound(2), (1,), ValueError, "threshold must satisfy z > 1, got 1"),
    ("bound_for", bound_for, (None, 2), TypeError, "body must be a LatticeFreeBody, got None"),
    ("bound_for", bound_for, (QUAD, 0.5), ValueError, f"{NOT_A_NUMBER} 0.5"),
    ("piecewise_bound_for", piecewise_bound_for, ("x",), TypeError, "body must be a LatticeFreeBody, got 'x'"),
    ("quad_bound", quad_bound, (None,), TypeError, "body must be a QuadBody, got None"),
    ("quad_bound", quad_bound, (T3,), TypeError, f"body must be a QuadBody, got {T3!r}"),
    ("quad_lower", quad_lower, (None, 2), TypeError, "body must be a QuadBody, got None"),
    ("quad_lower", quad_lower, (T2, 2), TypeError, f"body must be a QuadBody, got {T2!r}"),
    ("quad_lower", quad_lower, (QUAD, None), ValueError, f"{NOT_A_NUMBER} None"),
    ("t1_bound", lambda z: t1_bound()(z), (F(3, 4),), ValueError, "threshold must satisfy z > 1, got 3/4"),
    ("t1_bound", lambda z: t1_bound()(z), (None,), ValueError, f"{NOT_A_NUMBER} None"),
    ("t2_bound", t2_bound, (None,), ValueError, f"{NOT_A_NUMBER} None"),
    ("t2_bound", t2_bound, (3,), ValueError, "lattice width must satisfy 1 < w <= 2, got 3"),
    ("t3_bound", t3_bound, (None,), TypeError, "body must be a Type3Body, got None"),
    ("t3_bound", t3_bound, (QUAD,), TypeError, f"body must be a Type3Body, got {QUAD!r}"),
    ("t3_lower", t3_lower, (QUAD, 2), TypeError, f"body must be a Type3Body, got {QUAD!r}"),
    ("t3_lower", t3_lower, (T3, 0.5), ValueError, f"{NOT_A_NUMBER} 0.5"),
    ("monte_carlo_lower", monte_carlo_lower, (None, 2, 10), TypeError, "body must be a LatticeFreeBody, got None"),
    ("monte_carlo_lower", monte_carlo_lower, (T2, None, 10), ValueError, f"{NOT_A_NUMBER} None"),
    ("monte_carlo_lower", monte_carlo_lower, (T2, 2, "10"), ValueError, "samples must be an int, got '10'"),
    ("monte_carlo_lower", monte_carlo_lower, (T2, 2, 10, "x"), ValueError, "seed must be an int, got 'x'"),
    ("thread_count", threads_from, ("1.5",), ValueError, "CUTSTRENGTH_THREADS must be an integer >= 1, got '1.5'"),
    ("sweep_grid", sweep_grid, (None, 2), ValueError, "unknown family None"),
    ("sweep_grid", sweep_grid, ("t2", None), ValueError, f"{NOT_A_NUMBER} None"),
    ("sweep_grid", sweep_grid, ("t2", 2, "x"), ValueError, "malformed rational 'x'"),
    ("sweep_grid", sweep_grid, ("t2", 2, F(1, 10), 5), TypeError,
     "ranges must be a mapping of parameter names to (lo, hi) pairs, got 5"),
    ("sweep_grid", sweep_grid, ("t2", 2, F(1, 10), {"w": None}), ValueError, "range 'w' must be a (lo, hi) pair"),
    ("sweep_grid", sweep_grid, ("t2", 2, F(1, 10), {"w": (None, 2)}), ValueError, f"{NOT_A_NUMBER} None"),
    ("sweep_grid", sweep_grid, ("t2", 2, F(1, 10), None, "10"), ValueError, "samples must be an int, got '10'"),
    ("sweep_grid", sweep_grid, ("t2", 2, F(1, 10), None, 10, "x"), ValueError, "seed must be an int, got 'x'"),
    # later rows go at the end: each case id holds its row's index
    ("PiecewiseBound", PiecewiseBound, (TERMS, (0, 1)), ValueError, f"{NOT_A_SCALE} (0, 1)"),
    ("PiecewiseBound", PiecewiseBound, (TERMS, (1, 0)), ValueError, f"{NOT_A_SCALE} (1, 0)"),
    ("PiecewiseBound", PiecewiseBound, (TERMS, None), ValueError, f"{NOT_A_SCALE} None"),
    ("PiecewiseBound", PiecewiseBound, (((1, (((0, 1), 1, (1, 0), (1, 0)),)),),), ValueError,
     "a step's selector must be an int pair (a, b) with a > 0, got (0, 1)"),
    ("PiecewiseBound", PiecewiseBound, (((0, (((1, 0), 1, (1, 0), (1, 0)),)),),), ValueError,
     "a term's den must be a nonzero int, got 0"),
    ("PiecewiseBound", PiecewiseBound, ([(1,)],), ValueError,
     "a term must be a pair (den, steps) with a tuple of steps, got (1,)"),
    ("PiecewiseBound", PiecewiseBound, (((1, [((1, 0), 1, (1, 0), (1, 0))]),),), ValueError,
     "a term must be a pair (den, steps) with a tuple of steps, got (1, ["),
    ("PiecewiseBound", PiecewiseBound, (((1, (((1, 0), 1, (1, 0)),)),),), ValueError,
     "a step must be a tuple (sel, k, l, l'), got ((1, 0), 1, (1, 0))"),
    ("PiecewiseBound", PiecewiseBound, (((1, (((1, 0), 1.5, (1, 0), (1, 0)),)),),), ValueError,
     "a step's k must be an int, got 1.5"),
    ("PiecewiseBound", PiecewiseBound, (((1, (((1, 0), 1, (1, 0), (1, F(1, 2))),)),),), ValueError,
     "a step's forms l and l' must be int pairs, got (1, Fraction(1, 2))"),
]

# records, which hold what their maker (point, monte_carlo_lower, sweep_grid)
# has checked, and the one body that takes no argument
UNCHECKED = {"Rational2", "McEstimate", "GridRow", "Type1Body"}


class TestArgumentTypes:
    @pytest.mark.parametrize("name, call, args, error, message", WRONG_ARGUMENTS,
                             ids=[f"{row[0]}-{i}" for i, row in enumerate(WRONG_ARGUMENTS)])
    def test_wrong_type_names_the_argument(self, name, call, args, error, message):
        got = outcome(call, *args)
        assert got[0] is error and got[1].startswith(message), got

    def test_every_public_name_outside_cuts_is_covered(self):
        public = {name for name in cutstrength.__all__ if callable(getattr(cutstrength, name))
                  and getattr(cutstrength, name).__module__ != "cutstrength.cuts"}
        assert {name for name, *_ in WRONG_ARGUMENTS} == public - UNCHECKED
        assert UNCHECKED <= public


SOURCE = Path(cutstrength.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _references(node) -> Counter:
    """Each name read in ``node``, as a name or as an attribute, with its count."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) or (isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store))
    )


def _definitions(tree):
    """``(name, node)`` for each private module-level function, class and
    constant of ``tree``, and each private method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from ((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item) for item in node.body if isinstance(item, ast.FunctionDef))


def dead_private_names(source: Path) -> list[str]:
    """The private names defined in the package at ``source`` that nothing
    outside their own definition reads."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(source.glob("*.py"))}
    read = sum((_references(tree) for tree in trees.values()), Counter())
    return [f"{module}: {name}" for module, tree in trees.items() for name, node in _definitions(tree)
            if _is_private(name) and read[name] <= _references(node)[name]]


class TestNoDeadPrivateCode:
    def test_every_private_name_is_read(self):
        assert dead_private_names(SOURCE) == []

    def test_scan_finds_an_unread_method(self, tmp_path):
        # a classmethod that only calls another, as a wrapper whose last
        # caller has gone would, and a function that only calls itself
        for path in SOURCE.glob("*.py"):
            (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
        code = (tmp_path / "geometry.py").read_text(encoding="utf-8")
        anchor = "    @classmethod\n    def _from_frame_or_reason("
        assert anchor in code
        unread = "    @classmethod\n    def _wrapper(cls, *frame):\n        return cls._from_frame_or_reason(*frame)\n\n"
        code = code.replace(anchor, unread + anchor) + "\n\ndef _recursive(n):\n    return _recursive(n - 1)\n"
        (tmp_path / "geometry.py").write_text(code, encoding="utf-8")
        assert dead_private_names(tmp_path) == ["geometry.py: _wrapper", "geometry.py: _recursive"]
