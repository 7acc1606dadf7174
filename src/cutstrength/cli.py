"""Command-line surface.

Subcommands: classify, width, strength, bound, montecarlo, sweep, plotdata.
Bodies are passed as JSON descriptors (inline or @file), rationals as "p/q"
strings, which the library reads as it reads any rational (``geometry._frac``):
``--z``, ``--step`` and ``--range`` go to it as text.  Exit codes: 0 success,
2 usage error, 3 validation error.  The argument parser is built once per
process and reused by every :func:`run`.  ``sweep`` formats each grid value
once per sweep, from a table that lives for that one sweep, and each row's
bound (and type 3 width) on its row, with the cyclic garbage collector off.

A command imports a module that only it runs when it runs: ``strength``
loads ``cuts``, ``montecarlo`` loads ``montecarlo`` (and numpy), and
``classify`` loads ``lattice``, so that ``width``, ``bound`` and ``sweep``
start without them; and ``json`` is imported by the commands that read or
write JSON, so that a CSV ``sweep`` starts without it.  ``sweep_grid`` and
``format_rational`` stay names of this module, which the benchmark's tracer
wraps.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

from .bounds import bound_for
from .descriptors import format_rational, parse_body, parse_json, parse_pair
from .geometry import SplitBody, _frac, _read_int, lattice_width
from .sweeps import DEFAULT_STEP, FAMILIES, sweep_grid

USAGE_ERROR = 2
VALIDATION_ERROR = 3


def _body_arg(parser):
    parser.add_argument("--body", required=True, help="JSON body descriptor, inline or @path to a file")


def _int_arg(text: str) -> int:
    """An int option read as every int from outside is (``geometry._read_int``);
    argparse's usage error, worded as for ``type=int``, otherwise."""
    try:
        return _read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _load_body(raw: str):
    if raw.startswith("@"):
        with open(raw[1:], encoding="utf-8") as fh:
            raw = fh.read()
    return parse_body(raw)


@cache
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cutstrength")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a body or vertex cycle")
    _body_arg(p)

    p = sub.add_parser("width", help="lattice width of a body")
    _body_arg(p)

    p = sub.add_parser("strength", help="cut strength at a root vertex")
    _body_arg(p)
    p.add_argument("--f", required=True, help='root vertex, e.g. \'["1/4","1/2"]\'')
    p.add_argument("--N", type=_int_arg, default=5, help="split enumeration radius (default 5)")

    p = sub.add_parser("bound", help="closed-form probability lower bound")
    _body_arg(p)
    p.add_argument("--z", required=True, help="strength threshold, rational > 1")

    p = sub.add_parser("montecarlo", help="Monte Carlo check of the bound")
    _body_arg(p)
    p.add_argument("--z", required=True)
    p.add_argument("--samples", type=_int_arg, default=10**6)
    p.add_argument("--seed", type=_int_arg, default=0)

    p = sub.add_parser("sweep", help="parameter grid sweep (CSV)")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--z", required=True)
    p.add_argument("--step", default=DEFAULT_STEP, help=f"grid step (default {DEFAULT_STEP})")
    p.add_argument(
        "--range",
        action="append",
        default=[],
        metavar="PARAM=LO:HI",
        help="override a parameter range, repeatable",
    )
    p.add_argument("--mc-samples", type=_int_arg, default=None)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("plotdata", help="(w, bound) pairs for the two width curves")
    p.add_argument("--curve", required=True, choices=("z2", "z32"))
    p.add_argument("--step", default="1/100")
    p.add_argument("--output", default=None)
    return top


def _json_line(payload) -> str:
    """``payload`` as one line of JSON.  json is imported here, as the
    commands that write it run, since a CSV sweep never does."""
    import json

    return json.dumps(payload) + "\n"


def _emit(text: str, output):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_classify(args) -> str:
    from .lattice import classify

    body = _load_body(args.body)
    if not isinstance(body, (list, SplitBody)):
        body = body.polygon()
    return _json_line({"class": classify(body).value})


def _run_width(args) -> str:
    body = _load_body(args.body)
    if isinstance(body, list):
        raise ValueError("width needs a typed body descriptor, not a vertex list")
    return _json_line({"w": format_rational(lattice_width(body))})


def _run_strength(args) -> str:
    from .cuts import strength_report

    body = _load_body(args.body)
    if isinstance(body, list):
        raise ValueError("strength needs a typed body descriptor, not a vertex list")
    f = parse_pair(parse_json(args.f, "root vertex"))
    if args.N < 1:
        raise ValueError(f"need N >= 1, got {args.N}")
    rep = strength_report(body, f, args.N)
    return _json_line(
        {
            "region": str(rep.region),
            "chosen_split_normal": list(rep.chosen_split_normal) if rep.chosen_split_normal else None,
            "t_bar": format_rational(rep.t_bar),
            "t_n": format_rational(rep.t_n),
            "n": rep.n,
        }
    )


def _run_bound(args) -> str:
    body = _load_body(args.body)
    if isinstance(body, list) or isinstance(body, SplitBody):
        raise ValueError("bound needs a typed bounded body descriptor")
    return _json_line({"z": args.z, "bound": format_rational(bound_for(body, args.z))})


def _run_montecarlo(args) -> str:
    from .montecarlo import monte_carlo_lower

    body = _load_body(args.body)
    if isinstance(body, list) or isinstance(body, SplitBody):
        raise ValueError("montecarlo needs a typed bounded body descriptor")
    est = monte_carlo_lower(body, args.z, args.samples, args.seed)
    payload = {"z": args.z, "bound": format_rational(bound_for(body, args.z)), "estimate": est.estimate,
               "std_error": est.std_error, "samples": est.samples, "seed": est.seed}
    return _json_line(payload)


def _parse_ranges(items):
    out = {}
    for item in items:
        name, equals, span = item.partition("=")
        if not equals or ":" not in span:
            raise ValueError(f"malformed --range {item!r}, expected PARAM=LO:HI")
        if name in out:
            raise ValueError(f"--range {name!r} given more than once")
        out[name] = tuple(span.split(":", 1))
    return out or None


@contextmanager
def _collector_off():
    """Keep the cyclic garbage collector off while in the block, and give
    the caller back its state after."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# the rows keep every Fraction, body and row that the walk makes, so a pass
# of the cyclic collector over them would free nothing
@_collector_off()
def _run_sweep(args) -> str:
    rows = sweep_grid(
        args.family,
        args.z,
        step=args.step,
        ranges=_parse_ranges(args.range),
        mc_samples=args.mc_samples,
        seed=args.seed,
    )
    # a sweep's rows share one Fraction per grid value, so each is formatted
    # once, found by its id: the rows hold every value while the table lives,
    # so no id is reused meanwhile.  A bound, and a type 3 width, which is
    # not a grid value, are formatted on their row.  A value is looked up
    # first, and only a miss makes a call to format it
    texts = {}
    get = texts.get

    def text(value):
        found = texts[id(value)] = format_rational(value)
        return found

    width = format_rational if args.family == "t3" else text

    z, seed = format_rational(rows[0].z), str(args.seed)  # the same on every row
    if args.format == "json":
        payload = [
            {
                "params": [get(id(p)) or text(p) for p in r.params],
                "w": get(id(r.w)) or width(r.w),
                "z": z,
                "bound": format_rational(r.bound),
                "mc": None
                if r.mc is None
                else {
                    "estimate": r.mc.estimate,
                    "std_error": r.mc.std_error,
                    "samples": r.mc.samples,
                    "seed": r.mc.seed,
                },
            }
            for r in rows
        ]
        return _json_line(payload)
    lines = ["params,w,z,bound,mc_estimate,mc_stderr,samples,seed"]
    for r in rows:
        mc = (repr(r.mc.estimate), repr(r.mc.std_error), str(r.mc.samples)) if r.mc else ("", "", "")
        params = ";".join([get(id(p)) or text(p) for p in r.params])
        lines.append(",".join((params, get(id(r.w)) or width(r.w), z, format_rational(r.bound), *mc, seed)))
    return "\n".join(lines) + "\n"


def _run_plotdata(args) -> str:
    step = _frac(args.step)
    if step <= 0:
        raise ValueError(f"need step > 0, got {args.step}")
    if step > 1:
        raise ValueError(f"grid is empty: step {args.step} leaves no width in (1, 2]")
    # the type 2 sweep's rows, narrowest first: an upper bound on 1 - P(2),
    # or a lower bound on P(3/2)
    z2 = args.curve == "z2"
    rows = reversed(sweep_grid("t2", 2 if z2 else Fraction(3, 2), step))
    lines = ["w,bound", *(f"{format_rational(r.w)},{format_rational(1 - r.bound if z2 else r.bound)}" for r in rows)]
    return "\n".join(lines) + "\n"


_RUNNERS = {
    "classify": _run_classify,
    "width": _run_width,
    "strength": _run_strength,
    "bound": _run_bound,
    "montecarlo": _run_montecarlo,
    "sweep": _run_sweep,
    "plotdata": _run_plotdata,
}


def _join_negative_values(argv: list[str]) -> list[str]:
    """argparse takes a value such as "-3/2" for an option of its own, so
    join a value that starts with "-" and a digit to the long option before
    it, as "--z=-3/2"; every option here takes one value."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if len(prev) > 2 and prev.startswith("--") and "=" not in prev and re.match(r"-\d", arg):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


@contextmanager
def exact_digits():
    """Lift the interpreter's limit on the digits of an int converted to or
    from a string (Python 3.10.7 on) while in the block, so that exact values
    travel whole."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def run(argv=None) -> int:
    parser = _parser()
    with exact_digits():
        try:
            args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))
        except SystemExit as exc:
            return exc.code if exc.code is not None else USAGE_ERROR
        try:
            _emit(_RUNNERS[args.command](args), getattr(args, "output", None))
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return VALIDATION_ERROR
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
