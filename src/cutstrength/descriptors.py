"""JSON body descriptors and "p/q" rational serialization.

Rationals travel as strings ("3/2", "-27/200") or plain integers; floats are
rejected so exactness survives the trip through the command line.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .geometry import (
    QuadBody,
    Rational2,
    SplitBody,
    Type1Body,
    Type2Body,
    Type3Body,
    point,
)


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "." in value or "e" in value or "E" in value:
            raise ValueError(f"decimal notation is not accepted, use p/q: {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational {value!r}") from exc
    raise ValueError(f"expected 'p/q' string or integer, got {value!r}")


def format_rational(value: Fraction) -> str:
    """``p/q``, or the integer alone when q = 1: the bytes of ``str(Fraction)``."""
    return str(value if type(value) is Fraction else Fraction(value))


def parse_pair(value) -> Rational2:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"expected a coordinate pair, got {value!r}")
    return point(parse_rational(value[0]), parse_rational(value[1]))


def parse_json(text: str, what: str):
    """Decode JSON text; malformed or too deeply nested input raises a
    ValueError that names ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON {what}: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"JSON {what} is nested too deeply") from exc


def parse_body(descriptor):
    """Build a body, or a raw vertex list, from a JSON descriptor.

    Accepts a dict or a JSON string.  Returns a LatticeFreeBody for typed
    descriptors and a list of Rational2 for {"vertices": ...}.
    """
    if isinstance(descriptor, str):
        descriptor = parse_json(descriptor, "descriptor")
    if not isinstance(descriptor, dict):
        raise ValueError(f"descriptor must be a JSON object, got {descriptor!r}")
    if "vertices" in descriptor:
        verts = descriptor["vertices"]
        if not isinstance(verts, list) or len(verts) < 3:
            raise ValueError("'vertices' must list at least three coordinate pairs")
        return [parse_pair(v) for v in verts]
    kind = descriptor.get("type")
    if kind == "type1":
        return Type1Body()
    if kind == "type2":
        a = parse_pair(_require(descriptor, "a"))
        return Type2Body(a.x1, a.x2)
    if kind == "type3":
        a = parse_pair(_require(descriptor, "a"))
        return Type3Body(a.x1, a.x2, parse_rational(_require(descriptor, "b1")))
    if kind == "quad":
        a = parse_pair(_require(descriptor, "a"))
        b = parse_pair(_require(descriptor, "b"))
        return QuadBody(a.x1, a.x2, b.x1, b.x2)
    if kind == "split":
        normal = _require(descriptor, "normal")
        if not isinstance(normal, list) or len(normal) != 2 or not all(map(_is_int, normal)):
            raise ValueError(f"split normal must be an integer pair, got {normal!r}")
        offset = descriptor.get("offset", 0)
        if not _is_int(offset):
            raise ValueError(f"split offset must be an integer, got {offset!r}")
        return SplitBody(tuple(normal), offset)
    raise ValueError(
        f"unknown body type {kind!r}; expected type1, type2, type3, quad, split, or a vertices list"
    )


def _is_int(value) -> bool:
    """Whether a JSON value is an integer; ``true`` and ``false`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(descriptor: dict, key: str):
    if key not in descriptor:
        raise ValueError(f"descriptor is missing required field {key!r}")
    return descriptor[key]


def body_to_dict(body) -> dict:
    if isinstance(body, Type1Body):
        return {"type": "type1"}
    if isinstance(body, Type2Body):
        return {"type": "type2", "a": [format_rational(body.a1), format_rational(body.a2)]}
    if isinstance(body, Type3Body):
        return {
            "type": "type3",
            "a": [format_rational(body.a1), format_rational(body.a2)],
            "b1": format_rational(body.b1),
        }
    if isinstance(body, QuadBody):
        return {
            "type": "quad",
            "a": [format_rational(body.a1), format_rational(body.a2)],
            "b": [format_rational(body.b1), format_rational(body.b2)],
        }
    if isinstance(body, SplitBody):
        return {"type": "split", "normal": list(body.normal), "offset": body.offset}
    raise ValueError(f"cannot serialize {body!r}")
