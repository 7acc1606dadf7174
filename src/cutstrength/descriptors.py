"""JSON body descriptors and "p/q" rational serialization.

A descriptor is checked for its JSON shape only: an object, the required
keys, and coordinate pairs that are 2-lists.  The values go as they are to
the constructors, which read rationals as "p/q" strings or integers, never
floats (``geometry._frac``), and a split's normal and offset as integers.
"""

from __future__ import annotations

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


def format_rational(value: Fraction) -> str:
    """``p/q``, or the integer alone when q = 1: the bytes of ``str(Fraction)``."""
    return str(value if type(value) is Fraction else Fraction(value))


def _pair(value):
    """``value``, or a ValueError unless it is a list or tuple of two."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"expected a coordinate pair, got {value!r}")
    return value


def parse_pair(value) -> Rational2:
    """The point of a coordinate pair of rationals."""
    return point(*_pair(value))


def parse_json(text: str, what: str):
    """Decode JSON text; malformed or too deeply nested input raises a
    ValueError that names ``what``.  json is imported here, when a command
    reads JSON, so that a CSV sweep never loads it."""
    import json

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
        return Type2Body(*_pair(_require(descriptor, "a")))
    if kind == "type3":
        return Type3Body(*_pair(_require(descriptor, "a")), _require(descriptor, "b1"))
    if kind == "quad":
        return QuadBody(*_pair(_require(descriptor, "a")), *_pair(_require(descriptor, "b")))
    if kind == "split":
        normal = _require(descriptor, "normal")  # a list goes as a tuple, as a rejection shows it
        return SplitBody(tuple(normal) if isinstance(normal, list) else normal, descriptor.get("offset", 0))
    raise ValueError(
        f"unknown body type {kind!r}; expected type1, type2, type3, quad, split, or a vertices list"
    )


def _require(descriptor: dict, key: str):
    if key not in descriptor:
        raise ValueError(f"descriptor is missing required field {key!r}")
    return descriptor[key]

