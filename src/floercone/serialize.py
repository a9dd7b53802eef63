"""Canonical JSON interchange: the complex format and report payloads.

Complexes serialize as

    {"generators": [{"name": str, "alexander": int, "maslov_x4": int}, ...],
     "differential": [{"from": str, "to": str, "u_power": int}, ...]}

with generators in complex order and differential entries sorted by
(source, target) order, so emit -> parse -> emit is byte identical.  The
reader takes each value only with exactly its JSON type: an int field
rejects 1.0, true and "1", and a name must be a string.
Reports never contain floats; non-integral rationals appear as
{"num": int, "den": int}.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring as _string
from typing import Any

from .algebra import FilteredComplex, Generator, GradedRanks
from .errors import NonIntegral, ParseError, TooManyDigits


def fraction_json(x: int | Fraction) -> Any:
    if x.denominator == 1:
        return int(x)
    return {"num": x.numerator, "den": x.denominator}


def complex_to_json(c: FilteredComplex) -> dict:
    gens = []
    for g in c.generators:
        if g.alexander.denominator != 1:
            raise NonIntegral(f"generator {g.name} has non-integral Alexander grading")
        m4 = g.maslov * 4
        if m4.denominator != 1:
            raise NonIntegral(f"generator {g.name} has Maslov grading off the 1/4 lattice")
        gens.append({"name": g.name, "alexander": g.alexander, "maslov_x4": int(m4)})
    index = c.index
    entries = [
        {"from": src, "to": tgt, "u_power": k}
        for src, tgt, k in sorted(c.entries(), key=lambda e: (index[e[0]], index[e[1]]))
    ]
    return {"generators": gens, "differential": entries}


def _typed(value, kind: type):
    """value when its type is exactly kind, so a bool or a float is no int."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def complex_from_json(data) -> FilteredComplex:
    if not isinstance(data, dict) or "generators" not in data or "differential" not in data:
        raise ParseError("complex JSON needs 'generators' and 'differential'")
    gens = []
    try:
        for item in _typed(data["generators"], list):
            gens.append(Generator(_typed(item["name"], str), _typed(item["alexander"], int),
                                  Fraction(_typed(item["maslov_x4"], int), 4)))
        diff: dict[str, dict[str, int]] = {}
        for item in _typed(data["differential"], list):
            diff.setdefault(_typed(item["from"], str), {})[_typed(item["to"], str)] = \
                _typed(item["u_power"], int)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed complex JSON: {exc}") from exc
    try:
        return FilteredComplex(gens, diff)
    except Exception as exc:
        raise ParseError(f"inconsistent complex JSON: {exc}") from exc


def ranks_json(ranks: GradedRanks, keys: tuple[str, ...]) -> dict:
    table = []
    for key, rank in sorted(ranks.ranks.items()):
        table.append({"key": {name: fraction_json(v) for name, v in zip(keys, key)},
                      "rank": rank})
    torsion = []
    for key, orders in sorted(ranks.torsion.items()):
        torsion.append({"key": {name: fraction_json(v) for name, v in zip(keys, key)},
                        "orders": list(orders)})
    return {"ranks": table, "torsion": torsion, "total_rank": ranks.total_rank}


def dumps(payload) -> str:
    """json.dumps(payload, indent=2, ensure_ascii=False) + "\n", byte for byte."""
    return _indented(payload, "\n") + "\n"


def _indented(x, pad: str) -> str:
    # indent would make json use its pure-Python encoder, so the text is
    # written here; every value but a str, an int or a non-empty container
    # goes through json.dumps, for the same text or the same TypeError
    if isinstance(x, str):
        return _string(x)
    if type(x) is int:
        try:
            return int.__repr__(x)
        except ValueError:  # past the interpreter's int-to-string digit limit
            raise TooManyDigits() from None
    inner = pad + "  "
    if isinstance(x, dict) and x:  # json's own text, or TypeError, for a key not a str
        return "{" + inner + ("," + inner).join([
            (_string(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]) + ": "
            + _indented(v, inner) for k, v in x.items()]) + pad + "}"
    if isinstance(x, (list, tuple)) and x:
        return "[" + inner + ("," + inner).join([_indented(v, inner) for v in x]) + pad + "]"
    return json.dumps(x)


def loads(text: str):
    # ValueError also covers an int past the interpreter's digit limit, and
    # RecursionError a nesting past its recursion limit
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
