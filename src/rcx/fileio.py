"""Byte-stable JSON documents for point sets, polyhedra, and reports.

Rationals serialize as strings "p/q" ("p" when the denominator is one)
with the sign on the numerator. Documents are emitted with sorted keys,
two-space indentation and a trailing newline, so equal content is equal
bytes and every generated file re-parses to an identical object.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .families import PointSet
from .linprog import SENSES, Halfspace, HPolyhedron
from .rational import format_rational, parse_rational

SCHEMA_VERSION = 1
_INT = frozenset({int})


def _rational_field(v, field):
    """Rational from an int or a "p/q" string; anything else is refused."""
    if isinstance(v, bool):
        raise ValueError(f"field {field!r}: expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return parse_rational(v)
        except ValueError:
            pass
    raise ValueError(f"field {field!r}: not an exact rational: {v!r}")


def dumps(doc):
    """The bytes of json.dumps(doc, indent=2, sort_keys=True) plus a newline,
    written without the standard library's pure-Python indenting encoder."""
    return _encode(doc, "\n") + "\n"


def _encode(v, newline):
    # `newline` is a line break plus the indentation of v's own line
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    inner = newline + "  "
    if isinstance(v, (list, tuple)) and v:
        if _INT.issuperset(map(type, v)):
            body = ("," + inner).join(map(str, v))
        else:
            body = ("," + inner).join([_encode(u, inner) for u in v])
        return "[" + inner + body + newline + "]"
    if isinstance(v, dict) and v and all(type(k) is str for k in v):
        body = ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _encode(v[k], inner)
             for k in sorted(v)])
        return "{" + inner + body + newline + "}"
    # scalars, empty containers, other keys: the library's own text, indented
    return json.dumps(v, indent=2, sort_keys=True).replace("\n", newline)


def write_doc(path, doc):
    Path(path).write_text(dumps(doc), encoding="utf-8")


def read_doc(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    return doc


def _field(doc, name, kinds, required=True):
    if name not in doc or doc[name] is None:
        if required:
            raise ValueError(f"field {name!r} is missing")
        return None
    v = doc[name]
    if not isinstance(v, kinds) or isinstance(v, bool):
        raise ValueError(f"field {name!r} has the wrong type")
    return v


def pointset_doc(X):
    return {
        "dim": X.dim,
        "family": dict(X.family) if X.family else None,
        "legend": list(X.legend) if X.legend is not None else None,
        "points": [list(map(int, p)) for p in X.points],
    }


def parse_pointset(doc):
    dim = _field(doc, "dim", int)
    if dim < 1:
        raise ValueError("field 'dim' must be at least 1")
    raw = _field(doc, "points", list)
    for i, row in enumerate(raw):
        # JSON integers are exactly the values of type int (a bool is not)
        if (not isinstance(row, list) or len(row) != dim
                or not _INT.issuperset(map(type, row))):
            raise ValueError(f"field 'points'[{i}]: need {dim} integers")
    family = _field(doc, "family", dict, required=False)
    legend = _field(doc, "legend", list, required=False)
    return PointSet(dim, sorted(set(map(tuple, raw))), family=family,
                    legend=legend, validate=False)


def row_doc(h):
    return {"a": [format_rational(v) for v in h.a], "sense": h.sense,
            "rhs": format_rational(h.rhs)}


def parse_row(doc, where):
    if not isinstance(doc, dict):
        raise ValueError(f"field {where!r} must be an object")
    a = _field(doc, "a", list)
    sense = _field(doc, "sense", str)
    if sense not in SENSES:
        raise ValueError(f"field {where}.sense: unknown sense {sense!r}")
    coeffs = tuple(_rational_field(v, f"{where}.a[{k}]") for k, v in enumerate(a))
    rhs = _rational_field(doc.get("rhs"), f"{where}.rhs")
    try:
        return Halfspace(coeffs, sense, rhs)
    except ValueError as exc:
        raise ValueError(f"field {where!r}: {exc}") from None


def polyhedron_doc(P):
    return {"dim": P.dim, "constraints": [row_doc(h) for h in P.constraints]}


def parse_polyhedron(doc):
    dim = _field(doc, "dim", int)
    if dim < 1:
        raise ValueError("field 'dim' must be at least 1")
    raw = _field(doc, "constraints", list)
    rows = [parse_row(r, f"constraints[{i}]") for i, r in enumerate(raw)]
    for i, h in enumerate(rows):
        if len(h.a) != dim:
            raise ValueError(f"field 'constraints[{i}].a': length is not {dim}")
    return HPolyhedron(dim, rows)


def jsonable(v):
    """Exact JSON value: rationals become strings, tuples become lists."""
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, (list, tuple)):
        return [jsonable(u) for u in v]
    if isinstance(v, dict):
        return {k: jsonable(u) for k, u in v.items()}
    if isinstance(v, str):
        return v
    raise TypeError(f"cannot serialize {type(v).__name__}")


def report_doc(command, status, **fields):
    doc = {"schema_version": SCHEMA_VERSION, "command": command,
           "status": status}
    for k, v in fields.items():
        if v is not None:
            doc[k] = jsonable(v)
    return doc
