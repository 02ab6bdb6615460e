"""Byte-stable JSON documents for point sets, polyhedra, and reports.

Rationals serialize as strings "p/q" ("p" when the denominator is one)
with the sign on the numerator. Documents are emitted with sorted keys,
two-space indentation and a trailing newline, so equal content is equal
bytes and every generated file re-parses to an identical object.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import lt

from .families import _INT, PointSet, _as_digits, _DigitRows, _int_rows
from .linprog import SENSES, Halfspace, HPolyhedron
from .rational import format_rational, parse_rational

SCHEMA_VERSION = 1
_STR = frozenset({str})
_ROW = frozenset({list, tuple})
_LIST = frozenset({list})


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


_INDENT = "  "
# a top-level field's line, and the items of a list in one, as _encode
# indents them
_FIELD = "\n" + _INDENT
_ITEMS = _FIELD + _INDENT


def dumps(doc):
    """The bytes of json.dumps(doc, indent=2, sort_keys=True) plus a newline,
    written without the standard library's pure-Python indenting encoder."""
    return "".join(p if type(p) is str else p.decode() for p in _encode(doc, "\n")) + "\n"


def _encode(v, newline):
    """The ASCII text of v, in pieces: strings, and bytes for integer
    rows; `newline` is a line break plus the indentation of v's own line."""
    if isinstance(v, str):
        yield encode_basestring_ascii(v)
        return
    inner = newline + _INDENT
    sep = "," + inner
    if isinstance(v, (list, tuple)) and v:
        yield "[" + inner
        if _INT.issuperset(map(type, v)):
            yield sep.join(map(str, v))
        elif _STR.issuperset(map(type, v)):
            yield sep.join(map(encode_basestring_ascii, v))
        elif d := _int_rows(v, _ROW):
            # integer rows of one length, in pieces of about 64 KB
            yield from _point_rows(d, inner).pieces(v, _as_digits(v))
        else:
            for k, u in enumerate(v):
                if k:
                    yield sep
                yield from _encode(u, inner)
        yield newline + "]"
    elif isinstance(v, dict) and v and all(type(k) is str for k in v):
        for n, k in enumerate(sorted(v)):
            yield ("{" + inner if n == 0 else sep) + encode_basestring_ascii(k) + ": "
            yield from _encode(v[k], inner)
        yield newline + "}"
    elif isinstance(v, dict) and v:
        # other keys: the library's own text, indented
        yield json.dumps(v, indent=2, sort_keys=True).replace("\n", newline)
    else:
        # scalars and empty containers: the same text with or without indent,
        # from the library's C encoder
        yield json.dumps(v)


def _point_rows(d, inner):
    """The layout of a list of d-integer rows whose items are indented as
    `inner`, as _encode writes it."""
    deeper = inner + _INDENT
    return _DigitRows(d, "[" + deeper, "," + deeper, inner + "]", "," + inner)


def write_doc(path, doc):
    """dumps(doc) written to path as it is encoded, piece by piece; a row
    piece goes out as the bytes it was built as."""
    with open(path, "wb") as fh:
        fh.writelines(p.encode() if type(p) is str else p for p in _encode(doc, "\n"))
        fh.write(b"\n")


def read_doc(path):
    return _loads(path, _decode(path, _read(path)))


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _decode(path, raw):
    """The file's text, as Path.read_text gives it (newlines translated)."""
    try:
        return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 ({exc})") from None


def _loads(path, text):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # a RecursionError is nesting deeper than the decoder can follow
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


def _check_dim(dim):
    if dim < 1:
        raise ValueError("field 'dim' must be at least 1")


def pointset_doc(X):
    """X's document for writing: it shares X's rows, tuples as stored, so a
    round trip parses its bytes, parse_pointset(json.loads(dumps(doc)))."""
    _check_dim(X.dim)
    return {
        "dim": X.dim,
        "family": dict(X.family) if X.family else None,
        "legend": list(X.legend) if X.legend is not None else None,
        "points": X.points,
    }


def parse_pointset(doc):
    dim = _field(doc, "dim", int)
    _check_dim(dim)
    raw = _field(doc, "points", list)
    # JSON integers are exactly the values of type int (a bool is not); a
    # list that fails the check is walked to name its first bad row
    if raw and _int_rows(raw, _LIST) != dim:
        i = next(i for i, row in enumerate(raw) if _int_rows([row], _LIST) != dim)
        raise ValueError(f"field 'points'[{i}]: need {dim} integers")
    family = _field(doc, "family", dict, required=False)
    legend = _field(doc, "legend", list, required=False)
    pts = list(map(tuple, raw))
    # every file rcx writes is strictly increasing already
    if not all(map(lt, pts, islice(pts, 1, None))):
        pts = sorted(set(pts))
    return PointSet(dim, pts, family=family, legend=legend, validate=False)


# the top-level "points" key as write_doc writes a nonempty list of rows,
# and the end of the file after it
_POINTS = (_FIELD + '"points": [' + _ITEMS).encode()
_END = (_FIELD + "]\n}\n").encode()


def read_pointset(path):
    """parse_pointset(read_doc(path)), read straight off the bytes of a
    file as write_doc writes a set of single-digit rows.

    That is: the first "points" in the file opens the rows that end it;
    the fields before it parse, through json.loads and parse_pointset
    with an empty list in place of the rows; and the digits, taken out of
    the rows by strided slices, re-encode to the rows' bytes exactly and
    increase. Any other file, and every error, takes parse_pointset of the
    bytes read, parsed as read_doc parses them.
    """
    raw = _read(path)
    X = _digit_pointset(raw)
    if X is not None:
        return X
    text = _decode(path, raw)
    del raw  # only the text and its document are held while it parses
    return parse_pointset(_loads(path, text))


def _digit_pointset(raw):
    """The point set of the file bytes raw, when its rows are increasing
    single-digit rows as write_doc writes them; None otherwise."""
    i = raw.find(_POINTS)
    if i < 1 or not raw.endswith(_END) or raw.find(b'"points"') != i + len(_FIELD):
        return None
    try:
        E = parse_pointset(json.loads(raw[:i].decode() + _FIELD + '"points": []\n}\n'))
        digits = _point_rows(E.dim, _ITEMS).read(raw, i + len(_POINTS), len(raw) - len(_END))
        if digits is None:
            return None
        X = PointSet._from_digits(E.dim, digits, family=E.family, legend=E.legend)
    except (ValueError, RecursionError):
        return None
    pts = X.points
    return X if all(map(lt, pts, islice(pts, 1, None))) else None


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
    _check_dim(dim)
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
