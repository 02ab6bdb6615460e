"""Byte-stable JSON round trips for point sets, polyhedra, and reports."""

import gc
import hashlib
import json
from enum import IntEnum
from fractions import Fraction
from itertools import product

import pytest

from rcx import cli, fileio
from rcx.families import FAMILIES, PointSet, _DigitRows, generate
from rcx.hiding import build_diff_hiding
from rcx.linprog import Halfspace, HPolyhedron
from rcx.relaxations import (build_conn_cut_relaxation, build_cube_relaxation,
                             build_rado_permutahedron, build_subtour_relaxation)
from test_cli import BUILD_DIGESTS, REPORT_DIGESTS


class TestDumps:
    def test_sorted_keys_two_space_indent_trailing_newline(self):
        text = fileio.dumps({"b": 1, "a": [1, 2]})
        assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'

    def test_idempotent_bytes(self):
        doc = fileio.pointset_doc(generate("even", 3))
        assert fileio.dumps(doc) == fileio.dumps(fileio.pointset_doc(generate("even", 3)))


def library_bytes(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# every family, at sizes up to the large files of `rcx gen`
FAMILY_SIZES = [("cube", (1,)), ("cube", (5,)), ("simplex", (3,)), ("even", (4,)),
                ("odd", (3,)), ("perm", (5,)), ("diff", (2, 2)), ("stsp", (6,)),
                ("atsp", (8,)), ("conn", (6,)), ("spt", (5,)), ("forests", (4,)),
                ("arb", (4,)), ("arb", (4, 2)), ("branch", (3,)), ("tjoins", (1,)),
                ("tjoins", (6, (1, 2, 3, 4)))]
# tjoins(1) has dimension 0, which a point file may not have: the writer
# refuses it, as the reader does
READABLE_SIZES = [(name, params) for name, params in FAMILY_SIZES
                  if (name, params) != ("tjoins", (1,))]


class Colour(IntEnum):
    RED = 1


EDGE_DOCS = [
    {}, [], {"a": []}, {"a": {}}, {"a": [[], {}, [[]], [{}]]},
    {"b": 1, "a": [1, 2], "c": {"z": None, "y": [True, False, None]}},
    [1, "x", [2, [3, True]], {"k": -1}], [True, 1], [1, True], [0, False],
    {"s": ["\u00e9t\u00e9", "\u2603", "\U0001f600", 'quote " and \\ slash',
           "tab\tnew\nline\r\x00\x1f", ""]},
    {"\u00e9": 1, "a\"b": 2, "": 3, "\n": [4]},
    {"big": [-(10 ** 40), 10 ** 40, -1, 0], "neg": -(2 ** 70)},
    {"t": (1, (2, 3)), "nested": [[[[[-5]]]]]},
    "plain", 7, None, False,
    # integer rows: only lists and tuples of exact ints of one nonzero
    # length take _DigitRows, everything else the general path
    [[0, 1], [1, True]], {"points": [[True], [False]]},
    [[1, 2], [3]], [[1], [2, 3]], [[]], [[], []], [[1, 2], []],
    [[1, 2], (3, 4)], ((1, 2), [3, 4]), [(5, 6), (7, 8)],
    [[1], [2], [-3]], {"points": [[0]]},
    [[-1, 10 ** 40], [-(10 ** 40), 0], [-7, -8]],
    [[[1]]], [[[1, 2]], [[3, 4]]], [[1, [2]], [3, 4]],
    [[1, Colour.RED], [0, 0]], [[Colour.RED]],
    [[1, 2], [3, 4.5]], [[1, "2"], [3, 4]], [[1, None]],
    ["{1,2}", "(2,1)"], ["a", 1], ["a", ["b"]], [1, "a"],
    # single digits take the digit buffer, a 10 anywhere str
    [[9, 10], [10, 9]], [[9], [0], [5]], [(9,), (0,)], [[0, 9], (9, 0)],
    *([[i % 10, i // 10 % 10, i // 100 % 10] for i in range(k)]
      for k in (4095, 4096, 4097)),
    # a nested dict with int keys: the library's indenting encoder
    {"a": {1: [2], 3: {}}},
]


class TestWriterMatchesTheLibrary:
    """fileio.dumps writes the bytes of json.dumps(indent=2, sort_keys=True)."""

    def test_every_family_is_listed(self):
        assert {name for name, _ in FAMILY_SIZES} == set(FAMILIES)

    @pytest.mark.parametrize("name, params", READABLE_SIZES,
                             ids=[f"{n}{p}".replace(" ", "") for n, p in READABLE_SIZES])
    def test_point_docs(self, name, params):
        doc = fileio.pointset_doc(generate(name, *params))
        assert fileio.dumps(doc) == library_bytes(doc)

    def test_report_docs(self, monkeypatch, tmp_path):
        docs = []
        monkeypatch.setattr(fileio, "write_doc", lambda path, doc: docs.append(doc))
        for args in REPORT_DIGESTS:
            res = cli.run(["report", *args, "-o", str(tmp_path / "r.json")])
            assert res.exit_code == 0
        assert len(docs) == len(REPORT_DIGESTS)
        for doc in docs:
            assert fileio.dumps(doc) == library_bytes(doc)

    def test_polyhedron_docs(self):
        polys = [build_cube_relaxation(3), build_rado_permutahedron(4),
                 build_subtour_relaxation(5),
                 build_subtour_relaxation(4, directed=True),
                 build_conn_cut_relaxation(4),
                 HPolyhedron(2, [Halfspace((Fraction(1, 3), Fraction(-2, 7)), "<=",
                                           Fraction(-5, 11))])]
        for P in polys:
            doc = fileio.polyhedron_doc(P)
            assert fileio.dumps(doc) == library_bytes(doc)

    @pytest.mark.parametrize("doc", EDGE_DOCS)
    def test_edge_docs(self, doc):
        assert fileio.dumps(doc) == library_bytes(doc)

    def test_point_rows_are_one_call(self, monkeypatch):
        # the points list is formatted whole, not one _encode call per point,
        # and the legend whole, not one call per label
        doc = fileio.pointset_doc(generate("conn", 6))
        encode, calls = fileio._encode, []

        def counted(v, newline):
            calls.append(v)
            return encode(v, newline)

        monkeypatch.setattr(fileio, "_encode", counted)
        assert fileio.dumps(doc) == library_bytes(doc)
        assert len(doc["points"]) == 26704
        assert len(calls) < 20

    def test_write_doc_streams_point_rows_in_batches(self, tmp_path):
        # the points list comes in pieces of at most 64 KB of rows, between
        # its brackets, and write_doc writes them as they come: dumps' bytes
        doc = fileio.pointset_doc(generate("conn", 6))
        pieces = list(fileio._encode(doc["points"], "\n  "))
        assert pieces[0] == "[\n    " and pieces[-1] == "\n  ]"
        rows = pieces[1:-1]
        assert len(rows) == 61  # 26,704 rows, 445 to a piece
        assert max(map(len, rows)) <= 1 << 16
        fileio.write_doc(tmp_path / "conn6.json", doc)
        assert (tmp_path / "conn6.json").read_bytes() == library_bytes(doc).encode()

    @pytest.mark.parametrize("change", ["append", "pop"])
    def test_rows_that_no_longer_fit_their_buffer_are_written_as_they_are(self, change):
        # a generated set's rows grown or shrunk after the fact are written
        # from the rows, not from the digit buffer they still carry
        rows = generate("cube", 3).points
        rows.append((2, 0, 7)) if change == "append" else rows.pop(0)
        doc = {"points": rows}
        assert fileio.dumps(doc) == library_bytes(doc)

    def test_wide_rows_come_in_small_pieces(self):
        # 4,097 rows of 120 digits: a row is about 1 KB of text, and no
        # piece holds more than 64 KB of rows plus one row
        doc = {"points": [[(i + k) * k % 10 for k in range(120)] for i in range(4097)]}
        row = len(fileio.dumps(doc["points"][:2])) // 2
        pieces = list(fileio._encode(doc["points"], "\n  "))
        assert row > 120 * 6 and len(pieces) > 60
        assert max(map(len, pieces[1:-1])) <= (1 << 16) + row
        assert fileio.dumps(doc) == library_bytes(doc)

    def test_dumps_leaves_no_cyclic_garbage(self, monkeypatch, tmp_path):
        # scalars go through the library's C encoder, not the pure-Python
        # indenting one, whose closures form reference cycles
        docs = []
        monkeypatch.setattr(fileio, "write_doc", lambda path, doc: docs.append(doc))
        assert cli.run(["report", "even", "4", "-o", str(tmp_path / "r.json")]).exit_code == 0
        docs.append(fileio.pointset_doc(generate("stsp", 6)))
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for doc in docs:
                fileio.dumps(doc)
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == 0


class TestPointSetDocs:
    def test_round_trip_preserves_everything(self):
        X = generate("stsp", 4)
        Y = fileio.parse_pointset(json.loads(fileio.dumps(fileio.pointset_doc(X))))
        assert Y.dim == X.dim
        assert Y.points == X.points
        assert Y.family == X.family
        assert Y.legend == X.legend
        assert Y.digest() == X.digest()

    def test_plain_set_without_tags(self):
        X = PointSet(2, [(0, 0), (3, -1)])
        doc = fileio.pointset_doc(X)
        assert doc["family"] is None and doc["legend"] is None
        # the writer's doc holds the set's own rows, not a copy of each
        assert doc["points"] is X.points
        Y = fileio.parse_pointset(json.loads(fileio.dumps(doc)))
        assert Y.points == X.points

    def test_rejects_missing_dim(self):
        with pytest.raises(ValueError, match="dim"):
            fileio.parse_pointset({"points": [[0]]})

    @pytest.mark.parametrize("dim", [0, -1])
    def test_rejects_dim_below_one(self, dim):
        with pytest.raises(ValueError, match="'dim' must be at least 1"):
            fileio.parse_pointset({"dim": dim, "points": []})
        # nor does the writer make such a doc
        with pytest.raises(ValueError, match="'dim' must be at least 1"):
            fileio.pointset_doc(PointSet(dim, [()] if dim == 0 else []))

    def test_rejects_bool_coordinate(self):
        with pytest.raises(ValueError, match="points"):
            fileio.parse_pointset({"dim": 1, "points": [[True]]})

    def test_rejects_ragged_row(self):
        with pytest.raises(ValueError, match="points"):
            fileio.parse_pointset({"dim": 2, "points": [[0, 0], [1]]})

    @pytest.mark.parametrize("rows, bad", [
        ([[0, 0], [1, True], [0.5, 0]], 1),
        ([[0, 0], [1, 1], [0.5, 0]], 2),
        ([[0, 0], [1], [1, 1, 1]], 1),
        ([[0, 0, 0], [0, 0]], 0),
        ([[0, 0], (1, 1)], 1),
        ([(0, 0), (1, 1)], 0),
        ([[0, 0], [1, "1"]], 1),
        ([[0, 0], [1, None]], 1),
        ([[0, 0], 7], 1),
        ([[0, 0], [[1], 1]], 1),
    ], ids=["bool", "float", "ragged", "long", "tuple", "tuples", "string",
            "null", "scalar", "nested"])
    def test_names_the_first_bad_row(self, rows, bad):
        with pytest.raises(ValueError, match=fr"^field 'points'\[{bad}\]: need 2 integers$"):
            fileio.parse_pointset({"dim": 2, "points": rows})

    def test_unsorted_rows_with_duplicates_are_sorted_once(self):
        doc = {"dim": 2, "points": [[1, 0], [0, 1], [1, 0], [-1, 5], [0, 1]]}
        X = fileio.parse_pointset(doc)
        assert X.points == [(-1, 5), (0, 1), (1, 0)]
        assert X.digest() == PointSet(2, [(-1, 5), (0, 1), (1, 0)]).digest()

    def test_increasing_rows_keep_their_order(self):
        X = fileio.parse_pointset({"dim": 1, "points": [[-3], [0], [10 ** 40]]})
        assert X.points == [(-3,), (0,), (10 ** 40,)]

    @pytest.mark.parametrize("name, params", READABLE_SIZES,
                             ids=[f"{n}{p}".replace(" ", "") for n, p in READABLE_SIZES])
    def test_every_family_round_trips(self, name, params):
        X = generate(name, *params)
        doc = fileio.pointset_doc(X)
        assert doc["points"] is X.points
        Y = fileio.parse_pointset(json.loads(fileio.dumps(doc)))
        assert (Y.dim, Y.points, Y.family, Y.legend) == (X.dim, X.points,
                                                          X.family, X.legend)
        assert Y.digest() == X.digest()

    def test_validated_bools_write_as_ints(self):
        X = PointSet(2, [(True, 0), (0, 1)])
        text = fileio.dumps(fileio.pointset_doc(X))
        assert "true" not in text
        assert fileio.parse_pointset(json.loads(text)).points == [(0, 1), (1, 0)]

    def test_write_and_read(self, tmp_path):
        path = tmp_path / "x.json"
        X = generate("perm", 3)
        fileio.write_doc(str(path), fileio.pointset_doc(X))
        raw = path.read_bytes()
        assert raw.endswith(b"}\n")
        assert fileio.parse_pointset(fileio.read_doc(str(path))).points == X.points


def _text_digest(X):
    """The digest of X's points written out as text, one row at a time."""
    text = "".join(",".join(map(str, p)) + "\n" for p in X.points)
    return hashlib.sha256(f"dim={X.dim};n={len(X.points)};{text}".encode()).hexdigest()


@pytest.fixture
def general_reads(monkeypatch):
    """The paths whose text the general reader parses: read_doc's, which
    read_pointset takes for every file it does not read off its bytes."""
    paths, real = [], fileio._loads

    def counted(path, text):
        paths.append(path)
        return real(path, text)

    monkeypatch.setattr(fileio, "_loads", counted)
    return paths


def _outcome(read, path):
    """read(path), or the type and message of its error."""
    try:
        return read(path)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _same_set(X, Y):
    assert (X.dim, X.points, X.family, X.legend) == (Y.dim, Y.points, Y.family, Y.legend)
    assert {type(v) for p in X.points for v in p} <= {int}
    assert X.digest() == Y.digest() == _text_digest(Y)
    if Y.points:
        columns = list(zip(*Y.points))
        assert X.bounds() == Y.bounds() == (tuple(map(min, columns)),
                                             tuple(map(max, columns)))


POINT_BUILDS = [args for args in BUILD_DIGESTS if args[0] != "relax"]
# sets around 4,096 rows and past one 64 KB piece, a single coordinate,
# and values that are not single digits
EXTRA_SETS = {
    "4095 rows": PointSet(13, list(product((0, 1), repeat=13))[:4095]),
    "4096 rows": PointSet(13, list(product((0, 1), repeat=13))[:4096]),
    "4097 rows": PointSet(13, list(product((0, 1), repeat=13))[:4097]),
    "dim 1": PointSet(1, [(0,), (9,), (4,)]),
    "nine and ten": PointSet(2, [(9, 10), (10, 9), (9, 9)]),
    "negative": build_diff_hiding(1),
    "legend": PointSet(2, [(0, 1), (1, 0)], legend=("\u00e9", '"q"'),
                       family={"name": "x", "params": {"k": [1, 2]}}),
}


class TestReadPointset:
    """read_pointset gives what parse_pointset(read_doc(path)) gives, and
    reads the single-digit files write_doc writes off their bytes."""

    @pytest.mark.parametrize("args", POINT_BUILDS, ids=" ".join)
    def test_pinned_build_files(self, tmp_path, general_reads, args):
        out = tmp_path / "x.json"
        assert cli.run([*args, "-o", str(out)]).exit_code == 0
        X = fileio.read_pointset(out)
        Y = fileio.parse_pointset(json.loads(out.read_text()))
        _same_set(X, Y)
        digits = all(0 <= v <= 9 for p in Y.points for v in p)
        assert general_reads == ([] if digits else [out])

    @pytest.mark.parametrize("name, params", READABLE_SIZES,
                             ids=[f"{n}{p}".replace(" ", "") for n, p in READABLE_SIZES])
    def test_generated_files(self, tmp_path, general_reads, name, params):
        out = tmp_path / "x.json"
        fileio.write_doc(out, fileio.pointset_doc(generate(name, *params)))
        X = fileio.read_pointset(out)
        _same_set(X, fileio.parse_pointset(json.loads(out.read_text())))
        assert general_reads == []

    @pytest.mark.parametrize("name", list(EXTRA_SETS))
    def test_edge_sets(self, tmp_path, general_reads, name):
        out = tmp_path / "x.json"
        fileio.write_doc(out, fileio.pointset_doc(EXTRA_SETS[name]))
        X = fileio.read_pointset(out)
        _same_set(X, EXTRA_SETS[name])
        digits = name not in ("nine and ten", "negative")
        assert general_reads == ([] if digits else [out])

    def test_reencoding_is_checked_in_64_kb_pieces(self, tmp_path, monkeypatch):
        # conn(6) is about 3.9 MB of rows; no piece of the check holds more
        # than 64 KB of them
        out = tmp_path / "conn6.json"
        fileio.write_doc(out, fileio.pointset_doc(generate("conn", 6)))
        sizes, pieces = [], _DigitRows.pieces

        def counted(self, rows, digits=None):
            for piece in pieces(self, rows, digits):
                sizes.append(len(piece))
                yield piece

        monkeypatch.setattr(_DigitRows, "pieces", counted)
        X = fileio.read_pointset(out)
        assert len(X) == 26704 and X._digits
        raw = out.read_bytes()
        rows = raw.index(b'"points": [\n    ') + len(b'"points": [\n    ')
        assert len(sizes) > 50 and max(sizes) <= 1 << 16
        assert sum(sizes) == len(raw) - rows - len(b"\n  ]\n}\n")


# even(3)'s first row, as write_doc writes it
FIRST_ROW = '"points": [\n    [\n      0,\n      0,\n      0\n    ],'


def _in_first_row(old, new):
    return lambda text, doc: text.replace(FIRST_ROW, FIRST_ROW.replace(old, new, 1), 1)


# ways to change a canonical even(3) point file: (text, parsed doc) -> text
TAMPERS = {
    "ten": _in_first_row("0\n    ]", "10\n    ]"),
    "minus one": _in_first_row("0\n    ]", "-1\n    ]"),
    "true": _in_first_row("0\n    ]", "true\n    ]"),
    "float": _in_first_row("0\n    ]", "1.0\n    ]"),
    "letter": _in_first_row("0\n    ]", "x\n    ]"),
    "comma to space": _in_first_row("0,", "0 "),
    "ragged": _in_first_row(",\n      0\n    ]", "\n    ]"),
    "re-indented": lambda text, doc: json.dumps(doc, indent=4, sort_keys=True) + "\n",
    "unsorted": lambda text, doc: fileio.dumps({**doc, "points": doc["points"][::-1]}),
    "duplicate points": lambda text, doc: text.replace(
        '{\n  "dim"', '{\n  "points": [[1, 1, 1]],\n  "dim"', 1),
    "points in family": lambda text, doc: fileio.dumps(
        {**doc, "family": {**doc["family"], "points": [[1, 1, 1]]}}),
    "empty": lambda text, doc: fileio.dumps({**doc, "points": []}),
    "truncated": lambda text, doc: text[:-12],
    "crlf": lambda text, doc: text.replace("\n", "\r\n"),
    "family type": lambda text, doc: fileio.dumps({**doc, "family": [1]}),
    "dim type": lambda text, doc: fileio.dumps({**doc, "dim": "3"}),
    "legend length": lambda text, doc: fileio.dumps({**doc, "legend": ["a"]}),
    "bom": lambda text, doc: "\ufeff" + text,
}


@pytest.mark.parametrize("how", list(TAMPERS))
def test_tampered_files_take_the_general_reader(tmp_path, general_reads, how):
    path = tmp_path / "even3.json"
    fileio.write_doc(path, fileio.pointset_doc(generate("even", 3)))
    text = path.read_text()
    assert fileio.read_pointset(path)._digits and general_reads == []
    changed = TAMPERS[how](text, json.loads(text))
    assert changed != text
    path.write_bytes(changed.encode())
    want = _outcome(lambda p: fileio.parse_pointset(fileio.read_doc(p)), path)
    general_reads.clear()
    got = _outcome(fileio.read_pointset, path)
    assert general_reads == [path]
    if isinstance(want, tuple):
        assert got == want
    else:
        _same_set(got, want)


class TestPolyhedronDocs:
    def test_round_trip_cube(self):
        P = build_cube_relaxation(3)
        Q = fileio.parse_polyhedron(fileio.polyhedron_doc(P))
        assert Q.dim == P.dim
        assert Q.constraints == P.constraints

    def test_fractions_survive(self):
        P = HPolyhedron(2, [Halfspace((Fraction(1, 3), Fraction(-2, 7)), "<=",
                                      Fraction(5, 11))])
        doc = fileio.polyhedron_doc(P)
        assert doc["constraints"][0]["a"] == ["1/3", "-2/7"]
        assert doc["constraints"][0]["rhs"] == "5/11"
        Q = fileio.parse_polyhedron(doc)
        assert Q.constraints[0].a == (Fraction(1, 3), Fraction(-2, 7))

    def test_equality_rows_round_trip(self):
        P = build_rado_permutahedron(3)
        Q = fileio.parse_polyhedron(fileio.polyhedron_doc(P))
        assert any(c.sense == "=" for c in Q.constraints)
        assert Q.constraints == P.constraints

    def test_rejects_bad_sense(self):
        doc = {"dim": 1, "constraints": [{"a": ["1"], "sense": "<", "rhs": "0"}]}
        with pytest.raises(ValueError, match="sense"):
            fileio.parse_polyhedron(doc)

    def test_rejects_float_rhs(self):
        doc = {"dim": 1, "constraints": [{"a": ["1"], "sense": "<=", "rhs": 0.5}]}
        with pytest.raises(ValueError, match="rhs"):
            fileio.parse_polyhedron(doc)

    def test_rejects_malformed_rational(self):
        doc = {"dim": 1, "constraints": [{"a": ["1/0"], "sense": "<=", "rhs": "0"}]}
        with pytest.raises(ValueError, match="a"):
            fileio.parse_polyhedron(doc)

    def test_rejects_row_dimension_mismatch(self):
        doc = {"dim": 2, "constraints": [{"a": ["1"], "sense": "<=", "rhs": "0"}]}
        with pytest.raises(ValueError):
            fileio.parse_polyhedron(doc)


class TestReportDocs:
    def test_shape_and_field_order(self):
        doc = fileio.report_doc("index", "ok", bound=4, witnesses={"rows": []})
        assert doc == {"schema_version": 1, "command": "index", "status": "ok",
                       "bound": 4, "witnesses": {"rows": []}}

    def test_none_fields_are_dropped(self):
        doc = fileio.report_doc("x", "ok", bound=None, witnesses=None)
        assert set(doc) == {"schema_version", "command", "status"}

    def test_fractions_become_strings(self):
        doc = fileio.report_doc("x", "ok",
                                witnesses={"ray": (Fraction(1, 2), -1)})
        assert doc["witnesses"]["ray"] == ["1/2", -1]

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            fileio.report_doc("x", "ok", bound=0.5)


class TestReadDoc:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="gone.json"):
            fileio.read_doc(str(tmp_path / "gone.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1,")
        with pytest.raises(ValueError, match="bad.json"):
            fileio.read_doc(str(p))

    def test_top_level_must_be_object(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]\n")
        with pytest.raises(ValueError):
            fileio.read_doc(str(p))


def _one_row(row):
    return fileio.parse_polyhedron({"dim": 1, "constraints": [row]})


def test_plain_int_coefficient_is_exact():
    P = _one_row({"a": [2], "sense": "<=", "rhs": 3})
    assert P.constraints[0].a == (Fraction(2),)


@pytest.mark.parametrize("row, message", [
    ({"a": [True], "sense": "<=", "rhs": 1},
     "field 'constraints[0].a[0]': expected a rational, got a boolean"),
    ([1, "<=", 1], "field 'constraints[0]' must be an object"),
    ({"a": [0], "sense": "<=", "rhs": "-1"},
     "field 'constraints[0]': zero row with a nontrivial right-hand side"),
], ids=["bool", "non-object", "zero-row"])
def test_row_guards(row, message):
    with pytest.raises(ValueError) as got:
        _one_row(row)
    assert str(got.value) == message
