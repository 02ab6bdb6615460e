"""Byte-stable JSON round trips for point sets, polyhedra, and reports."""

import json
from fractions import Fraction

import pytest

from rcx import cli, fileio
from rcx.families import FAMILIES, PointSet, generate
from rcx.linprog import Halfspace, HPolyhedron
from rcx.relaxations import (build_conn_cut_relaxation, build_cube_relaxation,
                             build_rado_permutahedron, build_subtour_relaxation)
from test_cli import REPORT_DIGESTS


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
]


class TestWriterMatchesTheLibrary:
    """fileio.dumps writes the bytes of json.dumps(indent=2, sort_keys=True)."""

    def test_every_family_is_listed(self):
        assert {name for name, _ in FAMILY_SIZES} == set(FAMILIES)

    @pytest.mark.parametrize("name, params", FAMILY_SIZES,
                             ids=[f"{n}{p}".replace(" ", "") for n, p in FAMILY_SIZES])
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


class TestPointSetDocs:
    def test_round_trip_preserves_everything(self):
        X = generate("stsp", 4)
        Y = fileio.parse_pointset(fileio.pointset_doc(X))
        assert Y.dim == X.dim
        assert Y.points == X.points
        assert Y.family == X.family
        assert Y.legend == X.legend
        assert Y.digest() == X.digest()

    def test_plain_set_without_tags(self):
        X = PointSet(2, [(0, 0), (3, -1)])
        doc = fileio.pointset_doc(X)
        assert doc["family"] is None and doc["legend"] is None
        Y = fileio.parse_pointset(doc)
        assert Y.points == X.points

    def test_rejects_missing_dim(self):
        with pytest.raises(ValueError, match="dim"):
            fileio.parse_pointset({"points": [[0]]})

    def test_rejects_bool_coordinate(self):
        with pytest.raises(ValueError, match="points"):
            fileio.parse_pointset({"dim": 1, "points": [[True]]})

    def test_rejects_ragged_row(self):
        with pytest.raises(ValueError, match="points"):
            fileio.parse_pointset({"dim": 2, "points": [[0, 0], [1]]})

    def test_write_and_read(self, tmp_path):
        path = tmp_path / "x.json"
        X = generate("perm", 3)
        fileio.write_doc(str(path), fileio.pointset_doc(X))
        raw = path.read_bytes()
        assert raw.endswith(b"}\n")
        assert fileio.parse_pointset(fileio.read_doc(str(path))).points == X.points


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
