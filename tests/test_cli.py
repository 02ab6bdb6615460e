"""End-to-end checks of the rcx command line: exit codes, pinned
summaries, byte-stable files, and diagnostics that name the bad input."""

import argparse
import hashlib
import json

import pytest

from rcx import fileio
from rcx.cli import (_HIDING_BUILDERS, _RELAX_BUILDERS, CommandResult, _build_parser,
                     main, run)
from rcx.families import _COORDINATE_CAP, FAMILIES, PointSet, _parity
from rcx.linprog import Halfspace, HPolyhedron
from rcx.separation import _REPORTS
from test_separation import deadline


def doc_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def cube2_files(tmp_path):
    pts = tmp_path / "cube_pts.json"
    poly = tmp_path / "cube2.json"
    assert run(["gen", "cube", "2", "-o", str(pts)]).exit_code == 0
    assert run(["relax", "build", "cube", "2", "-o", str(poly)]).exit_code == 0
    return str(poly), str(pts)


class TestGen:
    def test_writes_parseable_pointset(self, tmp_path):
        out = tmp_path / "even3.json"
        res = run(["gen", "even", "3", "-o", str(out)])
        assert res.exit_code == 0
        assert res.report_path == str(out)
        X = fileio.parse_pointset(fileio.read_doc(str(out)))
        assert X.dim == 3 and len(X.points) == 4

    def test_round_trip_is_byte_identical(self, tmp_path):
        out = tmp_path / "stsp4.json"
        run(["gen", "stsp", "4", "-o", str(out)])
        raw = doc_bytes(out)
        X = fileio.parse_pointset(json.loads(raw))
        assert fileio.dumps(fileio.pointset_doc(X)).encode() == raw

    def test_same_invocation_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen", "perm", "3", "-o", str(a)])
        run(["gen", "perm", "3", "-o", str(b)])
        assert doc_bytes(a) == doc_bytes(b)

    def test_tuple_parameter(self, tmp_path):
        out = tmp_path / "tj.json"
        res = run(["gen", "tjoins", "4", "1,2", "-o", str(out)])
        assert res.exit_code == 0
        X = fileio.parse_pointset(fileio.read_doc(str(out)))
        assert X.dim == 6 and len(X.points) == 8

    def test_oversized_family_is_a_usage_error(self, tmp_path):
        res = run(["gen", "stsp", "99", "-o", str(tmp_path / "no.json")])
        assert res.exit_code == 2
        assert "cap" in res.summary
        assert not (tmp_path / "no.json").exists()

    def test_unknown_family(self, tmp_path):
        res = run(["gen", "mystery", "3", "-o", str(tmp_path / "no.json")])
        assert res.exit_code == 2
        assert "mystery" in res.summary

    def test_non_integer_parameter(self, tmp_path):
        res = run(["gen", "cube", "two", "-o", str(tmp_path / "no.json")])
        assert res.exit_code == 2
        assert "'two'" in res.summary

    @pytest.mark.parametrize("args", [["cube", "0"], ["simplex", "0"], ["even", "0"],
                                      ["tjoins", "1"], ["conn", "1"], ["spt", "1"]],
                             ids=" ".join)
    def test_dimension_zero_writes_no_file(self, tmp_path, args):
        # no reader takes a dim-0 point file, so the writer refuses it too
        out = tmp_path / "no.json"
        res = run(["gen", *args, "-o", str(out)])
        assert res == CommandResult(2, None, "error: field 'dim' must be at least 1")
        assert not out.exists()

    @pytest.mark.parametrize("family", ["conn", "spt", "forests", "arb", "branch",
                                        "tjoins"])
    def test_no_nodes_is_refused_by_the_edge_indexer(self, tmp_path, family):
        out = tmp_path / "no.json"
        res = run(["gen", family, "0", "-o", str(out)])
        assert res == CommandResult(2, None, "error: need at least one node")
        assert not out.exists()

    def test_explicit_cap_flag(self, tmp_path):
        res = run(["gen", "cube", "4", "--max-candidates", "3",
                   "-o", str(tmp_path / "no.json")])
        assert res.exit_code == 2


class TestSizeGuard:
    """Every refusal comes from one guard, in one message format."""

    @pytest.mark.parametrize("args, summary", [
        (["6", "--max-candidates", "20000"], "arb: 7776 points, dim 30"),
        (["6", "2", "--max-candidates", "4000"], "arb: 1296 points, dim 30"),
    ])
    def test_arb_cap_counts_the_parent_picks(self, tmp_path, args, summary):
        out = tmp_path / "arb.json"
        res = run(["gen", "arb", *args, "-o", str(out)])
        assert res == CommandResult(0, str(out), f"{summary} -> {out}")

    def test_hiding_max_refusal(self, tmp_path):
        tri = tmp_path / "simplex2.json"
        run(["gen", "simplex", "2", "-o", str(tri)])
        res = run(["hiding", "max", str(tri), "--box=-3:3,-3:3", "--max-lattice", "4"])
        assert res == CommandResult(
            2, None, "too large: lattice box: 49 candidates exceed the cap of 4")

    def test_hiding_build_diff_refusal(self, tmp_path):
        out = tmp_path / "no.json"
        res = run(["hiding", "build", "diff", "23", "-o", str(out)])
        assert res == CommandResult(
            2, None,
            "too large: diff_hiding(23): 8388608 candidates exceed the cap of 4194304")
        assert not out.exists()

    def test_hiding_build_tsp_refusal(self, tmp_path):
        # the 2^23 patterns pass the one size guard before any is built
        out = tmp_path / "no.json"
        res = run(["hiding", "build", "tsp", "23", "-o", str(out)])
        assert res == CommandResult(
            2, None,
            "too large: tsp_hiding(23): 8388608 candidates exceed the cap of 4194304")
        assert not out.exists()

    @pytest.mark.parametrize("args, what, count", [
        (["tjoin", "46", "1,2"], "tjoin_hiding(22) points x 1035 coordinates", 2170552320),
        (["tsp", "21", "--undirected"], "tsp_hiding(21) points x 946 coordinates", 991952896),
        (["tsp", "16"], "tsp_hiding(16) points x 1122 coordinates", 36765696),
        (["arb", "17", "--undirected"], "arb_hiding(17) points x 630 coordinates",
         41287680),
        (["tjoin", "36", "1,2"], "tjoin_hiding(17) points x 630 coordinates", 41287680),
    ], ids=["tjoin 46 1,2", "tsp 21 --undirected", "tsp 16", "arb 17 --undirected",
            "tjoin 36 1,2"])
    def test_hiding_build_counts_coordinates(self, tmp_path, args, what, count):
        # points x coordinates pass the coordinate cap before any pattern
        # or vector is built; the counted report floors do not move
        out = tmp_path / "no.json"
        with deadline(1):
            res = run(["hiding", "build", *args, "-o", str(out)])
        assert res == CommandResult(
            2, None, f"too large: {what}: {count} candidates exceed the cap of 33554432")
        assert not out.exists()

    @pytest.mark.parametrize("name, patterns, r, width", [
        ("tsp_hiding", 15, 0, 992), ("arb_hiding", 16, 0, 561), ("tjoin_hiding", 16, 1, 561),
    ], ids=["tsp 15", "arb 16 --undirected", "tjoin 34 1,2"])
    def test_largest_hiding_builds_pass_the_coordinate_cap(self, name, patterns, r, width):
        # the next size of each is refused above; these build in about
        # 300 MB at most
        P = _parity(name, patterns, r, None, width=width)
        assert len(P) == 2**(patterns - 1) and len(P) * width <= _COORDINATE_CAP

    @pytest.mark.parametrize("args, floor", [
        (["tjoins", "46", "1,2"], 2097152), (["stsp", "44"], 1048576),
        (["arb", "44"], 1048576),
    ], ids=["tjoins 46 1,2", "stsp 44", "arb 44"])
    def test_report_counts_the_floor_past_the_build_guard(self, tmp_path, args, floor):
        with deadline(1):
            res = run(["report", *args, "-o", str(tmp_path / "r.json")])
        assert res.exit_code == 0
        assert res.summary.startswith(f"{args[0]}: floor {floor} (uncertified), ceiling ")

    @pytest.mark.parametrize("command", [["hiding", "build", "perm"], ["report", "perm"]],
                             ids=" ".join)
    def test_perm_hiding_refusal(self, tmp_path, command):
        # the C(28, 14) points are counted before any is built
        out = tmp_path / "no.json"
        with deadline(1):
            res = run([*command, "28", "-o", str(out)])
        assert res == CommandResult(
            2, None,
            "too large: perm_hiding(28): 40116600 candidates exceed the cap of 4194304")
        assert not out.exists()

    @pytest.mark.parametrize("args, count", [
        (["cube", "20000"], "at least 2^20000"),
        (["perm", "2000"], "at least 2^19052"),
        (["stsp", "5000"], "at least 2^54220"),
    ], ids=["cube 20000", "perm 2000", "stsp 5000"])
    def test_count_past_the_digit_limit_is_refused(self, tmp_path, args, count):
        out = tmp_path / "no.json"
        res = run(["gen", *args, "-o", str(out)])
        assert res == CommandResult(
            2, None,
            f"too large: {args[0]}({args[1]}): {count} candidates exceed the cap of 4194304")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["gen", "conn", "5000"], ["gen", "forests", "5000"], ["gen", "branch", "5000"],
        ["gen", "spt", "5000"], ["gen", "arb", "5000"], ["gen", "tjoins", "5000"],
        ["hiding", "build", "tsp", "4000"], ["hiding", "build", "arb", "4000"],
        ["hiding", "build", "tjoin", "5000", "1,2"],
        ["report", "stsp", "3000"], ["report", "stsp", "8000"],
    ], ids=" ".join)
    def test_refused_before_the_edge_index_is_built(self, tmp_path, args):
        # each count comes from n, so the cap refuses before the O(n^2)
        # edge pairs or matchings exist
        out = tmp_path / "no.json"
        with deadline(1):
            res = run([*args, "-o", str(out)])
        assert res.exit_code == 2 and res.summary.startswith("too large: "), res
        assert not out.exists()

    def test_rationalize_refusal(self, tmp_path):
        src = tmp_path / "point23.json"
        fileio.write_doc(str(src), fileio.pointset_doc(PointSet(23, [(0,) * 23])))
        res = run(["rationalize", str(src)])
        assert res == CommandResult(
            2, None, "too large: cube(23): 8388608 candidates exceed the cap of 4194304")


class TestHidingCommands:
    def test_build_all_constructions(self, tmp_path):
        cases = [
            (["tsp", "2"], 2, 30),
            (["tsp", "2", "--undirected"], 2, 15),
            (["arb", "2"], 2, 30),
            (["diff", "2"], 4, 4),
            (["perm", "4"], 6, 4),
            (["parity", "3"], 4, 3),
            (["tjoin", "4", "1,2"], 1, 6),
            (["tjoin", "4", "1,2", "--part", "2"], 1, 6),
        ]
        for args, npts, dim in cases:
            out = tmp_path / ("h_" + "_".join(args).replace("--", "") + ".json")
            res = run(["hiding", "build", *args, "-o", str(out)])
            assert res.exit_code == 0, res
            H = fileio.parse_pointset(fileio.read_doc(str(out)))
            assert (len(H.points), H.dim) == (npts, dim), args

    def test_verify_valid_certificate(self, tmp_path):
        fig = tmp_path / "fig1.json"
        tri = tmp_path / "simplex2.json"
        fileio.write_doc(str(fig), fileio.pointset_doc(
            PointSet(2, [(1, 1), (-1, 1), (1, -1)])))
        run(["gen", "simplex", "2", "-o", str(tri)])
        rep = tmp_path / "cert.json"
        res = run(["hiding", "verify", str(fig), str(tri), "--report", str(rep)])
        assert res.exit_code == 0
        assert res.summary == "valid hiding set, bound 3"
        doc = fileio.read_doc(str(rep))
        assert doc["status"] == "valid" and doc["bound"] == 3
        assert "failure" not in doc["witnesses"]

    def test_verify_invalid_names_the_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        tri = tmp_path / "simplex2.json"
        fileio.write_doc(str(bad), fileio.pointset_doc(
            PointSet(2, [(0, 0), (5, 5)])))
        run(["gen", "simplex", "2", "-o", str(tri)])
        rep = tmp_path / "cert.json"
        res = run(["hiding", "verify", str(bad), str(tri), "--report", str(rep)])
        assert res.exit_code == 1
        assert "inside_hull" in res.summary
        doc = fileio.read_doc(str(rep))
        assert doc["status"] == "invalid"
        assert doc["witnesses"]["failure"][0] == "inside_hull"
        assert "bound" not in doc

    def test_max_in_box(self, tmp_path):
        tri = tmp_path / "simplex2.json"
        run(["gen", "simplex", "2", "-o", str(tri)])
        rep = tmp_path / "max.json"
        res = run(["hiding", "max", str(tri), "--box=-3:3,-3:3",
                   "--report", str(rep)])
        assert res.exit_code == 0
        doc = fileio.read_doc(str(rep))
        assert doc["bound"] == 3
        assert [-1, 1] in doc["witnesses"]["points"]

    def test_max_respects_lattice_cap(self, tmp_path):
        tri = tmp_path / "simplex2.json"
        run(["gen", "simplex", "2", "-o", str(tri)])
        res = run(["hiding", "max", str(tri), "--box=-9:9,-9:9",
                   "--max-lattice", "10"])
        assert res.exit_code == 2

    def test_malformed_box(self, tmp_path):
        tri = tmp_path / "simplex2.json"
        run(["gen", "simplex", "2", "-o", str(tri)])
        res = run(["hiding", "max", str(tri), "--box", "1:2:3,0:1"])
        assert res.exit_code == 2
        assert "1:2:3" in res.summary


class TestRelaxCommands:
    def test_verify_cube_summary_is_pinned(self, cube2_files):
        poly, pts = cube2_files
        res = run(["relax", "verify", poly, pts])
        assert res.exit_code == 0
        assert res.summary == "verified, 4 lattice points"

    def test_verify_failure_is_exit_one(self, tmp_path, cube2_files):
        poly, _ = cube2_files
        tri = tmp_path / "simplex2.json"
        run(["gen", "simplex", "2", "-o", str(tri)])
        rep = tmp_path / "out.json"
        res = run(["relax", "verify", poly, str(tri), "--report", str(rep)])
        assert res.exit_code == 1
        assert "extra_lattice_point" in res.summary
        doc = fileio.read_doc(str(rep))
        assert doc["status"] == "failed"
        assert doc["witnesses"]["reason"] == ["extra_lattice_point", [1, 1]]

    def test_verify_report_bytes_are_deterministic(self, tmp_path, cube2_files):
        poly, pts = cube2_files
        a, b = tmp_path / "ra.json", tmp_path / "rb.json"
        run(["relax", "verify", poly, pts, "--report", str(a)])
        run(["relax", "verify", poly, pts, "--report", str(b)])
        assert doc_bytes(a) == doc_bytes(b)

    def test_build_round_trip(self, tmp_path):
        out = tmp_path / "sub4.json"
        res = run(["relax", "build", "subtour", "4", "-o", str(out)])
        assert res.exit_code == 0
        raw = doc_bytes(out)
        P = fileio.parse_polyhedron(json.loads(raw))
        assert fileio.dumps(fileio.polyhedron_doc(P)).encode() == raw
        assert P.dim == 6

    def test_build_directed_subtour(self, tmp_path):
        out = tmp_path / "dsub3.json"
        res = run(["relax", "build", "subtour", "3", "--directed", "-o", str(out)])
        assert res.exit_code == 0
        P = fileio.parse_polyhedron(fileio.read_doc(str(out)))
        assert P.dim == 6

    def test_irredundant_rado(self, tmp_path):
        out = tmp_path / "rado3.json"
        run(["relax", "build", "rado", "3", "-o", str(out)])
        rep = tmp_path / "irr.json"
        res = run(["relax", "irredundant", str(out), "--report", str(rep)])
        assert res.exit_code == 0
        assert res.summary.startswith("6 irredundant")
        doc = fileio.read_doc(str(rep))
        assert doc["bound"] == 6 and len(doc["witnesses"]["redundant_rows"]) == 3

    def test_unknown_builder(self, tmp_path):
        res = run(["relax", "build", "moat", "3", "-o", str(tmp_path / "x.json")])
        assert res.exit_code == 2
        assert "moat" in res.summary

    def test_unbounded_witness_writes_every_coordinate_as_a_string(
            self, tmp_path, cube2_files):
        # x >= 0, 0 <= y <= 1 is unbounded along x; the ray's 0 is a
        # rational like its 1, so it is written as "0", not as the number 0
        _, pts = cube2_files
        strip = HPolyhedron(2, [Halfspace((1, 0), ">=", 0), Halfspace((0, 1), ">=", 0),
                                Halfspace((0, 1), "<=", 1)])
        poly, rep = tmp_path / "strip.json", tmp_path / "out.json"
        fileio.write_doc(str(poly), fileio.polyhedron_doc(strip))
        res = run(["relax", "verify", str(poly), pts, "--report", str(rep)])
        assert (res.exit_code, res.summary) == (1, "failed: unbounded_with_finite_X")
        assert doc_bytes(rep) == (
            b'{\n  "command": "relax verify",\n  "schema_version": 1,\n'
            b'  "status": "failed",\n  "witnesses": {\n    "reason": [\n'
            b'      "unbounded_with_finite_X",\n      [\n        "1",\n'
            b'        "0"\n      ]\n    ]\n  }\n}\n')

    def test_lattice_free_polyhedron_verifies_empty(self, tmp_path):
        # 1/3 <= x <= 2/3 has no lattice point, so an empty set is exact
        P = HPolyhedron(1, [Halfspace((3,), ">=", 1), Halfspace((3,), "<=", 2)])
        poly, pts = tmp_path / "third.json", tmp_path / "none.json"
        fileio.write_doc(str(poly), fileio.polyhedron_doc(P))
        fileio.write_doc(str(pts), fileio.pointset_doc(PointSet(1, [])))
        res = run(["relax", "verify", str(poly), str(pts)])
        assert (res.exit_code, res.summary) == (0, "verified, 0 lattice points")

    def test_verify_with_lattice_cap(self, cube2_files):
        poly, pts = cube2_files
        res = run(["relax", "verify", poly, pts, "--max-lattice", "2"])
        assert res.exit_code == 2


class TestIndexAndRationalize:
    def test_index_even3(self, tmp_path):
        src = tmp_path / "even3.json"
        run(["gen", "even", "3", "-o", str(src)])
        rep = tmp_path / "idx.json"
        res = run(["index", str(src), "--report", str(rep)])
        assert res.exit_code == 0
        assert res.summary == "index 4"
        doc = fileio.read_doc(str(rep))
        assert doc["bound"] == 4 and len(doc["witnesses"]["rows"]) == 4
        for row in doc["witnesses"]["rows"]:
            fileio.parse_row(row, "row")

    def test_index_dimension_limit(self, tmp_path):
        src = tmp_path / "even5.json"
        run(["gen", "even", "5", "-o", str(src)])
        res = run(["index", str(src)])
        assert res.exit_code == 2
        res = run(["index", str(src), "--limit", "5", "--max-subsets", "20"])
        assert res.exit_code == 0
        assert res.summary == "index 16"

    def test_index_subset_budget(self, tmp_path):
        src = tmp_path / "even4.json"
        run(["gen", "even", "4", "-o", str(src)])
        res = run(["index", str(src), "--max-subsets", "4"])
        assert res.exit_code == 2
        assert "budget" in res.summary

    def test_rationalize_separable(self, tmp_path):
        src = tmp_path / "s3.json"
        run(["gen", "simplex", "3", "-o", str(src)])
        rep = tmp_path / "rat.json"
        res = run(["rationalize", str(src), "--report", str(rep)])
        assert res.exit_code == 0
        doc = fileio.read_doc(str(rep))
        assert doc["status"] == "separable"
        h = fileio.parse_row(doc["witnesses"]["row"], "row")
        assert len(h.a) == 3

    def test_rationalize_parity_fails(self, tmp_path):
        src = tmp_path / "even2.json"
        run(["gen", "even", "2", "-o", str(src)])
        rep = tmp_path / "rat.json"
        res = run(["rationalize", str(src), "--report", str(rep)])
        assert res.exit_code == 1
        assert res.summary == "not separable by a single row"
        assert fileio.read_doc(str(rep))["status"] == "not_separable"


class TestReportCommand:
    def test_diff_report(self, tmp_path):
        rep = tmp_path / "rep.json"
        res = run(["report", "diff", "2", "2", "-o", str(rep)])
        assert res.exit_code == 0
        assert res.summary == "diff: floor 4 (certified), ceiling 9 (certified)"
        doc = fileio.read_doc(str(rep))
        assert doc["lower_bound"] == 4 and doc["upper_bound"] == 9
        assert doc["lower_certified"] and doc["upper_certified"]

    def test_box_search_flag(self, tmp_path):
        rep = tmp_path / "rep.json"
        res = run(["report", "even", "3", "--box=-1:2,-1:2,-1:2",
                   "-o", str(rep)])
        assert res.exit_code == 0
        doc = fileio.read_doc(str(rep))
        assert doc["lower_bound"] == 4
        assert any("box search" in n for n in doc["notes"])

    def test_report_bytes_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["report", "perm", "4", "-o", str(a)])
        run(["report", "perm", "4", "-o", str(b)])
        assert doc_bytes(a) == doc_bytes(b)

    def test_report_flag_writes_what_o_writes(self, tmp_path):
        files = {flag: tmp_path / f"{flag.strip('-')}.json"
                 for flag in ("-o", "--out", "--report")}
        for flag, out in files.items():
            res = run(["report", "even", "3", flag, str(out)])
            assert (res.exit_code, res.report_path) == (0, str(out))
        assert len({doc_bytes(out) for out in files.values()}) == 1

    def test_unknown_family(self):
        res = run(["report", "zonotope", "3"])
        assert res.exit_code == 2
        assert "zonotope" in res.summary

    @pytest.mark.parametrize("args, message", [
        (["stsp"], "error: stsp takes 1 parameter (n), got 0"),
        (["stsp", "4", "5"], "error: stsp takes 1 parameter (n), got 2"),
        (["tjoins", "6", "1"],
         "error: tjoins terminals must be a comma list such as 1,2,3,4"),
        (["diff", "2"], "error: diff takes 2 parameters (m, n), got 1"),
        (["tjoins", "6"], "error: tjoins takes 2 parameters (n, terminals), got 1"),
        (["even", "2", "3"], "error: even takes 1 parameter (n), got 2"),
    ])
    def test_wrong_arity_names_the_parameters(self, args, message):
        res = run(["report", *args])
        assert res.exit_code == 2
        assert res.summary == message

    def test_repeated_terminals_report_the_terminal_set(self, tmp_path):
        # floor, ceiling and family tag all use T = {1, 2}; so do the params
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["report", "tjoins", "6", "1,1,2,2", "-o", str(a)]).exit_code == 0
        assert run(["report", "tjoins", "6", "1,2", "-o", str(b)]).exit_code == 0
        assert doc_bytes(a) == doc_bytes(b)


# sha256 of `rcx report ... -o FILE` for one small size per family, so any
# change to the floors, ceilings, sources, notes or params shows here
REPORT_DIGESTS = {
    ("stsp", "6"): "d3a207c50fd278e8bd646a76715419428e53821dbe489e710c22ff5261025b8d",
    ("stsp", "8"): "cda4087d96cfd2b5b5314fed07768f7b284d64847c2542c588b489ef12fb3472",
    ("atsp", "4"): "f3fc3bc97e509daf5140c86b6db20232ae97e9cc7b075060364aaba07ba24a00",
    ("conn", "4"): "a0484b16a07dde3bbc3dad2a4908fddd83699ac2b05ee8ac2d594bc3f57fe1b0",
    ("spt", "4"): "efd54e2b7e76b18954927f0d0d2a2c0fb5d1c1354fc2b7e511cbf6cc0d148d0f",
    ("arb", "4"): "fdcc6c5adc4fa4e7f6ae904b6fbedfb4ef8e412d4cd07479df61536a4e5b105d",
    ("diff", "2", "2"): "08433f87025bba617552dd90c20907787c305f4eac69a12f02ece5fd8f274330",
    ("perm", "4"): "dcf375aa651e13c455567badade4c484d5596eb95c6bce8466fc4fe36d4d3af7",
    ("even", "2"): "b8a329f79eae2c3d9cedc91123b0a66d414377c01949724abdf9ce7bf351efe7",
    ("even", "3", "--box=-1:2,-1:2,-1:2"):
        "277c633544b2e7839aa348a99f6885359ba76149d6360910c10c73f109cc3778",
    ("tjoins", "4", ","): "b2c46bfcdab921b61d45c7607c72dcf3f87a039509c025c5ee695f6d16b868f2",
    ("tjoins", "8", "1,2,3,4"):
        "090d9ade261133e64697f40193d9c9bcaf40bdc44ac025c5c5a92434159f5598",
}


class TestReportBytes:
    def test_every_report_family_is_pinned(self):
        assert {args[0] for args in REPORT_DIGESTS} == set(_REPORTS)

    @pytest.mark.parametrize("args", list(REPORT_DIGESTS), ids=" ".join)
    def test_report_bytes_match_digest(self, tmp_path, args):
        rep = tmp_path / "rep.json"
        assert run(["report", *args, "-o", str(rep)]).exit_code == 0
        assert hashlib.sha256(doc_bytes(rep)).hexdigest() == REPORT_DIGESTS[args]


# sha256 of the file `rcx gen|hiding build|relax build ... -o FILE` writes,
# for every family, construction and relaxation at one small size, so any
# change to point order, row order or their bytes shows here
BUILD_DIGESTS = {
    ("gen", "cube", "3"):
        "b4684353f103ce9daf7caf66a028692f4a4913083c30ba76f1a459d7bb790450",
    ("gen", "simplex", "3"):
        "d243fd6106b055548010ef9322ece7e2179491bfca14ecbc4e44053ee844a83d",
    ("gen", "even", "4"):
        "b2b6b308d422b52cf0e9279e4c2b36047d15ff630f578a87927d9251207396f9",
    ("gen", "odd", "4"):
        "5af59fd10506382552c7118c2ed843fee936c3f48a3de384bf316d9117f818a5",
    ("gen", "perm", "4"):
        "5c4b6a11b592be7b53ab4576a2505574cbc65c1fc0a865ffc8e8067f3a1aa933",
    ("gen", "diff", "2", "2"):
        "839733db412ac61e4408dcafb0a28df9d827fba817509474d239c99733fba5af",
    ("gen", "stsp", "5"):
        "0561abdbcdb7399fbb0703a4c7c362bc7787e21b4ee4855b4ced8594c4d954a0",
    ("gen", "atsp", "4"):
        "cae475ac2e2861a18c201b62c71fc4aa0971bb4e8c2f9e900d7be7c75cd620e6",
    ("gen", "conn", "4"):
        "c3f46f35bcf8a7e096678dcdb7a2cdbcc62d588313c2ab3a45452e0fb9a00e18",
    ("gen", "spt", "4"):
        "6a29b0286a25d68fe95e87dfdbda129eeeb9b1044d32544987659436758d6003",
    ("gen", "forests", "4"):
        "60f218da2be3fdeccd272401daa152598f14f0c8f65cb8d7e83cf7bbd6a1765f",
    ("gen", "arb", "3"):
        "151042c13fc2deafb20edb5ca1b231e74d4c19d8adc78d9bb7d4b06e34788e31",
    ("gen", "arb", "4", "2"):
        "a2a021d13a2b1db6c4bb3fa1768a86cc1bb8dac73afaf0d1caad849d57e2a30f",
    ("gen", "branch", "3"):
        "94272887d82f745c33ff78d043ca3757f7f7832d0cf1cafac078d5cdd900cf98",
    ("gen", "branch", "3", "1"):
        "7829743351ad9643b7641cce50d5b2e556d85c3ac78eb32013714216200784f0",
    ("gen", "tjoins", "4", "1,2"):
        "6d72c2b951b205c0b87ef59b7877f32f5fbede987550b29ac9423482a2e0ca45",
    ("hiding", "build", "tsp", "2"):
        "dd8fe204db111e19d636f48b1a788e8e48b90a52412b942520f971cee1b4a5fa",
    ("hiding", "build", "tsp", "2", "--undirected"):
        "b4560181c1012838678328995d6fdc00fe34d4d16cc0c943cd37e51381ac956a",
    ("hiding", "build", "arb", "2"):
        "53b56d7a6720c744df7852eec3774db918465e83a2f81238bfd880eaba3eab01",
    ("hiding", "build", "arb", "2", "--undirected"):
        "51edd1641ce0ec2848c3745d891122e4be58e30a0dbbc922c41f596dabbe4a04",
    ("hiding", "build", "diff", "2"):
        "048932003f1acad352e28709c693583cb28be94d8332231aa9b984a28e07ece2",
    ("hiding", "build", "perm", "4"):
        "581a52f71ecde914fdc6d829cc45e2afc2aa8ce1a95fa55f6dfe56e6236e0ed1",
    ("hiding", "build", "parity", "3"):
        "19ef4bff0be063371e232879feaa8d821cd76cd04358e8c4ceddd4fafddb9713",
    ("hiding", "build", "tjoin", "6", "1,2"):
        "1e80c85a5e17f734bc1be15ab3e043d2e08e1095c21755077f9291fcb7aa75e1",
    ("relax", "build", "cube", "3"):
        "feedf2f0702de712ba0a7202190f75605259836c077dffdc58a8f4d1bd902d99",
    ("relax", "build", "subtour", "4"):
        "0b8069dadcb826bd943586b4079868c27dfb43919484e206f853f2a765a8768f",
    ("relax", "build", "subtour", "4", "--directed"):
        "419aeee02e056d90820266bf69c08530dcfe882b92667e69ed3cc639d0c856e7",
    ("relax", "build", "conncut", "4"):
        "7caa1fcdaa6d4c64d35a9218fdec3273d233f0b83d7e740700f2b264a4982a69",
    ("relax", "build", "rado", "4"):
        "5e5bef370fe0d2188e845c5d09529bad5fe250e100d6f90626397e118a35f64e",
}


class TestBuildBytes:
    def test_every_name_is_pinned(self):
        names = {(args[0], args[1] if args[0] == "gen" else args[2])
                 for args in BUILD_DIGESTS}
        assert names == ({("gen", f) for f in FAMILIES}
                         | {("hiding", h) for h in _HIDING_BUILDERS}
                         | {("relax", r) for r in _RELAX_BUILDERS})
        # the named constructions and relaxations, with and without their flag
        for name, flag in (("tsp", "--undirected"), ("arb", "--undirected"),
                           ("subtour", "--directed")):
            assert {flag in args for args in BUILD_DIGESTS
                    if args[2] == name} == {True, False}

    @pytest.mark.parametrize("args", list(BUILD_DIGESTS), ids=" ".join)
    def test_build_bytes_match_digest(self, tmp_path, args):
        out = tmp_path / "out.json"
        assert run([*args, "-o", str(out)]).exit_code == 0
        assert hashlib.sha256(doc_bytes(out)).hexdigest() == BUILD_DIGESTS[args]


# sha256 of the `rcx hiding verify ... --report FILE` report, which carries
# the digests of both point files: (construction, target family) -> sha256
VERIFY_DIGESTS = {
    (("tsp", "2", "--undirected"), ("stsp", "6")):
        "cb026999bc4c2c30e02c75cb68769e319fb639069c0e25a67fc0244644a6a4c4",
    (("tsp", "2"), ("atsp", "6")):
        "48f74945f0149eaa5b71810ef52d468e163b2a67e8059569e156898acf4360b1",
    (("arb", "1"), ("arb", "4")):
        "9072003f23525ea76fa9dcfc009e4e42eb1fab8b49fad0c7edec9a41ccf37a4d",
    (("perm", "4"), ("perm", "4")):
        "e02c3c96a209b953e4abf213e8e7dfbab9314cf69e0f2fb946aa063806aa9489",
    (("tsp", "2", "--undirected"), ("conn", "6")):
        "79d69d6e6ad3245fb7f82fcba9f13b0ab0a4658143c9555a4d5a115acd388c51",
}


class TestVerifyBytes:
    @pytest.mark.parametrize("build, target", list(VERIFY_DIGESTS),
                             ids=[" ".join(b + t) for b, t in VERIFY_DIGESTS])
    def test_verify_report_matches_digest(self, tmp_path, build, target):
        H, X, rep = tmp_path / "h.json", tmp_path / "x.json", tmp_path / "rep.json"
        assert run(["hiding", "build", *build, "-o", str(H)]).exit_code == 0
        assert run(["gen", *target, "-o", str(X)]).exit_code == 0
        assert run(["hiding", "verify", str(H), str(X), "--report", str(rep)]).exit_code == 0
        assert hashlib.sha256(doc_bytes(rep)).hexdigest() == VERIFY_DIGESTS[build, target]


# (command, family) -> (exit code, summary, sha256 of the report); the rows
# strict_separation finds are written into these reports
SEPARATION_DIGESTS = {
    ("index", ("even", "2")): (
        0, "index 2", "6c787021cfab5cb75907e9e92e710be299525b4b5739b5f427b925f6a598bbed"),
    ("index", ("even", "3")): (
        0, "index 4", "a2e690aae662add106e645d03fafb2a474a34b11a39a254b10c8f28c3b0a98f4"),
    ("index", ("even", "4")): (
        0, "index 8", "12587d07f734cb7d6b75798bfcb7d33fde5f5e15c94741f199dcc1caf8362710"),
    ("index", ("odd", "3")): (
        0, "index 4", "b6b36585af78704f3f8f0c990174693e5a20b585fc3b7934f54fb971e5fbd77f"),
    ("index", ("cube", "3")): (
        0, "index 0", "493e5914564904f24f3ae8153554ab7b3b55cd6ae8a1c257e4b9699aacad3e5e"),
    ("rationalize", ("simplex", "2")): (
        0, "separable: (1, 1) . x <= 1",
        "8516285321847c6e30a162200ef0c6799fc23cccc1ea0d89c77eb5c54e8e0d1c"),
    ("rationalize", ("simplex", "3")): (
        0, "separable: (1, 1, 1) . x <= 1",
        "628d0fc666d64ab15f94dc87b03d2b12505a0ec8c88ed54ba24d86b8eb472756"),
    ("rationalize", ("even", "2")): (
        1, "not separable by a single row",
        "5e4c8a6f0479fe5c49c23d6b42f680d7126cc68160ae33957b0f6037d388b01c"),
}


class TestSeparationBytes:
    @pytest.mark.parametrize("command, family", list(SEPARATION_DIGESTS),
                             ids=[" ".join((c, *f)) for c, f in SEPARATION_DIGESTS])
    def test_report_matches_digest(self, tmp_path, command, family):
        X, rep = tmp_path / "x.json", tmp_path / "rep.json"
        assert run(["gen", *family, "-o", str(X)]).exit_code == 0
        res = run([command, str(X), "--report", str(rep)])
        code, summary, digest = SEPARATION_DIGESTS[command, family]
        assert (res.exit_code, res.summary) == (code, summary)
        assert hashlib.sha256(doc_bytes(rep)).hexdigest() == digest


# (input built by, command run on it with its options) -> (summary, sha256
# of the --report file); subtour 4's degree rows leave a triangle, so 3 of
# its 19 inequality rows stay however the mutually implied ones are ordered
FILE_REPORT_DIGESTS = {
    (("gen", "simplex", "2"), ("hiding", "max", "--box=-3:3,-3:3")): (
        "largest hiding set in the box: 3 points",
        "640073375650f8e45cbc867d09bdcd843b56baa9ec79fb050e76bb1b8b0d231e"),
    (("gen", "simplex", "3"), ("hiding", "max", "--box=-1:1,-1:1,-1:1")): (
        "largest hiding set in the box: 3 points",
        "88ef73bbac2b9478445fbdd8fd3b646c5e0197cf2f5c3bef9867921bd4273f3c"),
    (("relax", "build", "rado", "3"), ("relax", "irredundant")): (
        "6 irredundant inequality rows (3 redundant)",
        "6ce4aceeaec056a6575b06c988d8803b813c77a645adc104c49a72f99e68d8be"),
    (("relax", "build", "rado", "4"), ("relax", "irredundant")): (
        "14 irredundant inequality rows (4 redundant)",
        "631254376563356b7c4ec9d9e698d21ae31f85a3f65f19b7e814f3d70a75d780"),
    (("relax", "build", "cube", "3"), ("relax", "irredundant")): (
        "4 irredundant inequality rows (0 redundant)",
        "d80a60143d4195aeb98b75464e1b89ea579af1be9b7307ee172f9fabecc3b24b"),
    (("relax", "build", "subtour", "4"), ("relax", "irredundant")): (
        "3 irredundant inequality rows (16 redundant)",
        "db354baed7c26dc5a9b5b30b895d7f4c103eab24c94d17b964e29f064cc99825"),
}


class TestFileReportBytes:
    @pytest.mark.parametrize("build, command", list(FILE_REPORT_DIGESTS),
                             ids=[" ".join(b + c) for b, c in FILE_REPORT_DIGESTS])
    def test_report_matches_digest(self, tmp_path, build, command):
        src, rep = tmp_path / "in.json", tmp_path / "rep.json"
        assert run([*build, "-o", str(src)]).exit_code == 0
        res = run([*command[:2], str(src), *command[2:], "--report", str(rep)])
        summary, digest = FILE_REPORT_DIGESTS[build, command]
        assert (res.exit_code, res.summary) == (0, summary)
        assert hashlib.sha256(doc_bytes(rep)).hexdigest() == digest


def _leaf_parsers(parser, words=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*words, name))


# subcommand -> (spellings of its output option, whether it is required)
OUTPUT_OPTIONS = {
    "gen": (("-o", "--out"), True),
    "hiding build": (("-o", "--out"), True),
    "hiding verify": (("--report",), False),
    "hiding max": (("--report",), False),
    "relax build": (("-o", "--out"), True),
    "relax verify": (("--report",), False),
    "relax irredundant": (("--report",), False),
    "index": (("--report",), False),
    "rationalize": (("--report",), False),
    "report": (("-o", "--out", "--report"), False),
}


def test_every_subcommand_has_one_output_destination():
    seen = {}
    for name, parser in _leaf_parsers(_build_parser()):
        outs = [a for a in parser._actions
                if {"-o", "--out", "--report"} & set(a.option_strings)]
        assert [a.dest for a in outs] == ["path"], name
        seen[name] = tuple(outs[0].option_strings), outs[0].required
    assert seen == OUTPUT_OPTIONS


# gen, hiding build and relax build name their parameters as report does;
# an extra positional never becomes the candidate cap
WRONG_ARITY = [
    (["gen", "stsp"], "stsp takes 1 parameter (n), got 0"),
    (["gen", "stsp", "5", "6"], "stsp takes 1 parameter (n), got 2"),
    (["gen", "cube", "3", "100"], "cube takes 1 parameter (d), got 2"),
    (["gen", "diff", "2"], "diff takes 2 parameters (m, n), got 1"),
    (["gen", "arb", "4", "2", "7"], "arb takes 1 to 2 parameters (n, root), got 3"),
    (["gen", "tjoins", "4", "1,2", "3"],
     "tjoins takes 1 to 2 parameters (n, terminals), got 3"),
    (["gen", "simplex", "2", "--max-candidates", "5"],
     "simplex takes no --max-candidates"),
    (["hiding", "build", "tsp"], "tsp takes 1 parameter (N), got 0"),
    (["hiding", "build", "perm", "4", "5"], "perm takes 1 parameter (n), got 2"),
    (["hiding", "build", "tjoin", "6"], "tjoin takes 2 parameters (n, terminals), got 1"),
    (["relax", "build", "subtour"], "subtour takes 1 parameter (n), got 0"),
    (["relax", "build", "cube", "2", "3"], "cube takes 1 parameter (d), got 2"),
]

# an optional parameter left out or given, and the cap flag, keep working
STILL_RUNS = [
    (["gen", "arb", "4", "2"], "arb: 16 points, dim 12"),
    (["gen", "tjoins", "4"], "tjoins: 8 points, dim 6"),
    (["gen", "cube", "3", "--max-candidates", "8"], "cube: 8 points, dim 3"),
]


class TestDiagnostics:
    def test_missing_file(self):
        res = run(["index", "/nonexistent/nope.json"])
        assert res.exit_code == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run(["index", str(bad)])
        assert res.exit_code == 2
        assert "bad.json" in res.summary

    def test_nesting_too_deep_is_malformed_json(self, tmp_path):
        # the decoder's RecursionError does not escape run
        deep = tmp_path / "deep.json"
        deep.write_text('{"dim": 1, "points": ' + "[" * 100000 + "]" * 100000 + "}")
        res = run(["hiding", "max", str(deep), "--box", "0:1"])
        assert res.exit_code == 2
        assert res.summary.startswith(f"error: {deep}: malformed JSON (maximum recursion")

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"dim": 1, "legend": ["\u00e9"], "points": [[0]]}'.encode("latin-1"))
        res = run(["index", str(bad)])
        assert res.exit_code == 2
        assert res.summary.startswith(f"error: {bad}: not UTF-8 ("), res.summary

    @pytest.mark.parametrize("command", [
        ["index", "F"], ["rationalize", "F"], ["hiding", "max", "F", "--box", "0:1"],
        ["hiding", "verify", "F", "F"],
    ], ids=lambda c: " ".join(c[:2]))
    def test_huge_dim_is_refused_before_any_row_layout(self, tmp_path, command):
        # a dim far past what the file's rows can hold, in write_doc's
        # layout: the rows are measured against it before anything of
        # size dim is built
        big = tmp_path / "big.json"
        big.write_text(fileio.dumps({"dim": 10**9, "points": [[0]]}))
        with deadline(1):
            res = run([str(big) if a == "F" else a for a in command])
        assert res == CommandResult(2, None, "error: field 'points'[0]: need 1000000000 integers")

    def test_wrong_field_type_is_named(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": "three", "points": []}))
        res = run(["index", str(bad)])
        assert res.exit_code == 2
        assert "dim" in res.summary

    @pytest.mark.parametrize("field, value, message", [
        ("dim", lambda doc: True, "field 'dim' has the wrong type"),
        ("legend", lambda doc: doc["legend"][:-1], "legend length does not match dimension"),
        ("family", lambda doc: [], "field 'family' has the wrong type"),
    ], ids=["dim true", "legend short", "family list"])
    @pytest.mark.parametrize("which", [0, 1], ids=["hiding set", "family"])
    def test_bad_header_over_digit_rows_is_named(self, tmp_path, field, value, message,
                                                 which):
        # stsp(5)'s single-digit rows as write_doc writes them, under a
        # header the reader refuses, whichever file of the pair it is
        good, bad = tmp_path / "stsp5.json", tmp_path / "bad.json"
        assert run(["gen", "stsp", "5", "-o", str(good)]).exit_code == 0
        text = good.read_text()
        doc = json.loads(text)
        changed = fileio.dumps({**doc, field: value(doc)})
        assert changed.endswith(text[text.index('"points"'):]) and changed != text
        bad.write_text(changed)
        files = [str(good), str(good)]
        files[which] = str(bad)
        res = run(["hiding", "verify", *files])
        assert res == CommandResult(2, None, "error: " + message)

    def test_pointset_fed_to_polyhedron_parser(self, tmp_path):
        pts = tmp_path / "pts.json"
        run(["gen", "cube", "2", "-o", str(pts)])
        res = run(["relax", "irredundant", str(pts)])
        assert res.exit_code == 2
        assert "constraints" in res.summary

    @pytest.mark.parametrize("command", [["gen", "tjoins"], ["hiding", "build", "tjoin"]],
                             ids=" ".join)
    def test_tjoin_terminals_must_be_a_list(self, tmp_path, command):
        res = run([*command, "6", "1", "-o", str(tmp_path / "x.json")])
        assert res.exit_code == 2
        assert res.summary == ("error: tjoins terminals must be a comma list "
                               "such as 1,2,3,4")

    @pytest.mark.parametrize("args, message", WRONG_ARITY,
                             ids=[" ".join(a) for a, _ in WRONG_ARITY])
    def test_wrong_arity_names_the_parameters(self, tmp_path, args, message):
        out = tmp_path / "x.json"
        res = run([*args, "-o", str(out)])
        assert (res.exit_code, res.summary) == (2, "error: " + message)
        assert not out.exists()

    @pytest.mark.parametrize("args, summary", STILL_RUNS,
                             ids=[" ".join(a) for a, _ in STILL_RUNS])
    def test_optional_parameters_still_run(self, tmp_path, args, summary):
        out = tmp_path / "x.json"
        res = run([*args, "-o", str(out)])
        assert (res.exit_code, res.summary) == (0, f"{summary} -> {out}")

    def test_unwritable_output_is_an_error(self, tmp_path):
        res = run(["gen", "cube", "2", "-o", str(tmp_path / "no" / "x.json")])
        assert res.exit_code == 2
        assert res.summary.startswith("error:") and "x.json" in res.summary

    def test_no_arguments_is_usage_error(self):
        assert run([]).exit_code == 2

    def test_help_exits_zero(self):
        assert run(["--help"]).exit_code == 0

    def test_main_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = main(["gen", "cube", "2", "-o", str(out)])
        assert code == 0
        assert "4 points" in capsys.readouterr().out

    def test_main_errors_go_to_stderr(self, tmp_path, capsys):
        code = main(["gen", "stsp", "99", "-o", str(tmp_path / "x.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert "cap" in captured.err and captured.out == ""
