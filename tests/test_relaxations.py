"""Outer-description builders, lattice enumeration, and relaxation checks."""

from fractions import Fraction

import pytest

from rcx.errors import DimMismatch, Infeasible, TooLarge, UnboundedCoordinate
from rcx.families import PointSet, atsp, conn, cube, even, perm, simplex, stsp
from rcx.linprog import Halfspace, HPolyhedron, solve_lp
from rcx import linprog, relaxations
from rcx.relaxations import (
    LatticeBox,
    RelaxationReport,
    _box_rows,
    _row_box,
    bounding_box,
    build_conn_cut_relaxation,
    build_cube_relaxation,
    build_rado_permutahedron,
    build_subtour_relaxation,
    enumerate_lattice,
    irredundant_count,
    verify_relaxation,
)
from rcx.separation import build_binary_relaxation


def row_data(P):
    return [(tuple(c.a), c.sense, c.rhs) for c in P.constraints]


class TestCubeRelaxation:
    def test_frozen_d2(self):
        assert row_data(build_cube_relaxation(2)) == [
            ((4, -1), "<=", 4),
            ((0, 4), "<=", 4),
            ((4, 1), ">=", 0),
        ]

    def test_d1_set(self):
        P = build_cube_relaxation(1)
        assert len(P.constraints) == 2
        assert enumerate_lattice(P).points == [(0,), (1,)]

    def test_verified(self):
        for d in range(1, 5):
            report = verify_relaxation(build_cube_relaxation(d), cube(d))
            assert report.status == "verified"
            assert report.reason is None
            assert report.lattice_count == 2**d

    def test_box(self):
        assert bounding_box(build_cube_relaxation(1)) == LatticeBox((0,), (1,))
        # the d=2 polytope pokes below the square; its lattice does not
        assert bounding_box(build_cube_relaxation(2)) == LatticeBox((0, -2), (1, 1))

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            build_cube_relaxation(0)


class TestSubtourRelaxation:
    def test_row_counts_n5(self):
        P = build_subtour_relaxation(5)
        senses = [c.sense for c in P.constraints]
        assert P.dim == 10
        assert len(P.constraints) == 20 + 5 + 15
        assert senses.count("=") == 5
        # 15 cut rows after the 20 box rows and 5 equalities
        assert all(s == ">=" for s in senses[25:])

    def test_tours_feasible(self):
        P = build_subtour_relaxation(5)
        for t in stsp(5):
            assert P.contains(t)

    def test_two_triangles_cut_off(self):
        P = build_subtour_relaxation(6)
        x = [0] * 15
        idx = {p: k for k, p in enumerate(
            (u, v) for u in range(1, 7) for v in range(u + 1, 7))}
        for e in [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]:
            x[idx[e]] = 1
        assert not P.contains(tuple(x))

    def test_lattice_matches_tours(self):
        for n, count in ((4, 3), (5, 12)):
            report = verify_relaxation(build_subtour_relaxation(n), stsp(n))
            assert report.status == "verified"
            assert report.lattice_count == count == len(stsp(n))

    def test_directed(self):
        for n, count in ((3, 2), (4, 6), (5, 24)):
            report = verify_relaxation(
                build_subtour_relaxation(n, directed=True), atsp(n))
            assert report.status == "verified"
            assert report.lattice_count == count == len(atsp(n))

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_subtour_relaxation(2)


class TestConnCutRelaxation:
    def test_row_counts_n3(self):
        P = build_conn_cut_relaxation(3)
        assert len(P.constraints) == 6 + 3
        assert P.contains((1, 1, 1))
        assert not P.contains((0, 0, 0))

    def test_verified(self):
        for n in (2, 3, 4):
            report = verify_relaxation(build_conn_cut_relaxation(n), conn(n))
            assert report.status == "verified"
            assert report.lattice_count == len(conn(n))


class TestRadoPermutahedron:
    def test_row_counts_n3(self):
        P = build_rado_permutahedron(3)
        assert len(P.constraints) == 1 + 6 + 3
        assert P.constraints[0].sense == "="
        assert P.contains((1, 2, 3))
        assert not P.contains((1, 1, 4))  # the {1,2} subset row gives 2 < 3

    def test_box(self):
        assert bounding_box(build_rado_permutahedron(3)) == LatticeBox(
            (1, 1, 1), (3, 3, 3))

    def test_verified_with_interior_point(self):
        report = verify_relaxation(build_rado_permutahedron(3), perm(3))
        assert report.status == "verified"
        # six permutations plus the barycenter (2,2,2)
        assert report.lattice_count == 7
        assert (2, 2, 2) in enumerate_lattice(build_rado_permutahedron(3)).points


class TestBoundingBox:
    def test_infeasible(self):
        P = HPolyhedron(1, [Halfspace((1,), "<=", -1), Halfspace((1,), ">=", 0)])
        with pytest.raises(Infeasible):
            bounding_box(P)

    def test_unbounded(self):
        P = HPolyhedron(1, [Halfspace((1,), ">=", 0)])
        with pytest.raises(UnboundedCoordinate) as info:
            bounding_box(P)
        assert info.value.coord == 1 and info.value.direction == "+"

    def test_unbounded_below(self):
        P = HPolyhedron(1, [Halfspace((1,), "<=", 0)])
        with pytest.raises(UnboundedCoordinate) as info:
            bounding_box(P)
        assert info.value.direction == "-"

    def test_fractional_corners_rounded(self):
        P = HPolyhedron(1, [
            Halfspace((2,), ">=", -1),   # x >= -1/2
            Halfspace((2,), "<=", 5),    # x <= 5/2
        ])
        assert bounding_box(P) == LatticeBox((0,), (2,))


class TestEnumerateLattice:
    def test_half_unit_interval(self):
        P = HPolyhedron(1, [
            Halfspace((1,), ">=", 0),
            Halfspace((1,), "<=", Fraction(1, 2)),
        ])
        assert enumerate_lattice(P).points == [(0,)]

    def test_explicit_box_override(self):
        P = build_cube_relaxation(1)
        pts = enumerate_lattice(P, box=LatticeBox((-3,), (3,)))
        assert pts.points == [(0,), (1,)]

    def test_rows_hold_exactly(self):
        P = build_rado_permutahedron(3)
        box = bounding_box(P)
        for p in enumerate_lattice(P):
            assert P.contains(p)
            assert all(l <= v <= h for v, l, h in zip(p, box.lower, box.upper))

    def test_cap(self):
        with pytest.raises(TooLarge):
            enumerate_lattice(build_cube_relaxation(4), max_points=3)

    def test_box_dim_checked(self):
        with pytest.raises(DimMismatch):
            enumerate_lattice(build_cube_relaxation(2), box=LatticeBox((0,), (1,)))


def count_lps(monkeypatch):
    """Count LPs solved: bounding LPs in relaxations; recession probes and
    solve_lp calls in linprog."""
    counts = {"relaxations": 0, "linprog": 0}
    for module in (relaxations, linprog):
        def counted(*args, _module=module.__name__.split(".")[1],
                    _solve=module._solve, **kwargs):
            counts[_module] += 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(module, "_solve", counted)
    return counts


class _CountingTableau(linprog._Tableau):
    """The integer tableau, counting how many are built (copies are not)
    and the pivots they all take."""

    built = 0
    pivots = 0

    def __init__(self, *args):
        _CountingTableau.built += 1
        super().__init__(*args)

    def pivot(self, r, e):
        _CountingTableau.pivots += 1
        super().pivot(r, e)


@pytest.fixture
def counting(monkeypatch):
    # an empty slot, so no count depends on the LPs of an earlier test
    monkeypatch.setattr(linprog, "_last_phase1", None)
    monkeypatch.setattr(linprog, "_Tableau", _CountingTableau)
    monkeypatch.setattr(_CountingTableau, "built", 0)
    monkeypatch.setattr(_CountingTableau, "pivots", 0)
    return _CountingTableau


class TestOnePhase1PerPolyhedron:
    """bounding_box, the recession probe and irredundant_count price every
    objective on one tableau after one phase 1, and so do consecutive
    calls over one object."""

    def test_rado5_box_builds_one_tableau(self, monkeypatch, counting):
        counts = count_lps(monkeypatch)
        assert bounding_box(build_rado_permutahedron(5)) == LatticeBox((1,) * 5, (5,) * 5)
        assert counts == {"relaxations": 10, "linprog": 0}
        assert counting.built == 1
        # the pivots of the tableau that stored its x- and artificial columns
        assert counting.pivots == 58

    def test_rado5_irredundant_builds_one_tableau(self, monkeypatch, counting):
        counts = count_lps(monkeypatch)
        # the five nonnegativity rows go; the probe plus one LP per inequality
        assert irredundant_count(build_rado_permutahedron(5)) == (30, [31, 32, 33, 34, 35])
        assert counts == {"relaxations": 36, "linprog": 0}
        assert counting.built == 1
        assert counting.pivots == 171  # 1,312 with one phase 1 per LP

    def test_rado5_seeded_objectives_build_one_tableau(self, counting):
        # perfbench lp-bounds' four Rado 5 objectives at seed 1, one
        # solve_lp each over one object: phase 1 runs in the first only
        P = build_rado_permutahedron(5)
        pivots = []
        for c in ([-5, 9, -7, -1, -6], [6, 5, 6, 3, -3], [-6, 6, -9, 3, 4],
                  [-9, 5, -1, -2, 9]):
            before = counting.pivots
            assert solve_lp(P, c).status == "optimal"
            pivots.append(counting.pivots - before)
        assert counting.built == 1
        # phase 1 takes 33 of the first 38; each on a fresh object takes
        # 38, 35, 40 and 41, 154 in all
        assert pivots == [38, 2, 7, 8]

    @pytest.mark.parametrize("P, probes", [
        (build_cube_relaxation(3), 6),                              # bounded: all 2d
        (HPolyhedron(2, [Halfspace((1, 0), ">=", 0)]), 1),          # exits at the first
        (HPolyhedron(2, [Halfspace((0, 1), "=", 0),
                         Halfspace((1, 0), "<=", 0)]), 2),          # at min x_1
    ], ids=["cube3", "ray-first", "ray-second"])
    def test_recession_probe_builds_one_tableau(self, monkeypatch, counting, P, probes):
        counts = count_lps(monkeypatch)
        linprog.recession_nontrivial(P)
        assert counts == {"relaxations": 0, "linprog": probes}
        assert counting.built == 1

    def test_rows_store_x_plus_and_slack_columns(self, monkeypatch):
        # Rado 4 has 4 coordinates and 20 rows in <= form, 15 of them with
        # a negative right-hand side and so an artificial: each row is
        # 4 + 20 + 1 wide, with no x- and no artificial columns
        widths = set()

        class Recording(linprog._Tableau):
            def pivot(self, r, e):
                super().pivot(r, e)
                widths.update(len(row) for row in self.T + [self.red])

        monkeypatch.setattr(linprog, "_Tableau", Recording)
        assert solve_lp(build_rado_permutahedron(4), [1, 2, 3, 4]).value == 30
        assert widths == {4 + 20 + 1}


class TestRowBox:
    """Bound propagation over P's rows gives the box without LPs; the LP path stays."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_subtour_lattice_solves_no_lp(self, monkeypatch, n):
        counts = count_lps(monkeypatch)
        assert len(enumerate_lattice(build_subtour_relaxation(n))) == len(stsp(n))
        assert counts == {"relaxations": 0, "linprog": 0}

    def test_directed_subtour5_verify_solves_no_lp(self, monkeypatch):
        counts = count_lps(monkeypatch)
        report = verify_relaxation(build_subtour_relaxation(5, directed=True), atsp(5))
        assert report == RelaxationReport("verified", None, 24)
        assert counts == {"relaxations": 0, "linprog": 0}

    def test_cube_lp_path_only_past_the_cap(self, monkeypatch):
        # propagation bounds the sawtooth rows: d = 1..5 solve no LP; the
        # d = 6 box holds 101,241,630 points, past the default cap, so 12
        # bounding LPs and no recession LP, since the box exists
        counts = count_lps(monkeypatch)
        for d in range(1, 6):
            report = verify_relaxation(build_cube_relaxation(d), cube(d))
            assert report == RelaxationReport("verified", None, 2**d)
            assert counts == {"relaxations": 0, "linprog": 0}, d
        assert _row_box(build_cube_relaxation(6)).volume == 101_241_630
        report = verify_relaxation(build_cube_relaxation(6), cube(6))
        assert report == RelaxationReport("verified", None, 64)
        assert counts == {"relaxations": 12, "linprog": 0}

    def test_rado4_and_even5_verify_solve_no_lp(self, monkeypatch):
        assert _row_box(build_rado_permutahedron(4)) == LatticeBox((1,) * 4, (7,) * 4)
        counts = count_lps(monkeypatch)
        assert verify_relaxation(build_rado_permutahedron(4), perm(4)) == (
            RelaxationReport("verified", None, 38))
        report = verify_relaxation(build_binary_relaxation(even(5)), even(5))
        assert report == RelaxationReport("verified", None, 16)
        assert counts == {"relaxations": 0, "linprog": 0}

    def test_verify_propagates_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(relaxations, "_row_box",
                            lambda P, _row_box=_row_box: calls.append(P) or _row_box(P))
        for X in (cube(3), PointSet(3, [])):
            calls.clear()
            verify_relaxation(build_cube_relaxation(3), X)
            assert len(calls) == 1

    def test_row_box_then_lp_infeasible(self, monkeypatch):
        # the odd triangle: 0 <= x <= 1 and x_i + x_j >= 1 for each pair, so
        # x_1 + x_2 + x_3 >= 3/2 on the LP, against the row's 7/5
        P = HPolyhedron(3, _box_rows(3) + [
            Halfspace((1, 1, 0), ">=", 1), Halfspace((0, 1, 1), ">=", 1),
            Halfspace((1, 0, 1), ">=", 1), Halfspace((1, 1, 1), "<=", Fraction(7, 5))])
        assert _row_box(P) == LatticeBox((0, 0, 0), (1, 1, 1))
        counts = count_lps(monkeypatch)
        with pytest.raises(Infeasible, match="polyhedron has no points"):
            enumerate_lattice(P)
        assert counts == {"relaxations": 1, "linprog": 0}

    def test_propagation_catches_infeasible_rows(self):
        P = HPolyhedron(2, _box_rows(2) + [Halfspace((1, 1), ">=", 3)])
        assert _row_box(P) is None
        with pytest.raises(Infeasible, match="polyhedron has no points"):
            enumerate_lattice(P)

    def test_contradictory_rows(self):
        P = HPolyhedron(1, [Halfspace((1,), "<=", -1), Halfspace((1,), ">=", 0)])
        assert _row_box(P) is None
        with pytest.raises(Infeasible, match="polyhedron has no points"):
            enumerate_lattice(P)

    def test_row_box_over_cap_falls_back(self, monkeypatch):
        # Rado 5: the propagated box [1, 11]^5 holds 161,051 points, the LP
        # box [1, 5]^5 holds 3,125
        P = build_rado_permutahedron(5)
        assert _row_box(P) == LatticeBox((1,) * 5, (11,) * 5)
        counts = count_lps(monkeypatch)
        assert len(enumerate_lattice(P, max_points=10_000)) == 291
        assert counts == {"relaxations": 10, "linprog": 0}

    def test_both_boxes_over_cap(self):
        # the message carries the LP box's volume, 5 ** 5, not the row box's
        with pytest.raises(TooLarge, match="^lattice box: 3125 candidates exceed the cap of 1000$"):
            enumerate_lattice(build_rado_permutahedron(5), max_points=1000)

    def test_box_spanned_by_X_is_past_the_cap_without_lp(self, monkeypatch):
        # atsp(5) fills [0, 1]^20, so the propagated box is the LP box
        counts = count_lps(monkeypatch)
        with pytest.raises(TooLarge, match="^lattice box: 1048576 candidates exceed the cap of 1000$"):
            verify_relaxation(build_subtour_relaxation(5, directed=True), atsp(5),
                              max_points=1000)
        assert counts == {"relaxations": 0, "linprog": 0}

    def test_equality_and_negative_coefficients(self):
        P = HPolyhedron(3, [
            Halfspace((0, 2, 0), "=", 3),              # x_2 = 3/2
            Halfspace((-2, 0, 0), "<=", 3),            # x_1 >= -3/2
            Halfspace((-3, 0, 0), ">=", -7),           # x_1 <= 7/3
            Halfspace((0, 0, 1), ">=", 0),
            Halfspace((0, 0, 1), ">=", Fraction(-1, 2)),  # looser, ignored
            Halfspace((0, 0, -1), ">=", -2),           # x_3 <= 2
            Halfspace((1, 1, 1), "<=", 100),
        ])
        # x_2 has no integer value: the LP path decides
        assert _row_box(P) is None
        P2 = HPolyhedron(3, [c for c in P.constraints if c.a != (0, 2, 0)]
                         + [Halfspace((0, 2, 0), "=", 2)])
        assert _row_box(P2) == LatticeBox((-1, 1, 0), (2, 1, 2))

    def test_lattice_free_interval(self):
        # 1/3 <= x <= 2/3 has points but no lattice point, and no
        # propagated box: the LP box is empty, so there is nothing to scan
        P = HPolyhedron(1, [Halfspace((3,), ">=", 1), Halfspace((3,), "<=", 2)])
        assert _row_box(P) is None and bounding_box(P) is None
        assert enumerate_lattice(P).points == []
        assert verify_relaxation(P, PointSet(1, [])) == (
            RelaxationReport("verified", None, 0))

    def test_lattice_free_odd_triangle(self, monkeypatch):
        # as in test_row_box_then_lp_infeasible, but the sum row allows 3/2:
        # the LP holds only (1/2, 1/2, 1/2), so the empty scan of [0, 1]^3
        # is followed by a bounding_box with no integer range
        P = HPolyhedron(3, _box_rows(3) + [
            Halfspace((1, 1, 0), ">=", 1), Halfspace((0, 1, 1), ">=", 1),
            Halfspace((1, 0, 1), ">=", 1), Halfspace((1, 1, 1), "<=", Fraction(3, 2))])
        assert _row_box(P) == LatticeBox((0, 0, 0), (1, 1, 1))
        assert bounding_box(P) is None
        counts = count_lps(monkeypatch)
        assert enumerate_lattice(P).points == []
        assert counts == {"relaxations": 6, "linprog": 0}
        assert verify_relaxation(P, PointSet(3, [])) == (
            RelaxationReport("verified", None, 0))

    def test_missing_side_is_no_box(self):
        # y has no upper row, but x + y <= 1 with x >= 0 gives y <= 1
        P = HPolyhedron(2, [Halfspace((1, 0), ">=", 0), Halfspace((1, 0), "<=", 1),
                            Halfspace((0, 1), ">=", 0), Halfspace((1, 1), "<=", 1)])
        assert _row_box(P) == LatticeBox((0, 0), (1, 1))
        assert enumerate_lattice(P).points == [(0, 0), (0, 1), (1, 0)]
        # a truly open side: x = y + t stays in the quadrant for every t
        quadrant = HPolyhedron(2, [Halfspace((1, 0), ">=", 0), Halfspace((0, 1), ">=", 0),
                                   Halfspace((1, -1), "<=", 3)])
        assert _row_box(quadrant) is None
        with pytest.raises(UnboundedCoordinate):
            enumerate_lattice(quadrant)

    def test_pass_cap_stops_rational_convergence(self):
        # x <= y/2 + 1 and y <= x/2 + 1 pull both upper bounds toward 2 from
        # above without reaching it; the pass cap stops the propagation
        P = HPolyhedron(2, [Halfspace((2, -1), "<=", 2), Halfspace((-1, 2), "<=", 2)]
                        + [Halfspace(c.a, c.sense, 10 * c.rhs) for c in _box_rows(2)])
        box, lp_box = _row_box(P), bounding_box(P)
        assert box == LatticeBox((0, 0), (2, 2))
        assert all(l <= m and n <= u for l, m, n, u in zip(
            box.lower, lp_box.lower, lp_box.upper, box.upper))


class TestVerifyRelaxation:
    def test_extra_lattice_point(self):
        unit_box = HPolyhedron(2, [
            Halfspace((1, 0), ">=", 0), Halfspace((1, 0), "<=", 1),
            Halfspace((0, 1), ">=", 0), Halfspace((0, 1), "<=", 1),
        ])
        report = verify_relaxation(unit_box, simplex(2))
        assert report.status == "failed"
        assert report.reason == ("extra_lattice_point", (1, 1))
        assert report.lattice_count is None

    def test_no_caller_box_to_trust(self):
        # a box [0, 1] given by the caller used to make this "verified"
        ray = HPolyhedron(1, [Halfspace((1,), ">=", 0)])
        report = verify_relaxation(ray, cube(1))
        assert report == RelaxationReport(
            "failed", ("unbounded_with_finite_X", (Fraction(1),)))
        with pytest.raises(TypeError):
            verify_relaxation(ray, cube(1), box=LatticeBox((0,), (1,)))

    def test_unbounded_with_finite_target(self):
        quadrant = HPolyhedron(2, [
            Halfspace((1, 0), ">=", 0), Halfspace((0, 1), ">=", 0),
        ])
        report = verify_relaxation(quadrant, simplex(2))
        assert report.status == "failed"
        kind, ray = report.reason
        assert kind == "unbounded_with_finite_X"
        assert any(v != 0 for v in ray) and all(v >= 0 for v in ray)

    def test_bounding_lps_decide_boundedness(self, monkeypatch):
        # the diamond |x| + |y| <= 1 has no propagated box: its 4 bounding
        # LPs bound it, and no recession probe runs
        diamond = HPolyhedron(2, [Halfspace((u, v), "<=", 1)
                                  for u in (1, -1) for v in (1, -1)])
        counts = count_lps(monkeypatch)
        X = PointSet(2, [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)])
        assert verify_relaxation(diamond, X) == RelaxationReport("verified", None, 5)
        assert counts == {"relaxations": 4, "linprog": 0}

    @pytest.mark.parametrize("rows, X", [
        ([((1, 0), ">=", 0), ((0, 1), ">=", 0)], simplex(2)),
        ([((1, 0), ">=", 0), ((0, 1), ">=", 0), ((0, 1), "<=", 1)], cube(2)),
    ], ids=["quadrant", "strip"])
    def test_probe_only_names_the_ray(self, monkeypatch, rows, X):
        # the first bounding LP finds x unbounded above, and its checked ray
        # is the witness: no recession probe runs
        P = HPolyhedron(2, [Halfspace(*row) for row in rows])
        counts = count_lps(monkeypatch)
        assert verify_relaxation(P, X) == RelaxationReport(
            "failed", ("unbounded_with_finite_X", (1, 0)))
        assert counts == {"relaxations": 1, "linprog": 0}

    def test_missing_point_wins_over_ray(self):
        shifted = HPolyhedron(2, [
            Halfspace((1, 0), ">=", 1), Halfspace((0, 1), ">=", 0),
        ])
        report = verify_relaxation(shifted, simplex(2))
        assert report.status == "failed"
        assert report.reason == ("missing_point", (0, 0))

    def test_missing_point(self):
        P = HPolyhedron(2, list(build_cube_relaxation(2).constraints)
                        + [Halfspace((1, 0), "<=", 0)])
        report = verify_relaxation(P, cube(2))
        assert report.reason == ("missing_point", (1, 0))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            verify_relaxation(build_cube_relaxation(2), cube(3))


class TestIrredundantCount:
    def test_rado3(self):
        count, redundant = irredundant_count(build_rado_permutahedron(3))
        assert count == 6
        assert redundant == [7, 8, 9]  # the three nonnegativity rows

    def test_cube_rows_all_needed(self):
        for d in (1, 2, 3):
            count, redundant = irredundant_count(build_cube_relaxation(d))
            assert count == d + 1
            assert redundant == []

    def test_duplicate_row_flagged(self):
        # the first copy is dropped; the second, tested without it, stays
        base = build_cube_relaxation(2)
        P = HPolyhedron(2, list(base.constraints) + [base.constraints[0]])
        count, redundant = irredundant_count(P)
        assert count == 3
        assert redundant == [0]

    def test_infeasible(self):
        P = HPolyhedron(1, [Halfspace((1,), "<=", -1), Halfspace((1,), ">=", 0)])
        with pytest.raises(Infeasible):
            irredundant_count(P)

    @pytest.mark.parametrize("build, kept", [
        (lambda: build_subtour_relaxation(4), 3),
        (lambda: build_subtour_relaxation(5), 20),
        (lambda: build_rado_permutahedron(4), 14),
    ], ids=["subtour4", "subtour5", "rado4"])
    def test_kept_rows_describe_P_irredundantly(self, build, kept):
        # subtour 4's mutually implied rows must not all be dropped: the
        # degree equations alone leave the kept system unbounded
        P = build()
        count, redundant = irredundant_count(P)
        Q = HPolyhedron(P.dim, [h for i, h in enumerate(P.constraints)
                                if i not in redundant])
        assert count == kept
        assert irredundant_count(Q) == (kept, [])
        for i in redundant:
            h = P.constraints[i]
            out = solve_lp(Q, h.a, maximize=h.sense == "<=")
            assert out.status == "optimal" and h.satisfied_by(out.point)


class _DropRecorder(linprog._Tableau):
    """The integer tableau, noting (row, how its slack leaves) for each row
    it drops: with its own row ("basic"), or pivoted in first in the "+"
    or "-" direction."""

    drops = []

    def drop_row(self, k):
        column = [row[self.ncols + k] for row in self.T]
        way = "basic" if self.n + k in self.basis else "+" if max(column) > 0 else "-"
        _DropRecorder.drops.append((k, way))
        super().drop_row(k)


class TestRowDrops:
    """irredundant_count answers each LP on its phase-1 tableau, less the
    row under test and the rows dropped so far."""

    @pytest.fixture(autouse=True)
    def recorder(self, monkeypatch):
        monkeypatch.setattr(linprog, "_Tableau", _DropRecorder)
        monkeypatch.setattr(_DropRecorder, "drops", [])

    def test_slack_pivots_in_the_minus_direction(self):
        # phase 1 leaves x = 1 + x- + s: the slack's column has no positive
        # entry; without its one row, max -x is unbounded and the row stays
        assert irredundant_count(HPolyhedron(1, [Halfspace((1,), ">=", 1)])) == (1, [])
        assert _DropRecorder.drops == [(0, "-")]

    def test_unbounded_redundant_and_equation_rows(self, monkeypatch):
        # x >= -1 is implied by x >= 0; without both, max -x is unbounded,
        # so x >= 0 stays, as does x <= 1; y <= 3 is implied by y = 0
        x, y = (1, 0), (0, 1)
        P = HPolyhedron(2, [Halfspace(x, ">=", -1), Halfspace(x, ">=", 0),
                            Halfspace(x, "<=", 1), Halfspace(y, "=", 0),
                            Halfspace(y, "<=", 3)])
        statuses = []
        solve = relaxations._solve

        def recording(*args, **kwargs):
            out = solve(*args, **kwargs)
            statuses.append(out.status)
            return out

        monkeypatch.setattr(relaxations, "_solve", recording)
        assert irredundant_count(P) == (2, [0, 4])
        assert statuses == ["optimal", "optimal", "unbounded", "unbounded", "optimal"]
        # each LP drops its own row and x >= -1 (row 0), once that is
        # found redundant; the equation's <= rows 3 and 4 are never dropped
        assert _DropRecorder.drops == [(0, "basic"), (0, "basic"), (1, "basic"),
                                       (0, "basic"), (2, "basic"), (0, "basic"),
                                       (5, "basic")]

    def test_slack_pivots_in_the_plus_direction(self):
        # Rado 3 in <= form: the equation's rows 0 and 1, the subset rows
        # 2 to 7, the nonnegativity rows 8 to 10
        assert irredundant_count(build_rado_permutahedron(3)) == (6, [7, 8, 9])
        assert [k for k, way in _DropRecorder.drops if way == "+"] == [5, 7]
        assert {k for k, _ in _DropRecorder.drops} == set(range(2, 11))

    def test_a_drop_that_does_not_happen_fails_the_check(self, monkeypatch):
        # each LP is then over all of P: the row under test is within its
        # bound, and its dual weighs the row it was meant to leave out
        monkeypatch.setattr(_DropRecorder, "drop_row", lambda self, k: None)
        with pytest.raises(RuntimeError, match="internal certificate check failed"):
            irredundant_count(build_rado_permutahedron(3))


class TestLatticeBox:
    def test_volume(self):
        assert LatticeBox((0, 0), (1, 2)).volume == 6
        assert LatticeBox((5,), (5,)).volume == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeBox((1,), (0,))
        with pytest.raises(TypeError):
            LatticeBox((Fraction(1, 2),), (1,))
        with pytest.raises(DimMismatch):
            LatticeBox((0,), (1, 1))


@pytest.mark.parametrize("build, n, message", [
    (build_conn_cut_relaxation, 1, "need at least two nodes"),
    (build_rado_permutahedron, 1, "need at least two coordinates"),
])
def test_size_floors(build, n, message):
    with pytest.raises(ValueError) as got:
        build(n)
    assert str(got.value) == message
