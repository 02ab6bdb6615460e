"""Each benchmark check accepts a true answer and rejects a tampered one.

The checks do not import rcx, so these tests run without it:

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402


def flip(p, k=0):
    return tuple(v ^ (i == k) for i, v in enumerate(p))


# --- lp-bounds ----------------------------------------------------------------


def test_tours_from_permutations():
    assert len(checks.tour_vectors(4, False)) == 3
    assert len(checks.tour_vectors(5, False)) == 12
    assert len(checks.tour_vectors(5, True)) == 24


def test_tour_lattice_rejects_a_non_tour():
    tours = sorted(checks.tour_vectors(5, False))
    checks.check_tour_lattice(tours, 5)
    with pytest.raises(CheckError):
        checks.check_tour_lattice(tours[:-1] + [flip(tours[-1])], 5)
    with pytest.raises(CheckError):
        checks.check_tour_lattice(tours[:-1], 5)
    with pytest.raises(CheckError):
        checks.check_tour_lattice(tours + tours[:1], 5)


def test_permutahedron_box_and_rows():
    checks.check_permutahedron_box((1,) * 5, (5,) * 5, 5)
    with pytest.raises(CheckError):
        checks.check_permutahedron_box((0,) * 5, (5,) * 5, 5)
    checks.check_permutahedron_irredundant(14, [15, 16, 17, 18], 4)
    with pytest.raises(CheckError):
        checks.check_permutahedron_irredundant(15, [15, 16, 17], 4)


def test_cube_relaxation_count():
    checks.check_cube_relaxation("verified", 64, 6)
    with pytest.raises(CheckError):
        checks.check_cube_relaxation("verified", 65, 6)
    with pytest.raises(CheckError):
        checks.check_cube_relaxation("failed", 64, 6)


def test_seeded_objectives():
    c = [3, -1, 4, 1, -5]
    # the largest value goes to the largest coordinate
    point = (4, 2, 5, 3, 1)
    value = sum(a * b for a, b in zip(c, point))
    assert value == checks.rearrangement_max(c)
    checks.check_permutahedron_optimum(value, point, c)
    with pytest.raises(CheckError):
        checks.check_permutahedron_optimum(value - 1, point, c)
    with pytest.raises(CheckError):
        checks.check_permutahedron_optimum(value, (4, 2, 5, 3, 3), c)
    obj = [1, 2, 3, 4, 5, 6]
    best = max(checks.dot(obj, t) for t in checks.tour_vectors(4, False))
    checks.check_tour_optimum(best, obj, 4, True)
    with pytest.raises(CheckError):
        checks.check_tour_optimum(best + Fraction(1, 2), obj, 4, True)


# --- LP certificates ------------------------------------------------------------


ROWS = [((1, 0), "<=", 2), ((0, 1), "<=", 3), ((1, 1), ">=", 1)]


def test_optimal_dual_replayed():
    # max x + y over the rows: (2, 3), value 5, duals 1 and 1 on the <= rows
    good = dict(value=5, point=(2, 3), dual=(1, 1, 0))
    checks.replay_lp(ROWS, (1, 1), True, "optimal", **good)
    for bad in (dict(good, dual=(1, 2, 0)), dict(good, value=6),
                dict(good, dual=(2, 1, -1)), dict(good, point=(3, 3))):
        with pytest.raises(CheckError):
            checks.replay_lp(ROWS, (1, 1), True, "optimal", **bad)


def test_farkas_replayed():
    # x <= 0 and x >= 1: the rows combine into 0 . x <= -1
    rows = [((1,), "<=", 0), ((1,), ">=", 1)]
    checks.replay_lp(rows, (1,), True, "infeasible", farkas=(1, -1))
    with pytest.raises(CheckError):
        checks.replay_lp(rows, (1,), True, "infeasible", farkas=(1, -2))
    with pytest.raises(CheckError):
        checks.replay_lp(rows, (1,), True, "infeasible", farkas=(-1, 1))


def test_ray_replayed():
    rows = [((1, 0), ">=", 0)]
    checks.replay_lp(rows, (1, 0), True, "unbounded", point=(0, 0), ray=(1, 0))
    with pytest.raises(CheckError):
        checks.replay_lp(rows, (1, 0), True, "unbounded", point=(0, 0), ray=(-1, 0))
    with pytest.raises(CheckError):
        checks.replay_lp(rows, (1, 0), True, "unbounded", point=(0, 0), ray=(0, 1))


# --- family-certify ------------------------------------------------------------


def family_doc(family, n):
    directed = family in ("atsp", "arb")
    pairs = checks.edge_pairs(n, directed)
    fmt = "({},{})" if directed else "{{{},{}}}"
    member = checks.FAMILY_FACTS[family][1]
    pts = [p for p in product((0, 1), repeat=len(pairs)) if member(p, pairs, n)]
    return {"legend": [fmt.format(u, v) for u, v in pairs],
            "points": [list(p) for p in pts]}


@pytest.mark.parametrize("family, n", [("stsp", 5), ("atsp", 4), ("conn", 4),
                                       ("spt", 5), ("arb", 4)])
def test_family_files_meet_closed_forms(family, n):
    doc = family_doc(family, n)
    pts = checks.check_family_file(doc, family, n)
    assert len(pts) == checks.FAMILY_FACTS[family][0](n)
    with pytest.raises(CheckError):
        checks.check_family_file(dict(doc, points=doc["points"][1:]), family, n)
    outsider = next(p for p in product((0, 1), repeat=len(pts[0])) if p not in set(pts))
    tampered = sorted(pts[1:] + [outsider])
    with pytest.raises(CheckError):
        checks.check_family_file(dict(doc, points=[list(p) for p in tampered]),
                                 family, n)


def test_family_predicates_match_known_counts():
    doc = family_doc("conn", 5)
    assert len(doc["points"]) == 728
    assert len(family_doc("arb", 4)["points"]) == 4 ** 3


def test_digest_is_the_canonical_text():
    pts = [(0, 1), (1, 0)]
    want = hashlib.sha256(b"dim=2;n=2;0,1\n1,0\n").hexdigest()
    assert checks.canonical_digest(2, pts) == want
    assert checks.canonical_digest(2, pts[::-1]) == want


def two_cycles():
    """The even-pattern points hiding the 6-node undirected tours: two triangles."""
    pairs = checks.edge_pairs(6, False)
    index = {p: k for k, p in enumerate(pairs)}

    def vec(*cycles):
        v = [0] * len(pairs)
        for cyc in cycles:
            for i in range(3):
                u, w = sorted((cyc[i], cyc[(i + 1) % 3]))
                v[index[(u, w)]] = 1
        return tuple(v)

    return [vec((1, 2, 3), (4, 5, 6)), vec((1, 5, 3), (4, 2, 6))]


def test_01_hiding_accepts_triangle_pairs():
    X = sorted(checks.tour_vectors(6, False))
    checks.check_01_hiding(two_cycles(), X)


def test_01_hiding_rejects_tampering():
    X = sorted(checks.tour_vectors(6, False))
    h, g = two_cycles()
    with pytest.raises(CheckError):  # a tour is in the hull
        checks.check_01_hiding([h, X[0]], X)
    with pytest.raises(CheckError, match="affine hull"):  # degree 3 at nodes 5, 6
        checks.check_01_hiding([h, flip(g, 14)], X)
    with pytest.raises(CheckError):  # not 0/1
        checks.check_01_hiding([h, tuple(2 * v for v in g)], X)


def test_pair_midpoints_must_come_from_the_family():
    X = [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    # odd(3) hides even(3): every odd pair sums to an even pair
    odd = [z for z in product((0, 1), repeat=3) if sum(z) % 2]
    checks.check_01_hiding(odd, X)
    # against the 3-simplex, 110 and 101 average to (1, 1/2, 1/2), which no
    # two of its points sum to
    simplex = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(CheckError, match="midpoint"):
        checks.check_01_hiding([(1, 1, 0), (1, 0, 1)], simplex)


def test_hiding_certificate_report():
    X = sorted(checks.tour_vectors(6, False))
    H = sorted(two_cycles())
    doc = {"status": "valid", "bound": 2,
           "witnesses": {"target_digest": checks.canonical_digest(15, X),
                         "hiding_digest": checks.canonical_digest(15, H)}}
    checks.check_hiding_certificate(doc, 2, X, H)
    with pytest.raises(CheckError):
        checks.check_hiding_certificate(dict(doc, bound=3), 2, X, H)
    with pytest.raises(CheckError):
        checks.check_hiding_certificate(dict(doc, status="invalid"), 2, X, H)
    with pytest.raises(CheckError):
        checks.check_hiding_certificate(doc, 2, X[1:], H)


@pytest.mark.parametrize("family, params, floor, ceiling", [
    ("perm", (4,), 6, 19), ("perm", (5,), 10, 36), ("diff", (2, 3), 8, 15),
    ("even", (5,), 16, 22), ("even", (6,), 32, 39), ("stsp", (6,), 2, 67),
    ("tjoins", (6, (1, 2, 3, 4)), 2, 31760)])
def test_report_formulas(family, params, floor, ceiling):
    assert checks.expected_floor(family, params) == floor
    assert checks.expected_ceiling(family, params) == ceiling
    doc = {"lower_bound": floor, "upper_bound": ceiling,
           "lower_certified": True, "upper_certified": False}
    size = params[1] if family == "diff" else params[0]
    checks.check_report(doc, family, params, size, size - 1)
    for bad in (dict(doc, lower_bound=floor + 1), dict(doc, upper_bound=ceiling - 1),
                dict(doc, lower_certified=False), dict(doc, upper_certified=True)):
        with pytest.raises(CheckError):
            checks.check_report(bad, family, params, size, size - 1)


# --- small-oracles --------------------------------------------------------------


def test_simplex_witnesses_against_facets():
    facets = checks.simplex_facets(2)
    box = ((-3, -3), (3, 3))
    known = [(1, 1), (-1, 1), (1, -1)]
    checks.check_box_search(3, known, facets, box, known)
    with pytest.raises(CheckError):  # a vertex lies in the simplex
        checks.check_box_search(3, [(1, 1), (-1, 1), (0, 0)], facets, box, known)
    with pytest.raises(CheckError):  # (2, 2) to (-1, 1) misses the simplex
        checks.check_box_search(3, [(2, 2), (-1, 1), (1, -1)], facets, box, known)
    with pytest.raises(CheckError):  # smaller than the known hiding set
        checks.check_box_search(2, known[:2], facets, box, known)
    with pytest.raises(CheckError):  # outside the box
        checks.check_box_search(3, [(1, 1), (-4, 1), (1, -1)], facets, box, known)


def test_known_hiding_sets_are_valid():
    checks.check_facet_hiding([(1, 1, -1), (1, -1, 1), (-1, 1, 1)],
                              checks.simplex_facets(3), ((-1,) * 3, (2,) * 3))
    odd = [z for z in product((0, 1), repeat=3) if sum(z) % 2]
    checks.check_facet_hiding(odd, checks.EVEN3_FACETS, ((-1,) * 3, (2,) * 3))


def test_even3_facets_describe_the_tetrahedron():
    even = [z for z in product((0, 1), repeat=3) if sum(z) % 2 == 0]
    for a, b in checks.EVEN3_FACETS:
        tight = [z for z in even if checks.dot(a, z) == b]
        assert all(checks.dot(a, z) <= b for z in even) and len(tight) == 3


def test_segment_meets_is_exact():
    facets = checks.simplex_facets(2)
    assert checks.segment_meets((1, 1), (-1, -1), facets)
    assert checks.segment_meets((2, -1), (-1, 2), facets)
    assert not checks.segment_meets((2, 0), (0, 2), facets)


def parity_rows(d):
    """One row per odd point: its 0/1 distance must be at least one."""
    odd = [z for z in product((0, 1), repeat=d) if sum(z) % 2]
    return [(tuple(1 - 2 * v for v in y), ">=", 1 - sum(y)) for y in odd]


def test_parity_index_replayed_over_the_cube():
    rows = parity_rows(3)
    checks.check_parity_index(4, rows, 3)
    with pytest.raises(CheckError):  # one odd point left uncut
        checks.check_parity_index(4, rows[:3] + [rows[0]], 3)
    with pytest.raises(CheckError):  # the wrong size
        checks.check_parity_index(5, rows + [rows[0]], 3)
    with pytest.raises(CheckError):  # a row that cuts an even point
        bad = rows[:3] + [((1, 1, 1), "<=", 1)]
        checks.check_parity_index(4, bad, 3)


def test_rationalized_row_replayed():
    inside = {z for z in product((0, 1), repeat=4) if z[0] + 2 * z[1] <= 1}
    row = ((1, 2, 0, 0), "<=", 1)
    checks.replay_rows_over_cube([row], inside, 4)
    with pytest.raises(CheckError):
        checks.replay_rows_over_cube([((1, 2, 0, 0), "<=", 2)], inside, 4)


def test_parity_conflict_clique():
    assert checks.parity_conflict_pairs(5) == 16
    assert checks.parity_conflict_pairs(2) == 2
    for d in (3, 4):
        odd = [z for z in product((0, 1), repeat=d) if sum(z) % 2]
        assert all(sum(a != b for a, b in zip(y, w)) >= 2
                   for y, w in combinations(odd, 2))


def test_off_affine_hull_finds_points_off_the_hull():
    X = [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    assert checks.off_affine_hull([(1, 1, 1), (2, -1, 5)], X) == []
    plane = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
    assert checks.off_affine_hull([(5, -3, 1), (0, 0, 2)], plane) == [(0, 0, 2)]
