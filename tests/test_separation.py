"""Minimum cube-separating systems, binary relaxations, and bound reports."""

import dataclasses
import hashlib
import random
import signal
from contextlib import contextmanager
from functools import cache, wraps
from itertools import combinations, product

import pytest

from rcx.errors import EmptySet, TooLarge
from rcx.families import PointSet, cube, even, generate, odd
from rcx import linprog, relaxations, separation
from rcx.hiding import _conflict_graph, build_tjoin_hiding, max_hiding_in_box
from rcx.linprog import Halfspace, HPolyhedron, strict_separation
from rcx.rational import vdot
from rcx.relaxations import build_cube_relaxation, verify_relaxation
from rcx.separation import (RcBoundReport, bound_report, build_binary_relaxation,
                            conflict_clique_bound, jeroslow_index,
                            rationalize_halfspace)

TRI = PointSet(2, [(0, 0), (1, 0), (0, 1)])
CUBE3 = list(product((0, 1), repeat=3))


def assert_separates(system, X):
    xset = set(X.points)
    for x in X:
        assert all(h.satisfied_by(x) for h in system.halfspaces)
    for y in product((0, 1), repeat=X.dim):
        if y not in xset:
            assert any(not h.satisfied_by(y) for h in system.halfspaces)


class TestJeroslowIndex:
    def test_parity_families(self):
        for n, want in ((2, 2), (3, 4), (4, 8)):
            X = even(n)
            k, system = jeroslow_index(X)
            assert k == want
            assert system.size == want
            assert system.target == X.digest()
            assert_separates(system, X)

    def test_full_cube_needs_nothing(self):
        k, system = jeroslow_index(cube(3))
        assert k == 0 and system.halfspaces == ()

    def test_single_excluded_point(self):
        k, system = jeroslow_index(TRI)
        assert k == 1
        assert not system.halfspaces[0].satisfied_by((1, 1))
        assert_separates(system, TRI)

    def test_single_kept_vertex(self):
        # one row x1+x2+x3 <= 0 kills the other seven at once
        X = PointSet(3, [(0, 0, 0)])
        k, system = jeroslow_index(X)
        assert k == 1
        assert_separates(system, X)

    def test_empty_set_needs_one_row(self):
        k, system = jeroslow_index(PointSet(2, []))
        assert k == 1
        for y in product((0, 1), repeat=2):
            assert not system.halfspaces[0].satisfied_by(y)

    def test_dimension_limit(self):
        with pytest.raises(TooLarge):
            jeroslow_index(even(5))
        with pytest.raises(ValueError):
            jeroslow_index(even(3), limit=6)
        # with the limit raised, a one-row case in dimension five goes through
        X = PointSet(5, [p for p in product((0, 1), repeat=5) if sum(p) < 5])
        k, _ = jeroslow_index(X, limit=5)
        assert k == 1

    def test_complement_budget(self):
        X = PointSet(5, [(0,) * 5, (1,) * 5])
        with pytest.raises(TooLarge):
            jeroslow_index(X, limit=5)

    def test_not_binary(self):
        with pytest.raises(ValueError):
            jeroslow_index(PointSet(2, [(0, 2)]))

    def test_clique_floor_and_pointwise_ceiling_exhaustive(self):
        # every subset of the 3-cube: the conflict clique never overshoots
        # and one row per excluded point is never undershot
        for mask in range(256):
            X = PointSet(3, [CUBE3[i] for i in range(8) if mask >> i & 1])
            k, system = jeroslow_index(X)
            assert k <= 8 - len(X.points) or (len(X.points) == 0 and k == 1)
            assert k >= conflict_clique_bound(X)
            assert_separates(system, X)


@pytest.mark.parametrize("fn", [rationalize_halfspace, jeroslow_index,
                                conflict_clique_bound])
def test_float_coordinates_are_not_01(fn):
    # 0.0 and 1.0 equal 0 and 1 but are no integer points
    with pytest.raises(ValueError, match=r"is not 0/1"):
        fn([(0.0, 1.0), (1.0, 1.0)])


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestConflictCliqueBound:
    def test_parity(self):
        # any two odd points average onto an even midpoint, so all pairs clash
        assert conflict_clique_bound(even(3)) == 4

    def test_no_complement(self):
        assert conflict_clique_bound(cube(2)) == 0

    def test_conflict_free(self):
        assert conflict_clique_bound(TRI) == 1
        assert conflict_clique_bound(PointSet(2, [])) == 1

    # the 2^40 cube points are never listed: the empty set answers at once
    # and the budget is checked on the count alone
    def test_empty_set_in_dimension_40_answers_at_once(self):
        with deadline(0.5):
            assert conflict_clique_bound(PointSet(40, [])) == 1

    def test_budget_in_dimension_40_comes_before_the_cube(self):
        with deadline(0.5), pytest.raises(TooLarge) as err:
            conflict_clique_bound(PointSet(40, [(0,) * 40]))
        assert str(err.value) == (f"the pair budget: {2 ** 40 - 1} candidates "
                                  f"exceed the cap of 32")


def _cube_subsets():
    """All subsets of {0,1}^3 and 60 seeded subsets of {0,1}^4."""
    out = [PointSet(3, [CUBE3[i] for i in range(8) if mask >> i & 1])
           for mask in range(256)]
    cube4 = list(product((0, 1), repeat=4))
    rng = random.Random(7)
    for _ in range(60):
        mask = rng.getrandbits(16)
        out.append(PointSet(4, [cube4[i] for i in range(16) if mask >> i & 1]))
    return out


def _separation_graph(points, X):
    """The conflict graph as the strict-separation pair loop built it."""
    adj = [0] * len(points)
    for i, j in combinations(range(len(points)), 2):
        if strict_separation(X, [points[i], points[j]]) is None:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


@pytest.mark.parametrize("corpus", ["cube subsets", "even5"])
def test_conflict_graph_matches_strict_separation(corpus):
    # for points outside conv(X), the segment between two of them meets
    # conv(X) exactly when no row valid on X cuts both off
    sets = _cube_subsets() if corpus == "cube subsets" else [even(5)]
    edges = 0
    for X in sets:
        if not X.points:
            continue
        kept = set(X.points)
        ypts = [y for y in product((0, 1), repeat=X.dim) if y not in kept]
        got = _conflict_graph(ypts, X)
        assert got == _separation_graph(ypts, X), X.points
        edges += sum(a.bit_count() for a in got)
    assert edges > 0


BOX_SEARCHES = [
    (("simplex", 2), ((-3, -3), (3, 3))),
    (("simplex", 3), ((-1,) * 3, (1,) * 3)),
    (("even", 2), ((-1, -1), (2, 2))),
    (("even", 3), ((-1,) * 3, (1,) * 3)),
    (("cube", 2), ((-1, -1), (2, 2))),
    (("diff", 2, 2), ((-1,) * 4, (1,) * 4)),
]


@cache
def _cube_subset_answers():
    return [(jeroslow_index(X), conflict_clique_bound(X)) for X in _cube_subsets()]


# sha256 of repr() of each corpus's answers, as written by the pair loops
# that the one conflict graph replaced. "cube subsets" was pinned again
# when strict_separation became the hull LP over conv(C): 12 of its 316
# systems pick other valid rows. Their indices and clique sizes alone
# ("cube subset sizes") kept the digest of the code before.
CONFLICT_DIGESTS = {
    "cube subsets": (
        _cube_subset_answers,
        "e7130f384872ebd00cd3bda863d49f4c2c5a254a22d8f73590f067c530ffbfdd"),
    "cube subset sizes": (
        lambda: [(k, clique) for (k, _), clique in _cube_subset_answers()],
        "a221ae88dcfc5dc54dc4300e5d259c3f888e58e0de788976c99e60ce6fbaf15b"),
    "parity": (
        lambda: [jeroslow_index(even(d)) for d in (2, 3, 4)]
        + [conflict_clique_bound(even(5))],
        "22d26bb7ad81e92c5b2f7700fa5aab9deff9841dd0996c319bdf7da35005aade"),
    "box searches": (
        lambda: [(size, W.points) for size, W in
                 (max_hiding_in_box(generate(*f), box) for f, box in BOX_SEARCHES)],
        "b11f8d0f76cd69e0dc6ec7fe416fc509b9df78d5f7496c034ec464bfe93d9d3f"),
}


@pytest.mark.parametrize("corpus", list(CONFLICT_DIGESTS))
def test_conflict_answers_match_digest(corpus):
    answers, digest = CONFLICT_DIGESTS[corpus]
    assert hashlib.sha256(repr(answers()).encode()).hexdigest() == digest


class TestBuildBinaryRelaxation:
    def test_xor_pair(self):
        X = even(2)
        P = build_binary_relaxation(X)
        assert len(P.constraints) == 5
        h = P.constraints[0]
        assert (h.a, h.sense, h.rhs) == ((1, -1), ">=", 0)
        rep = verify_relaxation(P, X)
        assert rep.status == "verified" and rep.lattice_count == 2

    def test_full_cube_collapses_to_cube_rows(self):
        for d in (1, 2, 3):
            P = build_binary_relaxation(cube(d))
            assert P.constraints == build_cube_relaxation(d).constraints

    def test_with_computed_system(self):
        X = even(3)
        _, system = jeroslow_index(X)
        P = HPolyhedron(3, system.halfspaces + build_cube_relaxation(3).constraints)
        assert len(P.constraints) == 8
        assert verify_relaxation(P, X).status == "verified"

    def test_composition_over_random_sets(self):
        rng = random.Random(20240811)
        for _ in range(6):
            pts = [p for p in CUBE3 if rng.random() < 0.5]
            if not pts:
                continue
            X = PointSet(3, pts)
            assert verify_relaxation(build_binary_relaxation(X), X).status == "verified"

    def test_rejects_bad_systems(self):
        # the re-check jeroslow_index and rationalize_halfspace run on their rows
        pts, ypts = even(2).points, [(0, 1), (1, 0)]
        for row, message in [
                (Halfspace((1, 0), "<=", -1), "row 0 cuts off the kept point (0, 0)"),
                (Halfspace((1, 0), "<=", 2), "excluded point (0, 1) satisfies every row"),
                (Halfspace((1, 0, 0), "<=", 0), "row 0 has dimension 3, expected 2")]:
            with pytest.raises(RuntimeError) as got:
                separation._validate_system([row], pts, ypts, 2)
            assert str(got.value) == message

    def test_empty(self):
        with pytest.raises(EmptySet):
            build_binary_relaxation(PointSet(2, []))


class TestRationalizeHalfspace:
    def test_triangle(self):
        h = rationalize_halfspace(TRI)
        assert h is not None
        for x in TRI:
            assert vdot(h.a, x) <= h.rhs
        assert vdot(h.a, (1, 1)) >= h.rhs + 1

    def test_xor_is_not_induced(self):
        assert rationalize_halfspace(even(2)) is None
        assert rationalize_halfspace(even(3)) is None

    def test_weight_cap(self):
        X = PointSet(3, [p for p in CUBE3 if sum(p) <= 1])
        h = rationalize_halfspace(X)
        assert h is not None
        for z in CUBE3:
            assert (vdot(h.a, z) <= h.rhs) == (sum(z) <= 1)

    def test_matches_strict_separation(self):
        for mask in range(1, 16):
            pts = [p for i, p in enumerate(product((0, 1), repeat=2))
                   if mask >> i & 1]
            X = PointSet(2, pts)
            rest = [p for p in product((0, 1), repeat=2) if p not in set(pts)]
            got = rationalize_halfspace(X)
            want = strict_separation(X, rest)
            assert (got is None) == (want is None)

    def test_empty(self):
        with pytest.raises(EmptySet):
            rationalize_halfspace(PointSet(2, []))


# every valid report size up to two past each family's floor limit
FLOOR_SIZES = {
    "stsp": [(n,) for n in (4, 6, 8, 10)],
    "atsp": [(n,) for n in (4, 6, 8, 10)],
    "conn": [(n,) for n in (4, 6, 8)],
    "spt": [(n,) for n in (4, 6, 8)],
    "arb": [(n,) for n in (4, 6)],
    "diff": [(2, n) for n in range(1, 7)],
    "perm": [(n,) for n in range(4, 9)],
    "even": [(n,) for n in range(2, 9)],
    "tjoins": [(n, T) for n in (2, 4, 6, 8)
               for T in ((), (1, 2), (2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6))
               if max(T, default=0) <= n],
}


class TestBoundReport:
    def test_tour_families(self):
        r = bound_report("stsp", 8)
        assert (r.lower_bound, r.upper_bound) == (4, 191)
        assert r.lower_certified and not r.upper_certified
        r = bound_report("stsp", 6)
        assert (r.lower_bound, r.upper_bound) == (2, 67)
        assert r.lower_certified and r.upper_certified
        r = bound_report("atsp", 4)
        assert (r.lower_bound, r.upper_bound) == (1, 46)
        assert r.lower_certified and r.upper_certified

    def test_connected_and_trees(self):
        r = bound_report("conn", 4)
        assert (r.lower_bound, r.upper_bound) == (1, 19)
        assert r.lower_certified and r.upper_certified
        r = bound_report("spt", 4)
        assert (r.lower_bound, r.upper_bound) == (1, 55)
        assert r.lower_certified and r.upper_certified
        r = bound_report("arb", 4)
        assert (r.lower_bound, r.upper_bound) == (1, 4045)
        assert r.lower_certified and not r.upper_certified

    def test_distinct_blocks(self):
        r = bound_report("diff", 2, 2)
        assert (r.lower_bound, r.upper_bound) == (4, 9)
        assert r.lower_certified and r.upper_certified
        with pytest.raises(ValueError):
            bound_report("diff", 3, 2)

    @pytest.mark.parametrize("args", [("even", 3), ("spt", 4), ("diff", 2, 2),
                                      ("tjoins", 4, (1, 2)), ("stsp", 6)])
    def test_certified_ceiling_is_the_verified_row_count(self, monkeypatch, args):
        # a closed-form count that disagrees with the built system is refused
        spec = separation._REPORTS[args[0]]
        rows = spec.rows
        monkeypatch.setitem(separation._REPORTS, args[0], dataclasses.replace(
            spec, rows=lambda *a, **k: rows(*a, **k) + 1))
        with pytest.raises(RuntimeError,
                           match="^certified ceiling .* rows verified$"):
            bound_report(*args)

    @pytest.mark.parametrize("family", ["stsp", "atsp", "conn", "perm"])
    def test_closed_form_rows_are_the_built_rows(self, family):
        spec = separation._REPORTS[family]
        for n in range(4, 13):
            assert spec.rows(n=n) == len(spec.build(n=n).constraints), n

    @pytest.mark.parametrize("args", [
        *[("spt", 4), ("arb", 4)],
        *[("diff", 2, n) for n in (1, 2, 3)],
        *[("even", n) for n in range(2, 7)],
        *[("tjoins", 4, T) for T in ((), (1, 2), (1, 2, 3, 4))],
    ], ids=str)
    def test_closed_form_rows_are_the_per_point_rows(self, args):
        # every certified size, and arb 4, whose system is built but too
        # large to verify by default
        spec = separation._REPORTS[args[0]]
        pdict = spec.parse(*args[1:])
        assert spec.build is None
        P = build_binary_relaxation(generate(*args))
        assert spec.rows(**pdict) == len(P.constraints)

    @pytest.mark.parametrize("family, rows", [
        ("stsp", 524687), ("atsp", 1049374), ("conn", 524667)])
    def test_ceiling_past_its_limit_is_counted_not_built(self, family, rows):
        with deadline(1):
            r = bound_report(family, 20)
        assert r.upper_bound == rows and not r.upper_certified
        assert "ceiling carries the row count only at this size" in r.notes

    @pytest.mark.parametrize("args", [("even", 3), ("spt", 4), ("diff", 2, 2),
                                      ("tjoins", 4, (1, 2)), ("stsp", 6), ("perm", 4)])
    def test_certified_floor_is_the_verified_point_count(self, monkeypatch, args):
        # a closed-form count that disagrees with the built hiding set is refused
        spec = separation._REPORTS[args[0]]
        floor = spec.floor

        @wraps(floor)  # the arity check reads floor's signature
        def more(**params):
            points, d, source = floor(**params)
            return points + 1, d, source

        monkeypatch.setitem(separation._REPORTS, args[0],
                            dataclasses.replace(spec, floor=more))
        with pytest.raises(RuntimeError,
                           match="^certified floor .* points in dimension .* verified$"):
            bound_report(*args)

    @pytest.mark.parametrize("family", list(FLOOR_SIZES))
    def test_closed_form_floor_is_the_built_hiding_set(self, family):
        # every valid size up to two past the floor limit
        assert set(FLOOR_SIZES) == set(separation._REPORTS)
        spec = separation._REPORTS[family]
        for args in FLOOR_SIZES[family]:
            pdict = spec.parse(*args)
            H = spec.hiding(**pdict)
            assert spec.floor(**pdict)[:2] == (len(H), H.dim), args
        assert pdict["n"] in (spec.limits[0] + 1, spec.limits[0] + 2)

    @pytest.mark.parametrize("args", FLOOR_SIZES["tjoins"], ids=str)
    def test_tjoin_floor_names_both_part_sizes(self, args):
        H1, H2 = build_tjoin_hiding(*args)
        _, _, source = separation._REPORTS["tjoins"].floor(*args)
        assert source == (f"larger of two matching-union families "
                          f"({len(H1)} and {len(H2)} points)")

    def test_floor_past_its_limit_is_counted_not_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a hiding set was built past its limit")

        monkeypatch.setattr(separation, "build_tsp_hiding", refuse)
        with deadline(1):
            r = bound_report("stsp", 40)
        assert (r.lower_bound, r.upper_bound) == (2**18, 1600 + 2**39 - 1)
        assert r.lower_source == "262144 even-pattern cycle-pair points (N = 19)"
        assert not r.lower_certified
        assert "floor carries the construction count only at this size" in r.notes

    @pytest.mark.parametrize("args", [("perm", 4), ("even", 5), ("diff", 2, 3)])
    def test_ceiling_certified_without_lp(self, monkeypatch, args):
        # the propagated box bounds the permutahedron and the sawtooth rows
        calls = []
        for module in (relaxations, linprog):
            def counted(*args, _solve=module._solve, **kwargs):
                calls.append(_solve(*args, **kwargs))
                return calls[-1]
            monkeypatch.setattr(module, "_solve", counted)
        assert bound_report(*args).upper_certified
        assert calls == []

    def test_permutations(self):
        r = bound_report("perm", 4)
        assert (r.lower_bound, r.upper_bound) == (6, 19)
        assert r.lower_certified and r.upper_certified

    def test_parity(self):
        r = bound_report("even", 6)
        assert (r.lower_bound, r.upper_bound) == (32, 39)
        assert r.lower_certified and r.upper_certified

    def test_parity_degenerate_size_stays_uncertified(self, monkeypatch):
        # a construction that fails verification keeps its floor but never
        # certifies it: at n = 2 the two odd points leave aff(even(2))
        monkeypatch.setattr("rcx.separation.build_parity_hiding", odd)
        r = bound_report("even", 2)
        assert r.lower_bound == 2 and not r.lower_certified
        assert any("outside_affine_hull" in s for s in r.notes)
        assert r.upper_certified and r.upper_bound == 5
        monkeypatch.undo()
        # the real construction uses the flanking diagonal points instead
        r = bound_report("even", 2)
        assert (r.lower_bound, r.upper_bound) == (2, 5)
        assert r.lower_certified and r.upper_certified
        assert not any("hiding verification failed" in s for s in r.notes)

    def test_tjoins(self):
        r = bound_report("tjoins", 4, ())
        assert (r.lower_bound, r.upper_bound) == (2, 63)
        assert r.lower_certified and r.upper_certified
        r = bound_report("tjoins", 8, (1, 2, 3, 4))
        assert (r.lower_bound, r.upper_bound) == (2, 266338333)
        assert not r.lower_certified and not r.upper_certified

    def test_box_search_cannot_beat_parity(self):
        r = bound_report("even", 3, box=((0, 0, 0), (1, 1, 1)))
        assert r.lower_bound == 4 and r.lower_certified
        assert any("nothing larger" in s for s in r.notes)

    def test_box_search_beats_a_weak_construction(self, monkeypatch):
        # two odd points are a valid but small hiding set for even(3); the
        # box search finds all four and certifies them
        monkeypatch.setattr(separation, "build_parity_hiding",
                            lambda n: PointSet(3, [(1, 0, 0), (0, 1, 0)]))
        # the floor count is checked against the built set, so it says 2 too
        spec = separation._REPORTS["even"]
        monkeypatch.setitem(separation._REPORTS, "even", dataclasses.replace(
            spec, floor=lambda n: (2, 3, "the 2 odd-weight points")))
        r = bound_report("even", 3, box=((0, 0, 0), (1, 1, 1)))
        assert r.lower_bound == 4 and r.lower_certified
        assert r.lower_source == "box search clique of 4 points"
        assert "box search beat the construction floor" in r.notes

    def test_box_search_skipped_past_the_limits(self):
        r = bound_report("even", 7, box=((0,) * 7, (1,) * 7))
        assert not r.lower_certified and not r.upper_certified
        assert r.notes[-1] == "box search skipped: family too large to enumerate here"

    def test_failed_ceiling_is_noted(self, monkeypatch):
        # with node 1's degree equality (row 30) weakened to x(delta(1)) >= 2,
        # the 67 subtour rows of stsp 6 admit an extra lattice point: two
        # cycles through node 1
        def weakened(n, directed):
            P = build(n, directed)
            rows = list(P.constraints)
            assert (rows[30].sense, rows[30].rhs) == ("=", 2)
            rows[30] = Halfspace(rows[30].a, ">=", 2)
            return linprog.HPolyhedron(P.dim, rows)

        build = separation.build_subtour_relaxation
        monkeypatch.setattr(separation, "build_subtour_relaxation", weakened)
        r = bound_report("stsp", 6)
        assert r.upper_bound == 67 and not r.upper_certified
        assert r.lower_certified
        failed = [s for s in r.notes if "relaxation verification failed" in s]
        assert len(failed) == 1
        assert failed[0].startswith("stsp: relaxation verification failed "
                                    "(('extra_lattice_point', ")

    def test_floor_never_above_certified_ceiling(self):
        for fam, args in (("stsp", (6,)), ("atsp", (4,)), ("conn", (4,)),
                          ("spt", (4,)), ("diff", (2, 2)), ("perm", (4,)),
                          ("even", (4,)), ("tjoins", (4, ()))):
            r = bound_report(fam, *args)
            assert r.lower_bound <= r.upper_bound

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            bound_report("forests", 4)
        with pytest.raises(ValueError):
            bound_report("stsp", 7)

    def test_certified_crossing_is_rejected(self):
        with pytest.raises(RuntimeError):
            RcBoundReport("even", {"n": 3}, 9, "floor", True,
                          8, "ceiling", True, ())


@pytest.mark.parametrize("call, message", [
    (lambda: separation._cube_points([]),
     "cannot infer the dimension of an empty plain list"),
    (lambda: separation._cube_points([(0, 1), (1,)]), "point (1,) has the wrong dimension"),
    (lambda: jeroslow_index(even(2), max_complement=0),
     "complement budget must be between 1 and 20"),
    (lambda: jeroslow_index(even(2), max_complement=21),
     "complement budget must be between 1 and 20"),
    (lambda: separation._diff_params(2, 0), "need n >= 1"),
    # the whole-cube intake: no points is refused before the cube's cap
    (lambda: build_binary_relaxation(PointSet(23, [])), "need at least one point to relax"),
    (lambda: rationalize_halfspace(PointSet(23, [])), "need at least one point to separate"),
    (lambda: build_binary_relaxation(PointSet(23, [(0,) * 23])),
     "cube(23): 8388608 candidates exceed the cap of 4194304"),
    (lambda: rationalize_halfspace(PointSet(23, [(0,) * 23])),
     "cube(23): 8388608 candidates exceed the cap of 4194304"),
], ids=["empty-list", "point-length", "budget0", "budget21", "diff-n0",
        "relax-empty", "separate-empty", "relax-cube-cap", "separate-cube-cap"])
def test_input_guards(call, message):
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == message
