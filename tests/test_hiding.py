"""Hiding-set constructions and the exact certificate checker."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from rcx import hiding
from rcx.errors import DimMismatch, EmptySet
from rcx.families import PointSet, atsp, arb, cube, diff, even, odd, perm, simplex, spt, stsp, tjoins
from rcx.hiding import (
    build_arb_hiding,
    build_diff_hiding,
    build_parity_hiding,
    build_perm_hiding,
    build_tjoin_hiding,
    build_tsp_hiding,
    cycle_pair_arcs,
    flip_pair,
    max_hiding_in_box,
    verify_hiding,
)
from rcx.linprog import conv_membership
from rcx.rational import affine_hull, in_affine_hull

FIG_TRIANGLE = [(1, 1), (-1, 1), (1, -1)]


def walk(succ, start):
    seen = []
    node = start
    while node in succ and node not in seen:
        seen.append(node)
        node = succ[node]
    return seen, node


class TestCyclePairArcs:
    def test_spot_check(self):
        arcs = cycle_pair_arcs(5, (0, 1, 0, 0, 1))
        for arc in [(6, 1), (12, 7), (2, 9), (8, 3), (5, 12), (11, 6)]:
            assert arc in arcs
        assert len(arcs) == 12
        assert len(set(arcs)) == 12

    def test_counts_and_degrees(self):
        for N in range(1, 5):
            for b in product((0, 1), repeat=N):
                arcs = cycle_pair_arcs(N, b)
                assert len(arcs) == 2 * (N + 1)
                assert sorted(u for u, _ in arcs) == list(range(1, 2 * N + 3))
                assert sorted(v for _, v in arcs) == list(range(1, 2 * N + 3))
                assert len(cycle_pair_arcs(N, b, drop_return_arc=True)) == 2 * N + 1

    def test_hamiltonian_iff_odd(self):
        for N in range(1, 4):
            for b in product((0, 1), repeat=N):
                succ = dict(cycle_pair_arcs(N, b))
                seen, back = walk(succ, 1)
                single = back == 1 and len(seen) == 2 * (N + 1)
                assert single == (sum(b) % 2 == 1)

    def test_dropped_arc_leaves_cycle_plus_path(self):
        # even pattern: disjoint cycle + path; odd: one spanning path
        for N in range(1, 4):
            for b in product((0, 1), repeat=N):
                succ = dict(cycle_pair_arcs(N, b, drop_return_arc=True))
                path, end = walk(succ, N + 2)
                covered = path + [end]
                assert end == 2 * N + 2  # the de-tailed node ends the path
                if sum(b) % 2 == 1:
                    assert len(covered) == 2 * (N + 1)
                else:
                    assert len(covered) < 2 * (N + 1)
                    rest = set(range(1, 2 * N + 3)) - set(covered)
                    cyc, back = walk(succ, min(rest))
                    assert set(cyc) == rest and back == min(rest)

    def test_bad_pattern_length(self):
        with pytest.raises(DimMismatch):
            cycle_pair_arcs(2, (0, 1, 1))


class TestFlipPair:
    def test_explicit(self):
        assert flip_pair((0, 0), (1, 1)) == ((1, 0), (0, 1), 0)
        assert flip_pair((1, 1, 0, 0), (1, 1, 1, 1)) == ((1, 1, 1, 0), (1, 1, 0, 1), 2)

    def test_pairing_identity(self):
        for N in range(1, 4):
            evens = [b for b in product((0, 1), repeat=N) if sum(b) % 2 == 0]
            for b, bp in combinations(evens, 2):
                c, cp, j = flip_pair(b, bp)
                assert b[j] != bp[j]
                assert sum(c) % 2 == 1 and sum(cp) % 2 == 1
                lhs = Counter(cycle_pair_arcs(N, b)) + Counter(cycle_pair_arcs(N, bp))
                rhs = Counter(cycle_pair_arcs(N, c)) + Counter(cycle_pair_arcs(N, cp))
                assert lhs == rhs


class TestTspHiding:
    def test_shapes(self):
        for N in (1, 2, 3):
            n = 2 * (N + 1)
            H = build_tsp_hiding(N)
            assert len(H) == 2 ** (N - 1)
            assert H.dim == n * (n - 1)
            U = build_tsp_hiding(N, directed=False)
            assert U.dim == n * (n - 1) // 2
            peak = max(max(p) for p in U.points)
            assert peak == (2 if N == 1 else 1)
        assert len(build_tsp_hiding(3)) == 4

    def test_certificates_directed(self):
        cert = verify_hiding(build_tsp_hiding(1), atsp(4))
        assert cert.valid and cert.bound == 1 and cert.rc_lower_bound == 1
        cert = verify_hiding(build_tsp_hiding(2), atsp(6))
        assert cert.valid and cert.bound == 2

    def test_certificates_undirected(self):
        cert = verify_hiding(build_tsp_hiding(1, directed=False), stsp(4))
        assert cert.valid and cert.bound == 1
        cert = verify_hiding(build_tsp_hiding(2, directed=False), stsp(6))
        assert cert.valid and cert.bound == 2


class TestArbHiding:
    def test_shapes(self):
        assert len(build_arb_hiding(2)) == 2
        for p in build_arb_hiding(2).points:
            assert sum(p) == 5 and set(p) <= {0, 1}

    def test_certificates(self):
        cert = verify_hiding(build_arb_hiding(1), arb(4))
        assert cert.valid and cert.bound == 1
        cert = verify_hiding(build_arb_hiding(1, directed=False), spt(4))
        assert cert.valid and cert.bound == 1


class TestDiffHiding:
    def test_line_case(self):
        H = build_diff_hiding(1)
        assert H.points == [(-1, 2), (2, -1)]
        cert = verify_hiding(H, diff(2, 1))
        assert cert.valid and cert.bound == 2

    def test_duplicated_blocks(self):
        H = build_diff_hiding(2)
        assert H.points == [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)]
        cert = verify_hiding(H, diff(2, 2))
        assert cert.valid and cert.bound == 4

    def test_midpoint_identity(self):
        n = 3
        for x, y in combinations(list(product((0, 1), repeat=n)), 2):
            left = tuple(a + b for a, b in zip(x + x, y + y))
            right = tuple(a + b for a, b in zip(x + y, y + x))
            assert left == right


class TestPermHiding:
    def test_frozen_n4(self):
        H = build_perm_hiding(4)
        assert H.points == [
            (1, 1, 4, 4), (1, 4, 1, 4), (1, 4, 4, 1),
            (4, 1, 1, 4), (4, 1, 4, 1), (4, 4, 1, 1),
        ]

    def test_sum_and_violation(self):
        for n in (4, 5, 6):
            m = n // 2
            H = build_perm_hiding(n)
            assert len(H) == len(list(combinations(range(n), m)))
            seen_S = set()
            for p in H.points:
                assert sum(p) == n * (n + 1) // 2
                S = tuple(sorted(range(n), key=lambda i: p[i])[:m])
                seen_S.add(S)
                # undershoots its own subset-sum bound by exactly one
                assert sum(p[i] for i in S) == m * (m + 1) // 2 - 1
            assert len(seen_S) == len(H)

    def test_certificate(self):
        cert = verify_hiding(build_perm_hiding(4), perm(4))
        assert cert.valid and cert.bound == 6

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_perm_hiding(3)


class TestTjoinHiding:
    def test_frozen_n8(self):
        H1, H2 = build_tjoin_hiding(8, (1, 2, 3, 4))
        assert len(H1) == 2 and len(H2) == 2
        assert H1.dim == 28
        zero = (0,) * 28
        assert zero in H1.points

    def test_empty_terminals_drops_joins(self):
        H1, H2 = build_tjoin_hiding(4, ())
        # the all-zero union is itself an empty-set join, so H1 takes no pattern
        assert len(H1) == 0
        assert len(H2) == 2
        cert = verify_hiding(H2, tjoins(4, ()))
        assert cert.valid and cert.bound == 2

    def test_certificates_n6(self):
        X = tjoins(6, (1, 2, 3, 4))
        H1, H2 = build_tjoin_hiding(6, (1, 2, 3, 4))
        assert len(H1) == 2 and len(H2) == 1
        c1 = verify_hiding(H1, X)
        assert c1.valid and c1.bound == 2
        c2 = verify_hiding(H2, X)
        assert c2.valid and c2.bound == 1

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_no_point_is_a_tjoin(self, n):
        # read off each point's edges: the nodes of odd degree are never T
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]

        def odd_nodes(vec):
            degree = Counter(w for e, x in zip(pairs, vec) if x % 2 for w in e)
            return tuple(sorted(w for w, c in degree.items() if c % 2))

        for size in range(0, n + 1, 2):
            for T in combinations(range(1, n + 1), size):
                H1, H2 = build_tjoin_hiding(n, T)
                k, l = size // 2, (n - size) // 2
                assert (len(H1), len(H2)) == (2**k // 2, 2**l // 2), T
                assert all(odd_nodes(p) != T for p in H1.points + H2.points), T

    def test_parity_errors(self):
        with pytest.raises(Exception):
            build_tjoin_hiding(5, ())
        with pytest.raises(Exception):
            build_tjoin_hiding(6, (1, 2, 3))


class TestParityHiding:
    def test_matches_odd(self):
        assert build_parity_hiding(3).points == odd(3).points

    def test_certificates(self):
        for n in (3, 4):
            cert = verify_hiding(build_parity_hiding(n), even(n))
            assert cert.valid and cert.bound == 2 ** (n - 1)

    def test_two_dim_flanking_points(self):
        H = build_parity_hiding(2)
        assert H.points == [(-1, -1), (2, 2)]
        cert = verify_hiding(H, even(2))
        assert cert.valid and cert.bound == 2
        with pytest.raises(ValueError):
            build_parity_hiding(1)

    def test_two_dim_degenerate(self):
        # even(2) spans only the diagonal, so odd(2) fails the hull test
        cert = verify_hiding(odd(2), even(2))
        assert not cert.valid
        assert cert.failure[0] == "outside_affine_hull"
        assert cert.rc_lower_bound is None


class TestVerifyHiding:
    def test_triangle_bound_three(self):
        cert = verify_hiding(PointSet(2, FIG_TRIANGLE), simplex(2))
        assert cert.valid and cert.bound == 3
        assert cert.failure is None
        assert len(cert.pair_results) == 3
        assert all(hit for _, hit in cert.pair_results)
        assert cert.x_digest == simplex(2).digest()

    def test_segment_miss(self):
        cert = verify_hiding(PointSet(2, [(1, 1), (2, 2)]), simplex(2))
        assert not cert.valid
        assert cert.failure == ("segment_misses", ((1, 1), (2, 2)))

    def test_inside_hull(self):
        cert = verify_hiding(PointSet(2, [(0, 0), (2, -1)]), simplex(2))
        assert not cert.valid
        assert cert.failure == ("inside_hull", (0, 0))

    def test_not_integral(self):
        H = PointSet(2, [(Fraction(1, 2), 0)], validate=False)
        cert = verify_hiding(H, simplex(2))
        assert not cert.valid
        assert cert.failure[0] == "not_integral"

    def test_errors(self):
        with pytest.raises(DimMismatch):
            verify_hiding(PointSet(1, [(0,)]), simplex(2))
        with pytest.raises(EmptySet):
            verify_hiding(PointSet(2, [(5, 5)]), PointSet(2, []))


class TestMaxHiding:
    def test_unit_square_empty(self):
        size, witness = max_hiding_in_box(cube(2), ((0, 0), (1, 1)))
        assert size == 0 and len(witness) == 0

    def test_even3_unit_box(self):
        size, witness = max_hiding_in_box(even(3), ((0, 0, 0), (1, 1, 1)))
        assert size == 4
        assert witness.points == odd(3).points

    def test_simplex_small_box(self):
        size, witness = max_hiding_in_box(simplex(2), ((-1, -1), (1, 1)))
        assert size == 3
        assert verify_hiding(witness, simplex(2)).valid

    @pytest.mark.parametrize("X, box", [
        (simplex(2), ((-3, -3), (3, 3))),
        (even(3), ((-1, -1, -1), (2, 2, 2))),
        (perm(4), ((1, 1, 1, 1), (4, 4, 4, 4))),
        (PointSet(2, [(0, 0), (2, 1)]), ((-4, -4), (4, 4))),  # a line
        (PointSet(3, [(1, 2, 3)]), ((0, 0, 0), (2, 2, 3))),     # a point
    ], ids=["simplex2", "even3", "perm4", "line", "point"])
    def test_candidates_are_box_points_in_aff_outside_conv(self, monkeypatch, X, box):
        # the scan over aff(X)'s equations keeps the old filter's points, in order
        seen = []
        graph = hiding._conflict_graph
        monkeypatch.setattr(hiding, "_conflict_graph",
                            lambda pts, X: seen.append(pts) or graph(pts, X))
        max_hiding_in_box(X, box)
        hull = affine_hull(X.points)
        want = [p for p in product(*(range(a, b + 1) for a, b in zip(*box)))
                if in_affine_hull(p, hull) and not conv_membership(p, X)[0]]
        assert seen == [want]

    def test_malformed_box_fails_before_the_hull(self, monkeypatch):
        monkeypatch.setattr(hiding, "affine_hull", None)  # a call would be a TypeError
        with pytest.raises(ValueError, match=r"^empty range \[2, 1\]$"):
            max_hiding_in_box(simplex(2), ((2, 0), (1, 1)))
        with pytest.raises(DimMismatch, match="^bound vectors of different lengths$"):
            max_hiding_in_box(simplex(2), ((0, 0), (1,)))
        with pytest.raises(DimMismatch, match="^box dimension does not match point set$"):
            max_hiding_in_box(simplex(2), ((0,), (1,)))

    def test_guards(self):
        from rcx.errors import TooLarge

        with pytest.raises(TooLarge):
            max_hiding_in_box(simplex(2), ((-3, -3), (3, 3)), max_candidates=4)
        with pytest.raises(DimMismatch):
            max_hiding_in_box(simplex(2), ((0,), (1,)))
