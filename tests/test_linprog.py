import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, count, permutations, product

import pytest

from rcx import LatticeBox, bounding_box, linprog
from rcx.errors import DimMismatch, EmptySet
from rcx.families import PointSet, generate
from rcx.hiding import build_perm_hiding, build_tsp_hiding
from rcx.linprog import (
    Halfspace,
    HPolyhedron,
    conv_membership,
    recession_nontrivial,
    segment_hits_hull,
    solve_lp,
    strict_separation,
)
from rcx.separation import rationalize_halfspace

F = Fraction


def box(d, lo=0, hi=1):
    rows = []
    for k in range(d):
        e = tuple(int(j == k) for j in range(d))
        rows.append(Halfspace(e, "<=", hi))
        rows.append(Halfspace(e, ">=", lo))
    return HPolyhedron(d, rows)


def test_halfspace_basics():
    h = Halfspace((1, -2), "<=", F(3, 2))
    assert h.satisfied_by((0, 0))
    assert not h.satisfied_by((4, 0))
    with pytest.raises(DimMismatch):
        h.satisfied_by((1,))  # no truncating zip
    with pytest.raises(ValueError):
        Halfspace((0, 0), "<=", 1)
    with pytest.raises(ValueError):
        Halfspace((0, 0), "=", 1)
    Halfspace((0, 0), "=", 0)  # the only admissible zero row
    with pytest.raises(ValueError):
        Halfspace((1, 0), "<", 1)
    with pytest.raises(TypeError):
        Halfspace((1.5, 0), "<=", 1)


def test_polyhedron_dim_checks():
    with pytest.raises(DimMismatch):
        HPolyhedron(3, [Halfspace((1, 0), "<=", 1)])
    P = box(2)
    assert P.contains((1, 0))
    assert not P.contains((2, 0))


def test_lp_interval_max():
    P = box(1)
    out = solve_lp(P, (1,), maximize=True)
    assert out.status == "optimal"
    assert out.value == 1
    assert out.point == (1,)
    # dual puts weight 1 on the x <= 1 row
    assert out.dual == (1, 0)


def test_lp_interval_min():
    out = solve_lp(box(1), (1,), maximize=False)
    assert out.status == "optimal"
    assert out.value == 0
    assert out.point == (0,)
    assert out.dual == (0, 1)


def test_lp_unbounded_ray():
    P = HPolyhedron(1, [Halfspace((1,), ">=", 0)])
    out = solve_lp(P, (1,), maximize=True)
    assert out.status == "unbounded"
    assert out.ray == (1,)
    assert P.contains(out.point)


def test_lp_infeasible_farkas():
    P = HPolyhedron(1, [Halfspace((1,), "<=", 0), Halfspace((1,), ">=", 1)])
    out = solve_lp(P, (1,), maximize=True)
    assert out.status == "infeasible"
    y = out.farkas
    assert y[0] >= 0 and y[1] <= 0
    assert y[0] * 1 + y[1] * 1 == 0
    assert y[0] * 0 + y[1] * 1 < 0


def rado3():
    # permutations of (1,2,3): fixed total, lower bounds on subset sums
    rows = [Halfspace((1, 1, 1), "=", 6)]
    for S in [(0,), (1,), (2,)]:
        a = tuple(int(j in S) for j in range(3))
        rows.append(Halfspace(a, ">=", 1))
    for S in [(0, 1), (0, 2), (1, 2)]:
        a = tuple(int(j in S) for j in range(3))
        rows.append(Halfspace(a, ">=", 3))
    for k in range(3):
        rows.append(Halfspace(tuple(int(j == k) for j in range(3)), ">=", 0))
    return HPolyhedron(3, rows)


def test_lp_over_permutation_hull():
    # oracle: enumerate all six permutations
    best = max(p[0] + p[1] for p in permutations((1, 2, 3)))
    assert best == 5
    out = solve_lp(rado3(), (1, 1, 0), maximize=True)
    assert out.status == "optimal"
    assert out.value == 5


def test_lp_degenerate_classic():
    # a textbook cycling example; Bland's rule must terminate at 1/20
    P = HPolyhedron(
        4,
        [
            Halfspace((F(1, 4), -60, F(-1, 25), 9), "<=", 0),
            Halfspace((F(1, 2), -90, F(-1, 50), 3), "<=", 0),
            Halfspace((0, 0, 1, 0), "<=", 1),
            Halfspace((1, 0, 0, 0), ">=", 0),
            Halfspace((0, 1, 0, 0), ">=", 0),
            Halfspace((0, 0, 1, 0), ">=", 0),
            Halfspace((0, 0, 0, 1), ">=", 0),
        ],
    )
    out = solve_lp(P, (F(3, 4), -150, F(1, 50), -6), maximize=True)
    assert out.status == "optimal"
    assert out.value == F(1, 20)


def test_lp_equality_duals():
    P = HPolyhedron(2, [Halfspace((1, 1), "=", 2),
                        Halfspace((1, 0), ">=", 0),
                        Halfspace((0, 1), ">=", 0)])
    out = solve_lp(P, (1, 0), maximize=True)
    assert out.status == "optimal"
    assert out.value == 2
    assert out.point == (2, 0)


def test_membership_simplex():
    simplex = [(0, 0), (1, 0), (0, 1)]
    inside, mult = conv_membership((F(1, 4), F(1, 4)), simplex)
    assert inside
    assert sum(mult) == 1
    comb = tuple(sum(m * p[k] for m, p in zip(mult, simplex)) for k in range(2))
    assert comb == (F(1, 4), F(1, 4))
    outside, mult = conv_membership((1, 1), simplex)
    assert not outside and mult is None


def test_membership_vertex_and_edge():
    simplex = [(0, 0), (1, 0), (0, 1)]
    assert conv_membership((1, 0), simplex)[0]
    assert conv_membership((F(1, 2), F(1, 2)), simplex)[0]
    assert not conv_membership((F(1, 2), F(3, 4)), simplex)[0]


def test_membership_empty_set():
    assert conv_membership((0,), []) == (False, None)
    assert conv_membership((0, 0), PointSet(2, [])) == (False, None)
    assert segment_hits_hull((0, 0), (1, 1), PointSet(2, [])) == (False, None)


def test_segment_through_hull():
    simplex = [(0, 0), (1, 0), (0, 1)]
    hit, w = segment_hits_hull((1, 1), (-1, -1), simplex)
    assert hit
    assert conv_membership(w, simplex)[0]
    miss, w = segment_hits_hull((1, 1), (2, 2), simplex)
    assert not miss and w is None


def test_segment_degenerate_point():
    simplex = [(0, 0), (1, 0), (0, 1)]
    assert segment_hits_hull((0, 0), (0, 0), simplex) == (True, (0, 0))
    assert segment_hits_hull((1, 1), (1, 1), simplex) == (False, None)


def _kernel_shift(z):
    # (0,0) - (0,1) - (1,0) + (1,1) = 0 on the unit square: keep the sum
    # and the combination, make the first weight negative
    c = z[0] + 1
    return [z[0] - c, z[1] + c, z[2] + c, z[3] - c]


def _shift_weight(z):
    # keep the sum, make the smallest multiplier negative
    i = min(range(len(z) - 1), key=z.__getitem__)
    j = next(k for k in range(len(z) - 1) if k != i)
    z[i] -= 1
    z[j] += 1
    return z


@pytest.mark.parametrize("oracle, tamper", [
    ("segment", lambda z: z[:-1] + [F(2)]),                          # t past the segment
    ("segment", lambda z: [2 * v for v in z[:-1]] + z[-1:]),         # weights sum to 2
    ("segment", _shift_weight),                                      # a negative weight
    ("segment", lambda z: [F(1)] + [F(0)] * (len(z) - 2) + z[-1:]),  # wrong combination
    ("membership", lambda z: [2 * v for v in z]),                    # weights sum to 2
    ("membership", _kernel_shift),               # a negative weight, same combination
    ("membership", lambda z: [F(1)] + [F(0)] * (len(z) - 1)),        # wrong combination
], ids=["t", "sum", "sign", "combination",
        "membership-sum", "membership-sign", "membership-combination"])
def test_segment_rejects_tampered_multipliers(monkeypatch, oracle, tamper):
    # the vertical segment x = 1/2 crosses the unit square, and (1/2, 1/3)
    # lies inside it without being one of its points, so both answers come
    # from the LP; a tampered answer must fail the one-scan certificate check
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]

    def ask():
        if oracle == "segment":
            return segment_hits_hull((F(1, 2), -1), (F(1, 2), 2), square)
        return conv_membership((F(1, 2), F(1, 3)), square)

    assert ask()[0]
    _tampered(monkeypatch, 1, tamper)
    with pytest.raises(RuntimeError, match="internal certificate check failed"):
        ask()


def _tamper_vector(vector, tamper):
    """A core vector (integers, denominator) passed through tamper as the
    Fractions it stands for, then brought back over one denominator."""
    nums, den = vector
    out = [F(v) for v in tamper([F(v, den) for v in nums])]
    den = math.lcm(*(v.denominator for v in out))
    return [int(v * den) for v in out], den


def _tampered(monkeypatch, part, tamper, only=None):
    """Make _solve_standard return its answer with one part (an index into
    the answer tuple) passed through tamper: on every call, or only on
    call number `only`, counted from 0 from now on."""
    solve = linprog._solve_standard
    calls = count()

    def tampered(*args, **kwargs):
        out = solve(*args, **kwargs)
        if only in (None, next(calls)):
            out = list(out)
            out[part] = _tamper_vector(out[part], tamper)
        return tuple(out)

    monkeypatch.setattr(linprog, "_solve_standard", tampered)


# x >= 1 and x <= 0: infeasible; [0, 1]: optimal both ways;
# 0 <= y <= 1 with x >= 0 alone: unbounded along x
INFEASIBLE = HPolyhedron(1, [Halfspace((1,), ">=", 1), Halfspace((1,), "<=", 0)])
STRIP = HPolyhedron(2, [Halfspace((1, 0), ">=", 0), Halfspace((0, 1), ">=", 0),
                        Halfspace((0, 1), "<=", 1)])


def _bump_y(r):
    r[1] += 1  # the ray's y part, so the ray climbs out of 0 <= y <= 1
    return r


@pytest.mark.parametrize("ask, part, tamper, what", [
    (lambda: solve_lp(INFEASIBLE, [1]), 4, lambda y: [-v for v in y], "farkas sign"),
    (lambda: solve_lp(box(1), [1]), 3, lambda y: [-v for v in y], "dual sign"),
    (lambda: solve_lp(box(1), [1], maximize=False), 3, lambda y: [-v for v in y],
     "dual sign"),
    (lambda: solve_lp(box(1), [1]), 3, lambda y: [2 * v for v in y],
     "dual combination equals objective"),
    (lambda: solve_lp(box(1), [1], maximize=False), 3, lambda y: [2 * v for v in y],
     "dual combination equals objective"),
    (lambda: solve_lp(STRIP, [1, 0]), 5, _bump_y, "ray in the recession cone"),
    # no row parts even(2) from odd(2): the hull LP's point of conv(odd)
    # with a weight on (0, 1) past 1 is no point of that hull
    (lambda: strict_separation(generate("even", 2), generate("odd", 2)), 1,
     lambda z: z[:-1] + [z[-1] + 1], "weights on C"),
    # the segment from (1, 1) to (2, 0) misses the triangle: its Farkas
    # vector negated gives a row with C on the wrong side
    (lambda: strict_separation([(0, 0), (1, 0), (0, 1)], [(1, 1), (2, 0)]), 4,
     lambda y: [-v for v in y], "separation gap positive"),
], ids=["farkas-sign", "dual-sign-max", "dual-sign-min", "dual-combination-max",
        "dual-combination-min", "ray", "separation-gap", "separation-farkas"])
def test_lp_rejects_tampered_certificates(monkeypatch, ask, part, tamper, what):
    ask()  # the true answer passes its checks
    _tampered(monkeypatch, part, tamper)
    with pytest.raises(RuntimeError, match=f"internal certificate check failed: {what}"):
        ask()


def test_shared_phase1_rejects_a_tampered_second_objective(monkeypatch):
    # bounding_box prices max x_1, then min x_1, on one tableau after one
    # phase 1 (the rows x_k >= 1 need artificials); the first answer is
    # left alone and passes, the second one's duals are negated
    P = box(2, lo=1, hi=2)
    assert bounding_box(P) == LatticeBox((1, 1), (2, 2))
    _tampered(monkeypatch, 3, lambda y: [-v for v in y], only=1)
    with pytest.raises(RuntimeError, match="internal certificate check failed: dual sign"):
        bounding_box(P)


def test_segment_endpoint_inside():
    sq = [(0, 0), (0, 1), (1, 0), (1, 1)]
    hit, w = segment_hits_hull((F(1, 2), F(1, 2)), (5, 5), sq)
    assert hit


def test_separation_parity_impossible():
    even = [(0, 0), (1, 1)]
    odd = [(0, 1), (1, 0)]
    assert strict_separation(even, odd) is None


def test_separation_gap_normalized():
    h = strict_separation([(0, 0)], [(1, 1)])
    assert h is not None
    assert h.a[0] * 0 + h.a[1] * 0 <= h.rhs
    assert h.a[0] + h.a[1] >= h.rhs + 1


def test_separation_off_the_box_builds_no_tableau(monkeypatch):
    # every coordinate of (2,)*9 lies past cube(9)'s box, so the presolve
    # keeps no point of X and the row is the lift alone, with no LP
    built = []

    class Counting(linprog._Tableau):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(linprog, "_Tableau", Counting)
    h = strict_separation(generate("cube", 9), [(2,) * 9])
    assert built == []
    assert (h.a, h.sense, h.rhs) == ((F(1, 9),) * 9, "<=", 1)


def test_separation_refuses_dimension_0():
    X = PointSet(0, [()])
    for call in (lambda: strict_separation(X, []), lambda: rationalize_halfspace(X)):
        with pytest.raises(ValueError, match="^strict separation needs dimension "
                                             "at least 1, got 0$"):
            call()


def test_separation_empty_sides():
    with pytest.raises(EmptySet):
        strict_separation([], [(1, 1)])
    with pytest.raises(EmptySet):
        strict_separation(PointSet(2, []), [(1, 1)])
    h = strict_separation([(2, 3)], [])
    assert h.satisfied_by((2, 3))
    assert strict_separation([(2, 3)], PointSet(2, [])) == h


def test_recession_box_trivial():
    assert recession_nontrivial(box(3)) == (False, None)


def test_recession_halfline():
    P = HPolyhedron(2, [Halfspace((1, 0), ">=", 0), Halfspace((0, 1), "=", 0)])
    flag, w = recession_nontrivial(P)
    assert flag
    assert w[0] > 0 and w[1] == 0


def test_recession_of_unbounded_relaxed_simplex():
    # x, y >= 0 has recession directions even though it also contains the
    # simplex; this is the shape of a relaxation that forgot its cap row
    P = HPolyhedron(2, [Halfspace((1, 0), ">=", 0), Halfspace((0, 1), ">=", 0)])
    flag, w = recession_nontrivial(P)
    assert flag
    assert all(v >= 0 for v in w) and any(v > 0 for v in w)


def _verify_outcome(P, c, maximize, out):
    # independent replay of the certificate rules
    if out.status == "optimal":
        assert P.contains(out.point)
        assert sum(ci * xi for ci, xi in zip(c, out.point)) == out.value
        comb = [F(0)] * P.dim
        rhs = F(0)
        for h, y in zip(P.constraints, out.dual):
            if h.sense == "<=":
                assert (y >= 0) if maximize else (y <= 0)
            if h.sense == ">=":
                assert (y <= 0) if maximize else (y >= 0)
            comb = [u + y * v for u, v in zip(comb, h.a)]
            rhs += y * h.rhs
        assert comb == [F(v) for v in c]
        assert rhs == out.value
    elif out.status == "infeasible":
        comb = [F(0)] * P.dim
        rhs = F(0)
        for h, y in zip(P.constraints, out.farkas):
            if h.sense == "<=":
                assert y >= 0
            if h.sense == ">=":
                assert y <= 0
            comb = [u + y * v for u, v in zip(comb, h.a)]
            rhs += y * h.rhs
        assert all(v == 0 for v in comb)
        assert rhs < 0
    else:
        assert P.contains(out.point)
        gain = sum(ci * ri for ci, ri in zip(c, out.ray))
        assert gain > 0 if maximize else gain < 0
        for h in P.constraints:
            lhs = sum(ai * ri for ai, ri in zip(h.a, out.ray))
            if h.sense == "<=":
                assert lhs <= 0
            elif h.sense == ">=":
                assert lhs >= 0
            else:
                assert lhs == 0


def test_random_lps_certified():
    rng = random.Random(414243)
    statuses = set()
    for _ in range(150):
        d = rng.randint(1, 3)
        m = rng.randint(1, 5)
        rows = []
        for _ in range(m):
            a = tuple(rng.randint(-3, 3) for _ in range(d))
            if all(v == 0 for v in a):
                a = (1,) + a[1:]
            rows.append(Halfspace(a, rng.choice(["<=", ">=", "="]), rng.randint(-4, 4)))
        P = HPolyhedron(d, rows)
        c = tuple(rng.randint(-3, 3) for _ in range(d))
        maximize = rng.choice([True, False])
        out = solve_lp(P, c, maximize=maximize)
        statuses.add(out.status)
        _verify_outcome(P, c, maximize, out)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_membership_agrees_with_separation():
    rng = random.Random(7)
    for _ in range(60):
        d = rng.randint(1, 3)
        pts = [tuple(rng.randint(0, 2) for _ in range(d))
               for _ in range(rng.randint(1, 5))]
        p = tuple(F(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(d))
        inside, _ = conv_membership(p, pts)
        sep = strict_separation(pts, [p])
        assert inside == (sep is None)


def test_segment_symmetry_and_collapse():
    rng = random.Random(8)
    for _ in range(50):
        d = rng.randint(1, 3)
        pts = [tuple(rng.randint(0, 2) for _ in range(d))
               for _ in range(rng.randint(1, 5))]
        a = tuple(rng.randint(-2, 3) for _ in range(d))
        b = tuple(rng.randint(-2, 3) for _ in range(d))
        hit_ab = segment_hits_hull(a, b, pts)[0]
        hit_ba = segment_hits_hull(b, a, pts)[0]
        assert hit_ab == hit_ba
        assert segment_hits_hull(a, a, pts)[0] == conv_membership(a, pts)[0]


def test_membership_multipliers_cover_square():
    sq = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for p in product((0, F(1, 2), 1), repeat=2):
        inside, mult = conv_membership(p, sq)
        assert inside
        assert sum(mult) == 1 and all(m >= 0 for m in mult)


def _hiding_answers(H, X):
    out = [conv_membership(h, X) for h in H]
    return out + [segment_hits_hull(a, b, X) for a, b in combinations(H.points, 2)]


def _seeded_answers():
    rng = random.Random(6)
    out = []
    for _ in range(400):
        d = rng.randint(1, 3)
        pts = [tuple(rng.randint(-2, 2) for _ in range(d))
               for _ in range(rng.randint(1, 6))]
        X = PointSet(d, pts) if rng.random() < 0.5 else pts

        def probe():
            return tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))

        p = probe()
        out.append(conv_membership(p, X))
        out.append(segment_hits_hull(p, probe(), X))
        out.append(segment_hits_hull(p, p, X))
        out.append(segment_hits_hull(pts[0], probe(), X))
    return out


def _even4_answers():
    X = generate("even", 4)
    odd = list(generate("odd", 4))
    out = [conv_membership(p, X) for p in product((0, F(1, 2), 1), repeat=4)]
    out += [segment_hits_hull(a, b, X) for a, b in combinations(odd, 2)]
    return out + [segment_hits_hull(a, (2, 2, 2, 2), X) for a in odd]


def _simplex2_answers():
    X = generate("simplex", 2)
    box = list(product(range(-1, 3), repeat=2))
    out = [conv_membership(p, X) for p in box]
    return out + [segment_hits_hull(a, b, list(X))
                  for a, b in combinations_with_replacement(box, 2)]


def _simplex3_answers():
    X = generate("simplex", 3)
    box = list(product(range(-1, 2), repeat=3))
    out = [conv_membership(p, X) for p in product((F(-1, 2), 0, F(1, 3), 1), repeat=3)]
    return out + [segment_hits_hull(a, b, X) for a, b in combinations(box, 2)]


# sha256 of repr() of each corpus's answers, as written by the code these
# oracles replaced; repr tells an int from an equal Fraction
ORACLE_DIGESTS = {
    "even4": (_even4_answers,
              "b66b1b146838d8fb0c0f17606d75c8bfde2dafffd1730694852c48d4fdc77e02"),
    "simplex2": (_simplex2_answers,
                 "3db8aab2cee93d909424d1181840ecc4eb3f4f90f4346655ba39f54dfac8e460"),
    "simplex3": (_simplex3_answers,
                 "f71749a5e6608899ed7c4037b8a8f548619c24f9a8d31c335595bcc73b698c72"),
    "seeded": (_seeded_answers,
               "219bf127aad310e86ce945c0890f4cb73ef01424116529af829911c0b9c34906"),
    "perm5": (lambda: _hiding_answers(build_perm_hiding(5), generate("perm", 5)),
              "3abf8864f355baacc576636820300383e9b8b322b09360a036be599073bff234"),
    "stsp8": (lambda: _hiding_answers(build_tsp_hiding(3, directed=False),
                                      generate("stsp", 8)),
              "4723789c703ca7f9eaeea8df7717bc56c4d8ac41d28c696e8dac90ea69b18fef"),
}


@pytest.mark.parametrize("corpus", list(ORACLE_DIGESTS))
def test_hull_oracle_answers_match_digest(corpus):
    answers, digest = ORACLE_DIGESTS[corpus]
    assert hashlib.sha256(repr(answers()).encode()).hexdigest() == digest


@pytest.mark.parametrize("call, error, message", [
    (lambda: HPolyhedron(2, [((1, 0), "<=", 1)]), TypeError,
     "constraints must be Halfspace rows"),
    (lambda: box(2).contains((0, 0, 0)), DimMismatch,
     "point dimension does not match polyhedron"),
    (lambda: solve_lp(box(2), [1]), DimMismatch,
     "objective dimension does not match polyhedron"),
    (lambda: conv_membership((0,), [(0, 0), (1, 1)]), DimMismatch,
     "point dimension does not match point set"),
    (lambda: segment_hits_hull((0, 0), (1,), [(0, 0), (1, 1)]), DimMismatch,
     "segment endpoints do not match point set dimension"),
    (lambda: strict_separation([(0, 0)], [(1, 1, 1)]), DimMismatch,
     "point sets of different dimensions"),
], ids=["row-type", "contains", "objective", "membership", "segment", "separation"])
def test_input_guards(call, error, message):
    with pytest.raises(error) as got:
        call()
    assert str(got.value) == message


def test_warm_call_rejects_a_tampered_multiplier(monkeypatch):
    # the second LP over one object starts from the first one's phase 1
    # (no tableau is built), and its answer still gets every check
    P = box(2, lo=1, hi=2)
    assert solve_lp(P, [1, 0]).value == 2
    phase1 = []

    def recorded(*args, _real=linprog._phase1, **kwargs):
        phase1.append(args)
        return _real(*args, **kwargs)

    monkeypatch.setattr(linprog, "_phase1", recorded)
    assert solve_lp(P, [0, 1]).value == 2
    _tampered(monkeypatch, 3, lambda y: [-v for v in y])
    with pytest.raises(RuntimeError, match="internal certificate check failed: dual sign"):
        solve_lp(P, [0, 1])
    assert phase1 == []


def test_slot_empties_when_its_polyhedron_dies():
    # recession_nontrivial builds its cone inside the call; once that is
    # gone, so is the slot's phase 1 of its 512 rows (2.5 MB while it stayed)
    P = HPolyhedron(10, [Halfspace((*x, -1), "<=", 1) for x in generate("cube", 9)])
    tracemalloc.start()
    try:
        assert recession_nontrivial(P)[0]
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert linprog._last_phase1 is None
    assert kept < 500_000
    # a polyhedron that dies after the slot moved on leaves the slot alone
    P, Q = box(1), box(2)
    solve_lp(P, [1])
    held = linprog._last_phase1  # keeps P's weak reference alive
    solve_lp(Q, [1, 0])
    del P
    assert held[0]() is None and linprog._last_phase1[0]() is Q
