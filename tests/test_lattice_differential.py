"""The propagated box against the LP path it skips.

`lp_path` is the LP path: 2·d bounding LPs, the recession test, then
the scan over the LP box, with containment in `Fraction` arithmetic.
`enumerate_lattice` and `verify_relaxation` must give the same points,
the same reports and the same exceptions (type and message): on the
explicit systems, on the binary relaxations that `bound_report`
certifies, and on seeded small polyhedra built to hit every branch of
the presolve. Two reports that both name an unbounded direction may
name different rays, as an open polyhedron has many: each must be a
unit ray of P's recession cone. Wherever both boxes exist, the box
`_row_box` propagates from P's rows must contain the LP box. On seeded
open polyhedra, the ray an `UnboundedCoordinate` carries must be a
checked recession ray.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

import lp_path
from rcx.errors import Infeasible, UnboundedCoordinate
from rcx.families import PointSet, atsp, conn, cube, diff, even, perm, spt, stsp, tjoins
from rcx.linprog import Halfspace, HPolyhedron
from rcx.relaxations import (
    RelaxationReport,
    _row_box,
    bounding_box,
    build_conn_cut_relaxation,
    build_cube_relaxation,
    build_rado_permutahedron,
    build_subtour_relaxation,
    enumerate_lattice,
    verify_relaxation,
)
from rcx.separation import build_binary_relaxation


def outcome(fn, *args, **kwargs):
    """The answer of fn, or the type and message of what it raised."""
    try:
        got = fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return got.points if isinstance(got, PointSet) else got


def unbounded_ray(report):
    """The ray of an unbounded_with_finite_X report, else None."""
    if isinstance(report, RelaxationReport) and report.reason is not None:
        kind, witness = report.reason
        return witness if kind == "unbounded_with_finite_X" else None
    return None


def assert_unit_ray(P, ray):
    """ray is nonzero, its largest |coordinate| is 1, and it lies in P's
    recession cone, in Fraction arithmetic over h.a."""
    assert any(ray) and max(map(abs, ray)) == 1, ray
    for h in P.constraints:
        lhs = sum(u * v for u, v in zip(h.a, ray, strict=True))
        assert {"<=": lhs <= 0, ">=": lhs >= 0, "=": lhs == 0}[h.sense], (h, ray)


def same_answers(P, X, max_points=None):
    lattice = outcome(enumerate_lattice, P, max_points=max_points)
    assert lattice == outcome(lp_path.enumerate_lattice, P, max_points=max_points)
    report = outcome(verify_relaxation, P, X, max_points=max_points)
    want = outcome(lp_path.verify_relaxation, P, X, max_points=max_points)
    rays = unbounded_ray(report), unbounded_ray(want)
    if None in rays:
        assert report == want
    else:
        assert report.status == want.status and report.lattice_count is None
        for ray in rays:
            assert_unit_ray(P, ray)
    return lattice, report


def check_boxes(P):
    """_row_box(P) contains bounding_box(P) when both exist; is there a row box?

    bounding_box(P) is None when P has points but no lattice point."""
    box = _row_box(P)
    try:
        lp_box = lp_path.bounding_box(P)
    except (Infeasible, UnboundedCoordinate):
        return box is not None
    if box is not None and lp_box is not None:
        assert all(lo <= l and h <= hi for lo, l, h, hi in zip(
            box.lower, lp_box.lower, lp_box.upper, box.upper)), (box, lp_box)
    return box is not None


SYSTEMS = {
    **{f"subtour{n}": (lambda n=n: build_subtour_relaxation(n), lambda n=n: stsp(n))
       for n in range(3, 7)},
    **{f"dsubtour{n}": (lambda n=n: build_subtour_relaxation(n, directed=True),
                        lambda n=n: atsp(n))
       for n in range(3, 6)},
    **{f"conn{n}": (lambda n=n: build_conn_cut_relaxation(n), lambda n=n: conn(n))
       for n in range(3, 6)},
    **{f"cube{d}": (lambda d=d: build_cube_relaxation(d), lambda d=d: cube(d))
       for d in range(1, 7)},
    **{f"rado{n}": (lambda n=n: build_rado_permutahedron(n), lambda n=n: perm(n))
       for n in range(3, 6)},
    **{f"even{n}": (lambda n=n: build_binary_relaxation(even(n)), lambda n=n: even(n))
       for n in range(3, 7)},
    **{f"diff2_{n}": (lambda n=n: build_binary_relaxation(diff(2, n)),
                      lambda n=n: diff(2, n))
       for n in (2, 3)},
    "spt4": (lambda: build_binary_relaxation(spt(4)), lambda: spt(4)),
    "tjoins4": (lambda: build_binary_relaxation(tjoins(4, (1, 2, 3, 4))),
                lambda: tjoins(4, (1, 2, 3, 4))),
}


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_explicit_systems(name):
    build, family = SYSTEMS[name]
    X = family()
    P = build()
    lattice, report = same_answers(P, X)
    assert check_boxes(P)
    assert report.status == "verified" and report.lattice_count == len(lattice)
    if not name.startswith("rado"):  # the permutahedron adds interior points
        assert lattice == X.points


def test_directed_subtour6():
    # The LP path takes about four minutes here (60 bounding LPs and 60
    # recession LPs in dimension 30), so its answers are written out: run
    # once, lp_path gave exactly the 120 tours of atsp(6) and a verified
    # report. Its 2**30-point LP box needs a cap above the default.
    P = build_subtour_relaxation(6, directed=True)
    X = atsp(6)
    assert enumerate_lattice(P, max_points=2**30).points == X.points
    assert verify_relaxation(P, X, max_points=2**30) == (
        RelaxationReport("verified", None, 120))


def test_reference_tests_containment_itself(monkeypatch):
    # P.contains is made to accept (2, 0), outside the unit square; the
    # reference's own arithmetic must still name it missing
    P = HPolyhedron(2, [Halfspace(a, s, b) for a in ((1, 0), (0, 1))
                        for s, b in ((">=", 0), ("<=", 1))])
    real = HPolyhedron.contains
    monkeypatch.setattr(HPolyhedron, "contains",
                        lambda self, x: tuple(x) == (2, 0) or real(self, x))
    X = PointSet(2, [(0, 0), (2, 0)])
    assert lp_path.verify_relaxation(P, X) == (
        RelaxationReport("failed", ("missing_point", (2, 0))))


def _bound_rows(rng, k, d, lo, hi):
    """Single-variable rows for lo <= x_k <= hi, each side possibly missing."""
    rows = []
    for value, side in ((lo, ">="), (hi, "<=")):
        if value is None:
            continue
        c = rng.choice([1, 1, 2, 3, -1, -2])
        a = [0] * d
        a[k] = c
        sense = side if c > 0 else {"<=": ">=", ">=": "<="}[side]
        rows.append(Halfspace(a, sense, c * value))
    return rows


def _random_case(rng, flavor):
    d = rng.randint(1, 3)
    frac = lambda: Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4]))
    rows = []
    z = []  # the other rows pass through z, so most bodies keep points
    for k in range(d):
        lo = frac()
        hi = lo + Fraction(rng.randint(0, 8), rng.choice([1, 2, 3]))
        z.append(lo + (hi - lo) * Fraction(rng.randint(0, 4), 4))
        if flavor == "open" and rng.random() < 0.5:
            lo, hi = rng.choice([(lo, None), (None, hi), (None, None)])
        if flavor == "contradictory" and k == 0:
            lo, hi = hi + Fraction(1, rng.choice([1, 2, 3])), lo
        rows += _bound_rows(rng, k, d, lo, hi)
        if flavor == "redundant":
            rows += _bound_rows(rng, k, d, lo - rng.randint(0, 3), hi + rng.randint(0, 3))
        if flavor == "equality" and rng.random() < 0.6:
            a = [0] * d
            a[k] = rng.choice([1, 2, -3])
            rows.append(Halfspace(a, "=", a[k] * rng.randint(-2, 2)))
    for _ in range(rng.randint(0, 3)):
        a = [rng.randint(-3, 3) for _ in range(d)]
        if any(a):
            sense = rng.choice(["<=", ">=", "="])
            slack = {"<=": 1, ">=": -1, "=": 0}[sense] * rng.randint(0, 4)
            rows.append(Halfspace(a, sense, sum(u * v for u, v in zip(a, z)) + slack))
    if flavor == "lattice-free":
        # 2x_1 = 1, or 2x_1 + 2x_2 = 1, with x_1 = x_2 half the time
        a = [2] + [0] * (d - 1)
        if d > 1:
            a[1] = 2
            if rng.random() < 0.5:
                rows.append(Halfspace([1, -1] + [0] * (d - 2), "=", 0))
        rows.append(Halfspace(a, "=", 1))
    if flavor == "infeasible":
        rows.append(Halfspace([1] * d, ">=", 30))
    if rng.random() < 0.1:
        rows.append(Halfspace([0] * d, "=", 0))
    rng.shuffle(rows)
    return HPolyhedron(d, rows)


def _random_target(rng, P, max_points):
    d = P.dim
    near = lambda: tuple(rng.randint(-4, 4) for _ in range(d))
    lattice = outcome(lp_path.enumerate_lattice, P, max_points=max_points)
    if isinstance(lattice, list) and lattice:
        pts = rng.sample(lattice, rng.randint(max(1, len(lattice) - 2), len(lattice)))
        if rng.random() < 0.2:
            pts.append(near())
    else:
        pts = [near() for _ in range(rng.randint(0, 3))]
    return PointSet(d, pts)


FLAVORS = ["boxed", "open", "redundant", "contradictory", "equality",
           "lattice-free", "infeasible"]


def _odd_cycle_case(rng, k):
    """0 <= x <= 1, x_i + x_i+1 >= 1 around a k-cycle, k odd, and a sum row
    below k/2: the box is [0, 1]^k, yet the LP is infeasible."""
    rows = []
    for i in range(k):
        rows += _bound_rows(rng, i, k, 0, 1)
        a = [0] * k
        m = rng.choice([1, 2, 3])
        a[i] = a[(i + 1) % k] = m
        rows.append(Halfspace(a, ">=", m))
    rows.append(Halfspace([1] * k, "<=", Fraction(k, 2) - Fraction(1, rng.randint(3, 9))))
    rng.shuffle(rows)
    return HPolyhedron(k, rows)


def test_seeded_small_polyhedra():
    rng = random.Random(20261018)
    seen = {}

    def tally(P, max_points):
        X = _random_target(rng, P, max_points)
        lattice, report = same_answers(P, X, max_points)
        presolved = check_boxes(P)
        kind = lattice[0].__name__ if isinstance(lattice, tuple) else (
            "points" if lattice else "empty")
        seen[presolved, kind] = seen.get((presolved, kind), 0) + 1
        status = report[0].__name__ if isinstance(report, tuple) else (
            report.reason[0] if report.reason else report.status)
        seen[status] = seen.get(status, 0) + 1

    for i in range(200):
        flavor = FLAVORS[i % len(FLAVORS)]
        P = _random_case(rng, flavor)
        tally(P, rng.choice([None, None, None, rng.randint(1, 60)]))
    # propagation refutes the "infeasible" flavor by itself; these bodies
    # get a box and still need the LP to prove them empty
    for k in (3, 5, 3, 5, 7, 3):
        tally(_odd_cycle_case(rng, k), None)
    # both paths are exercised, with every outcome; a lattice-free P is
    # empty on both
    for key in [(True, "points"), (True, "empty"), (True, "Infeasible"),
                (True, "TooLarge"), (False, "points"), (False, "empty"),
                (False, "Infeasible"), (False, "UnboundedCoordinate"),
                "verified", "missing_point",
                "extra_lattice_point", "unbounded_with_finite_X"]:
        assert seen.get(key, 0) >= 1, (key, seen)


# Cases 50 and 1534 of the seed-5 _random_case corpus below: the bounding
# LP of P and lp_path's recession test name different rays. (Cases 78,
# 484, 708 and 1688 of that corpus are open too, but have no lattice
# point in [-4, 4]^d to serve as a target.)
OPEN_CASES = {
    "seed5-50": HPolyhedron(3, [Halfspace((3, 1, 0), "<=", Fraction(9, 2)),
                                Halfspace((1, 0, 0), ">=", Fraction(-4, 3)),
                                Halfspace((3, 3, 1), "<=", Fraction(-7, 2))]),
    "seed5-1534": HPolyhedron(2, [Halfspace((1, 0), "<=", 2),
                                  Halfspace((0, 1), "<=", Fraction(9, 2)),
                                  Halfspace((-1, -2), ">=", -11),
                                  Halfspace((-1, 3), ">=", Fraction(19, 2)),
                                  Halfspace((1, 3), "<=", Fraction(39, 2))]),
}


@pytest.mark.parametrize("name", list(OPEN_CASES))
def test_open_cases_with_different_rays(name):
    """Against its first three lattice points in [-4, 4]^d, each case is
    rejected by both paths with different unit rays of its cone."""
    P = OPEN_CASES[name]
    pts = [p for p in product(range(-4, 5), repeat=P.dim) if P.contains(p)]
    X = PointSet(P.dim, pts[:3])
    _, report = same_answers(P, X)
    ray = unbounded_ray(report)
    assert ray is not None and ray != unbounded_ray(lp_path.verify_relaxation(P, X))


def test_seeded_unbounded_rays():
    """Each open side's ray is the bounding LP's: nonzero, in the recession
    cone and growing the named coordinate; verify_relaxation reports it
    scaled so its largest |coordinate| is 1."""
    rng = random.Random(5)
    rays = reports = 0
    for i in range(2000):
        P = _random_case(rng, FLAVORS[i % len(FLAVORS)])
        try:
            bounding_box(P)
        except UnboundedCoordinate as exc:
            ray, k, grows = exc.ray, exc.coord - 1, exc.direction == "+"
        except Infeasible:
            continue
        else:
            continue
        rays += 1
        assert any(ray) and all(Halfspace(h.a, h.sense, 0).satisfied_by(ray)
                                for h in P.constraints)
        assert ray[k] > 0 if grows else ray[k] < 0
        pts = [p for p in product(range(-4, 5), repeat=P.dim) if P.contains(p)]
        if pts:
            reports += 1
            top = max(map(abs, ray))
            assert verify_relaxation(P, PointSet(P.dim, pts[:3])) == RelaxationReport(
                "failed", ("unbounded_with_finite_X", tuple(v / top for v in ray)))
    assert rays >= 100 and reports >= 50
