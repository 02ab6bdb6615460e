"""The probed affine hull against the ordered scan it replaced.

`ordered_hull.affine_hull` is the old scan, kept verbatim. Both must give
identical base points, bases and equations: on the generated families,
again as sets with a digit buffer (checked on column sums), on seeded
random integer sets, and on sets built so that the seeded probes miss
the points that leave a flat.
"""

import random

import pytest

import ordered_hull
from rcx.errors import DimMismatch, EmptySet
from rcx import rational
from rcx.families import PointSet, _as_digits, generate
from rcx.rational import affine_hull

FAMILIES = [
    *[("cube", (d,)) for d in range(1, 7)],
    *[("simplex", (d,)) for d in range(1, 5)],
    *[("even", (d,)) for d in range(1, 8)],
    *[("odd", (d,)) for d in range(1, 8)],
    *[("perm", (n,)) for n in range(1, 6)],
    ("diff", (2, 1)), ("diff", (2, 2)), ("diff", (2, 3)), ("diff", (3, 2)),
    *[("stsp", (n,)) for n in range(3, 9)],
    *[("atsp", (n,)) for n in range(2, 8)],
    *[("conn", (n,)) for n in range(1, 6)],
    *[("spt", (n,)) for n in range(1, 7)],
    *[("forests", (n,)) for n in range(1, 5)],
    *[("arb", (n,)) for n in range(1, 6)], ("arb", (4, 2)),
    *[("branch", (n,)) for n in range(1, 4)],
    ("tjoins", (1,)), ("tjoins", (3,)), ("tjoins", (4,)), ("tjoins", (3, (1, 2))),
    ("tjoins", (4, (1, 2))), ("tjoins", (4, (1, 2, 3, 4))),
    ("tjoins", (6, (1, 4))), ("tjoins", (6, (1, 2, 3, 4))),
]


# the families of dimension 0, whose one point has no digit buffer
DIM_0 = [("conn", (1,)), ("spt", (1,)), ("forests", (1,)), ("arb", (1,)),
         ("branch", (1,)), ("tjoins", (1,))]
DIGIT_FAMILIES = [f for f in FAMILIES if f not in DIM_0]


def _same(pts):
    got = affine_hull(pts)
    assert got == ordered_hull.affine_hull(pts)
    return got


def _digit_set(pts):
    """The points as a set that reads them off its digit buffer."""
    return PointSet._from_digits(len(pts[0]), _as_digits(pts))


def _sample(n, d):
    """The rows affine_hull probes in a set of n > 4·d points."""
    return set(random.Random(0).sample(range(n), 4 * d))


def _count_check_builds(monkeypatch):
    """A list that gets one entry per equation build made inside the
    every-point check, not counting the probe phase's."""
    builds, checking = [], []
    real_build, real_check = rational._nullspace_equations, rational._check

    def build(*a):
        if checking:
            builds.append(1)
        return real_build(*a)

    def check(*a):
        checking.append(1)
        try:
            return real_check(*a)
        finally:
            checking.pop()

    monkeypatch.setattr(rational, "_nullspace_equations", build)
    monkeypatch.setattr(rational, "_check", check)
    return builds


@pytest.mark.parametrize("name, params", FAMILIES,
                         ids=[f"{n}{p}".replace(" ", "") for n, p in FAMILIES])
def test_family_hulls_match_the_ordered_scan(name, params):
    _same(generate(name, *params).points)


@pytest.mark.parametrize("name, params", DIGIT_FAMILIES,
                         ids=[f"{n}{p}".replace(" ", "") for n, p in DIGIT_FAMILIES])
def test_digit_buffer_hulls_match_the_ordered_scan(name, params):
    X = _digit_set(generate(name, *params).points)
    assert X._columns() is not None
    _same(X)


# _Echelon.add calls of affine_hull on each set read off its digit buffer:
# 4·d probes up to the stall, then one add per point the checks find
ECHELON_ADDS = {("atsp", 8): 42, ("arb", 6): 30, ("stsp", 8): 21, ("spt", 6): 15}


@pytest.mark.parametrize("family", list(ECHELON_ADDS),
                         ids=[f"{n}{k}" for n, k in ECHELON_ADDS])
def test_echelon_adds_are_pinned(monkeypatch, family):
    X = _digit_set(generate(*family).points)
    adds = []
    real = rational._Echelon.add
    monkeypatch.setattr(rational._Echelon, "add",
                        lambda self, row: adds.append(1) or real(self, row))
    h = affine_hull(X)
    assert len(adds) == ECHELON_ADDS[family]
    assert h == ordered_hull.affine_hull(X)


def test_seeded_random_sets_match():
    rng = random.Random(20261018)
    for _ in range(300):
        d = rng.randint(1, 6)
        k = rng.choice([1, 2, 3, rng.randint(4, 40)])
        lo, hi = sorted((rng.randint(-9, 3), rng.randint(-3, 9)))
        pts = [tuple(rng.randint(lo, hi) for _ in range(d)) for _ in range(k)]
        _same(pts)


def test_random_points_on_a_flat():
    # many points on a random low-dimensional flat: the probes and the
    # scan must land on the same reduced basis and equations
    rng = random.Random(7)
    for _ in range(60):
        d = rng.randint(2, 6)
        k = rng.randint(0, d - 1)
        base = [rng.randint(-5, 5) for _ in range(d)]
        dirs = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(k)]
        pts = []
        for _ in range(rng.randint(1, 10 * d)):
            c = [rng.randint(-2, 2) for _ in range(k)]
            pts.append(tuple(b + sum(ci * v[j] for ci, v in zip(c, dirs))
                             for j, b in enumerate(base)))
        _same(pts)


def test_single_points_and_one_dimension():
    for p in [(0,), (-7,), (3, -2), (0, 0, 0), (-50, 50, 1)]:
        h = _same([p])
        assert h.dim == 0 and h.base_point == p
    assert _same([(-3,), (5,), (5,)]).dim == 1
    assert _same([(4,)] * 9).dim == 0


def test_one_point_off_a_hyperplane(monkeypatch):
    # 200 points on x1 + ... + x4 = 0 and one point off it, at a seeded
    # place: the 16 probes see it under 8% of the time, so mostly only the
    # every-point check finds it; each point the check adds rebuilds the
    # equations once more (the probe phase's builds are not counted)
    builds = _count_check_builds(monkeypatch)
    found_by_scan = 0
    for seed in range(10):
        rng = random.Random(seed)
        d = 4
        pts = []
        while len(pts) < 200:
            head = [rng.randint(-6, 6) for _ in range(d - 1)]
            pts.append(tuple(head + [-sum(head)]))
        off = list(rng.choice(pts))
        off[rng.randrange(d)] += 1
        pts.insert(rng.randrange(len(pts)), tuple(off))
        builds.clear()
        h = _same(pts)
        found_by_scan += len(builds) > 0
        assert h.dim == d and h.equations == ()
        without = [p for p in pts if p != tuple(off)]
        assert _same(without).equations == (((1,) * d, 0),)
    assert found_by_scan >= 5


def test_digit_points_off_a_flat_are_found_in_order(monkeypatch):
    # 300 digit points on x1 + x2 = 9 and x3 + x4 + x5 = 12, with points
    # planted late and missed by the 20 probes: one off the first plane
    # only, one off the second only, after it; the column check finds the
    # first, rebuilds and goes on from the next row to find the second
    builds = _count_check_builds(monkeypatch)
    d, n = 5, 300
    probed = _sample(n, d)
    late = [i for i in range(n // 2, n) if i not in probed]
    for seed in range(6):
        rng = random.Random(seed)
        pts = []
        while len(pts) < n:
            a, b, c = rng.randint(0, 9), rng.randint(3, 9), rng.randint(0, 9)
            if 0 <= 12 - b - c <= 9:
                pts.append((a, 9 - a, b, c, 12 - b - c))
        i, j = sorted(rng.sample(late, 2))
        if seed == 0:
            j = late[-1]  # the last row
        first = list(pts[i])
        first[1] += 1 - 2 * (first[1] == 9)     # off the first plane only
        second = list(pts[j])
        second[4] += 1 - 2 * (second[4] == 9)   # off the second only
        for planted, expect in ([(i, first)], 1), ([(j, second)], 1), (
                [(i, first), (j, second)], 2):
            rows = list(pts)
            for at, p in planted:
                rows[at] = tuple(p)
            X = _digit_set(rows)
            builds.clear()
            h = _same(X)
            assert len(builds) == expect
            assert h.dim == 3 + expect
            assert len(h.equations) == 2 - expect
        assert len(_same(_digit_set(pts)).equations) == 2


def test_digit_equations_with_lanes_wider_than_a_byte(monkeypatch):
    # 300 digit points on x1 + ... + x60 = 270, so a row's sum takes two
    # bytes (2 (60·9 + 270) + 1 = 1621); two adjacent planted rows, missed
    # by the 240 probes, have residuals +256 and -1, which cancel when a
    # row's lane is one byte wide
    builds = _count_check_builds(monkeypatch)
    d, n = 60, 300
    probed = _sample(n, d)
    rng = random.Random(11)
    pts = []
    while len(pts) < n:
        x = [4] * 30 + [5] * 30
        for _ in range(400):
            k, m = rng.randrange(d), rng.randrange(d)
            t = rng.randint(0, min(9 - x[k], x[m]))
            x[k] += t
            x[m] -= t
        pts.append(tuple(x))
    on = _same(_digit_set(pts))
    assert on.dim == d - 1 and on.equations == (((1,) * d, 270),)
    high = [9] * d
    for k in rng.sample(range(d), 14):
        high[k] -= 1            # sum 526 = 270 + 256
    at = next(i for i in range(n // 2, n - 1) if i not in probed and i + 1 not in probed)
    low = list(pts[at + 1])
    low[low.index(max(low))] -= 1   # sum 269
    rows = list(pts)
    rows[at], rows[at + 1] = tuple(high), tuple(low)
    builds.clear()
    h = _same(_digit_set(rows))
    assert h.dim == d and h.equations == ()
    assert len(builds) == 1


def test_one_point_off_a_line():
    for at in (0, 40, 80):
        pts = [(k, 2 * k, -k) for k in range(-40, 40)]
        pts.insert(at, (1, 2, 0))
        h = _same(pts)
        assert h.dim == 2 and len(h.equations) == 1


def test_large_coordinates_need_a_wide_packing():
    # the x1-axis has equations x2 = 0 and x3 = 0, packed as x2 + B·x3; the
    # point (0, 2s, -s) leaves the axis but meets x2 + 2·x3 = 0, and
    # (0, 50, -1) meets x2 + 50·x3 = 0, so only a base B above 50 (here
    # 101, for coordinates up to ±50) sees them
    axis = [(k, 0, 0) for k in range(-50, 51)]
    offs = [(0, 2 * s, -s) for s in range(1, 26)] + [(0, 50, -1), (0, -50, 1)]
    for k, off in enumerate(offs):
        pts = list(axis)
        pts.insert((37 * k) % len(pts), off)
        h = _same(pts)
        assert h.dim == 2
        assert len(h.equations) == 1


def test_errors_match():
    with pytest.raises(EmptySet):
        affine_hull([])
    with pytest.raises(DimMismatch):
        affine_hull([(0, 0), (1,)])
    with pytest.raises(DimMismatch):
        ordered_hull.affine_hull([(0, 0), (1,)])
