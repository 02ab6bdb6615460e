"""The probed affine hull against the ordered scan it replaced.

`ordered_hull.affine_hull` is the old scan, kept verbatim. Both must give
identical base points, bases and equations: on the generated families,
on seeded random integer sets, and on sets built so that the seeded
probes miss the one point that leaves a hyperplane.
"""

import random

import pytest

import ordered_hull
from rcx.errors import DimMismatch, EmptySet
from rcx import rational
from rcx.families import generate
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


def _same(pts):
    got = affine_hull(pts)
    assert got == ordered_hull.affine_hull(pts)
    return got


@pytest.mark.parametrize("name, params", FAMILIES,
                         ids=[f"{n}{p}".replace(" ", "") for n, p in FAMILIES])
def test_family_hulls_match_the_ordered_scan(name, params):
    _same(generate(name, *params).points)


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
    # scan finds it; each point it adds rebuilds the equations once more
    builds = []
    real = rational._nullspace_equations
    monkeypatch.setattr(rational, "_nullspace_equations",
                        lambda *a: builds.append(1) or real(*a))
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
        found_by_scan += len(builds) > 1
        assert h.dim == d and h.equations == ()
        without = [p for p in pts if p != tuple(off)]
        assert _same(without).equations == (((1,) * d, 0),)
    assert found_by_scan >= 5


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
