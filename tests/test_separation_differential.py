"""strict_separation, the hull LP over conv(C), against the LP it replaced.

`hand_separation` keeps the old standard-form LP over (a, gamma). Both
must give the same verdict on every ordered pair of disjoint nonempty
subsets of {0,1}^d for d <= 3, on seeded integer clouds, on 0/1 subsets
for d = 4..6 against points on or outside their box (where the presolve
pins coordinates and the row is lifted over them), and on points with
Fraction coordinates. The rows may differ, as the two LPs are not the
same, so a row from either must strictly separate with the unit gap.
"""

import random
from fractions import Fraction
from itertools import product

import hand_separation
from rcx.families import cube
from rcx.linprog import Halfspace, strict_separation


def separates(h, X, C):
    gap = Halfspace(h.a, ">=", h.rhs + 1)
    return all(map(h.satisfied_by, X)) and all(map(gap.satisfied_by, C))


def same_verdict(X, C):
    got, want = strict_separation(X, C), hand_separation.strict_separation(X, C)
    assert (got is None) == (want is None), (X, C)
    if got is not None:
        assert separates(got, X, C) and separates(want, X, C), (X, C)
    return got is not None


def test_every_01_pair():
    verdicts = []
    for d in (1, 2, 3):
        cube = list(product((0, 1), repeat=d))
        # each point goes to X (1), to C (2) or to neither (0)
        for sides in product((0, 1, 2), repeat=len(cube)):
            X = [p for p, s in zip(cube, sides) if s == 1]
            C = [p for p, s in zip(cube, sides) if s == 2]
            if X and C:
                verdicts.append(same_verdict(X, C))
    assert len(verdicts) == 2 + 50 + 6050
    assert 0 < sum(verdicts) < len(verdicts)


def test_seeded_integer_clouds():
    rng = random.Random(17)
    verdicts = []
    for _ in range(600):
        d = rng.randint(1, 4)
        pts = {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(2, 9))}
        pts = sorted(pts)
        rng.shuffle(pts)
        k = rng.randint(1, len(pts) - 1) if len(pts) > 1 else 1
        X, C = pts[:k], pts[k:]
        if C:
            verdicts.append(same_verdict(X, C))
    assert sum(verdicts) > 100 and len(verdicts) - sum(verdicts) > 100


def test_01_subsets_against_points_on_and_off_their_box():
    # one to three points of C, each off X in {0,1}^d, or with every
    # coordinate on a side of X's box or one step past it
    rng = random.Random(25)
    verdicts = []
    for d in (4, 5, 6):
        corners = list(product((0, 1), repeat=d))
        for _ in range(30):
            size = rng.choice((1, 2, 3, rng.randint(4, 2 ** d - 1), 2 ** (d - 1)))
            X = sorted(rng.sample(corners, size))
            lo, hi = map(min, zip(*X)), map(max, zip(*X))
            sides = [(l - 1, l, h, h + 1) for l, h in zip(lo, hi)]
            off = [p for p in corners if p not in set(X)]
            for _ in range(3):
                C = [rng.choice(off) if off and rng.random() < 0.7
                     else tuple(rng.choice(s) for s in sides)
                     for _ in range(rng.randint(1, 3))]
                if not set(C) & set(X):
                    verdicts.append(same_verdict(X, C))
    assert sum(verdicts) > 100 and len(verdicts) - sum(verdicts) > 20


def test_fraction_points_scale_the_rows():
    rng = random.Random(26)
    verdicts = []
    for _ in range(200):
        d = rng.randint(1, 4)
        X = sorted({tuple(rng.randint(-2, 2) for _ in range(d))
                    for _ in range(rng.randint(1, 6))})
        C = [tuple(Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3))) for _ in range(d))
             for _ in range(rng.randint(1, 3))]
        verdicts.append(same_verdict(X, C))
    assert sum(verdicts) > 50 and len(verdicts) - sum(verdicts) > 20


def test_cube7_against_a_point_past_every_side():
    assert same_verdict(cube(7), [(2,) * 7])
