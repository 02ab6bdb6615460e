"""strict_separation through solve_lp against the hand-built LP it replaced.

`hand_separation` keeps the old standard-form LP over (a, gamma). Both
must give the same verdict on every ordered pair of disjoint nonempty
subsets of {0,1}^d for d <= 3 and on seeded integer clouds. The rows
may differ, as the two LPs pivot in different orders, so a row from
either must strictly separate with the unit gap.
"""

import random
from itertools import product

import hand_separation
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
