"""A row's integer form against Fraction arithmetic.

`Halfspace.satisfied_by` and `HPolyhedron.contains` read each row
scaled by the lcm of its denominators. `fraction_satisfied` evaluates
`h.a . x` against `h.rhs` in `Fraction` arithmetic instead, and the two
must agree:
- on every explicit system of the lattice differential corpus, against
  its family's points and the integer points of its propagated box;
- on seeded rows with denominators up to 10**9, at integer and
  `Fraction` points;
- on each row's boundary, and off it by 1 and by 1/q, for each sense.

On the same rows, the integer form is the rational row times `_scale`,
the lcm of its denominators.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from rcx.linprog import SENSES, Halfspace, HPolyhedron
from rcx.relaxations import _row_box
from test_lattice_differential import SYSTEMS

BIG = 10**9
BOX_POINTS = 500  # box points per system; larger boxes are sampled


def fraction_satisfied(h, x):
    lhs = sum(u * v for u, v in zip(h.a, x, strict=True))
    return {"<=": lhs <= h.rhs, ">=": lhs >= h.rhs, "=": lhs == h.rhs}[h.sense]


def agree(P, points):
    """satisfied_by and contains give the Fraction answers; the verdicts seen."""
    seen = set()
    for x in points:
        want = [fraction_satisfied(h, x) for h in P.constraints]
        assert [h.satisfied_by(x) for h in P.constraints] == want, x
        assert P.contains(x) == all(want), x
        seen.add(all(want))
    return seen


def box_points(box, rng):
    ranges = [range(lo, hi + 1) for lo, hi in zip(box.lower, box.upper)]
    if box.volume <= BOX_POINTS:
        return list(product(*ranges))
    return [tuple(rng.choice(r) for r in ranges) for _ in range(BOX_POINTS)]


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_explicit_systems(name):
    build, family = SYSTEMS[name]
    P = build()
    assert agree(P, family().points) == {True}
    agree(P, box_points(_row_box(P), random.Random(name)))


def big_fraction(rng):
    return Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))


def random_row(rng, d):
    a = [big_fraction(rng) if rng.random() < 0.8 else rng.randint(-3, 3)
         for _ in range(d)]
    a[rng.randrange(d)] = big_fraction(rng) or 1
    return a


def random_point(rng, d):
    if rng.random() < 0.5:
        return tuple(rng.randint(-5, 5) for _ in range(d))
    return tuple(big_fraction(rng) for _ in range(d))


def test_seeded_rows_with_large_denominators():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(300):
        d = rng.randint(1, 5)
        h = Halfspace(random_row(rng, d), rng.choice(SENSES), big_fraction(rng))
        for _ in range(5):
            x = random_point(rng, d)
            want = fraction_satisfied(h, x)
            assert h.satisfied_by(x) == want, (h, x)
            assert HPolyhedron(d, [h]).contains(x) == want, (h, x)
            seen.add((h.sense, want))
    assert seen >= {("<=", True), ("<=", False), (">=", True), (">=", False),
                    ("=", False)}


@pytest.mark.parametrize("sense", SENSES)
def test_boundary_points(sense):
    """a . x - rhs = -delta, by moving the right-hand side or the point."""
    rng = random.Random(sense)
    for _ in range(40):
        d = rng.randint(1, 4)
        a = random_row(rng, d)
        x = random_point(rng, d)
        base = sum(Fraction(u) * v for u, v in zip(a, x))
        k = next(k for k, v in enumerate(a) if v)
        q = rng.randint(2, BIG)
        on = Halfspace(a, sense, base)
        for delta in (0, 1, -1, Fraction(1, q), Fraction(-1, q)):
            want = {"<=": delta >= 0, ">=": delta <= 0, "=": delta == 0}[sense]
            moved = x[:k] + (x[k] - delta / Fraction(a[k]),) + x[k + 1:]
            for h, y in ((Halfspace(a, sense, base + delta), x), (on, moved)):
                assert fraction_satisfied(h, y) == want, (h, y)
                assert h.satisfied_by(y) == want, (h, y)
                assert HPolyhedron(d, [h]).contains(y) == want, (h, y)


def scaled_form_holds(h):
    """The integer row is the rational one times _scale, the lcm of its
    denominators; solve_lp returns multipliers W * _scale / D for the
    multipliers W / D it checked on the integer rows, so this identity is
    what makes the returned ones the checked ones."""
    scale = math.lcm(*(Fraction(v).denominator for v in (*h.a, h.rhs)))
    assert h._scale == scale, h
    assert h._int_a == tuple(scale * v for v in h.a), h
    assert h._int_rhs == scale * h.rhs, h
    assert all(type(v) is int for v in (*h._int_a, h._int_rhs, h._scale)), h


def test_integer_form_is_the_scaled_row():
    rows = [h for build, _ in SYSTEMS.values() for h in build().constraints]
    rng = random.Random(20261018)
    for _ in range(300):
        d = rng.randint(1, 5)
        rows.append(Halfspace(random_row(rng, d), rng.choice(SENSES), big_fraction(rng)))
    for sense in SENSES:
        rng = random.Random(sense)
        for _ in range(40):
            d = rng.randint(1, 4)
            a, x = random_row(rng, d), random_point(rng, d)
            base = sum(Fraction(u) * v for u, v in zip(a, x))
            for delta in (0, 1, Fraction(-1, rng.randint(2, BIG))):
                rows.append(Halfspace(a, sense, base + delta))
    assert len({h._scale for h in rows}) > 100
    for h in rows:
        scaled_form_holds(h)


def test_integer_form_is_not_part_of_identity():
    F = Fraction
    one, two = Halfspace((1, 1), "<=", 1), Halfspace((2, 2), "<=", 2)
    half = Halfspace((F(1, 2), F(1, 2)), "<=", F(1, 2))
    assert one != two and one != half
    assert (half._int_a, half._int_rhs) == (one._int_a, one._int_rhs) == ((1, 1), 1)
    assert one == Halfspace((F(1), F(1)), "<=", F(1))
    assert hash(one) == hash(((F(1), F(1)), "<=", F(1)))
    assert repr(one) == ("Halfspace(a=(Fraction(1, 1), Fraction(1, 1)), "
                         "sense='<=', rhs=Fraction(1, 1))")
    assert repr(two) == ("Halfspace(a=(Fraction(2, 1), Fraction(2, 1)), "
                         "sense='<=', rhs=Fraction(2, 1))")
    h = Halfspace((F(1, 2), F(-2, 3), 0), ">=", F(5, 4))
    assert (h._int_a, h._int_rhs) == ((6, -8, 0), 15)  # the lcm 12, not a multiple


def test_reference_reads_the_fraction_rows(monkeypatch):
    def refuse(self, x):
        raise AssertionError("the reference read the integer form")

    monkeypatch.setattr(Halfspace, "satisfied_by", refuse)
    monkeypatch.setattr(HPolyhedron, "contains", refuse)
    h = Halfspace((1, -2), "<=", Fraction(3, 2))
    assert fraction_satisfied(h, (0, 0)) and not fraction_satisfied(h, (4, 0))
