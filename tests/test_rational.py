import random
from fractions import Fraction
from itertools import permutations

import pytest

from rcx.errors import DimMismatch, EmptySet
from rcx.rational import (
    affine_hull,
    format_rational,
    gaussian_rank,
    in_affine_hull,
    parse_rational,
)


def test_parse_roundtrip():
    for s in ["0", "7", "-3", "2/3", "-5/4", "100/7"]:
        assert format_rational(parse_rational(s)) == s


def test_parse_normalizes():
    assert parse_rational("4/6") == Fraction(2, 3)
    assert format_rational(Fraction(4, 6)) == "2/3"
    assert format_rational(Fraction(-4, 6)) == "-2/3"
    assert format_rational(Fraction(8, 4)) == "2"


@pytest.mark.parametrize("bad", ["1.5", "1/0", "+2", " 2", "2 ", "1/-3", "", "a", "1/"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_rank_identity():
    rank, rows = gaussian_rank([(1, 0), (0, 1)])
    assert rank == 2
    assert rows == [(1, 0), (0, 1)]


def test_rank_dependent_rows():
    rank, rows = gaussian_rank([(2, 4), (1, 2), (3, 6)])
    assert rank == 1
    assert rows == [(1, 2)]


def test_rank_fractions():
    # (1/2, 1/3) is exactly (3, 2) / 6
    rank, rows = gaussian_rank([(Fraction(1, 2), Fraction(1, 3)), (3, 2)])
    assert rank == 1
    assert rows == [(3, 2)]
    rank, _ = gaussian_rank([(Fraction(1, 2), Fraction(1, 3)), (3, 1)])
    assert rank == 2


def test_rank_even3_differences():
    # pairwise sums of unit vectors minus the origin: full rank
    rank, _ = gaussian_rank([(1, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert rank == 3


def test_rank_canonical_under_row_order():
    rows = [(2, 1, 1), (0, 3, 1), (4, 2, 5)]
    base = gaussian_rank(rows)
    for p in permutations(rows):
        assert gaussian_rank(p) == base


def test_rank_rejects_floats():
    with pytest.raises(TypeError):
        gaussian_rank([(1.0, 2.0)])


def test_hull_of_single_point():
    h = affine_hull([(3, 5)])
    assert h.dim == 0
    assert h.base_point == (3, 5)
    assert in_affine_hull((3, 5), h)
    assert not in_affine_hull((3, 6), h)


def test_hull_of_unit_square():
    h = affine_hull([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert h.dim == 2
    assert h.equations == ()
    assert in_affine_hull((17, -4), h)


def test_hull_of_permutations_of_123():
    pts = sorted(permutations((1, 2, 3)))
    h = affine_hull(pts)
    assert h.dim == 2
    # single defining equation: coordinates sum to 6
    assert h.equations == (((1, 1, 1), 6),)
    assert in_affine_hull((0, 6, 0), h)
    assert not in_affine_hull((1, 1, 1), h)


def test_hull_membership_perm4():
    pts = sorted(permutations((1, 2, 3, 4)))
    h = affine_hull(pts)
    assert h.dim == 3
    assert in_affine_hull((1, 1, 4, 4), h)
    assert not in_affine_hull((0, 0, 0, 0), h)


def test_hull_equation_count():
    pts = [(0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1)]
    h = affine_hull(pts)
    assert h.dim == 2
    assert len(h.equations) == 4 - 2


def test_hull_invariant_under_point_order():
    pts = [(0, 1, 2), (2, 0, 1), (1, 2, 0), (0, 2, 1)]
    base = affine_hull(pts)
    rng = random.Random(7)
    for _ in range(10):
        rng.shuffle(pts)
        assert affine_hull(pts) == base


def test_hull_dim_mismatch():
    h = affine_hull([(0, 0), (1, 1)])
    with pytest.raises(DimMismatch):
        in_affine_hull((1, 1, 1), h)
    with pytest.raises(EmptySet):
        affine_hull([])


def _rank_oracle(rows):
    # independent check: textbook elimination straight over Fractions
    rows = [[Fraction(v) for v in r] for r in rows]
    rank, col = 0, 0
    while rows and col < len(rows[0]) and rank < len(rows):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_rank_matches_oracle_randomized():
    rng = random.Random(20260814)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
            for _ in range(m)
        ]
        rank, ech = gaussian_rank(rows)
        assert rank == _rank_oracle(rows)
        assert len(ech) == rank
        # echelon rows must span the same space: each reduces to zero against
        # the other direction's basis
        rank2, _ = gaussian_rank(list(rows) + list(ech))
        assert rank2 == rank


def test_hull_points_always_members():
    rng = random.Random(99)
    for _ in range(60):
        d = rng.randint(1, 4)
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 6))]
        h = affine_hull(pts)
        assert h.dim + len(h.equations) == d
        for p in pts:
            assert in_affine_hull(p, h)
        # base plus any basis direction stays in the hull
        for b in h.basis:
            assert in_affine_hull(tuple(x + y for x, y in zip(h.base_point, b)), h)


def test_rank_of_no_rows_and_of_ragged_rows():
    assert gaussian_rank([]) == (0, [])
    with pytest.raises(DimMismatch, match="^ragged rows$"):
        gaussian_rank([[1, 2], [1]])
