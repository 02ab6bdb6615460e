"""The hull LP's presolve by column bitmasks against the filter it replaced.

`_hull_point` keeps the points of X at v on every pin (k, v, s).
`PointSet._rows_at` finds them by ANDing one bitmask per pin;
`kept_reference` is the filter `_hull_point` ran before, one list
comprehension per pin. Both must give the same ascending indices: on
every generated family, again as read back from its file, for every
hull LP a hiding construction's check asks, on sets with no digit
buffer, and for Fraction pins, pins off 0..9 and no pins.
"""

import random
from fractions import Fraction

import pytest

from rcx import fileio
from rcx.families import PointSet, generate
from rcx.hiding import (build_arb_hiding, build_diff_hiding, build_parity_hiding,
                        build_perm_hiding, build_tjoin_hiding, build_tsp_hiding,
                        verify_hiding)
from test_hull_differential import DIM_0, FAMILIES


def kept_reference(pts, pins):
    """The points at v on every pin, one comprehension over the
    survivors per pin."""
    idx = range(len(pts))
    for k, v, _ in pins:
        idx = [i for i in idx if pts[i][k] == v]
    return list(idx)


def _same(X, pins, _rows_at=PointSet._rows_at):
    got = _rows_at(X, pins)
    assert list(got) == kept_reference(X.points, pins), pins
    return got


def _probes(rng, X, count=24):
    """Pin lists over X: at a point of X on some coordinates, so that
    points are kept, and at random values on and off X's bounds."""
    lo, hi = X.bounds()
    out = []
    for _ in range(count):
        x = rng.choice(X.points)
        out.append([(k, x[k], 1) for k in range(X.dim) if rng.random() < 0.4])
        pins = []
        for k in range(X.dim):
            if rng.random() < 0.3:
                v = rng.choice([lo[k], hi[k], lo[k], hi[k], Fraction(hi[k]),
                                lo[k] - 1, hi[k] + 1, Fraction(2 * lo[k] + 1, 2)])
                pins.append((k, v, rng.choice((-1, 1))))
        out.append(pins)
    return out


def _read_back(X, tmp_path):
    path = tmp_path / "x.json"
    fileio.write_doc(path, fileio.pointset_doc(X))
    return fileio.read_pointset(path)


CASES = [f for f in FAMILIES if f not in DIM_0]


@pytest.mark.parametrize("name, params", CASES,
                         ids=[f"{n}{p}".replace(" ", "") for n, p in CASES])
def test_family_presolve_matches_the_filter(name, params, tmp_path):
    X = generate(name, *params)
    assert X.dim >= 1
    Y = _read_back(X, tmp_path)
    assert Y.points == X.points
    rng = random.Random(f"{name}{params}")
    kept = 0
    for pins in _probes(rng, X):
        for S in (X, Y):
            kept += len(_same(S, pins))
    assert kept  # the probes at a point of X keep it


# each hiding construction with the family it hides
CONSTRUCTIONS = [
    *[(f"tsp{N}", lambda N=N: build_tsp_hiding(N), ("atsp", 2 * (N + 1))) for N in (1, 2, 3)],
    *[(f"tsp{N}u", lambda N=N: build_tsp_hiding(N, directed=False), ("stsp", 2 * (N + 1)))
      for N in (2, 3)],
    *[(f"arb{N}", lambda N=N: build_arb_hiding(N), ("arb", 2 * (N + 1))) for N in (1, 2)],
    *[(f"arb{N}u", lambda N=N: build_arb_hiding(N, directed=False), ("spt", 2 * (N + 1)))
      for N in (1, 2)],
    *[(f"diff{n}", lambda n=n: build_diff_hiding(n), ("diff", 2, n)) for n in (1, 2, 3)],
    *[(f"perm{n}", lambda n=n: build_perm_hiding(n), ("perm", n)) for n in (4, 5)],
    *[(f"parity{n}", lambda n=n: build_parity_hiding(n), ("even", n)) for n in (2, 3, 4)],
    *[(f"tjoin6part{p + 1}", lambda p=p: build_tjoin_hiding(6, (1, 2, 3, 4))[p],
       ("tjoins", 6, (1, 2, 3, 4))) for p in (0, 1)],
]


@pytest.mark.parametrize("name, build, target", CONSTRUCTIONS,
                         ids=[c[0] for c in CONSTRUCTIONS])
def test_hiding_checks_presolve_like_the_filter(monkeypatch, tmp_path, name, build, target):
    # every hull LP of the check, each point of H and each pair as C,
    # against the generated target and the one read back from its file
    H = build()
    X = generate(*target)
    calls = []

    def rows_at(self, pins):
        calls.append(len(pins))
        return _same(self, pins)

    monkeypatch.setattr(PointSet, "_rows_at", rows_at)
    for S in (X, _read_back(X, tmp_path)):
        calls.clear()
        assert verify_hiding(H, S).valid
        n = len(H.points)
        assert len(calls) == n + n * (n - 1) // 2 and any(calls)


def test_sets_without_a_digit_buffer():
    # a value of 10, negative values and Fraction rows take == over the
    # points' columns
    sets = [
        PointSet(2, [(10, 0), (3, 10), (10, 10), (0, 0), (10, 3)]),
        PointSet(3, [(-1, 0, 2), (-2, 0, 2), (-1, -3, 0), (0, 0, 0), (-2, 5, 2)]),
        PointSet(2, [(Fraction(1, 2), 1), (1, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)),
                     (Fraction(3, 2), 1)], validate=False),
    ]
    for X in sets:
        assert X._columns() is None
    rng = random.Random(20261022)
    for _ in range(30):
        d = rng.randint(1, 4)
        pts = {tuple(rng.randint(-3, 12) for _ in range(d)) for _ in range(rng.randint(1, 40))}
        sets.append(PointSet(d, pts))
    for X in sets:
        values = sorted({v for p in X.points for v in p})
        for pins in _probes(rng, X):
            _same(X, pins)
            _same(X, pins + [(0, rng.choice(values), 1)])


def test_fraction_pins_pins_off_the_digits_and_no_pins():
    X = generate("stsp", 6)
    Y = PointSet(X.dim, X.points)  # builds its buffer from the tuples
    n = len(X.points)
    for S in (X, Y):
        assert S._columns() is not None
        assert list(_same(S, [])) == list(range(n))
        one = _same(S, [(0, 1, 1)])
        assert one and _same(S, [(0, Fraction(1), 1)]) == one
        assert _same(S, [(0, Fraction(4, 4), -1), (1, Fraction(0), 1)])
        for v in (Fraction(1, 2), -1, 10, 255, 256, Fraction(-1), 1.5):
            assert _same(S, [(0, v, 1)]) == []
        assert _same(S, [(0, 0, 1), (0, 1, 1)]) == []  # both values at once
    assert PointSet(2, [])._rows_at([(0, 1, 1)]) == range(0)


def test_masks_cost_n_over_8_bytes_each():
    # the masks X keeps are one int of at most n bits per (coordinate,
    # value) the hull LPs pinned: at a column's low or high, so 2 per
    # coordinate at most
    X = generate("conn", 6)
    H = build_tsp_hiding(2, directed=False)
    assert verify_hiding(H, X).valid
    n = len(X.points)
    assert 0 < len(X._masks) <= 2 * X.dim
    assert all(type(m) is int and 0 < m.bit_length() <= n for m in X._masks.values())
    lo, hi = X.bounds()
    assert all(v in (lo[k], hi[k]) for k, v in X._masks)
