"""The structural generators against the filters they replaced.

conn sieves its cuts, spt and arb decode Prüfer sequences and tjoins
walks one cycle-space coset; tests/filter_families.py keeps the candidate
filters. Both must give the same points in the same order, the same tag,
legend, digest and bounds(), which every PointSet reads off its points.
"""

import pytest

import filter_families as ref
from rcx import families
from rcx.errors import TooLarge

TERMINALS = [(), (1, 2), (2, 3), (3, 4), (5, 6), (1, 2, 3, 4), (2, 3, 5, 7)]


def same(got, want):
    assert got.points == want.points
    assert (got.dim, got.family, got.legend) == (want.dim, want.family, want.legend)
    assert got.digest() == want.digest()
    assert got.bounds() == want.bounds()


@pytest.mark.parametrize("n", range(1, 7))
def test_conn(n):
    X = families.conn(n)
    same(X, ref.conn(n))
    assert len(X) == [1, 1, 4, 38, 728, 26_704][n - 1]  # connected labelled graphs


def test_conn_refusal():
    with pytest.raises(TooLarge) as got:
        families.conn(6, max_candidates=2**14)
    assert str(got.value) == "conn(6): 32768 candidates exceed the cap of 16384"


@pytest.mark.parametrize("n", range(1, 8))
def test_spt(n):
    same(families.spt(n), ref.spt(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_arb_every_root_and_none(n):
    for root in (None, *range(1, n + 1)):
        same(families.arb(n, root), ref.arb(n, root))


@pytest.mark.parametrize("n", range(1, 8))
def test_tjoins(n):
    for T in TERMINALS:
        if max(T, default=0) <= n:
            same(families.tjoins(n, T), ref.tjoins(n, T))


@pytest.mark.parametrize("name, args, cap", [
    ("spt", (6,), 3_003),
    ("arb", (5,), 5 * 4**4),
    ("arb", (5, 3), 4**4),
    ("tjoins", (5, (1, 2)), 2**10),
    ("conn", (5,), 2**10),
])
def test_same_caps(name, args, cap):
    # each cap still counts what the filter scanned: fits at it, refused below
    gen, old = getattr(families, name), getattr(ref, name)
    same(gen(*args, max_candidates=cap), old(*args, max_candidates=cap))
    with pytest.raises(TooLarge) as got:
        gen(*args, max_candidates=cap - 1)
    with pytest.raises(TooLarge) as want:
        old(*args, max_candidates=cap - 1)
    assert str(got.value) == str(want.value)
