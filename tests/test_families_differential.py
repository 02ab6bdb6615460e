"""Every generator against a reference that builds its points as tuples.

rcx builds the rows of its 0/1 families as bytes, straight into the
set's digit buffer; conn sieves its cuts, spt and arb decode Prüfer
sequences and tjoins walks one cycle-space coset. tests/filter_families.py
keeps tuple generators: the candidate filters these replaced, and the
others as they were written with tuples. Both must give the same points
(tuples of ints) in the same order, the same tag, legend, digest and
bounds(), and the same written bytes.
"""

import pytest

import filter_families as ref
from rcx import families, fileio
from rcx.errors import TooLarge
from test_fileio import FAMILY_SIZES

TERMINALS = [(), (1, 2), (2, 3), (3, 4), (5, 6), (1, 2, 3, 4), (2, 3, 5, 7)]


def same(got, want):
    assert got.points == want.points
    assert all(type(p) is tuple for p in got.points)
    assert (got.dim, got.family, got.legend) == (want.dim, want.family, want.legend)
    assert got.digest() == want.digest()
    if want.points:
        assert got.bounds() == want.bounds()
    if want.dim:  # a point file may not have dimension 0
        assert fileio.dumps(fileio.pointset_doc(got)) == fileio.dumps(fileio.pointset_doc(want))


@pytest.mark.parametrize("name, params", FAMILY_SIZES,
                         ids=[f"{n}{p}".replace(" ", "") for n, p in FAMILY_SIZES])
def test_every_family_matches_its_tuple_reference(name, params):
    same(families.generate(name, *params), getattr(ref, name)(*params))


# sets of dimension 0 (one empty point, or none) and sets with no points,
# with their number of points
EDGE_SIZES = {("conn", (1,)): 1, ("spt", (1,)): 1, ("arb", (1,)): 1, ("arb", (1, 1)): 1,
              ("tjoins", (1,)): 1, ("tjoins", (2,)): 1, ("cube", (0,)): 1,
              ("simplex", (0,)): 1, ("even", (0,)): 1, ("odd", (0,)): 0,
              ("diff", (3, 1)): 0, ("diff", (5, 2)): 0}


@pytest.mark.parametrize("name, params", list(EDGE_SIZES),
                         ids=[f"{n}{p}".replace(" ", "") for n, p in EDGE_SIZES])
def test_dimension_0_and_empty_sets(name, params):
    X = families.generate(name, *params)
    same(X, getattr(ref, name)(*params))
    assert len(X) == EDGE_SIZES[name, params]


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
