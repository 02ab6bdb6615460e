import pytest

from rcx.errors import OddNodeSet, TooLarge
from rcx.families import (
    EdgeIndexer,
    PointSet,
    arb,
    atsp,
    branch,
    conn,
    cube,
    diff,
    even,
    forests,
    generate,
    odd,
    perm,
    simplex,
    spt,
    stsp,
    tjoins,
)


def test_edge_indexer_undirected():
    idx = EdgeIndexer(3)
    assert idx.pairs == ((1, 2), (1, 3), (2, 3))
    assert idx.legend() == ("{1,2}", "{1,3}", "{2,3}")
    assert idx.index(3, 1) == 1
    assert idx.vector([(2, 3), (1, 2)]) == (1, 0, 1)
    with pytest.raises(ValueError):
        idx.index(1, 1)


def test_edge_indexer_directed():
    idx = EdgeIndexer(2, directed=True)
    assert idx.pairs == ((1, 2), (2, 1))
    assert idx.legend() == ("(1,2)", "(2,1)")
    assert idx.index(2, 1) == 1


def test_pointset_sorts_and_dedups():
    ps = PointSet(2, [(1, 0), (0, 1), (1, 0)])
    assert ps.points == [(0, 1), (1, 0)]
    assert len(ps) == 2
    assert ps.bounds() == ((0, 0), (1, 1))
    with pytest.raises(TypeError):
        PointSet(1, [(0.5,)])


def test_pointset_digest_depends_on_content():
    a = PointSet(2, [(0, 1), (1, 0)])
    b = PointSet(2, [(1, 0), (0, 1)])
    c = PointSet(2, [(0, 1), (1, 1)])
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_cube_and_simplex():
    c = cube(2)
    assert c.points == [(0, 0), (0, 1), (1, 0), (1, 1)]
    s = simplex(2)
    assert s.points == [(0, 0), (0, 1), (1, 0)]


def test_parity_families():
    e, o = even(3), odd(3)
    assert len(e) == 4 and len(o) == 4
    assert sorted(e.points + o.points) == cube(3).points
    assert all(sum(p) % 2 == 0 for p in e)
    assert all(sum(p) % 2 == 1 for p in o)


def test_perm_and_diff():
    assert len(perm(3)) == 6
    assert perm(3).points[0] == (1, 2, 3)
    d = diff(2, 1)
    assert d.points == [(0, 1), (1, 0)]
    assert len(diff(2, 2)) == 12
    assert len(diff(3, 2)) == 4 * 3 * 2


def test_stsp_counts_and_structure():
    assert len(stsp(3)) == 1
    assert len(stsp(4)) == 3
    s5 = stsp(5)
    assert len(s5) == 12
    for p in s5:
        assert sum(p) == 5  # every tour uses n edges
    assert s5.points == sorted(s5.points)
    assert s5.legend[0] == "{1,2}"


def test_atsp_counts():
    assert atsp(2).points == [(1, 1)]
    assert len(atsp(4)) == 6
    a = atsp(4)
    idx = EdgeIndexer(4, directed=True)
    for p in a:
        assert sum(p) == 4
        # in- and out-degree one at every node
        for v in range(1, 5):
            outd = sum(p[k] for k, (u, w) in enumerate(idx.pairs) if u == v)
            ind = sum(p[k] for k, (u, w) in enumerate(idx.pairs) if w == v)
            assert outd == 1 and ind == 1


def test_conn_counts():
    assert len(conn(1)) == 1
    assert len(conn(2)) == 1
    assert len(conn(3)) == 4
    assert len(conn(4)) == 38


def test_spt_counts():
    assert len(spt(2)) == 1
    assert len(spt(3)) == 3
    assert len(spt(4)) == 16  # Cayley: 4^2


def test_forests_counts():
    assert len(forests(2)) == 2
    assert len(forests(3)) == 7
    assert len(forests(4)) == 38


def test_tree_families_are_slices():
    n = 4
    f = set(forests(n).points)
    t = [p for p in f if sum(p) == n - 1]
    assert sorted(t) == spt(n).points
    c = set(conn(n).points)
    tours = [p for p in c if sum(p) == n]
    # connected, n edges, all degrees two: exactly the tours
    idx = EdgeIndexer(n)
    tours = [p for p in tours
             if all(sum(p[k] for k, e in enumerate(idx.pairs) if v in e) == 2
                    for v in range(1, n + 1))]
    assert sorted(tours) == stsp(n).points


def test_arb_counts():
    assert len(arb(2)) == 2
    assert len(arb(3)) == 9
    assert len(arb(3, root=1)) == 3
    assert len(arb(4)) == 64


def test_branch_counts():
    assert len(branch(2)) == 3
    assert len(branch(3)) == 16
    assert len(branch(3, root=2)) == 8


def test_arb_is_branch_slice():
    n = 3
    b = set(branch(n).points)
    sliced = sorted(p for p in b if sum(p) == n - 1)
    assert sliced == arb(n).points


@pytest.mark.parametrize("n", range(1, 5))
def test_arb_is_branch_slice_for_every_root(n):
    # arborescences are the branchings with n - 1 arcs, rooted where the
    # branching has in-degree zero
    for root in (None, *range(1, n + 1)):
        sliced = [p for p in branch(n, root).points if sum(p) == n - 1]
        X = arb(n, root)
        assert X.points == sliced
        assert X.family == {"name": "arb", "params": {"n": n, "root": root}}
        assert X.legend == branch(n).legend


def test_tjoin_counts():
    assert len(tjoins(3)) == 2
    assert len(tjoins(3, (1, 2))) == 2
    assert len(tjoins(4)) == 8
    assert len(tjoins(4, (1, 2))) == 8
    assert len(tjoins(6, (1, 4))) == 1024
    assert tjoins(1).points == [()]


def test_tjoin_degrees_and_order():
    n, T = 5, (2, 5)
    ps = tjoins(n, T)
    idx = EdgeIndexer(n)
    for p in ps:
        for v in range(1, n + 1):
            deg = sum(p[k] for k, e in enumerate(idx.pairs) if v in e)
            assert deg % 2 == (1 if v in T else 0)
    assert ps.points == sorted(set(ps.points))
    lo, hi = ps.bounds()
    naive_lo = tuple(min(p[k] for p in ps) for k in range(ps.dim))
    naive_hi = tuple(max(p[k] for p in ps) for k in range(ps.dim))
    assert (lo, hi) == (naive_lo, naive_hi)


def test_tjoin_zero_vector_iff_no_terminals():
    assert (0,) * 6 in tjoins(4).points
    assert (0,) * 6 not in tjoins(4, (1, 2)).points


def test_tjoin_odd_terminals_rejected():
    with pytest.raises(OddNodeSet):
        tjoins(4, (1, 2, 3))
    with pytest.raises(ValueError):
        tjoins(4, (0, 5))


def test_caps():
    with pytest.raises(TooLarge):
        cube(23)
    with pytest.raises(TooLarge):
        tjoins(8)  # 2^28 candidate subsets
    with pytest.raises(TooLarge):
        stsp(5, max_candidates=10)
    assert len(stsp(5, max_candidates=24)) == 12


def test_generate_dispatch():
    assert generate("cube", 2) == cube(2)
    assert generate("tjoins", 3, (1, 2)) == tjoins(3, (1, 2))
    with pytest.raises(ValueError):
        generate("widgets", 3)


def test_all_families_sorted():
    sets = [cube(3), simplex(3), even(4), odd(4), perm(4), diff(2, 2),
            stsp(5), atsp(4), conn(4), spt(4), forests(4), arb(3),
            branch(3), tjoins(4, (1, 2))]
    for ps in sets:
        assert ps.points == sorted(set(ps.points)), ps
