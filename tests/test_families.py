import ast
import hashlib
import random
from fractions import Fraction
from itertools import chain, compress, product
from pathlib import Path

import pytest

import rcx
from rcx import fileio
from rcx.errors import DimMismatch, OddNodeSet, TooLarge
from rcx.families import (
    EdgeIndexer,
    PointSet,
    _DigitRows,
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
    tjoin_terminals,
    tjoins,
)
from rcx.separation import bound_report
from filter_families import _spanning_connected
from test_fileio import FAMILY_SIZES


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


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("u, v", [(1, 1), (0, 1), (1, 0), (4, 1), (1, 4), (-1, 2), (2, -1)])
def test_edge_indexer_refuses_pairs_off_its_edges(directed, u, v):
    idx = EdgeIndexer(3, directed=directed)
    with pytest.raises(ValueError, match=f"no edge between {u} and {v}"):
        idx.index(u, v)
    assert [idx.index(*p) for p in idx.pairs] == list(range(idx.dim))


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


def _connected_by_adjacency(n, edges):
    """The adjacency-list flood fill that _spanning_connected replaced."""
    if n == 1:
        return True
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


@pytest.mark.parametrize("n", range(1, 6))
def test_bitmask_connectivity_matches_adjacency_lists(n):
    pairs = EdgeIndexer(n).pairs
    answers = []
    for bits in product((0, 1), repeat=len(pairs)):
        edges = list(compress(pairs, bits))
        answers.append(_spanning_connected(n, edges))
        assert answers[-1] == _connected_by_adjacency(n, edges), edges
    # connected labelled graphs on n nodes
    assert sum(answers) == [1, 1, 4, 38, 728][n - 1]


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


def test_arb_cap_counts_the_parent_picks():
    # n·(n-1)^(n-1) picks are scanned, or (n-1)^(n-1) with a root
    assert len(arb(6, max_candidates=18_750)) == 7_776
    assert len(arb(6, 2, max_candidates=3_125)) == 1_296
    with pytest.raises(TooLarge, match=r"^arb\(6\): 18750 candidates exceed the cap of 18749$"):
        arb(6, max_candidates=18_749)
    with pytest.raises(TooLarge, match=r"^arb\(6\): 3125 candidates exceed the cap of 3124$"):
        arb(6, 2, max_candidates=3_124)


def test_arb_7_fits_the_default_cap_and_8_does_not():
    assert len(arb(7)) == 7**6  # 326,592 picks
    with pytest.raises(TooLarge, match=r"^arb\(8\): 6588344 candidates exceed the cap of 4194304$"):
        arb(8)


def test_spt_and_tjoins_caps_count_their_candidate_subsets():
    # C(36, 8) edge subsets of size n - 1 for spt 9; 2^28 edge subsets for tjoins 8
    with pytest.raises(TooLarge, match=r"^spt\(9\): 30260340 candidates exceed the cap of 4194304$"):
        spt(9)
    with pytest.raises(TooLarge,
                       match=r"^tjoins\(8\): 268435456 candidates exceed the cap of 4194304$"):
        tjoins(8, (1, 2, 3, 4))


@pytest.mark.parametrize("args, count", [
    (("cube", 20000), "at least 2^20000"),      # 6,021 digits
    (("perm", 2000), "at least 2^19052"),       # 5,736 digits
    (("stsp", 5000), "at least 2^54220"),       # 16,322 digits
    (("cube", 14000), str(2**14000)),           # 4,215 digits print as before
], ids=["cube20000", "perm2000", "stsp5000", "cube14000"])
def test_counts_past_the_digit_limit_print_as_a_power_of_2(args, count):
    # str() refuses ints past 4,300 decimal digits; the refusal still comes
    with pytest.raises(TooLarge) as err:
        generate(*args)
    assert str(err.value) == (f"{args[0]}({args[1]}): {count} candidates "
                              f"exceed the cap of 4194304")


def test_a_cap_past_the_digit_limit_prints_as_a_power_of_2():
    # a library caller's cap is written by the count's rule
    with pytest.raises(TooLarge) as err:
        cube(20000, max_candidates=10**4400)
    assert str(err.value) == ("cube(20000): at least 2^20000 candidates "
                              "exceed the cap of at least 2^14616")


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



@pytest.mark.parametrize("call", [
    lambda: tjoin_terminals(4, "1,2"),
    lambda: tjoin_terminals(4, "2"),
    lambda: bound_report("tjoins", 4, "1,2"),
], ids=["tjoin_terminals 1,2", "tjoin_terminals 2", "bound_report tjoins 1,2"])
def test_tjoin_terminals_refuse_a_string(call):
    # a string iterates as its characters, which are no node numbers
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == "tjoins terminals must be a comma list such as 1,2,3,4"

def test_caps():
    with pytest.raises(TooLarge):
        cube(23)
    with pytest.raises(TooLarge):
        tjoins(8)  # 2^28 candidate subsets
    with pytest.raises(TooLarge):
        stsp(5, max_candidates=10)
    assert len(stsp(5, max_candidates=24)) == 12


def _default_cap_reads(path):
    """(kind, line) of each read of DEFAULT_CAP in one module's source."""
    reads = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and node.id == "DEFAULT_CAP":
            reads.append(("name", node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == "DEFAULT_CAP":
            reads.append(("attribute", node.lineno))
        elif isinstance(node, ast.alias) and node.name == "DEFAULT_CAP":
            reads.append(("import", node.lineno))
    return reads


def test_only_families_reads_the_default_cap():
    # one size guard: _cap and _cap_check in rcx.families decide every
    # refusal; the package __init__ may only re-export the constant
    src = Path(rcx.__file__).parent
    reads = {p.name: _default_cap_reads(p) for p in sorted(src.glob("*.py"))}
    assert {name for name, r in reads.items() if r} == {"__init__.py", "families.py"}
    assert [kind for kind, _ in reads["__init__.py"]] == ["import"]


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


def _joined_digest(X):
    """The chunked-join text that every digest hashes, written out by hand."""
    h = hashlib.sha256()
    h.update(f"dim={X.dim};n={len(X.points)};".encode())
    buf = []
    for p in X.points:
        buf.append(",".join(map(str, p)))
        if len(buf) >= 4096:
            h.update("\n".join(buf).encode())
            h.update(b"\n")
            buf.clear()
    if buf:
        h.update("\n".join(buf).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name, params", FAMILY_SIZES,
                         ids=[f"{n}{p}".replace(" ", "") for n, p in FAMILY_SIZES])
def test_digest_matches_the_joined_text(name, params):
    X = generate(name, *params)
    assert X.digest() == _joined_digest(X)


def _past_the_chunk(k):
    """The first k points of cube(13): 4,096 points fill one chunk."""
    return PointSet(13, list(product((0, 1), repeat=13))[:k])


@pytest.mark.parametrize("X", [
    PointSet(1, []), PointSet(3, []), PointSet(1, [(0,), (5,), (-2,)]),
    PointSet(3, [(-1, 10, 0), (-123, 99, 7), (12345678901234567890, -10, 10)]),
    _past_the_chunk(4095), _past_the_chunk(4096), _past_the_chunk(4097),
    PointSet(2, [[0, 1], [1, 0]], validate=False),
    PointSet(2, [(0, 1), [1, 0]], validate=False),
    PointSet(2, [(0, True), (1, 0)], validate=False),
    PointSet(2, [(0, 1), (Fraction(1, 2), 0)], validate=False),
    PointSet(2, [(9, 10), (10, 9), (9, 9)]), PointSet(1, [(0,), (9,), (4,)]),
    _past_the_chunk(2520), _past_the_chunk(2521),
], ids=["empty1", "empty3", "dim1", "wide", "4095", "4096", "4097",
        "lists", "mixed", "bool", "fraction", "nine and ten", "digits dim1",
        "one 64 KB piece", "past one 64 KB piece"])
def test_digest_edge_sets_match_the_joined_text(X):
    assert X.digest() == _joined_digest(X)


@pytest.mark.parametrize("d, n", [(5, 1), (181, 400), (182, 400), (700, 3), (700, 47)])
def test_digit_text_is_the_str_text_in_every_piece_shape(d, n):
    # a piece with fewer rows than columns is copied off the buffer row by
    # row, any other column by column (digest pieces of 182 columns hold
    # 180 rows, of 181 columns 181 rows); both give the text of str
    rng = random.Random(d * n)
    pts = [tuple(rng.randrange(10) for _ in range(d)) for _ in range(n)]
    digits = bytes(chain.from_iterable(pts))
    for layout in (_DigitRows(d, "", ",", "\n"), fileio._point_rows(d, fileio._ITEMS)):
        assert b"".join(layout.pieces(None, digits)) == b"".join(layout.pieces(pts))


def test_digest_tells_a_bool_from_its_int():
    ints = PointSet(2, [(0, 1), (1, 0)], validate=False)
    bools = PointSet(2, [(0, True), (1, 0)], validate=False)
    assert ints.digest() != bools.digest()


def test_validated_bools_are_stored_as_ints():
    ints = PointSet(2, [(0, 1), (1, 0)])
    bools = PointSet(2, [(False, True), (1, 0), [True, 0]])
    assert bools.points == ints.points
    assert {type(v) for p in bools.points for v in p} == {int}
    assert bools.digest() == ints.digest()


@pytest.mark.parametrize("call, error, message", [
    (lambda: PointSet(2, [], legend=("a",)), DimMismatch,
     "legend length does not match dimension"),
    (lambda: PointSet(2, [(1, 2, 3)]), DimMismatch, "point of wrong dimension"),
    (lambda: PointSet(2, []).bounds(), ValueError, "empty point set has no bounds"),
    (lambda: perm(0), ValueError, "need n >= 1"),
    (lambda: diff(0, 2), ValueError, "need m, n >= 1"),
    (lambda: diff(2, 0), ValueError, "need m, n >= 1"),
    (lambda: stsp(2), ValueError, "cycles need n >= 3"),
    (lambda: atsp(1), ValueError, "directed cycles need n >= 2"),
    (lambda: arb(3, 0), ValueError, "root out of range"),
    (lambda: arb(3, 4), ValueError, "root out of range"),
    (lambda: branch(3, 4), ValueError, "root out of range"),
], ids=["legend", "point-dim", "empty-bounds", "perm0", "diff-m0", "diff-n0",
        "stsp2", "atsp1", "arb-root0", "arb-root4", "branch-root4"])
def test_input_guards(call, error, message):
    with pytest.raises(error) as got:
        call()
    assert str(got.value) == message
