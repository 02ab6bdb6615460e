"""Test-only reference generators for every family in rcx.families.

Each builds its points as tuples, through EdgeIndexer.vector for edge
sets, and hands PointSet the sorted list, where rcx builds bytes rows
straight into a digit buffer.

The connected-subgraph, spanning-tree, arborescence and T-join
generators filter candidates, where rcx builds each point from its
structure (a cut sieve, Prüfer sequences, one cycle-space coset): conn
scans all 2^m edge subsets and spt the C(m, n-1) edge subsets of size
n - 1, each with a flood fill; arb scans every parent pick with
_reaches, and tjoins is a depth-first sweep over the edges with
degree-parity pruning. The others are rcx's generators as they were
written with tuples.
"""

from itertools import combinations, compress, permutations, product
from math import comb, factorial

from rcx.families import (EdgeIndexer, PointSet, _acyclic, _cap_check, _tag,
                          tjoin_terminals)


def cube(d, max_candidates=None):
    """All 0/1 vectors of length d."""
    _cap_check(2**d, max_candidates, f"cube({d})")
    pts = [tuple(p) for p in product((0, 1), repeat=d)]
    return PointSet(d, pts, family=_tag("cube", d=d), validate=False)


def simplex(d):
    """The origin together with the d unit vectors."""
    pts = sorted([(0,) * d] + [tuple(int(j == k) for j in range(d))
                               for k in range(d)])
    return PointSet(d, pts, family=_tag("simplex", d=d), validate=False)


def _parity(name, d, r, max_candidates):
    _cap_check(2**d, max_candidates, f"{name}({d})")
    pts = [p for p in product((0, 1), repeat=d) if sum(p) % 2 == r]
    return PointSet(d, pts, family=_tag(name, d=d), validate=False)


def even(d, max_candidates=None):
    return _parity("even", d, 0, max_candidates)


def odd(d, max_candidates=None):
    return _parity("odd", d, 1, max_candidates)


def perm(n, max_candidates=None):
    if n < 1:
        raise ValueError("need n >= 1")
    _cap_check(factorial(n), max_candidates, f"perm({n})")
    pts = list(permutations(range(1, n + 1)))
    return PointSet(n, pts, family=_tag("perm", n=n), validate=False)


def diff(m, n, max_candidates=None):
    """Concatenations of m pairwise distinct 0/1 blocks of length n."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    _cap_check(2**(m * n), max_candidates, f"diff({m},{n})")
    pts = []
    for p in product((0, 1), repeat=m * n):
        blocks = [p[i * n:(i + 1) * n] for i in range(m)]
        if len(set(blocks)) == m:
            pts.append(tuple(p))
    return PointSet(m * n, pts, family=_tag("diff", m=m, n=n), validate=False)


def _tours(name, n, directed, max_candidates):
    _cap_check(factorial(n - 1), max_candidates, f"{name}({n})")
    idx = EdgeIndexer(n, directed=directed)
    pts = []
    for tail in permutations(range(2, n + 1)):
        if directed or tail[0] < tail[-1]:
            seq = (1,) + tail + (1,)
            pts.append(idx.vector(zip(seq, seq[1:])))
    pts.sort()
    return PointSet(idx.dim, pts, family=_tag(name, n=n),
                    legend=idx.legend(), validate=False)


def stsp(n, max_candidates=None):
    if n < 3:
        raise ValueError("cycles need n >= 3")
    return _tours("stsp", n, False, max_candidates)


def atsp(n, max_candidates=None):
    if n < 2:
        raise ValueError("directed cycles need n >= 2")
    return _tours("atsp", n, True, max_candidates)


def _edge_subsets(name, n, directed, max_candidates, keep, **params):
    idx = EdgeIndexer(n, directed=directed)
    _cap_check(2**idx.dim, max_candidates, f"{name}({n})")
    pts = [bits for bits in product((0, 1), repeat=idx.dim)
           if keep(compress(idx.pairs, bits))]
    return PointSet(idx.dim, pts, family=_tag(name, n=n, **params),
                    legend=idx.legend(), validate=False)


def forests(n, max_candidates=None):
    return _edge_subsets("forests", n, False, max_candidates,
                         lambda edges: _acyclic(n, edges))


def branch(n, root=None, max_candidates=None):
    if root is not None and not 1 <= root <= n:
        raise ValueError("root out of range")

    def keep(arcs):
        arcs = list(arcs)
        heads = [v for _, v in arcs]
        return (len(set(heads)) == len(heads) and root not in heads
                and _acyclic(n, arcs))

    return _edge_subsets("branch", n, True, max_candidates, keep, root=root)


def _spanning_connected(n, edges):
    """True when the edges connect nodes 1..n: a flood fill from node 1 over
    per-node neighbour bitmasks (bit v stands for node v)."""
    nbr = [0] * (n + 1)
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    seen = frontier = 1 << 1
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= nbr[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << (n + 1)) - 2


def conn(n, max_candidates=None):
    """Characteristic vectors of connected spanning edge subsets."""
    return _edge_subsets("conn", n, False, max_candidates,
                         lambda edges: _spanning_connected(n, edges))


def spt(n, max_candidates=None):
    """Characteristic vectors of spanning trees."""
    idx = EdgeIndexer(n)
    _cap_check(comb(idx.dim, n - 1), max_candidates, f"spt({n})")
    pts = []
    for edges in combinations(idx.pairs, n - 1):
        if _spanning_connected(n, edges):
            pts.append(idx.vector(edges))
    pts.sort()
    return PointSet(idx.dim, pts, family=_tag("spt", n=n),
                    legend=idx.legend(), validate=False)


def _reaches(root, parent):
    """True when following parents from every node ends at the root."""
    done = {root}
    for v in parent:
        path = []
        while v not in done:
            if v in path:
                return False
            path.append(v)
            v = parent[v]
        done.update(path)
    return True


def arb(n, root=None, max_candidates=None):
    """Characteristic vectors of spanning arborescences (any root by
    default, or a fixed one).

    Every node but the root picks a parent; the picks without a cycle are
    exactly the arborescences, n·(n-1)^(n-1) candidates in all, or
    (n-1)^(n-1) with a fixed root; the cap is checked against those picks.
    """
    if root is not None and not 1 <= root <= n:
        raise ValueError("root out of range")
    idx = EdgeIndexer(n, directed=True)
    picks = (n - 1) ** (n - 1) * (n if root is None else 1)
    _cap_check(picks, max_candidates, f"arb({n})")
    pts = []
    for r in range(1, n + 1) if root is None else (root,):
        others = [v for v in range(1, n + 1) if v != r]
        choices = [[u for u in range(1, n + 1) if u != v] for v in others]
        for parents in product(*choices):
            if _reaches(r, dict(zip(others, parents))):
                pts.append(idx.vector(zip(parents, others)))
    pts.sort()
    return PointSet(idx.dim, pts, family=_tag("arb", n=n, root=root),
                    legend=idx.legend(), validate=False)


def tjoins(n, terminals=(), max_candidates=None):
    """Characteristic vectors of edge sets whose odd-degree nodes are
    exactly the given terminals.

    Generated by a depth-first sweep over edges in index order with
    degree-parity pruning as soon as a node's incident edges are all
    decided; output comes out sorted without an extra pass.
    """
    T = tjoin_terminals(n, terminals)
    idx = EdgeIndexer(n)
    m = idx.dim
    _cap_check(2**m, max_candidates, f"tjoins({n})")
    target = 0
    for t in T:
        target |= 1 << (t - 1)
    family = _tag("tjoins", n=n, terminals=list(T))
    if m == 0:
        pts = [()] if target == 0 else []
        return PointSet(0, pts, family=family, legend=(), validate=False)
    edge_mask = [(1 << (u - 1)) | (1 << (v - 1)) for u, v in idx.pairs]
    last = [-1] * (n + 1)
    for k, (u, v) in enumerate(idx.pairs):
        last[u] = k
        last[v] = k
    finish = [[] for _ in range(m)]
    for v in range(1, n + 1):
        if last[v] >= 0:
            finish[last[v]].append(v - 1)
    out = []
    # stack frames: (next edge index, parity bitmask, chosen-edge bitmask)
    stack = [(0, 0, 0)]
    while stack:
        k, par, bits = stack.pop()
        if k == m:
            out.append(tuple((bits >> j) & 1 for j in range(m)))
            continue
        for b in (1, 0):  # pushed 1 first so the 0-branch is explored first
            np = par ^ edge_mask[k] if b else par
            ok = True
            for node in finish[k]:
                if ((np >> node) & 1) != ((target >> node) & 1):
                    ok = False
                    break
            if ok:
                stack.append((k + 1, np, bits | (b << k)))
    return PointSet(m, out, family=family, legend=idx.legend(), validate=False)
