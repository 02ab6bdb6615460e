"""The connected-subgraph, spanning-tree, arborescence and T-join
generators that filter candidates, kept as a test-only reference for the
generators in rcx.families that build each point from its structure (a
cut sieve, Prüfer sequences, one cycle-space coset).

conn scans all 2^m edge subsets and spt the C(m, n-1) edge subsets of
size n - 1, each with a flood fill; arb scans every parent pick with
_reaches, and tjoins is a depth-first sweep over the edges with
degree-parity pruning.
"""

from itertools import combinations, product
from math import comb

from rcx.families import (EdgeIndexer, PointSet, _cap_check, _edge_subsets, _tag,
                          tjoin_terminals)


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
