"""Hiding-set constructions and exact certificate checking.

A hiding set for X is a set H of integer points in aff(X) but outside
conv(X) such that the segment between any two of its points meets
conv(X). Any polyhedron whose integer points within aff(X) are exactly X
must then use a separate facet to cut off each point of H, so |H| is a
lower bound on the number of facets of any such relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, product
from math import comb

from .errors import DimMismatch, EmptySet
from .families import (EdgeIndexer, PointSet, _cap_check, _parity, _tag, odd,
                       tjoin_terminals)
from .linprog import Halfspace, HPolyhedron, conv_membership, segment_hits_hull
from .rational import affine_hull, in_affine_hull
from .relaxations import LatticeBox, enumerate_lattice


def cycle_pair_arcs(N, b, drop_return_arc=False):
    """Arc set on 2(N+1) nodes built from a binary pattern b.

    Nodes 1..N+1 form the top row, nodes N+2..2N+2 the bottom row. Both
    rows close up (top: 2N+2 -> ... arc (N+1, 1); bottom: (2N+2, N+2)),
    and at position i the rows either continue straight (b_i = 0) or
    cross over (b_i = 1). The result is one hamiltonian cycle when b has
    an odd number of ones, and two disjoint cycles when even.
    """
    if len(b) != N:
        raise DimMismatch("pattern length must be N")
    top = lambda i: i              # v_i
    bot = lambda i: N + 1 + i      # w_i
    arcs = [(top(N + 1), top(1))]
    if not drop_return_arc:
        arcs.append((bot(N + 1), bot(1)))
    for i in range(1, N + 1):
        if b[i - 1] == 0:
            arcs.append((top(i), top(i + 1)))
            arcs.append((bot(i), bot(i + 1)))
        else:
            arcs.append((top(i), bot(i + 1)))
            arcs.append((bot(i), top(i + 1)))
    return tuple(arcs)


def flip_pair(b, bp):
    """For distinct patterns, flip the first differing bit in both.

    Flipping one crossing toggles the parity, so two even patterns turn
    into two odd ones while the arc multiset union stays the same.
    """
    j = next(i for i in range(len(b)) if b[i] != bp[i])
    c = tuple(v ^ (1 if i == j else 0) for i, v in enumerate(b))
    cp = tuple(v ^ (1 if i == j else 0) for i, v in enumerate(bp))
    return c, cp, j


def _cycle_pairs(name, N, directed, drop_return_arc):
    """One point per even pattern b, the arcs of cycle_pair_arcs(N, b),
    2^(N-1) in total. Undirected, arcs are projected onto edges (summing
    multiplicities, which only matters for N = 1)."""
    if N < 1:
        raise ValueError("need N >= 1")
    idx = EdgeIndexer(2 * (N + 1), directed=directed)
    pts = sorted(idx.vector(cycle_pair_arcs(N, b, drop_return_arc))
                 for b in _parity(name, N, 0, None, width=idx.dim))
    return PointSet(idx.dim, pts, family=_tag(name, N=N, directed=directed),
                    legend=idx.legend(), validate=False)


def build_tsp_hiding(N, directed=True):
    """Two-cycle configurations hiding the tour set on 2(N+1) nodes."""
    return _cycle_pairs("tsp_hiding", N, directed, drop_return_arc=False)


def build_arb_hiding(N, directed=True):
    """Cycle-plus-path configurations hiding arborescences or trees.

    Same patterns as build_tsp_hiding but with the bottom row's closing
    arc removed, so odd patterns give spanning paths (arborescences) and
    even patterns a disjoint cycle plus path.
    """
    return _cycle_pairs("arb_hiding", N, directed, drop_return_arc=True)


def build_diff_hiding(n):
    """Duplicated-block points (x, x) hiding the distinct-rows family.

    For n = 1 the target has only two points and spans a line that no
    duplicated pair touches, so the two integer points of that line
    flanking the hull are returned instead; the bound 2^n is unchanged.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _cap_check(2**n, None, f"diff_hiding({n})")
    if n == 1:
        pts = [(-1, 2), (2, -1)]
    else:
        pts = [x + x for x in product((0, 1), repeat=n)]
    return PointSet(2 * n, pts, family=_tag("diff_hiding", n=n), validate=False)


def build_perm_hiding(n):
    """Near-permutation vectors hiding the permutation family.

    For each index set S of size m = floor(n/2), the point puts the
    values 1..m-1 on S (the value m-1 twice, at the two largest indices)
    and m+2..n elsewhere (m+2 twice, at the two smallest), staying on the
    total-sum hyperplane while undershooting only the subset-sum bound
    of S itself.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    m = n // 2
    _cap_check(comb(n, m), None, f"perm_hiding({n})")
    pts = []
    for S in combinations(range(n), m):
        x = [0] * n
        inside = [1 + j for j in range(m - 2)] + [m - 1, m - 1]
        for pos, val in zip(S, inside):
            x[pos] = val
        comp = [j for j in range(n) if j not in S]
        outside = [m + 2, m + 2] + [m + 2 + j for j in range(1, n - m - 1)]
        for pos, val in zip(comp, outside):
            x[pos] = val
        pts.append(tuple(x))
    pts.sort()
    return PointSet(n, pts, family=_tag("perm_hiding", n=n), validate=False)


def build_parity_hiding(n):
    """The odd-parity vectors, hiding the even-parity family.

    For n = 2 the target {(0,0), (1,1)} spans only the diagonal, which
    both odd points leave, so the two integer points of that line
    flanking the hull are returned instead; the bound 2^(n-1) is
    unchanged. For n = 1 the affine hull is a single point and no hiding
    set exists.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n == 2:
        return PointSet(2, [(-1, -1), (2, 2)], family=_tag("parity_hiding", n=2),
                        validate=False)
    return odd(n)


def build_tjoin_hiding(n, terminals):
    """Two matching-union families hiding the T-join family.

    Splits the terminals and the remaining nodes into halves joined by
    round-robin matchings M_1..M_k and N_1..N_l. Unions of an even
    number of M's (with a fixed even N-part) and of an odd number of N's
    (with a fixed odd M-part) have the wrong parity pattern, yet pairs
    average into the hull. No union is a T-join: an H1 point has no odd
    node and an H2 point has every node of U odd, so only the empty union
    is one, when T is empty; H1 then takes no pattern. Returns (H1, H2).
    """
    if n < 2 or n % 2 == 1:
        raise ValueError("need an even number of nodes, n >= 2")
    T = tjoin_terminals(n, terminals)
    U = [v for v in range(1, n + 1) if v not in set(T)]
    k, l = len(T) // 2, len(U) // 2
    # both parts' patterns, and the points they become, pass the size guard
    # before the O(n^2) matchings and edge index are built
    idx = EdgeIndexer(n)
    even_M, odd_N = (_parity("tjoin_hiding", k, 0, None, width=idx.dim),
                     _parity("tjoin_hiding", l, 1, None, width=idx.dim))
    T1, T2 = T[:k], T[k:]
    U1, U2 = U[:l], U[l:]
    M = [[(T1[j], T2[(j + i) % k]) for j in range(k)] for i in range(k)]
    Nm = [[(U1[j], U2[(j + i) % l]) for j in range(l)] for i in range(l)]

    def part(p, groups, patterns, fixed):
        """Unions of the groups each pattern picks, plus fixed."""
        pts = [idx.vector(fixed + [e for g in compress(groups, bits) for e in g])
               for bits in patterns]
        return PointSet(idx.dim, sorted(pts), legend=idx.legend(), validate=False,
                        family=_tag("tjoin_hiding", n=n, terminals=list(T), part=p))

    # H1: even unions of M's with no N; H2: odd unions of N's plus M_1
    return (part(1, M, even_M if k else [], []),
            part(2, Nm, odd_N, M[0] if k else []))


@dataclass(frozen=True)
class HidingCertificate:
    """Outcome of checking a candidate hiding set H against X.

    Check lists follow H's point order (pairs in lexicographic index
    order) and may stop early at the first failure, which is then named
    in `failure` as (kind, detail).
    """

    valid: bool
    bound: int
    x_digest: str
    h_digest: str
    integral: tuple
    in_affine: tuple
    excluded: tuple
    pair_results: tuple
    failure: tuple | None = None

    @property
    def rc_lower_bound(self):
        return self.bound if self.valid else None


def verify_hiding(H, X):
    """Exactly check every hiding-set condition of H against X."""
    if H.dim != X.dim:
        raise DimMismatch("hiding set and target set dimensions differ")
    if not X.points:
        raise EmptySet("cannot hide against an empty point set")

    def done(valid, integral, in_aff, excluded, pairs, failure=None):
        return HidingCertificate(
            valid=valid, bound=len(H), x_digest=X.digest(), h_digest=H.digest(),
            integral=tuple(integral), in_affine=tuple(in_aff),
            excluded=tuple(excluded), pair_results=tuple(pairs),
            failure=failure)

    integral = [all(isinstance(v, int) for v in h) for h in H.points]
    if not all(integral):
        bad = H.points[integral.index(False)]
        return done(False, integral, [], [], [], ("not_integral", bad))
    hull = affine_hull(X)
    in_aff = [in_affine_hull(h, hull) for h in H.points]
    if not all(in_aff):
        bad = H.points[in_aff.index(False)]
        return done(False, integral, in_aff, [], [], ("outside_affine_hull", bad))
    excluded = []
    for h in H.points:
        inside, _ = conv_membership(h, X)
        excluded.append(not inside)
        if inside:
            return done(False, integral, in_aff, excluded, [],
                        ("inside_hull", h))
    pairs = []
    for i, j in combinations(range(len(H.points)), 2):
        hit, _ = segment_hits_hull(H.points[i], H.points[j], X)
        pairs.append(((i, j), hit))
        if not hit:
            return done(False, integral, in_aff, excluded, pairs,
                        ("segment_misses", (H.points[i], H.points[j])))
    return done(True, integral, in_aff, excluded, pairs)


def _conflict_graph(points, X):
    """Adjacency bitmasks: i and j are joined when segment_hits_hull hits,
    so every edge rests on a re-checked witness in conv(X)."""
    adj = [0] * len(points)
    for i, j in combinations(range(len(points)), 2):
        if segment_hits_hull(points[i], points[j], X)[0]:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def _greedy_color(P, adj):
    """(color, vertex) for each vertex of the bitmask P, sorted."""
    classes, colored = [], []
    for v in range(P.bit_length()):
        if P >> v & 1:
            c = next(c for c, cl in enumerate(classes + [0]) if not adj[v] & cl)
            if c == len(classes):
                classes.append(0)
            classes[c] |= 1 << v
            colored.append((c + 1, v))
    return sorted(colored)


def _max_clique(adj):
    """Largest clique of bitmask adjacency, by branch and bound with a
    greedy coloring bound."""
    best = []

    def expand(R, P):
        nonlocal best
        if not P:
            if len(R) > len(best):
                best = list(R)
            return
        for c, v in reversed(_greedy_color(P, adj)):
            if len(R) + c <= len(best):
                return
            P &= ~(1 << v)
            R.append(v)
            expand(R, P & adj[v])
            R.pop()

    expand([], (1 << len(adj)) - 1)
    return best


def max_hiding_in_box(X, box, max_candidates=None):
    """Largest hiding set for X whose points lie in an integer box.

    box is a (lows, highs) pair of integer tuples. enumerate_lattice scans
    the box over aff(X)'s equations, under its cap; the points outside
    conv(X) are joined when their segment meets conv(X), and a maximum
    clique is found. Returns (size, witness PointSet).
    """
    box = LatticeBox(*box)
    if box.dim != X.dim:
        raise DimMismatch("box dimension does not match point set")
    hull = affine_hull(X)
    P = HPolyhedron(X.dim, [Halfspace(a, "=", b) for a, b in hull.equations])
    cands = [p for p in enumerate_lattice(P, box, max_candidates)
             if not conv_membership(p, X)[0]]
    clique = _max_clique(_conflict_graph(cands, X))
    witness = PointSet(X.dim, [cands[i] for i in clique])
    return len(clique), witness
