"""Finite integer point families: cube slices, permutations, block vectors,
and characteristic vectors of structured edge/arc sets of complete graphs.

Every generator returns a PointSet whose points are distinct and sorted
lexicographically, so downstream hashing and comparisons are stable.
"""

from __future__ import annotations

import hashlib
from itertools import combinations, permutations, product
from math import comb, factorial

from .errors import DimMismatch, OddNodeSet, TooLarge

DEFAULT_CAP = 2**22


class EdgeIndexer:
    """Lexicographic numbering of the edges (or arcs) on nodes 1..n."""

    def __init__(self, n, directed=False):
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        self.directed = directed
        if directed:
            self.pairs = tuple((u, v) for u in range(1, n + 1)
                               for v in range(1, n + 1) if u != v)
        else:
            self.pairs = tuple((u, v) for u in range(1, n + 1)
                               for v in range(u + 1, n + 1))
        self._index = {p: k for k, p in enumerate(self.pairs)}

    @property
    def dim(self):
        return len(self.pairs)

    def index(self, u, v):
        if not self.directed and u > v:
            u, v = v, u
        try:
            return self._index[(u, v)]
        except KeyError:
            raise ValueError(f"no edge between {u} and {v}") from None

    def label(self, k):
        u, v = self.pairs[k]
        return f"({u},{v})" if self.directed else f"{{{u},{v}}}"

    def legend(self):
        return tuple(self.label(k) for k in range(self.dim))

    def vector(self, edges):
        out = [0] * self.dim
        for u, v in edges:
            out[self.index(u, v)] = 1
        return tuple(out)


class PointSet:
    """A finite set of integer points in a fixed dimension."""

    def __init__(self, dim, points, family=None, legend=None,
                 validate=True, bounds=None):
        self.dim = dim
        self.family = family
        self.legend = tuple(legend) if legend is not None else None
        if self.legend is not None and len(self.legend) != dim:
            raise DimMismatch("legend length does not match dimension")
        if validate:
            pts = sorted(set(tuple(p) for p in points))
            for p in pts:
                if len(p) != dim:
                    raise DimMismatch("point of wrong dimension")
                for v in p:
                    if not isinstance(v, int):
                        raise TypeError("integer point families only")
            self.points = pts
        else:
            self.points = list(points)
        self._bounds = bounds
        self._digest = None

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return (isinstance(other, PointSet) and self.dim == other.dim
                and self.points == other.points)

    def __repr__(self):
        tag = self.family["name"] if self.family else "points"
        return f"PointSet({tag}, dim={self.dim}, n={len(self.points)})"

    def bounds(self):
        """Per-coordinate (lows, highs) over the set."""
        if self._bounds is None:
            if not self.points:
                raise ValueError("empty point set has no bounds")
            lo = list(self.points[0])
            hi = list(self.points[0])
            for p in self.points:
                for k, v in enumerate(p):
                    if v < lo[k]:
                        lo[k] = v
                    elif v > hi[k]:
                        hi[k] = v
            self._bounds = (tuple(lo), tuple(hi))
        return self._bounds

    def digest(self):
        """Content hash of (dim, points); stable across runs."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(f"dim={self.dim};n={len(self.points)};".encode())
            buf = []
            for p in self.points:
                buf.append(",".join(map(str, p)))
                if len(buf) >= 4096:
                    h.update("\n".join(buf).encode())
                    h.update(b"\n")
                    buf.clear()
            if buf:
                h.update("\n".join(buf).encode())
                h.update(b"\n")
            self._digest = h.hexdigest()
        return self._digest


def _cap_check(count, cap, what):
    cap = DEFAULT_CAP if cap is None else cap
    if count > cap:
        raise TooLarge(f"{what}: {count} candidates exceed the cap of {cap}")


def _tag(name, **params):
    return {"name": name, "params": params}


def cube(d, max_candidates=None):
    """All 0/1 vectors of length d."""
    _cap_check(2**d, max_candidates, f"cube({d})")
    pts = [tuple(p) for p in product((0, 1), repeat=d)]
    return PointSet(d, pts, family=_tag("cube", d=d), validate=False,
                    bounds=(((0,) * d), ((1,) * d)) if d else ((), ()))


def simplex(d):
    """The origin together with the d unit vectors."""
    pts = sorted([(0,) * d] + [tuple(int(j == k) for j in range(d))
                               for k in range(d)])
    return PointSet(d, pts, family=_tag("simplex", d=d), validate=False)


def even(d, max_candidates=None):
    """0/1 vectors with an even number of ones."""
    _cap_check(2**d, max_candidates, f"even({d})")
    pts = [tuple(p) for p in product((0, 1), repeat=d) if sum(p) % 2 == 0]
    return PointSet(d, pts, family=_tag("even", d=d), validate=False)


def odd(d, max_candidates=None):
    """0/1 vectors with an odd number of ones."""
    _cap_check(2**d, max_candidates, f"odd({d})")
    pts = [tuple(p) for p in product((0, 1), repeat=d) if sum(p) % 2 == 1]
    return PointSet(d, pts, family=_tag("odd", d=d), validate=False)


def perm(n, max_candidates=None):
    """All permutations of (1, ..., n) as coordinate vectors."""
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


def _spanning_connected(n, edges):
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


class _UnionFind:
    def __init__(self, n):
        self.p = list(range(n + 1))

    def find(self, x):
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.p[ra] = rb
        return True


def stsp(n, max_candidates=None):
    """Characteristic vectors of hamiltonian cycles (undirected edges)."""
    if n < 3:
        raise ValueError("cycles need n >= 3")
    _cap_check(factorial(n - 1), max_candidates, f"stsp({n})")
    idx = EdgeIndexer(n)
    pts = []
    for tail in permutations(range(2, n + 1)):
        if tail[0] > tail[-1]:
            continue  # each cycle twice otherwise, once per direction
        seq = (1,) + tail
        edges = [(seq[i], seq[i + 1]) for i in range(n - 1)] + [(seq[-1], 1)]
        pts.append(idx.vector(edges))
    pts.sort()
    return PointSet(idx.dim, pts, family=_tag("stsp", n=n),
                    legend=idx.legend(), validate=False)


def atsp(n, max_candidates=None):
    """Characteristic vectors of directed hamiltonian cycles (arcs)."""
    if n < 2:
        raise ValueError("directed cycles need n >= 2")
    _cap_check(factorial(n - 1), max_candidates, f"atsp({n})")
    idx = EdgeIndexer(n, directed=True)
    pts = []
    for tail in permutations(range(2, n + 1)):
        seq = (1,) + tail
        arcs = [(seq[i], seq[i + 1]) for i in range(n - 1)] + [(seq[-1], 1)]
        pts.append(idx.vector(arcs))
    pts.sort()
    return PointSet(idx.dim, pts, family=_tag("atsp", n=n),
                    legend=idx.legend(), validate=False)


def conn(n, max_candidates=None):
    """Characteristic vectors of connected spanning edge subsets."""
    if n < 1:
        raise ValueError("need n >= 1")
    idx = EdgeIndexer(n)
    _cap_check(2**idx.dim, max_candidates, f"conn({n})")
    pts = []
    for bits in product((0, 1), repeat=idx.dim):
        edges = [idx.pairs[k] for k, b in enumerate(bits) if b]
        if _spanning_connected(n, edges):
            pts.append(bits)
    return PointSet(idx.dim, pts, family=_tag("conn", n=n),
                    legend=idx.legend(), validate=False)


def spt(n, max_candidates=None):
    """Characteristic vectors of spanning trees."""
    if n < 1:
        raise ValueError("need n >= 1")
    idx = EdgeIndexer(n)
    _cap_check(comb(idx.dim, n - 1), max_candidates, f"spt({n})")
    pts = []
    for chosen in combinations(range(idx.dim), n - 1):
        edges = [idx.pairs[k] for k in chosen]
        if _spanning_connected(n, edges):
            vec = [0] * idx.dim
            for k in chosen:
                vec[k] = 1
            pts.append(tuple(vec))
    pts.sort()
    return PointSet(idx.dim, pts, family=_tag("spt", n=n),
                    legend=idx.legend(), validate=False)


def forests(n, max_candidates=None):
    """Characteristic vectors of acyclic edge subsets."""
    if n < 1:
        raise ValueError("need n >= 1")
    idx = EdgeIndexer(n)
    _cap_check(2**idx.dim, max_candidates, f"forests({n})")
    pts = []
    for bits in product((0, 1), repeat=idx.dim):
        uf = _UnionFind(n)
        ok = True
        for k, b in enumerate(bits):
            if b and not uf.union(*idx.pairs[k]):
                ok = False
                break
        if ok:
            pts.append(bits)
    return PointSet(idx.dim, pts, family=_tag("forests", n=n),
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
    exactly the arborescences, n·(n-1)^(n-1) candidates in all.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if root is not None and not 1 <= root <= n:
        raise ValueError("root out of range")
    idx = EdgeIndexer(n, directed=True)
    _cap_check(comb(idx.dim, n - 1), max_candidates, f"arb({n})")
    pts = []
    for r in range(1, n + 1) if root is None else (root,):
        others = [v for v in range(1, n + 1) if v != r]
        choices = [[u for u in range(1, n + 1) if u != v] for v in others]
        for parents in product(*choices):
            parent = dict(zip(others, parents))
            if _reaches(r, parent):
                vec = [0] * idx.dim
                for v, u in parent.items():
                    vec[idx.index(u, v)] = 1
                pts.append(tuple(vec))
    pts.sort()
    return PointSet(idx.dim, pts, family=_tag("arb", n=n, root=root),
                    legend=idx.legend(), validate=False)


def branch(n, root=None, max_candidates=None):
    """Characteristic vectors of branchings: in-degree at most one
    everywhere and no cycle in the underlying undirected graph."""
    if n < 1:
        raise ValueError("need n >= 1")
    if root is not None and not 1 <= root <= n:
        raise ValueError("root out of range")
    idx = EdgeIndexer(n, directed=True)
    _cap_check(2**idx.dim, max_candidates, f"branch({n})")
    pts = []
    for bits in product((0, 1), repeat=idx.dim):
        indeg = [0] * (n + 1)
        uf = _UnionFind(n)
        ok = True
        for k, b in enumerate(bits):
            if not b:
                continue
            u, v = idx.pairs[k]
            indeg[v] += 1
            if indeg[v] > 1 or not uf.union(u, v):
                ok = False
                break
        if ok and root is not None and indeg[root] != 0:
            ok = False
        if ok:
            pts.append(bits)
    return PointSet(idx.dim, pts, family=_tag("branch", n=n, root=root),
                    legend=idx.legend(), validate=False)


def tjoin_terminals(n, terminals):
    """The sorted terminal set T of a T-join on nodes 1..n, checked."""
    try:
        T = sorted(set(terminals))
    except TypeError:
        raise ValueError("tjoins terminals must be a comma list "
                         "such as 1,2,3,4") from None
    if any(not 1 <= t <= n for t in T):
        raise ValueError("terminals out of range")
    if len(T) % 2 == 1:
        raise OddNodeSet(f"terminal set of odd size {len(T)}")
    return T


def tjoins(n, terminals=(), max_candidates=None):
    """Characteristic vectors of edge sets whose odd-degree nodes are
    exactly the given terminals.

    Generated by a depth-first sweep over edges in index order with
    degree-parity pruning as soon as a node's incident edges are all
    decided; output comes out sorted without an extra pass.
    """
    if n < 1:
        raise ValueError("need n >= 1")
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
    and_bits = (1 << m) - 1
    or_bits = 0
    # stack frames: (next edge index, parity bitmask, chosen-edge bitmask)
    stack = [(0, 0, 0)]
    while stack:
        k, par, bits = stack.pop()
        if k == m:
            out.append(tuple((bits >> j) & 1 for j in range(m)))
            and_bits &= bits
            or_bits |= bits
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
    bounds = (tuple((and_bits >> j) & 1 for j in range(m)),
              tuple((or_bits >> j) & 1 for j in range(m))) if out else None
    return PointSet(m, out, family=family, legend=idx.legend(),
                    validate=False, bounds=bounds)


FAMILIES = {
    "cube": cube,
    "simplex": simplex,
    "even": even,
    "odd": odd,
    "perm": perm,
    "diff": diff,
    "stsp": stsp,
    "atsp": atsp,
    "conn": conn,
    "spt": spt,
    "forests": forests,
    "arb": arb,
    "branch": branch,
    "tjoins": tjoins,
}


def generate(name, *params, **kwargs):
    """Dispatch to a family generator by name."""
    try:
        fn = FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None
    return fn(*params, **kwargs)
