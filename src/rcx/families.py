"""Finite integer point families: cube slices, permutations, block vectors,
and characteristic vectors of structured edge/arc sets of complete graphs.

Every generator returns a PointSet whose points are distinct and sorted
lexicographically, so downstream hashing and comparisons are stable.
"""

from __future__ import annotations

import hashlib
import inspect
from functools import cached_property
from itertools import chain, compress, permutations, product
from math import comb, factorial

from .errors import DimMismatch, OddNodeSet, TooLarge

DEFAULT_CAP = 2**22
# the hiding builders' cap on points x coordinates, sized on memory: the
# largest builds it admits (hiding build tsp 15, tsp or arb 16 --undirected)
# peak at about 310 MB resident, where tjoin 46 1,2 reached 7.4 GB
_COORDINATE_CAP = 2**25
_INT = frozenset({int})
_TUPLE = frozenset({tuple})


def _int_rows(rows, kinds):
    """The one length of rows when each row's type is in kinds, all rows
    have that length and each entry's type is exactly int (a bool is not);
    None otherwise, and for no rows."""
    if not rows or not kinds.issuperset(map(type, rows)):
        return None
    lengths = set(map(len, rows))
    if len(lengths) > 1 or not _INT.issuperset(map(type, chain.from_iterable(rows))):
        return None
    return lengths.pop()


# the values 0..9 and their ASCII digits, each way
_DIGITS = bytes(range(10))
_ASCII = bytes.maketrans(_DIGITS, b"0123456789")
_VALUES = bytes.maketrans(b"0123456789", _DIGITS)
_PIECE_BYTES = 1 << 16


def _as_digits(rows):
    """Rows of exact ints (as _int_rows finds them) as one row-major buffer
    of their values, one byte each, when every value is in 0..9; None
    otherwise."""
    try:
        digits = bytes(chain.from_iterable(rows))
    except ValueError:  # a value outside 0..255
        return None
    return None if digits.translate(None, _DIGITS) else digits


class _DigitRows:
    """The one text layout of point rows: each row is head, its d values
    joined by gap, then tail, and rows are joined by sep; `pieces` is
    the one formatter of that text.

    Single digits give every row the same width, so the text of a digit
    buffer is a repeated zero row into which each coordinate column is
    copied by one strided slice assignment, and read back by one strided
    slice. The width is counted, not built: a reader's d comes from the
    file, and only a width the file's rows fit builds anything of size d.
    """

    def __init__(self, d, head, gap, tail, sep=""):
        self.d, self.head, self.gap, self.tail, self.sep = d, head, gap, tail, sep
        # a row of dimension 0 (tjoins(1)'s one point) has no gap
        self.width = len(head) + d + max(d - 1, 0) * len(gap) + len(tail) + len(sep)
        self.slots = range(len(head), len(head) + d * (len(gap) + 1), len(gap) + 1)

    @cached_property
    def row(self):
        return (self.head + self.gap.join("0" * self.d) + self.tail + self.sep).encode()

    def pieces(self, rows, digits=None):
        """The text of rows, in pieces of as many rows as fill about 64 KB
        at one digit a value; the caller holds the only reference to each.
        The rows are copied out of their digit buffer when one is given
        (rows may then be None), else each value is written by str."""
        step = max(1, _PIECE_BYTES // self.width)
        n = len(digits) // self.d if digits else len(rows)
        head, gap, tail, sep = self.head, self.gap, self.tail, self.sep
        for i in range(0, n, step):
            if digits:
                yield self.text(digits, i, i + step)
            else:
                yield ((sep if i else "") + sep.join(
                    [head + gap.join(map(str, p)) + tail for p in rows[i:i + step]])).encode()

    def text(self, digits, start, stop):
        """The text of the buffer's rows start..stop - 1 (sep after the last
        only when rows follow)."""
        d, width = self.d, self.width
        block = digits[start * d:stop * d].translate(_ASCII)
        out = bytearray(self.row) * (len(block) // d)
        for k, s in enumerate(self.slots):
            out[s::width] = block[k::d]
        if stop * d >= len(digits) and self.sep:
            del out[-len(self.sep):]
        return out

    def read(self, raw, start, end):
        """The digit buffer whose text is raw[start:end] exactly, else None."""
        d, width = self.d, self.width
        n, extra = divmod(end - start + len(self.sep), width)
        if extra or not n:
            return None
        text = bytearray(n * d)
        for k, s in enumerate(self.slots):
            text[k::d] = raw[start + s:end:width]
        if text.translate(None, b"0123456789"):
            return None
        digits = text.translate(_VALUES)
        del text
        for piece in self.pieces(None, digits):
            if not raw.startswith(piece, start):
                return None
            start += len(piece)
        return digits


class EdgeIndexer:
    """Lexicographic numbering of the edges (or arcs) on nodes 1..n.

    dim is counted from n: n(n-1)/2 edges, or n(n-1) arcs. The pairs and
    their index are built on first use, so a size guard on dim refuses
    before the O(n^2) lists exist.
    """

    def __init__(self, n, directed=False):
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        self.directed = directed
        self.dim = n * (n - 1) if directed else n * (n - 1) // 2

    @cached_property
    def pairs(self):
        n = self.n
        if self.directed:
            return tuple((u, v) for u in range(1, n + 1)
                         for v in range(1, n + 1) if u != v)
        return tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))

    @cached_property
    def _index(self):
        return {p: k for k, p in enumerate(self.pairs)}

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
        """Each listed edge counted once per listing."""
        out = [0] * self.dim
        for u, v in edges:
            out[self.index(u, v)] += 1
        return tuple(out)


class PointSet:
    """A finite set of integer points in a fixed dimension."""

    def __init__(self, dim, points, family=None, legend=None, validate=True):
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
            if pts and _int_rows(pts, _TUPLE) is None:
                # a bool or other int subclass is stored as its int, so
                # equal sets have one digest and one file
                pts = [tuple(map(int, p)) for p in pts]
            self.points = pts
        else:
            self.points = list(points)
        self._bounds = None
        self._digest = None
        self._digits = None  # the points' digit buffer (b"" for none), once read or built

    @classmethod
    def _from_digits(cls, dim, digits, family=None, legend=None):
        """The set whose points are the rows of a digit buffer, in the
        buffer's order and unchecked, keeping the buffer for digest(),
        bounds() and _columns()."""
        pts = zip(*[iter(digits)] * dim)
        X = cls(dim, pts, family=family, legend=legend, validate=False)
        X._digits = digits
        return X

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
        """Per-coordinate (lows, highs), read off the points once and kept:
        single digits by byte search in the digit buffer's columns (each
        low is the least value found, searching up from 0, and each high
        the greatest, searching down from 9); other sets off zip(*points)."""
        if self._bounds is None:
            if not self.points:
                raise ValueError("empty point set has no bounds")
            cols = self._columns()
            if cols:
                self._bounds = tuple(
                    tuple(next(v for v in order if _DIGITS[v:v + 1] in c) for c in cols)
                    for order in (range(10), range(9, -1, -1)))
            else:
                self._bounds = (tuple(map(min, zip(*self.points))),
                                tuple(map(max, zip(*self.points))))
        return self._bounds

    def _buffer(self):
        """The points' digit buffer, empty when some value is not a single
        digit; built on first use when the set has none yet, and kept."""
        if self._digits is None:
            pts = self.points
            exact = self.dim and _int_rows(pts, _TUPLE) == self.dim
            self._digits = exact and _as_digits(pts) or b""
        return self._digits

    def _columns(self):
        """The digit buffer's coordinate columns, one bytes object each,
        sliced anew on every call and not kept; None without a buffer."""
        digits = self._buffer()
        return [digits[k::self.dim] for k in range(self.dim)] if digits else None

    def digest(self):
        """Content hash of (dim, points); stable across runs. Each point is
        hashed as its coordinates joined by commas plus a newline, written
        by _DigitRows: single digits off the digit buffer."""
        if self._digest is None:
            pts = self.points
            h = hashlib.sha256()
            h.update(f"dim={self.dim};n={len(pts)};".encode())
            for piece in _DigitRows(self.dim, "", ",", "\n").pieces(pts, self._buffer()):
                h.update(piece)
            self._digest = h.hexdigest()
        return self._digest


def _point_set(X):
    """X if it has .points/.dim/.bounds, else a PointSet in the list's order."""
    if hasattr(X, "points"):
        return X
    pts = list(X)
    return PointSet(len(pts[0]) if pts else None, pts, validate=False)


def _cap(cap):
    """The cap in force: the caller's, else DEFAULT_CAP."""
    return DEFAULT_CAP if cap is None else cap


def _decimal(n):
    """n in decimal, or as a power of 2 past int's limit on decimal digits."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


def _cap_check(count, cap, what):
    """The one size guard: refuse work past the cap with one message."""
    cap = _cap(cap)
    if count > cap:
        count, cap = _decimal(count), _decimal(cap)
        raise TooLarge(f"{what}: {count} candidates exceed the cap of {cap}")


def _tag(name, **params):
    return {"name": name, "params": params}


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


def _parity(name, d, r, max_candidates, width=0):
    """0/1 vectors of length d whose number of ones is r modulo 2; with a
    width, the points of that many coordinates they become pass the
    coordinate cap too, before any is built."""
    _cap_check(2**d, max_candidates, f"{name}({d})")
    if width:
        count = 2**d // 2 if d else 1 - r
        _cap_check(count * width, _COORDINATE_CAP,
                   f"{name}({d}) points x {width} coordinates")
    pts = [p for p in product((0, 1), repeat=d) if sum(p) % 2 == r]
    return PointSet(d, pts, family=_tag(name, d=d), validate=False)


def even(d, max_candidates=None):
    """0/1 vectors with an even number of ones."""
    return _parity("even", d, 0, max_candidates)


def odd(d, max_candidates=None):
    """0/1 vectors with an odd number of ones."""
    return _parity("odd", d, 1, max_candidates)


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


def _tours(name, n, directed, max_candidates):
    """Hamiltonian cycles on 1..n, one per node order (1, *tail); undirected,
    only orders with tail[0] < tail[-1] are kept, as each cycle comes once
    per direction."""
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
    """Characteristic vectors of hamiltonian cycles (undirected edges)."""
    if n < 3:
        raise ValueError("cycles need n >= 3")
    return _tours("stsp", n, False, max_candidates)


def atsp(n, max_candidates=None):
    """Characteristic vectors of directed hamiltonian cycles (arcs)."""
    if n < 2:
        raise ValueError("directed cycles need n >= 2")
    return _tours("atsp", n, True, max_candidates)


def _edge_subsets(name, n, directed, max_candidates, keep, **params):
    """Every edge (or arc) subset of the complete graph on 1..n that keep
    accepts, given an iterator over its pairs in index order; sorted as
    generated."""
    idx = EdgeIndexer(n, directed=directed)
    _cap_check(2**idx.dim, max_candidates, f"{name}({n})")
    pts = [bits for bits in product((0, 1), repeat=idx.dim)
           if keep(compress(idx.pairs, bits))]
    return PointSet(idx.dim, pts, family=_tag(name, n=n, **params),
                    legend=idx.legend(), validate=False)


def conn(n, max_candidates=None):
    """Characteristic vectors of connected spanning edge subsets.

    A cut sieve: an edge set is disconnected exactly when it misses a cut
    δ(S) with 1 in S ⊊ V, that is when it is a submask of the cut's
    complement, so every such submask is cleared. Edge k is bit m - 1 - k,
    so the masks count up in the order of product((0, 1), repeat=m).
    """
    idx = EdgeIndexer(n)
    m = idx.dim
    _cap_check(2**m, max_candidates, f"conn({n})")
    connected = bytearray(b"\1") * 2**m
    edges = [(1 << (m - 1 - k), u - 1, v - 1) for k, (u, v) in enumerate(idx.pairs)]
    for S in range(1, 2**n - 1, 2):  # bit v - 1: node v is in S
        comp = sum(bit for bit, u, v in edges if not (S >> u ^ S >> v) & 1)
        s = comp
        while True:
            connected[s] = 0
            if not s:
                break
            s = (s - 1) & comp
    pts = list(compress(product((0, 1), repeat=m), connected))
    return PointSet(m, pts, family=_tag("conn", n=n), legend=idx.legend(),
                    validate=False)


def _trees(n):
    """Every labelled tree on nodes 1..n once, as its edges (child, parent)
    with node n as the root: each Prüfer sequence decoded, the smallest
    leaf first, so node n is never removed."""
    for seq in product(range(1, n + 1), repeat=max(n - 2, 0)):
        degree = [0] + [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        for parent in seq:
            leaf = degree.index(1)
            edges.append((leaf, parent))
            degree[leaf] = 0
            degree[parent] -= 1
        if n > 1:
            edges.append((degree.index(1), n))
        yield edges


def spt(n, max_candidates=None):
    """Characteristic vectors of spanning trees, decoded from Prüfer
    sequences; the cap counts the C(m, n-1) edge subsets of size n - 1."""
    idx = EdgeIndexer(n)
    m = idx.dim
    _cap_check(comb(m, n - 1), max_candidates, f"spt({n})")
    pts = sorted(map(idx.vector, _trees(n)))
    return PointSet(m, pts, family=_tag("spt", n=n), legend=idx.legend(),
                    validate=False)


def _acyclic(n, edges):
    """True when no edge joins two nodes of one component; every node
    carries its component's label, and a join relabels one side."""
    label = list(range(n + 1))
    for u, v in edges:
        a, b = label[u], label[v]
        if a == b:
            return False
        label = [a if x == b else x for x in label]
    return True


def forests(n, max_candidates=None):
    """Characteristic vectors of acyclic edge subsets."""
    return _edge_subsets("forests", n, False, max_candidates,
                         lambda edges: _acyclic(n, edges))


def arb(n, root=None, max_candidates=None):
    """Characteristic vectors of spanning arborescences (any root by
    default, or a fixed one).

    Each tree of _trees(n) with the labels r and n swapped, its edges
    written as arcs parent -> child, is one arborescence rooted at r, and
    every one comes once. The cap counts the parent picks (every node but
    the root picks a parent): n·(n-1)^(n-1), or (n-1)^(n-1) with a fixed
    root.
    """
    if root is not None and not 1 <= root <= n:
        raise ValueError("root out of range")
    idx = EdgeIndexer(n, directed=True)
    picks = (n - 1) ** (n - 1) * (n if root is None else 1)
    _cap_check(picks, max_candidates, f"arb({n})")
    trees = list(_trees(n))
    pts = []
    for r in range(1, n + 1) if root is None else (root,):
        label = list(range(n + 1))
        label[r], label[n] = n, r
        pts += [idx.vector([(label[p], label[c]) for c, p in tree])
                for tree in trees]
    pts.sort()
    return PointSet(idx.dim, pts, family=_tag("arb", n=n, root=root),
                    legend=idx.legend(), validate=False)


def branch(n, root=None, max_candidates=None):
    """Characteristic vectors of branchings: in-degree at most one
    everywhere and no cycle in the underlying undirected graph."""
    if root is not None and not 1 <= root <= n:
        raise ValueError("root out of range")

    def keep(arcs):
        arcs = list(arcs)
        heads = [v for _, v in arcs]
        return (len(set(heads)) == len(heads) and root not in heads
                and _acyclic(n, arcs))

    return _edge_subsets("branch", n, True, max_candidates, keep, root=root)


def tjoin_terminals(n, terminals):
    """The sorted terminal set T of a T-join on nodes 1..n, checked."""
    try:
        if isinstance(terminals, str):
            raise TypeError
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

    The T-joins are one coset of the cycle space: each subset of the edges
    off node 1 takes the edge {1, v} for every node v whose parity is
    still wrong, and node 1's parity follows, as |T| is even. The cap
    counts all 2^m edge subsets.
    """
    T = tjoin_terminals(n, terminals)
    idx = EdgeIndexer(n)
    m = idx.dim
    _cap_check(2**m, max_candidates, f"tjoins({n})")
    rest = idx.pairs[n - 1:]  # the edges off node 1; {1, v} comes first
    masks = [(1 << u) | (1 << v) for u, v in rest]
    want = sum(1 << t for t in T)  # bit t: node t has odd degree
    pts = []
    for bits in product((0, 1), repeat=len(rest)):
        wrong = want  # bit v: node v's parity is wrong, so {1, v} is taken
        for mask in compress(masks, bits):
            wrong ^= mask
        pts.append(tuple([wrong >> v & 1 for v in range(2, n + 1)]) + bits)
    pts.sort()
    return PointSet(m, pts, family=_tag("tjoins", n=n, terminals=list(T)),
                    legend=idx.legend(), validate=False)


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


def _arity(name, fn, params, option=None, given=False):
    """params, once they fit fn's parameters but the one an option fills
    (which fn must take if given); a misfit is named by its parameters."""
    if fn is None:
        return params
    sig = inspect.signature(fn).parameters
    names = [q for q in sig.values() if q.name != option]
    least, k = sum(q.default is q.empty for q in names), len(names)
    if not least <= len(params) <= k:
        count = k if least == k else f"{least} to {k}"
        raise ValueError(f"{name} takes {count} parameter{'s' if k > 1 else ''} "
                         f"({', '.join(q.name for q in names)}), got {len(params)}")
    if given and option not in sig:
        raise ValueError(f"{name} takes no --{option.replace('_', '-')}")
    return params


def generate(name, *params, **kwargs):
    """Dispatch to a family generator by name."""
    try:
        fn = FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None
    return fn(*params, **kwargs)
