"""Explicit outer descriptions with exact lattice-point verification.

Builders produce small integer-coefficient inequality systems for the
classic families (unit cube, tour polytopes, connected subgraphs, the
permutahedron).  The verifier enumerates every lattice point of a bounded
polyhedron exactly and compares against the convex hull of a target point
set, so a "verified" answer is a complete certificate, not a sample.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .errors import DimMismatch, Infeasible, UnboundedCoordinate
from .families import EdgeIndexer, PointSet, _cap, _cap_check
from .linprog import (
    Halfspace,
    HPolyhedron,
    _le_rows,
    _solve,
    _unit_ray,
    conv_membership,
)


def build_cube_relaxation(d):
    """d+1 rows whose integer solutions are exactly {0,1}^d.

    Row k bounds x_k by 1 plus a geometrically shrinking tail of the later
    coordinates; one final row bounds x_1 from below by the mirrored tail.
    All rows are scaled by 2**d so the data is integral.
    """
    if d < 1:
        raise ValueError("need dimension at least 1")
    s = 2**d
    rows = []
    for k in range(1, d + 1):
        a = [0] * d
        a[k - 1] = s
        for i in range(k + 1, d + 1):
            a[i - 1] = -(2 ** (d - i))
        rows.append(Halfspace(a, "<=", s))
    a = [0] * d
    a[0] = s
    for i in range(2, d + 1):
        a[i - 1] = 2 ** (d - i)
    rows.append(Halfspace(a, ">=", 0))
    return HPolyhedron(d, rows)


def _box_rows(dim):
    rows = []
    for k in range(dim):
        a = [0] * dim
        a[k] = 1
        rows.append(Halfspace(a, ">=", 0))
        rows.append(Halfspace(a, "<=", 1))
    return rows


def _cut(idx, n, mask):
    """Incidence row of delta(S), the edges (or arcs) leaving the node set
    S given as a bitmask (node i <-> bit i-1)."""
    a = [0] * idx.dim
    for u in range(1, n + 1):
        if mask >> (u - 1) & 1:
            for w in range(1, n + 1):
                if not mask >> (w - 1) & 1:
                    a[idx.index(u, w)] = 1
    return a


def build_subtour_relaxation(n, directed=False):
    """Degree equalities plus one cut row per node subset, over the box.

    Undirected: x(delta(v)) = 2 and x(delta(S)) >= 2; cuts deduplicated by
    complement (delta(S) = delta(V minus S)), keeping the side with node 1.
    Directed: out- and in-degree equal 1 (the in-degree row is the cut of
    V minus v) and every proper subset needs one outgoing arc.  Row order:
    box pairs by edge, degrees by node, cuts by subset bitmask (node i <->
    bit i-1) ascending.
    """
    if n < 3:
        raise ValueError("need at least three nodes")
    _cap_check(2**n, None, "cut rows")
    idx = EdgeIndexer(n, directed=directed)
    rows = _box_rows(idx.dim)
    full = (1 << n) - 1
    k = 1 if directed else 2
    for v in range(n):
        for S in (1 << v, full ^ (1 << v)) if directed else (1 << v,):
            rows.append(Halfspace(_cut(idx, n, S), "=", k))
    rows += [Halfspace(_cut(idx, n, mask), ">=", k)
             for mask in range(1, full) if directed or mask & 1]
    return HPolyhedron(idx.dim, rows)


def build_conn_cut_relaxation(n):
    """Box rows plus x(delta(S)) >= 1 per subset, deduplicated by complement.

    Integer solutions are exactly the edge sets meeting every cut, i.e. the
    spanning connected subgraphs.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    _cap_check(2**n, None, "cut rows")
    idx = EdgeIndexer(n)
    rows = _box_rows(idx.dim)
    rows += [Halfspace(_cut(idx, n, mask), ">=", 1)
             for mask in range(1, (1 << n) - 1, 2)]
    return HPolyhedron(idx.dim, rows)


def build_rado_permutahedron(n):
    """Subset-sum description of the convex hull of all permutations of 1..n.

    One equality fixes the total; each proper subset S must carry at least
    1 + 2 + ... + |S|; coordinates stay nonnegative.
    """
    if n < 2:
        raise ValueError("need at least two coordinates")
    _cap_check(2**n, None, "subset rows")
    rows = [Halfspace([1] * n, "=", n * (n + 1) // 2)]
    full = (1 << n) - 1
    for mask in range(1, full):
        a = [1 if mask >> i & 1 else 0 for i in range(n)]
        size = sum(a)
        rows.append(Halfspace(a, ">=", size * (size + 1) // 2))
    for i in range(n):
        a = [0] * n
        a[i] = 1
        rows.append(Halfspace(a, ">=", 0))
    return HPolyhedron(n, rows)


@dataclass(frozen=True)
class LatticeBox:
    """Per-coordinate integer bounds, lower <= upper."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(self.lower))
        object.__setattr__(self, "upper", tuple(self.upper))
        if len(self.lower) != len(self.upper):
            raise DimMismatch("bound vectors of different lengths")
        for lo, hi in zip(self.lower, self.upper):
            if not isinstance(lo, int) or not isinstance(hi, int):
                raise TypeError("integer bounds only")
            if lo > hi:
                raise ValueError(f"empty range [{lo}, {hi}]")

    @property
    def dim(self):
        return len(self.lower)

    @property
    def volume(self):
        v = 1
        for lo, hi in zip(self.lower, self.upper):
            v *= hi - lo + 1
        return v


def bounding_box(P):
    """Tightest integer box around P, via one LP per coordinate and sign,
    all under one phase 1; None when P has points but some coordinate's
    range holds no integer, so P has no lattice point. An open side
    raises UnboundedCoordinate with the LP's checked ray."""
    lower = []
    upper = []
    for k in range(P.dim):
        e = [int(j == k) for j in range(P.dim)]
        hi = _solve(P, e)
        if hi.status == "infeasible":
            raise Infeasible("polyhedron has no points")
        if hi.status == "unbounded":
            raise UnboundedCoordinate(k + 1, "+", hi.ray)
        lo = _solve(P, e, maximize=False)
        if lo.status == "unbounded":
            raise UnboundedCoordinate(k + 1, "-", lo.ray)
        upper.append(floor(hi.value))
        lower.append(ceil(lo.value))
    if any(l > u for l, u in zip(lower, upper)):
        return None
    return LatticeBox(lower, upper)


def _row_box(P):
    """Integer box from P's own rows by bound propagation, without any LP.

    Each row a . x <= b of _le_rows(P) bounds each of its coordinates by b
    less the least its other terms can be. Bounds stay exact rationals, so
    each holds on all of P and the rounded box contains bounding_box(P).
    Passes stop when one changes nothing, or after 2 * dim + 2, as
    rational bounds may converge only in the limit. None when a side
    stays open or a range is empty: the LP path decides.
    """
    rows = [([(k, v) for k, v in enumerate(a) if v], b)
            for *_, a, b in _le_rows(P)]
    lo, hi = [None] * P.dim, [None] * P.dim
    for _ in range(2 * P.dim + 2):
        changed = False
        for terms, b in rows:
            # the least each term can be; None where its side is open
            least = [None if (lo[k] if v > 0 else hi[k]) is None
                     else v * (lo[k] if v > 0 else hi[k]) for k, v in terms]
            open_at = [i for i, t in enumerate(least) if t is None]
            if len(open_at) > 1:
                continue
            total = sum(t for t in least if t is not None)
            for i, (k, v) in enumerate(terms):
                if open_at and open_at != [i]:
                    continue
                t = b - total + (least[i] or 0)
                t = t // v if t % v == 0 else Fraction(t, v)  # ints stay ints
                if v > 0 and (hi[k] is None or t < hi[k]):
                    hi[k] = t
                    changed = True
                elif v < 0 and (lo[k] is None or t > lo[k]):
                    lo[k] = t
                    changed = True
        if not changed:
            break
    if None in lo or None in hi:
        return None
    lower = [ceil(v) for v in lo]
    upper = [floor(v) for v in hi]
    if any(l > u for l, u in zip(lower, upper)):
        return None
    return LatticeBox(lower, upper)


def _lattice_box(P, max_points, spanned=None):
    """(box, propagated): _row_box(P) if its volume fits the cap or it is
    spanned, the bounds of a point set in P (then it is the LP box), else
    bounding_box(P), None for a lattice-free P. The propagated box contains
    the LP box, so TooLarge fires exactly when the LP box is past the cap."""
    box = _row_box(P)
    if box is not None and (box.volume <= _cap(max_points)
                            or (box.lower, box.upper) == spanned):
        return box, True
    return bounding_box(P), False


def enumerate_lattice(P, box=None, max_points=None):
    """All integer points of P inside the box, in lexicographic order.

    Without a box, _lattice_box(P) chooses one; every box enclosing P
    yields the same points. A propagated-box scan that finds nothing asks
    bounding_box(P), so an LP-infeasible P raises Infeasible.

    Odometer scan over the box with interval pruning: a partial assignment
    is abandoned as soon as some row of _le_rows(P) cannot be satisfied by
    any completion within the remaining coordinate ranges.  All arithmetic
    is integer.
    """
    presolved = False
    if box is None:
        box, presolved = _lattice_box(P, max_points)
        if box is None:
            return PointSet(P.dim, [], validate=False)
    if box.dim != P.dim:
        raise DimMismatch("box dimension does not match polyhedron")
    _cap_check(box.volume, max_points, "lattice box")
    d = P.dim
    lo, hi = box.lower, box.upper
    rows = [(a, b) for *_, a, b in _le_rows(P)]
    # lim[k][r]: the most row r's first k terms may sum to within the box
    lim = [[b for _, b in rows]]
    for k in range(d - 1, -1, -1):
        lim.append([t - min(a[k] * lo[k], a[k] * hi[k])
                    for t, (a, _) in zip(lim[-1], rows)])
    lim.reverse()
    out = []
    x = [0] * d

    def scan(k, sums):
        if k == d:
            out.append(tuple(x))
            return
        for v in range(lo[k], hi[k] + 1):
            nxt = [s + a[k] * v for s, (a, _) in zip(sums, rows)]
            for s, t in zip(nxt, lim[k + 1]):
                if s > t:
                    break
            else:
                x[k] = v
                scan(k + 1, nxt)

    scan(0, [0] * len(rows))
    if presolved and not out:
        bounding_box(P)  # raises for an LP-infeasible P, as the LP path does
    return PointSet(d, out, validate=False)


@dataclass(frozen=True)
class RelaxationReport:
    """Outcome of an exact relaxation check.

    verified -> lattice_count = number of integer points of P, all of them
    in the convex hull of X (and every point of X in P).  failed -> reason
    is a (kind, witness) pair: missing_point, extra_lattice_point, or
    unbounded_with_finite_X with a recession ray.
    """

    status: str
    reason: tuple | None = None
    lattice_count: int | None = None


def verify_relaxation(P, X, max_points=None):
    """Check that the integer points of P are exactly conv(X)'s lattice points.

    Point containment is tested first, so a failure names a concrete witness;
    then _lattice_box(P) chooses the box, given X's bounds. A coordinate
    unbounded on P fails with the checked ray of the bounding LP that
    found it, scaled so its largest |coordinate| is 1 (a rational
    recession ray plus any lattice point gives infinitely many lattice
    points, while X spans only finitely many); finally a full enumeration
    compared against the hull.
    """
    if P.dim != X.dim:
        raise DimMismatch("polyhedron and point set dimensions differ")
    for p in X:
        if not P.contains(p):
            return RelaxationReport("failed", ("missing_point", tuple(p)))
    box = None  # X is empty: enumerate_lattice chooses the box
    if len(X) > 0:
        try:
            box, _ = _lattice_box(P, max_points, X.bounds())
        except UnboundedCoordinate as exc:
            return RelaxationReport("failed", ("unbounded_with_finite_X",
                                               _unit_ray(exc.ray)))
    lattice = enumerate_lattice(P, box=box, max_points=max_points)
    known = set(X.points)
    for z in lattice:
        if z in known:
            continue
        if not conv_membership(z, X)[0]:
            return RelaxationReport("failed", ("extra_lattice_point", z))
    return RelaxationReport("verified", None, len(lattice))


def irredundant_count(P):
    """Inequality rows of an irredundant subsystem describing P, and the
    rows dropped to reach it.

    Rows are eliminated in order: a row A . x <= B of _le_rows(P) is
    dropped when maximizing A over the rows still kept, without it, stays
    within B.  Each drop leaves P unchanged, so the kept rows describe P
    and none of them is implied by the others.  Equality rows are always
    kept and are excluded from the count and the redundancy list.  All
    the LPs share one phase 1 of P, which the zero objective probes for
    points; each LP leaves out its row and the rows dropped so far.
    """
    tests = [(i, a, b) for i, _, a, b in _le_rows(P) if P.constraints[i].sense != "="]
    if _solve(P, [0] * P.dim).status == "infeasible":
        raise Infeasible("polyhedron has no points")
    redundant = []
    for i, a, b in tests:
        out = _solve(P, a, dropped=[i, *redundant])
        if out.status == "optimal" and out.value <= b:
            redundant.append(i)
    return len(tests) - len(redundant), redundant
