"""Smallest cube-separating systems and two-sided size reports.

A separating system for X inside {0,1}^d is a list of rows every point
of X satisfies while every other cube point breaks at least one. The
minimum possible length is computed exactly for small d by set cover;
an explicit system with one row per excluded point realizes the easy
ceiling, and bound_report pairs such ceilings with hiding-set floors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import comb

from .errors import EmptySet, TooLarge
from .families import (EdgeIndexer, PointSet, _arity, _cap_check, _point_set,
                       generate, tjoin_terminals)
from .hiding import (_conflict_graph, _max_clique, build_arb_hiding,
                     build_diff_hiding, build_parity_hiding, build_perm_hiding,
                     build_tjoin_hiding, build_tsp_hiding, max_hiding_in_box,
                     verify_hiding)
from .linprog import Halfspace, HPolyhedron, strict_separation
from .relaxations import (build_conn_cut_relaxation, build_cube_relaxation,
                          build_rado_permutahedron, build_subtour_relaxation,
                          verify_relaxation)


@dataclass(frozen=True)
class SeparationSystem:
    """Rows all of the target set satisfies and every other cube point breaks."""

    halfspaces: tuple
    target: str

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))

    @property
    def size(self):
        return len(self.halfspaces)


def _cube_points(X):
    """Validated (points, dim, point set) for a subset of {0,1}^d."""
    S = _point_set(X)
    pts, d = S.points, S.dim
    if d is None:
        raise ValueError("cannot infer the dimension of an empty plain list")
    out = []
    for p in pts:
        p = tuple(p)
        if len(p) != d:
            raise ValueError(f"point {p} has the wrong dimension")
        if any(not isinstance(v, int) or v not in (0, 1) for v in p):
            raise ValueError(f"point {p} is not 0/1")
        out.append(p)
    return out, d, set(out)


def _complement(xset, d):
    return [y for y in product((0, 1), repeat=d) if y not in xset]


def _whole_cube(X, verb):
    """(points, dim, excluded cube points) of a nonempty subset of {0,1}^d
    whose cube is enumerated whole; `verb` names the refused operation."""
    pts, d, xset = _cube_points(X)
    if not pts:
        raise EmptySet(f"need at least one point to {verb}")
    _cap_check(2 ** d, None, f"cube({d})")
    return pts, d, _complement(xset, d)


def _validate_system(rows, pts, ypts, d):
    for i, h in enumerate(rows):
        if len(h.a) != d:
            raise RuntimeError(f"row {i} has dimension {len(h.a)}, expected {d}")
        for x in pts:
            if not h.satisfied_by(x):
                raise RuntimeError(f"row {i} cuts off the kept point {x}")
    for y in ypts:
        if all(h.satisfied_by(y) for h in rows):
            raise RuntimeError(f"excluded point {y} satisfies every row")


def _kept_and_excluded(X, budget, what, limit=None):
    """Kept points as one PointSet, and the excluded cube points: [] for
    the whole cube, None for an empty X, else counted against the budget
    before the cube is enumerated."""
    pts, d, xset = _cube_points(X)
    if limit is not None and d > limit:
        raise TooLarge(f"dimension {d} exceeds the limit {limit}")
    S = PointSet(d, pts, validate=False)
    m = 2 ** d - len(xset)
    if not m or not pts:
        return S, ([] if pts else None)
    _cap_check(m, budget, what)
    return S, _complement(xset, d)


def conflict_clique_bound(X):
    """Size of a largest set of excluded points forcing pairwise distinct rows.

    Two excluded cube points conflict when no single valid row cuts both
    off at once, that is when their segment meets conv(X); a clique of
    conflicts lower-bounds any separating system.
    """
    S, ypts = _kept_and_excluded(X, 32, "the pair budget")
    return 1 if ypts is None else len(_max_clique(_conflict_graph(ypts, S)))


def jeroslow_index(X, limit=4, max_complement=16):
    """Exact minimum number of rows separating X from the rest of the cube.

    A subset of the complement is coverable when one valid row cuts all
    of it off at once, so the answer is an exact set cover: enumerate
    maximal coverable subsets (memoised LPs, conflicting pairs skipped
    outright), then branch and bound with a greedy-clique floor,
    always branching on the lowest uncovered point.
    """
    limit = int(limit)
    if not 1 <= limit <= 5:
        raise ValueError("limit must be between 1 and 5")
    max_complement = int(max_complement)
    if not 1 <= max_complement <= 20:
        raise ValueError("complement budget must be between 1 and 20")
    S, ypts = _kept_and_excluded(
        X, max_complement, "the exact-cover budget", limit)
    pts, d = S.points, S.dim
    target = PointSet(d, pts).digest()
    if not ypts:
        # the whole cube needs no row; an empty X one row below the cube
        rows = () if pts else (Halfspace((1,) + (0,) * (d - 1), "<=", -1),)
        return len(rows), SeparationSystem(rows, target)
    m = len(ypts)

    @cache
    def row_for(mask):
        return strict_separation(S, [ypts[i] for i in range(m) if mask >> i & 1])

    # conflict[i] = bitmask of points that can never share a row with i
    conflict = _conflict_graph(ypts, S)
    base_clique = len(_max_clique(conflict))

    maximal = []
    for mask in sorted(range(1, 1 << m), key=lambda s: (-s.bit_count(), s)):
        if any(mask & big == mask for big in maximal):
            continue
        if any(mask >> i & 1 and mask & conflict[i] for i in range(m)):
            continue
        if row_for(mask) is not None:
            maximal.append(mask)

    by_elem = [[s for s in maximal if s >> i & 1] for i in range(m)]
    full = (1 << m) - 1

    def clique_floor(u):
        # greedy chain through the conflict graph restricted to u
        size = 0
        while u:
            v = (u & -u).bit_length() - 1
            size += 1
            u &= conflict[v]
        return size

    best = []
    u = full
    while u:
        i = (u & -u).bit_length() - 1
        s = max(by_elem[i], key=lambda t: (t & u).bit_count())
        best.append(s)
        u &= ~s

    def search(u, picked):
        nonlocal best
        if not u:
            if len(picked) < len(best):
                best = list(picked)
            return
        if len(picked) + clique_floor(u) >= len(best):
            return
        i = (u & -u).bit_length() - 1
        for s in by_elem[i]:
            picked.append(s)
            search(u & ~s, picked)
            picked.pop()

    if len(best) > base_clique:
        search(full, [])
    rows = tuple(row_for(s) for s in best)
    k = len(rows)
    if not base_clique <= k <= m:
        raise RuntimeError("cover size escaped its certified bounds")
    _validate_system(rows, pts, ypts, d)
    return k, SeparationSystem(rows, target)


def build_binary_relaxation(X):
    """Cube polytope rows plus one cut per excluded 0/1 point.

    Each row says the 0/1 distance to its excluded point is at least one,
    so exactly that vertex is cut off and no other.
    """
    _, d, ypts = _whole_cube(X, "relax")
    head = [Halfspace(tuple(1 - 2 * v for v in y), ">=", 1 - sum(y)) for y in ypts]
    return HPolyhedron(d, head + list(build_cube_relaxation(d).constraints))


def rationalize_halfspace(X):
    """One rational row inducing X on the cube, or None when impossible.

    The row comes from a basic solution of an exact LP, so its entries
    stay polynomially bounded in d; the classification is re-checked
    over all 2^d cube points before it is returned.
    """
    pts, d, ypts = _whole_cube(X, "separate")
    h = strict_separation(pts, ypts)
    if h is not None:
        _validate_system([h], pts, ypts, d)
    return h


@dataclass(frozen=True)
class RcBoundReport:
    """Floor and ceiling on the size of any single-level system for a family."""

    family: str
    params: dict
    lower_bound: int
    lower_source: str
    lower_certified: bool
    upper_bound: int
    upper_source: str
    upper_certified: bool
    notes: tuple

    def __post_init__(self):
        object.__setattr__(self, "notes", tuple(self.notes))
        if (self.lower_certified and self.upper_certified
                and self.lower_bound > self.upper_bound):
            raise RuntimeError("certified floor above certified ceiling")


def _graph_params(n, least=4):
    n = int(n)
    if n < least or n % 2 == 1:
        raise ValueError(f"need an even parameter >= {least}")
    return {"n": n}


def _diff_params(m, n):
    m, n = int(m), int(n)
    if m != 2:
        raise ValueError("the duplicated-block hiding set needs m = 2")
    if n < 1:
        raise ValueError("need n >= 1")
    return {"m": 2, "n": n}


def _tjoin_params(n, terminals):
    params = _graph_params(n, least=2)
    params["terminals"] = tuple(tjoin_terminals(params["n"], terminals))
    return params


def _sized(points, d, candidates, what, source):
    """A floor of points in dimension d, its source formatted with the
    count, once the candidates its builder would scan pass the size guard,
    so a count past the cap is refused as the build would be."""
    _cap_check(candidates, None, what)
    return points, d, source.format(points)


def _pattern_floor(name, n, directed, what):
    # the 2^(N-1) even patterns of N = n/2 - 1 bits, as _cycle_pairs scans them
    N = n // 2 - 1
    return _sized(2 ** (N - 1), EdgeIndexer(n, directed).dim, 2**N,
                  f"{name}({N})", f"{{}} even-pattern {what} points (N = {N})")


def _parity_floor(n):
    if n == 2:
        return 2, 2, "the 2 diagonal points (-1,-1) and (2,2) flanking even(2)"
    return _sized(2 ** (n - 1), n, 2**n, f"odd({n})",
                  "the {} odd-weight cube points")


def _tjoin_floor(n, terminals):
    # the even M-unions and the odd N-unions over k and l matchings; with
    # no terminals the one even union, the empty set, is itself a T-join
    k, l = len(terminals) // 2, (n - len(terminals)) // 2
    _cap_check(2**k, None, f"tjoin_hiding({k})")
    _cap_check(2**l, None, f"tjoin_hiding({l})")
    h1, h2 = 2**k // 2, 2**l // 2
    return (max(h1, h2), n * (n - 1) // 2,
            f"larger of two matching-union families ({h1} and {h2} points)")


def _tjoin_hiding(n, terminals):
    H1, H2 = build_tjoin_hiding(n, terminals)
    return H1 if len(H1) >= len(H2) else H2


def _per_point(d, points):
    return 2 ** d - points + d + 1


@dataclass(frozen=True)
class _ReportFamily:
    """How bound_report bounds one family.

    The callables take the report's params as keywords, and the floor's
    parameter names are the report's, in order. Builders are named
    inside lambdas, so they are looked up on this module when they run
    and a patched builder is the one called. A floor and a ceiling are
    counts in closed form, the hiding set built and verified only up to
    the floor's limit on params["n"] and the system only up to the
    ceiling's; past its limit a bound carries its count only, unverified.
    """

    parse: object         # raw parameters -> the report's params dict
    floor: object         # -> (the floor's point count, dimension, lower_source)
    hiding: object        # -> the floor's hiding set
    limits: tuple         # largest n certified for the floor, the ceiling
    rows: object          # -> the ceiling's row count
    upper_source: str = ("one row per excluded 0/1 point plus the cube rows "
                         "({upper} rows in dimension {d})")
    build: object = None  # -> the ceiling system; None: build_binary_relaxation


# arb's ceiling limit of 3 is below every valid n: its 12-dimensional
# per-point system at n = 4 is past the default certification budget
_REPORTS = {
    "stsp": _ReportFamily(
        _graph_params, lambda n: _pattern_floor("tsp_hiding", n, False, "cycle-pair"),
        lambda n: build_tsp_hiding(n // 2 - 1, directed=False), (8, 6),
        lambda n: n * n + 2 ** (n - 1) - 1, "subtour relaxation with {upper} rows",
        lambda n: build_subtour_relaxation(n, directed=False)),
    "atsp": _ReportFamily(
        _graph_params, lambda n: _pattern_floor("tsp_hiding", n, True, "cycle-pair"),
        lambda n: build_tsp_hiding(n // 2 - 1, directed=True), (8, 5),
        lambda n: 2 * n * n + 2 ** n - 2, "subtour relaxation with {upper} rows",
        lambda n: build_subtour_relaxation(n, directed=True)),
    "conn": _ReportFamily(
        _graph_params, lambda n: _pattern_floor("tsp_hiding", n, False, "cycle-pair"),
        lambda n: build_tsp_hiding(n // 2 - 1, directed=False), (6, 4),
        lambda n: n * (n - 1) + 2 ** (n - 1) - 1, "cut relaxation with {upper} rows",
        lambda n: build_conn_cut_relaxation(n)),
    "spt": _ReportFamily(
        _graph_params,
        lambda n: _pattern_floor("arb_hiding", n, False, "dropped-arc path"),
        lambda n: build_arb_hiding(n // 2 - 1, directed=False),
        (6, 4), lambda n: _per_point(n * (n - 1) // 2, n ** (n - 2))),
    "arb": _ReportFamily(
        _graph_params,
        lambda n: _pattern_floor("arb_hiding", n, True, "dropped-arc path"),
        lambda n: build_arb_hiding(n // 2 - 1, directed=True),
        (5, 3), lambda n: _per_point(n * (n - 1), n ** (n - 1))),
    "diff": _ReportFamily(
        _diff_params,
        lambda m, n: _sized(2**n, m * n, 2**n, f"diff_hiding({n})",
                            "{} duplicated-block points"),
        lambda m, n: build_diff_hiding(n),
        (4, 3), lambda m, n: _per_point(m * n, 2 ** n * (2 ** n - 1))),
    "perm": _ReportFamily(
        lambda n: {"n": int(n)},
        lambda n: _sized(comb(n, n // 2), n, comb(n, n // 2), f"perm_hiding({n})",
                         "{} sorted-block swap points"),
        lambda n: build_perm_hiding(n), (6, 4),
        lambda n: 2 ** n + n - 1, "permutahedron description with {upper} rows",
        lambda n: build_rado_permutahedron(n)),
    "even": _ReportFamily(
        lambda n: {"n": int(n)}, _parity_floor, lambda n: build_parity_hiding(n),
        (6, 6), lambda n: _per_point(n, 2 ** (n - 1))),
    "tjoins": _ReportFamily(
        _tjoin_params, _tjoin_floor, _tjoin_hiding, (6, 4),
        lambda n, terminals: _per_point(n * (n - 1) // 2,
                                        2 ** ((n - 1) * (n - 2) // 2))),
}
# perfbench/workloads.py reads the limits under these names
_LOWER_CERT_MAX = {f: r.limits[0] for f, r in _REPORTS.items()}
_UPPER_CERT_MAX = {f: r.limits[1] for f, r in _REPORTS.items()}


def bound_report(family, *params, box=None):
    """Two-sided size report: hiding-set floor, explicit-system ceiling.

    A floor is the point count, in closed form, of the family's hiding
    construction; the hiding set is built and certified by full
    verification only up to the family's floor limit. A ceiling is the
    row count, in closed form, of the matching explicit outer
    description: subtour rows for tours, cut rows for connected
    subgraphs, the permutahedron rows for permutations, and one row per
    excluded cube point for the 0/1 families; the system is built and
    verified only up to the family's ceiling limit. An optional integer box additionally searches for a
    larger hiding set when the family is small enough to enumerate.
    """
    try:
        spec = _REPORTS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r} (no hiding construction)") from None
    pdict = spec.parse(*_arity(family, spec.floor, params))
    n = pdict["n"]
    lower_max, upper_max = spec.limits
    # the builder first: its own checks refuse a size the count cannot take
    H = spec.hiding(**pdict) if n <= lower_max else None
    lower, d, lower_src = spec.floor(**pdict)
    if H is not None and (lower, d) != (len(H), H.dim):
        raise RuntimeError(f"certified floor {lower} in dimension {d} is not the "
                           f"{len(H)} points in dimension {H.dim} verified")
    upper = spec.rows(**pdict)
    upper_src = spec.upper_source.format(upper=upper, d=d)

    notes = []
    lower_cert = upper_cert = False
    X = None
    if H is not None:
        X = generate(family, *pdict.values())
        cert = verify_hiding(H, X)
        lower_cert = cert.valid
        if not lower_cert:
            notes.append(f"{family}: hiding verification failed ({cert.failure[0]})")
    if n <= upper_max:
        X = X if X is not None else generate(family, *pdict.values())
        P = spec.build(**pdict) if spec.build else build_binary_relaxation(X)
        if upper != len(P.constraints):
            raise RuntimeError(f"certified ceiling {upper} is not the "
                               f"{len(P.constraints)} rows verified")
        rep = verify_relaxation(P, X)
        upper_cert = rep.status == "verified"
        if not upper_cert:
            notes.append(f"{family}: relaxation verification failed ({rep.reason})")
    if n > lower_max:
        notes.append("floor carries the construction count only at this size")
    if n > upper_max:
        notes.append("ceiling carries the row count only at this size")

    if box is not None:
        if X is None:
            notes.append("box search skipped: family too large to enumerate here")
        else:
            size, witness = max_hiding_in_box(X, box)
            if size > lower and verify_hiding(witness, X).valid:
                lower = size
                lower_src = f"box search clique of {size} points"
                lower_cert = True
                notes.append("box search beat the construction floor")
            else:
                notes.append(f"box search found nothing larger ({size} points)")

    return RcBoundReport(family, pdict, lower, lower_src, lower_cert,
                         upper, upper_src, upper_cert, notes)
