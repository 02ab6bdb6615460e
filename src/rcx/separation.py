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

from .errors import EmptySet, InvalidSystem, TooLarge
from .families import DEFAULT_CAP, PointSet, generate
from .hiding import (_conflict_graph, _max_clique, build_arb_hiding,
                     build_diff_hiding, build_parity_hiding, build_perm_hiding,
                     build_tjoin_hiding, build_tsp_hiding, max_hiding_in_box,
                     verify_hiding)
from .linprog import Halfspace, HPolyhedron, strict_separation
from .rational import vdot
from .relaxations import (LatticeBox, build_conn_cut_relaxation,
                          build_cube_relaxation, build_rado_permutahedron,
                          build_subtour_relaxation, verify_relaxation)


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
    if hasattr(X, "points"):
        pts, d = list(X.points), X.dim
    else:
        pts = list(X)
        if not pts:
            raise ValueError("cannot infer the dimension of an empty plain list")
        d = len(pts[0])
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


def _validate_system(system, pts, ypts, d, err=InvalidSystem):
    for i, h in enumerate(system.halfspaces):
        if len(h.a) != d:
            raise err(f"row {i} has dimension {len(h.a)}, expected {d}")
        for x in pts:
            if not h.satisfied_by(x):
                raise err(f"row {i} cuts off the kept point {x}")
    for y in ypts:
        if all(h.satisfied_by(y) for h in system.halfspaces):
            raise err(f"excluded point {y} satisfies every row")


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
    if m > budget:
        raise TooLarge(f"complement of {m} points is past {what}")
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
        X, max_complement, f"the exact-cover budget of {max_complement}", limit)
    pts, d = S.points, S.dim
    target = (X if hasattr(X, "digest") else PointSet(d, pts)).digest()
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
    system = SeparationSystem(rows, target)
    _validate_system(system, pts, ypts, d, err=RuntimeError)
    return k, system


def build_binary_relaxation(X, system=None):
    """Cube polytope rows plus one cut per excluded 0/1 point.

    Each default row says the 0/1 distance to its excluded point is at
    least one, so exactly that vertex is cut off and no other. A caller
    system (for instance from jeroslow_index) is validated first and
    used in place of the per-point rows.
    """
    pts, d, xset = _cube_points(X)
    if not pts:
        raise EmptySet("need at least one point to relax")
    if 2 ** d > DEFAULT_CAP:
        raise TooLarge(f"2^{d} cube points exceed the cap")
    ypts = _complement(xset, d)
    if system is not None:
        _validate_system(system, pts, ypts, d)
        head = list(system.halfspaces)
    else:
        head = [Halfspace(tuple(1 - 2 * v for v in y), ">=", 1 - sum(y))
                for y in ypts]
    return HPolyhedron(d, head + list(build_cube_relaxation(d).constraints))


def rationalize_halfspace(X):
    """One rational row inducing X on the cube, or None when impossible.

    The row comes from a basic solution of an exact LP, so its entries
    stay polynomially bounded in d; the classification is re-checked
    over all 2^d cube points before it is returned.
    """
    pts, d, xset = _cube_points(X)
    if not pts:
        raise EmptySet("need at least one point to separate")
    if 2 ** d > DEFAULT_CAP:
        raise TooLarge(f"2^{d} cube points exceed the cap")
    h = strict_separation(pts, _complement(xset, d))
    if h is None:
        return None
    for z in product((0, 1), repeat=d):
        if (vdot(h.a, z) <= h.rhs) != (z in xset):
            raise RuntimeError(f"row misclassifies {z}")
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
    try:
        params["terminals"] = tuple(sorted(int(t) for t in terminals))
    except TypeError:
        raise ValueError("tjoins terminals must be a comma list "
                         "such as 1,2,3,4") from None
    return params


def _counted(H, what):
    return H, f"{len(H)} {what}"


def _pattern_floor(build, n, directed, what):
    N = n // 2 - 1
    return _counted(build(N, directed=directed),
                    f"even-pattern {what} points (N = {N})")


def _parity_floor(n):
    H = build_parity_hiding(n)
    if n == 2:
        return H, "the 2 diagonal points (-1,-1) and (2,2) flanking even(2)"
    return H, f"the {len(H)} odd-weight cube points"


def _tjoin_floor(n, terminals):
    H1, H2 = build_tjoin_hiding(n, terminals)
    H = H1 if len(H1) >= len(H2) else H2
    return H, (f"larger of two matching-union families "
               f"({len(H1)} and {len(H2)} points)")


@dataclass(frozen=True)
class _ReportFamily:
    """How bound_report bounds one family.

    The callables take the report's params as keywords. Builders are
    named inside lambdas, so they are looked up on this module when they
    run and a patched builder is the one called. Past its limit on
    params["n"] a bound carries its count only, marked unverified.
    """

    names: tuple          # parameter names, in order
    parse: object         # raw parameters -> the report's params dict
    floor: object         # -> (hiding set, lower_source)
    limits: tuple         # largest n certified for the floor, the ceiling
    relaxation: tuple = ()    # (name, builder) of an explicit ceiling system;
    count: object = None      # else the point count for one row per excluded
                              # 0/1 point plus the cube rows
    box_top: object = lambda **p: 1    # the certification box is [0, top]^d


# arb's ceiling limit of 3 is below every valid n: its 12-dimensional
# per-point system at n = 4 is past the default certification budget
_REPORTS = {
    "stsp": _ReportFamily(
        ("n",), _graph_params,
        lambda n: _pattern_floor(build_tsp_hiding, n, False, "cycle-pair"), (8, 6),
        relaxation=("subtour relaxation",
                    lambda n: build_subtour_relaxation(n, directed=False))),
    "atsp": _ReportFamily(
        ("n",), _graph_params,
        lambda n: _pattern_floor(build_tsp_hiding, n, True, "cycle-pair"), (8, 5),
        relaxation=("subtour relaxation",
                    lambda n: build_subtour_relaxation(n, directed=True))),
    "conn": _ReportFamily(
        ("n",), _graph_params,
        lambda n: _pattern_floor(build_tsp_hiding, n, False, "cycle-pair"), (6, 4),
        relaxation=("cut relaxation", lambda n: build_conn_cut_relaxation(n))),
    "spt": _ReportFamily(
        ("n",), _graph_params,
        lambda n: _pattern_floor(build_arb_hiding, n, False, "dropped-arc path"),
        (6, 4), count=lambda n: n ** (n - 2)),
    "arb": _ReportFamily(
        ("n",), _graph_params,
        lambda n: _pattern_floor(build_arb_hiding, n, True, "dropped-arc path"),
        (5, 3), count=lambda n: n ** (n - 1)),
    "diff": _ReportFamily(
        ("m", "n"), _diff_params,
        lambda m, n: _counted(build_diff_hiding(n), "duplicated-block points"),
        (4, 3), count=lambda m, n: 2 ** n * (2 ** n - 1)),
    "perm": _ReportFamily(
        ("n",), lambda n: {"n": int(n)},
        lambda n: _counted(build_perm_hiding(n), "sorted-block swap points"), (6, 4),
        relaxation=("permutahedron description",
                    lambda n: build_rado_permutahedron(n)),
        box_top=lambda n: n),
    "even": _ReportFamily(
        ("n",), lambda n: {"n": int(n)}, _parity_floor, (6, 6),
        count=lambda n: 2 ** (n - 1)),
    "tjoins": _ReportFamily(
        ("n", "terminals"), _tjoin_params, _tjoin_floor, (6, 4),
        count=lambda n, terminals: 2 ** (n * (n - 1) // 2 - n + 1)),
}
# perfbench/workloads.py reads the limits under these names
_LOWER_CERT_MAX = {f: r.limits[0] for f, r in _REPORTS.items()}
_UPPER_CERT_MAX = {f: r.limits[1] for f, r in _REPORTS.items()}


def bound_report(family, *params, box=None, max_candidates=None):
    """Two-sided size report: hiding-set floor, explicit-system ceiling.

    Floors come from the family's hiding construction (certified by full
    verification at small sizes), ceilings from the matching explicit
    outer description: subtour rows for tours, cut rows for connected
    subgraphs, the permutahedron rows for permutations, and one row per
    excluded cube point for the 0/1 families. An optional integer box
    additionally searches for a larger hiding set when the family is
    small enough to enumerate.
    """
    try:
        spec = _REPORTS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r} (no hiding construction)") from None
    if len(params) != len(spec.names):
        k = len(spec.names)
        raise ValueError(f"{family} takes {k} parameter{'s' if k > 1 else ''} "
                         f"({', '.join(spec.names)}), got {len(params)}")
    pdict = spec.parse(*params)
    H, lower_src = spec.floor(**pdict)
    lower, d = len(H), H.dim
    if spec.relaxation:
        name, build = spec.relaxation
        P = build(**pdict)
        upper = len(P.constraints)
        upper_src = f"{name} with {upper} rows"
    else:
        P = None
        upper = 2 ** d - spec.count(**pdict) + d + 1
        upper_src = (f"one row per excluded 0/1 point plus the cube rows "
                     f"({upper} rows in dimension {d})")

    notes = []
    lower_cert = upper_cert = False
    X = None
    n = pdict["n"]
    lower_max, upper_max = spec.limits
    if n <= lower_max:
        X = generate(family, *pdict.values())
        cert = verify_hiding(H, X)
        lower_cert = cert.valid
        if not lower_cert:
            notes.append(f"{family}: hiding verification failed ({cert.failure[0]})")
    if n <= upper_max:
        X = X if X is not None else generate(family, *pdict.values())
        if P is None:
            P = build_binary_relaxation(X)
        # the explicit descriptions all carry enclosing box rows, so the
        # bounding LPs can be skipped without losing exactness
        top = spec.box_top(**pdict)
        rep = verify_relaxation(P, X, box=LatticeBox((0,) * d, (top,) * d))
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
            size, witness = max_hiding_in_box(X, box, max_candidates=max_candidates)
            if size > lower and verify_hiding(witness, X).valid:
                lower = size
                lower_src = f"box search clique of {size} points"
                lower_cert = True
                notes.append("box search beat the construction floor")
            else:
                notes.append(f"box search found nothing larger ({size} points)")

    return RcBoundReport(family, pdict, lower, lower_src, lower_cert,
                         upper, upper_src, upper_cert, notes)
