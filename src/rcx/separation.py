"""Smallest cube-separating systems and two-sided size reports.

A separating system for X inside {0,1}^d is a list of rows every point
of X satisfies while every other cube point breaks at least one. The
minimum possible length is computed exactly for small d by set cover;
an explicit system with one row per excluded point realizes the easy
ceiling, and bound_report pairs such ceilings with hiding-set floors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, factorial

from .errors import EmptySet, InvalidSystem, TooLarge
from .families import (DEFAULT_CAP, PointSet, atsp, conn, diff, even, perm,
                       spt, stsp, tjoins)
from .families import arb as arb_family
from .hiding import (_max_clique, build_arb_hiding, build_diff_hiding,
                     build_parity_hiding, build_perm_hiding, build_tjoin_hiding,
                     build_tsp_hiding, max_hiding_in_box, verify_hiding)
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
        if any(v not in (0, 1) for v in p):
            raise ValueError(f"point {p} is not 0/1")
        out.append(p)
    return out, d, set(out)


def _complement(xset, d):
    return [y for y in product((0, 1), repeat=d) if y not in xset]


def _digest_of(X, d, pts):
    if hasattr(X, "digest"):
        return X.digest()
    return PointSet(d, pts).digest()


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


def conflict_clique_bound(X):
    """Size of a largest set of excluded points forcing pairwise distinct rows.

    Two excluded cube points conflict when no single valid row cuts both
    off at once; a clique of conflicts lower-bounds any separating system.
    """
    pts, d, xset = _cube_points(X)
    ypts = _complement(xset, d)
    if not ypts:
        return 0
    if not pts:
        return 1
    if len(ypts) > 32:
        raise TooLarge(f"complement of {len(ypts)} points is past the pair budget")
    m = len(ypts)
    adj = [set() for _ in range(m)]
    for i, j in combinations(range(m), 2):
        if strict_separation(pts, [ypts[i], ypts[j]]) is None:
            adj[i].add(j)
            adj[j].add(i)
    return len(_max_clique(adj))


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
    pts, d, xset = _cube_points(X)
    if d > limit:
        raise TooLarge(f"dimension {d} exceeds the limit {limit}")
    target = _digest_of(X, d, pts)
    ypts = _complement(xset, d)
    if not ypts:
        return 0, SeparationSystem((), target)
    if not pts:
        # nothing to keep: one row below the whole cube does it
        row = Halfspace((1,) + (0,) * (d - 1), "<=", -1)
        return 1, SeparationSystem((row,), target)
    m = len(ypts)
    if m > max_complement:
        raise TooLarge(f"complement of {m} points is past the exact-cover "
                       f"budget of {max_complement}")

    rows_memo = {}

    def row_for(mask):
        try:
            return rows_memo[mask]
        except KeyError:
            chosen = [ypts[i] for i in range(m) if mask >> i & 1]
            h = strict_separation(pts, chosen)
            rows_memo[mask] = h
            return h

    # conflict[i] = bitmask of points that can never share a row with i
    conflict = [0] * m
    for i, j in combinations(range(m), 2):
        if row_for(1 << i | 1 << j) is None:
            conflict[i] |= 1 << j
            conflict[j] |= 1 << i
    base_clique = len(_max_clique([
        {j for j in range(m) if conflict[i] >> j & 1} for i in range(m)]))

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
    best = list(best)

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
    rows = tuple(rows_memo[s] for s in best)
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


# how far each certification step goes by default; past these sizes the
# report still carries the construction counts, just marked unverified
# (arb stops at 3 because its 12-dimensional per-point system is past
# the default certification budget, so even-n reports stay uncertified)
_LOWER_CERT_MAX = {"stsp": 8, "atsp": 8, "conn": 6, "spt": 6, "arb": 5,
                   "diff": 4, "perm": 6, "even": 6, "tjoins": 6}
_UPPER_CERT_MAX = {"stsp": 6, "atsp": 5, "conn": 4, "spt": 4, "arb": 3,
                   "diff": 3, "perm": 4, "even": 6, "tjoins": 4}


def _certify_hiding(H, make_family, notes, what):
    X = make_family()
    cert = verify_hiding(H, X)
    if not cert.valid:
        notes.append(f"{what}: hiding verification failed ({cert.failure[0]})")
        return False, X
    return True, X


def _certify_relaxation(P, X, notes, what, box=None):
    # the explicit descriptions all carry enclosing box rows, so the
    # bounding LPs can be skipped without losing exactness
    rep = verify_relaxation(P, X, box=box)
    if rep.status != "verified":
        notes.append(f"{what}: relaxation verification failed ({rep.reason})")
        return False
    return True


def _unit_box(d):
    return LatticeBox((0,) * d, (1,) * d)


def _binary_ceiling(d, family_count):
    rows = 2 ** d - family_count + d + 1
    return rows, (f"one row per excluded 0/1 point plus the cube rows "
                  f"({rows} rows in dimension {d})")


def _even_n(n, least):
    n = int(n)
    if n < least or n % 2 == 1:
        raise ValueError(f"need an even parameter >= {least}")
    return n


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
    notes = []
    lower_cert = upper_cert = False
    X = None

    if family in ("stsp", "atsp"):
        (n,) = params
        n = _even_n(n, 4)
        N = n // 2 - 1
        directed = family == "atsp"
        H = build_tsp_hiding(N, directed=directed)
        lower = len(H)
        lower_src = f"{len(H)} even-pattern cycle-pair points (N = {N})"
        P = build_subtour_relaxation(n, directed=directed)
        upper = len(P.constraints)
        upper_src = f"subtour relaxation with {upper} rows"
        make = (lambda: atsp(n)) if directed else (lambda: stsp(n))
        if n <= _LOWER_CERT_MAX[family]:
            lower_cert, X = _certify_hiding(H, make, notes, family)
        if n <= _UPPER_CERT_MAX[family]:
            X = X if X is not None else make()
            upper_cert = _certify_relaxation(P, X, notes, family,
                                             box=_unit_box(P.dim))
        pdict = {"n": n}
    elif family == "conn":
        (n,) = params
        n = _even_n(n, 4)
        N = n // 2 - 1
        H = build_tsp_hiding(N, directed=False)
        lower = len(H)
        lower_src = f"{len(H)} even-pattern cycle-pair points (N = {N})"
        P = build_conn_cut_relaxation(n)
        upper = len(P.constraints)
        upper_src = f"cut relaxation with {upper} rows"
        if n <= _LOWER_CERT_MAX[family]:
            lower_cert, X = _certify_hiding(H, lambda: conn(n), notes, family)
        if n <= _UPPER_CERT_MAX[family]:
            X = X if X is not None else conn(n)
            upper_cert = _certify_relaxation(P, X, notes, family,
                                             box=_unit_box(P.dim))
        pdict = {"n": n}
    elif family in ("spt", "arb"):
        (n,) = params
        n = _even_n(n, 4)
        N = n // 2 - 1
        directed = family == "arb"
        H = build_arb_hiding(N, directed=directed)
        lower = len(H)
        lower_src = f"{len(H)} even-pattern dropped-arc path points (N = {N})"
        d = n * (n - 1) if directed else n * (n - 1) // 2
        count = n ** (n - 1) if directed else n ** (n - 2)
        upper, upper_src = _binary_ceiling(d, count)
        make = (lambda: arb_family(n)) if directed else (lambda: spt(n))
        if n <= _LOWER_CERT_MAX[family]:
            lower_cert, X = _certify_hiding(H, make, notes, family)
        if n <= _UPPER_CERT_MAX[family]:
            X = X if X is not None else make()
            upper_cert = _certify_relaxation(
                build_binary_relaxation(X), X, notes, family, box=_unit_box(d))
        pdict = {"n": n}
    elif family == "diff":
        m, n = params
        m, n = int(m), int(n)
        if m != 2:
            raise ValueError("the duplicated-block hiding set needs m = 2")
        if n < 1:
            raise ValueError("need n >= 1")
        H = build_diff_hiding(n)
        lower = len(H)
        lower_src = f"{len(H)} duplicated-block points"
        d = 2 * n
        count = 2 ** n * (2 ** n - 1)
        upper, upper_src = _binary_ceiling(d, count)
        if n <= _LOWER_CERT_MAX[family]:
            lower_cert, X = _certify_hiding(H, lambda: diff(2, n), notes, family)
        if n <= _UPPER_CERT_MAX[family]:
            X = X if X is not None else diff(2, n)
            upper_cert = _certify_relaxation(
                build_binary_relaxation(X), X, notes, family, box=_unit_box(d))
        pdict = {"m": 2, "n": n}
    elif family == "perm":
        (n,) = params
        n = int(n)
        H = build_perm_hiding(n)
        lower = len(H)
        lower_src = f"{len(H)} sorted-block swap points"
        P = build_rado_permutahedron(n)
        upper = len(P.constraints)
        upper_src = f"permutahedron description with {upper} rows"
        if n <= _LOWER_CERT_MAX[family]:
            lower_cert, X = _certify_hiding(H, lambda: perm(n), notes, family)
        if n <= _UPPER_CERT_MAX[family]:
            X = X if X is not None else perm(n)
            upper_cert = _certify_relaxation(P, X, notes, family,
                                             box=LatticeBox((0,) * n, (n,) * n))
        pdict = {"n": n}
    elif family == "even":
        (n,) = params
        n = int(n)
        H = build_parity_hiding(n)
        lower = len(H)
        if n == 2:
            lower_src = "the 2 diagonal points (-1,-1) and (2,2) flanking even(2)"
        else:
            lower_src = f"the {len(H)} odd-weight cube points"
        upper, upper_src = _binary_ceiling(n, 2 ** (n - 1))
        if n <= _LOWER_CERT_MAX[family]:
            lower_cert, X = _certify_hiding(H, lambda: even(n), notes, family)
        if n <= _UPPER_CERT_MAX[family]:
            X = X if X is not None else even(n)
            upper_cert = _certify_relaxation(
                build_binary_relaxation(X), X, notes, family, box=_unit_box(n))
        pdict = {"n": n}
    elif family == "tjoins":
        n, terminals = params
        n = _even_n(n, 2)
        terminals = tuple(sorted(int(t) for t in terminals))
        H1, H2 = build_tjoin_hiding(n, terminals)
        H = H1 if len(H1) >= len(H2) else H2
        lower = len(H)
        lower_src = (f"larger of two matching-union families "
                     f"({len(H1)} and {len(H2)} points)")
        d = n * (n - 1) // 2
        count = 2 ** (d - n + 1)
        upper, upper_src = _binary_ceiling(d, count)
        make = lambda: tjoins(n, terminals)
        if n <= _LOWER_CERT_MAX[family]:
            lower_cert, X = _certify_hiding(H, make, notes, family)
        if n <= _UPPER_CERT_MAX[family]:
            X = X if X is not None else make()
            upper_cert = _certify_relaxation(
                build_binary_relaxation(X), X, notes, family, box=_unit_box(d))
        pdict = {"n": n, "terminals": terminals}
    else:
        raise ValueError(f"unknown family {family!r} (no hiding construction)")

    if not lower_cert and not any("hiding verification failed" in s for s in notes):
        notes.append("floor carries the construction count only at this size")
    if not upper_cert and not any("relaxation verification failed" in s for s in notes):
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
