"""Correctness checks computed apart from rcx.

Nothing here imports rcx. Every check either recomputes the expected
answer from first principles (tours from permutations, closed-form
counts, the facets of a simplex, the rearrangement inequality, exact
elimination for affine hulls) or replays a certificate that the answer
carries (dual and Farkas multipliers, rays, separating rows). A failed
check raises CheckError with a message that names what was wrong.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial


class CheckError(AssertionError):
    """An answer that contradicts an independent computation."""


def require(cond, what):
    if not cond:
        raise CheckError(what)


def dot(a, x):
    return sum(Fraction(u) * v for u, v in zip(a, x))


# --- edge indexing and graph predicates ---------------------------------


def edge_pairs(n, directed):
    """Edges {u,v} with u < v (or arcs (u,v), u != v) in lexicographic order."""
    if directed:
        return [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def parse_legend(legend):
    """'{u,v}' or '(u,v)' labels into (pairs, directed)."""
    pairs = []
    directed = None
    for label in legend:
        require(len(label) >= 5 and label[0] in "{(" and label[-1] in "})",
                f"legend label {label!r} is not an edge or an arc")
        u, v = label[1:-1].split(",")
        pairs.append((int(u), int(v)))
        directed = label[0] == "("
    return pairs, directed


def tour_vectors(n, directed):
    """Characteristic vectors of all Hamiltonian cycles of K_n, from permutations."""
    index = {p: k for k, p in enumerate(edge_pairs(n, directed))}
    out = set()
    for rest in permutations(range(2, n + 1)):
        cycle = (1,) + rest
        vec = [0] * len(index)
        for i in range(n):
            u, v = cycle[i], cycle[(i + 1) % n]
            if not directed and u > v:
                u, v = v, u
            vec[index[(u, v)]] = 1
        out.add(tuple(vec))
    return out


def _edges_of(vec, pairs):
    return [pairs[k] for k, bit in enumerate(vec) if bit]


def _reach(n, edges, start, directed):
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].append(v)
        if not directed:
            adj[v].append(u)
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_tour(vec, pairs, n, directed):
    edges = _edges_of(vec, pairs)
    if len(edges) != n:
        return False
    outdeg = {v: 0 for v in range(1, n + 1)}
    indeg = dict(outdeg)
    for u, v in edges:
        outdeg[u] += 1
        indeg[v] += 1
    if directed:
        if any(outdeg[v] != 1 or indeg[v] != 1 for v in outdeg):
            return False
    elif any(outdeg[v] + indeg[v] != 2 for v in outdeg):
        return False
    return len(_reach(n, edges, 1, directed)) == n


def is_connected_spanning(vec, pairs, n):
    return len(_reach(n, _edges_of(vec, pairs), 1, False)) == n


def is_spanning_tree(vec, pairs, n):
    return sum(vec) == n - 1 and is_connected_spanning(vec, pairs, n)


def is_arborescence(vec, pairs, n):
    edges = _edges_of(vec, pairs)
    if len(edges) != n - 1:
        return False
    indeg = {v: 0 for v in range(1, n + 1)}
    for _, v in edges:
        indeg[v] += 1
    roots = [v for v, k in indeg.items() if k == 0]
    if len(roots) != 1 or any(k > 1 for k in indeg.values()):
        return False
    return len(_reach(n, edges, roots[0], True)) == n


# family name -> (closed-form count, membership predicate)
FAMILY_FACTS = {
    "stsp": (lambda n: factorial(n - 1) // 2,
             lambda vec, pairs, n: is_tour(vec, pairs, n, False)),
    "atsp": (lambda n: factorial(n - 1),
             lambda vec, pairs, n: is_tour(vec, pairs, n, True)),
    "conn": (lambda n: {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}[n],
             is_connected_spanning),
    "spt": (lambda n: n ** (n - 2), is_spanning_tree),
    "arb": (lambda n: n ** (n - 1), is_arborescence),
}


def check_family_file(doc, family, n):
    """A generated point file: closed-form count, distinct sorted members."""
    count, member = FAMILY_FACTS[family]
    pts = [tuple(p) for p in doc["points"]]
    pairs, directed = parse_legend(doc["legend"])
    require(directed == (family in ("atsp", "arb")),
            f"{family} {n}: legend has the wrong edge kind")
    require(pairs == edge_pairs(n, directed),
            f"{family} {n}: legend is not the lexicographic edge order")
    require(len(pts) == count(n),
            f"{family} {n}: {len(pts)} points, closed form gives {count(n)}")
    require(all(a < b for a, b in zip(pts, pts[1:])),
            f"{family} {n}: points not strictly increasing")
    for p in pts:
        require(member(p, pairs, n), f"{family} {n}: {p} is not a member")
    return pts


def canonical_digest(dim, points):
    """sha256 of 'dim=d;n=k;' followed by one comma-joined line per sorted point."""
    h = hashlib.sha256(f"dim={dim};n={len(points)};".encode())
    h.update("".join(",".join(map(str, p)) + "\n" for p in sorted(points)).encode())
    return h.hexdigest()


# --- exact linear algebra -----------------------------------------------


def off_affine_hull(H, X, seed=0):
    """The points of H that are not affine combinations of points of X.

    Gaussian elimination over the differences x - x_0, taken in a seeded
    shuffled order (a lexicographic order can keep the rank low for a
    long stretch). Each point of H keeps its residual against the rows
    found so far and is settled once the residual vanishes, so the scan
    usually stops long before the end of X.
    """
    X = list(X)
    base = X[0]
    order = list(range(1, len(X)))
    random.Random(seed).shuffle(order)
    rows = []  # (pivot, vector scaled to 1 at the pivot), in echelon order
    residual = {h: [Fraction(a - b) for a, b in zip(h, base)] for h in H}
    residual = {h: r for h, r in residual.items() if any(r)}
    for k in order:
        if not residual:
            break
        vec = [Fraction(a - b) for a, b in zip(X[k], base)]
        for piv, row in rows:
            f = vec[piv]
            if f:
                vec = [a - f * b for a, b in zip(vec, row)]
        piv = next((j for j, v in enumerate(vec) if v), None)
        if piv is None:
            continue
        f = vec[piv]
        row = [v / f for v in vec]
        rows.append((piv, row))
        for h, r in list(residual.items()):
            g = r[piv]
            if g:
                r = [a - g * b for a, b in zip(r, row)]
                residual[h] = r
            if not any(r):
                del residual[h]
    return sorted(residual)


# --- hiding sets ----------------------------------------------------------


def check_01_hiding(H, X):
    """Hiding property of 0/1 points H against a 0/1 family X, without LPs.

    Each h is integral, off X (a 0/1 point of conv(X) is a point of X),
    and in aff(X); each pair sums to a pair of X points,
    so its midpoint lies in conv(X).
    """
    xs = set(X)
    for h in H:
        require(all(v in (0, 1) for v in h), f"hiding point {h} is not 0/1")
        require(h not in xs, f"hiding point {h} lies in the family")
    off = off_affine_hull(H, X)
    require(not off, f"hiding points {off} lie off the affine hull")
    for h, g in combinations(H, 2):
        s = tuple(a + b for a, b in zip(h, g))
        require(any(tuple(a - b for a, b in zip(s, x)) in xs for x in X),
                f"the midpoint of {h} and {g} is not a midpoint of the family")


def outside(p, facets):
    return any(dot(a, p) > b for a, b in facets)


def segment_meets(p, q, facets):
    """Does [p, q] meet {x : a.x <= b for every facet}? Exact interval check."""
    lo, hi = Fraction(0), Fraction(1)
    for a, b in facets:
        ap, aq = dot(a, p), dot(a, q)
        # a.(p + t (q - p)) <= b  <=>  t (aq - ap) <= b - ap
        slope, room = aq - ap, b - ap
        if slope > 0:
            hi = min(hi, room / slope)
        elif slope < 0:
            lo = max(lo, room / slope)
        elif room < 0:
            return False
    return lo <= hi


def check_facet_hiding(H, facets, box):
    """H is a hiding set of a full-dimensional polytope given by its facets."""
    lows, highs = box
    for h in H:
        require(all(isinstance(v, int) for v in h), f"{h} is not integral")
        require(all(a <= v <= b for v, a, b in zip(h, lows, highs)),
                f"{h} lies outside the box")
        require(outside(h, facets), f"{h} lies in the polytope")
    for h, g in combinations(H, 2):
        require(segment_meets(h, g, facets),
                f"the segment from {h} to {g} misses the polytope")


def simplex_facets(d):
    """x_i >= 0 and sum x_i <= 1, as rows a.x <= b."""
    rows = [(tuple(-int(i == k) for i in range(d)), 0) for k in range(d)]
    rows.append(((1,) * d, 1))
    return rows


# conv(even(3)) is the tetrahedron on 000, 110, 101, 011
EVEN3_FACETS = [((1, 1, 1), 2), ((1, -1, -1), 0), ((-1, 1, -1), 0),
                ((-1, -1, 1), 0)]


# --- LP certificates ------------------------------------------------------


def row_holds(a, sense, rhs, x):
    v = dot(a, x)
    return v <= rhs if sense == "<=" else v >= rhs if sense == ">=" else v == rhs


def replay_lp(rows, c, maximize, status, value=None, point=None, dual=None,
              farkas=None, ray=None):
    """Replay an LP verdict over rows (a, sense, rhs) from its certificate."""
    d = len(c)
    if status == "optimal":
        require(all(row_holds(a, s, b, point) for a, s, b in rows),
                "optimal point is feasible")
        require(dot(c, point) == value, "objective value matches the point")
        for (a, s, _), y in zip(rows, dual):
            if s == "<=":
                require(y >= 0 if maximize else y <= 0, "dual sign on a <= row")
            elif s == ">=":
                require(y <= 0 if maximize else y >= 0, "dual sign on a >= row")
        for j in range(d):
            require(sum(y * a[j] for (a, _, _), y in zip(rows, dual)) == c[j],
                    "dual combination equals the objective")
        require(sum(y * b for (_, _, b), y in zip(rows, dual)) == value,
                "dual value equals the primal value")
    elif status == "infeasible":
        for (a, s, _), y in zip(rows, farkas):
            if s == "<=":
                require(y >= 0, "Farkas sign on a <= row")
            elif s == ">=":
                require(y <= 0, "Farkas sign on a >= row")
        for j in range(d):
            require(sum(y * a[j] for (a, _, _), y in zip(rows, farkas)) == 0,
                    "Farkas combination vanishes")
        require(sum(y * b for (_, _, b), y in zip(rows, farkas)) < 0,
                "Farkas right-hand side is negative")
    elif status == "unbounded":
        require(all(row_holds(a, s, b, point) for a, s, b in rows),
                "unbounded: the witness point is feasible")
        require(any(ray), "unbounded: the ray is nonzero")
        require(all(row_holds(a, s, 0, ray) for a, s, _ in rows),
                "unbounded: the ray lies in the recession cone")
        gain = dot(c, ray)
        require(gain > 0 if maximize else gain < 0, "unbounded: the ray improves")
    else:
        raise CheckError(f"unknown LP status {status!r}")


def rearrangement_max(c):
    """max of c.x over permutations x of 1..n: pair sorted c with 1..n."""
    return sum(v * (k + 1) for k, v in enumerate(sorted(c)))


# --- 0/1 separation -------------------------------------------------------


def replay_rows_over_cube(rows, inside, d):
    """Rows (a, sense, rhs) keep exactly the points of `inside` among {0,1}^d."""
    for z in product((0, 1), repeat=d):
        kept = all(row_holds(a, s, b, z) for a, s, b in rows)
        require(kept == (z in inside),
                f"{z} is {'kept' if kept else 'cut off'} by the rows")


def parity_conflict_pairs(d):
    """Every two odd points of {0,1}^d sum to two even points.

    So their midpoint is in conv(even(d)) and no valid row cuts both off:
    the odd points form a conflict clique of size 2^(d-1).
    """
    odd = [z for z in product((0, 1), repeat=d) if sum(z) % 2]
    for y, w in combinations(odd, 2):
        i = next(k for k in range(d) if y[k] != w[k])
        x = tuple(v ^ (k == i) for k, v in enumerate(y))
        xp = tuple(v ^ (k == i) for k, v in enumerate(w))
        require(sum(x) % 2 == 0 and sum(xp) % 2 == 0, "flipped points are even")
        require(all(a + b == c + e for a, b, c, e in zip(y, w, x, xp)),
                "flipped pair has the same sum")
    return len(odd)


# --- report floors and ceilings -----------------------------------------


def expected_floor(family, params):
    """The paper's construction sizes."""
    if family in ("stsp", "atsp", "conn", "spt", "arb"):
        return 2 ** (params[0] // 2 - 2)
    if family == "perm":
        return comb(params[0], params[0] // 2)
    if family == "diff":
        return 2 ** params[1]
    if family == "even":
        n = params[0]
        return 2 ** (n - 1)
    if family == "tjoins":
        n, terminals = params
        k, m = len(terminals) // 2, (n - len(terminals)) // 2
        return max(2 ** (k - 1) if k else 1, 2 ** (m - 1) if m else 0)
    raise CheckError(f"no floor formula for {family}")


def expected_ceiling(family, params):
    """Row counts of the explicit systems."""
    if family == "stsp":
        n = params[0]
        d = n * (n - 1) // 2
        return 2 * d + n + 2 ** (n - 1) - 1
    if family == "perm":
        n = params[0]
        return 1 + (2 ** n - 2) + n

    def binary(d, count):
        return 2 ** d - count + d + 1

    if family == "diff":
        n = params[1]
        return binary(2 * n, 2 ** n * (2 ** n - 1))
    if family == "even":
        n = params[0]
        return binary(n, 2 ** (n - 1))
    if family == "tjoins":
        n = params[0]
        d = n * (n - 1) // 2
        return binary(d, 2 ** (d - n + 1))
    raise CheckError(f"no ceiling formula for {family}")


# --- whole answers ----------------------------------------------------------


def check_tour_lattice(points, n):
    """The lattice points of subtour(n) are exactly the tours of K_n."""
    tours = tour_vectors(n, directed=False)
    got = [tuple(p) for p in points]
    require(len(got) == len(set(got)) == len(tours),
            f"subtour {n}: {len(got)} lattice points, {len(tours)} tours")
    require(set(got) == tours, f"subtour {n}: lattice points are not the tours")


def check_permutahedron_box(lower, upper, n):
    """Singleton rows x_i >= 1 and the total n(n+1)/2 give the box [1, n]^n."""
    require((tuple(lower), tuple(upper)) == ((1,) * n, (n,) * n),
            f"permutahedron {n}: box {lower}..{upper}, want [1, {n}]^{n}")


def check_permutahedron_irredundant(kept, redundant, n):
    """Every proper subset row is a facet; the n rows x_i >= 0 are implied."""
    require(kept == 2 ** n - 2,
            f"permutahedron {n}: {kept} irredundant rows, want {2 ** n - 2}")
    require(len(redundant) == n,
            f"permutahedron {n}: {len(redundant)} redundant rows, want {n}")


def check_cube_relaxation(status, lattice_count, d):
    require(status == "verified" and lattice_count == 2 ** d,
            f"cube {d}: {status} with {lattice_count} lattice points, "
            f"want verified with {2 ** d}")


def check_permutahedron_optimum(value, point, c):
    """The optimum over the permutahedron is the rearrangement value at a permutation."""
    best = rearrangement_max(c)
    require(value == best, f"permutahedron, objective {c}: {value}, want {best}")
    require(sorted(point) == list(range(1, len(c) + 1)),
            f"permutahedron: optimal vertex {point} is not a permutation")


def check_tour_optimum(value, c, n, maximize):
    """subtour(n) for n <= 5 is the tour polytope: the LP value is the best tour."""
    pick = max if maximize else min
    best = pick(dot(c, t) for t in tour_vectors(n, directed=False))
    require(value == best, f"subtour {n}, objective {c}: {value}, best tour {best}")


def check_box_search(size, points, facets, box, known):
    """A box-search clique is a hiding set, at least as large as a known one.

    Each row of a relaxation cuts off at most one point of a hiding set,
    so the facet count bounds its size from above.
    """
    require(size == len(points), f"size {size} but {len(points)} witness points")
    check_facet_hiding(points, facets, box)
    require(len(known) <= size <= len(facets),
            f"{size} hiding points, known {len(known)}, {len(facets)} facets")


def check_parity_index(k, rows, d):
    """Jeroslow (1975): even(d) needs exactly 2^(d-1) rows against the cube."""
    require(k == len(rows) == 2 ** (d - 1),
            f"even {d}: index {k} with {len(rows)} rows, want {2 ** (d - 1)}")
    replay_rows_over_cube(rows, {z for z in product((0, 1), repeat=d)
                                 if sum(z) % 2 == 0}, d)


def check_hiding_certificate(doc, floor, X, H):
    """A `hiding verify` report: valid, the construction's bound, true digests."""
    require(doc["status"] == "valid" and doc.get("bound") == floor,
            f"hiding verify: {doc['status']} with bound {doc.get('bound')}, "
            f"want valid with {floor}")
    wit = doc["witnesses"]
    require(wit["target_digest"] == canonical_digest(len(X[0]), X),
            "hiding verify: target digest differs from the canonical text")
    require(wit["hiding_digest"] == canonical_digest(len(H[0]), H),
            "hiding verify: hiding digest differs from the canonical text")


def check_report(doc, family, params, lower_limit, upper_limit):
    """An `rcx report`: closed-form floor and ceiling, certified within the limits."""
    size = params[1] if family == "diff" else params[0]
    want = (expected_floor(family, params), expected_ceiling(family, params),
            size <= lower_limit, size <= upper_limit)
    got = (doc["lower_bound"], doc["upper_bound"], doc["lower_certified"],
           doc["upper_certified"])
    require(got == want, f"report {family} {params}: (floor, ceiling, certified, "
                         f"certified) = {got}, want {want}")
