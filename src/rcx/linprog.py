"""Exact linear programming over the rationals.

A two-phase primal simplex with Bland's rule (no cycling, fully
deterministic). The tableau pivots in integers with exact division
(fraction-free, as in Bareiss 1968) over rows that are already integer,
and reads its answers out as integers over one denominator each. Every
answer carries an exact certificate which is re-checked in integers
against the integer rows before it is returned: an optimal point with
matching dual multipliers, an infeasibility witness, or a feasible
improving ray. Fractions are built only for the answer itself.

Each LP is one _solve call. Consecutive LPs over one HPolyhedron object
share one phase 1: _solve keeps the last polyhedron's feasible tableau
in one slot, held by a weak reference that empties the slot when the
polyhedron dies, and each later LP over it is priced on a copy of that
tableau, after the rows it leaves out are deleted. So the bounding LPs
of bounding_box and recession_nontrivial, irredundant_count's LPs and
repeated solve_lp calls over one object run phase 1 once.

One hull LP, _hull_point, answers every hull question: does conv(C)
meet conv(X)? conv_membership asks it for C = [p], segment_hits_hull for
C = [a, b] and strict_separation for a point set C, which it turns,
when the hulls miss, into a row from the LP's Farkas multipliers.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import DimMismatch, EmptySet
from .families import _point_set
from .rational import _frac, _int_row, is_zero_vector, vdot

SENSES = ("<=", "=", ">=")


def _holds(h, x, den=1):
    """h at the point x / den (den > 0), or h's recession row (rhs 0) at
    the direction x (den = 0), in h's integer form."""
    lhs, rhs = vdot(h._int_a, x), h._int_rhs * den
    if h.sense == "<=":
        return lhs <= rhs
    if h.sense == ">=":
        return lhs >= rhs
    return lhs == rhs


@dataclass(frozen=True, slots=True)
class Halfspace:
    """One row a . x <sense> rhs with exact rational data.

    The row is also kept in integer form, scaled by the lcm of its
    denominators (_scale): _int_a . x <sense> _int_rhs. The scale is
    positive, so both forms hold at the same points; satisfied_by,
    contains, the lattice box, the lattice scan and solve_lp read the
    integer one. Slotted, as polyhedra hold many rows.
    """

    a: tuple
    sense: str
    rhs: Fraction
    _int_a: tuple = field(init=False, repr=False, compare=False)
    _int_rhs: int = field(init=False, repr=False, compare=False)
    _scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"bad sense {self.sense!r}")
        a = tuple(_frac(v) for v in self.a)
        rhs = _frac(self.rhs)
        if is_zero_vector(a) and not (self.sense == "=" and rhs == 0):
            raise ValueError("zero row with a nontrivial right-hand side")
        ints, scale = _int_row(a + (rhs,))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "_int_a", tuple(ints[:-1]))
        object.__setattr__(self, "_int_rhs", ints[-1])
        object.__setattr__(self, "_scale", scale)

    @property
    def dim(self):
        return len(self.a)

    def satisfied_by(self, x):
        return _holds(self, x)


@dataclass(frozen=True)
class HPolyhedron:
    """Finite constraint list in a fixed ambient dimension."""

    dim: int
    constraints: tuple

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for c in self.constraints:
            if not isinstance(c, Halfspace):
                raise TypeError("constraints must be Halfspace rows")
            if c.dim != self.dim:
                raise DimMismatch(
                    f"row of dimension {c.dim} in polyhedron of dimension {self.dim}"
                )

    def contains(self, x):
        if len(x) != self.dim:
            raise DimMismatch("point dimension does not match polyhedron")
        return all(_holds(c, x) for c in self.constraints)

    def without_row(self, i):
        rows = self.constraints[:i] + self.constraints[i + 1 :]
        return HPolyhedron(self.dim, rows)


@dataclass(frozen=True)
class LPOutcome:
    """Solver verdict plus its exact certificate; every coordinate a Fraction.

    optimal    -> point, value, dual
    infeasible -> farkas
    unbounded  -> ray (and a feasible point witnessing nonemptiness)
    """

    status: str
    value: Fraction | None = None
    point: tuple | None = None
    dual: tuple | None = None
    farkas: tuple | None = None
    ray: tuple | None = None


class _Tableau:
    """Standard form max c.z : A z <= b, z >= 0, fraction-free integer tableau.

    Row i of the rational tableau is T[i] / den[i]: integer entries, rhs
    last, over the row's own positive denominator. The reduced costs are
    red / (scale * rden), and red[-1] is minus the objective value.

    Each input row (coeffs, rhs, mult[i]) is integer, mult[i] times a
    rational row, with its slack coefficient kept at 1, so the start
    basis is the identity. delta is |det| of the current basis in that
    integer system, so delta times any tableau row is an integer row
    (Cramer's rule) and every pivot update divides exactly (Sylvester's
    identity; Edmonds 1967, Bareiss 1968). Rescaling rows and columns by
    positive factors changes no sign and no ratio that Bland's rule
    compares, so the pivots are those of the rational tableau; the row
    scales price the artificials and count a slack ray in rational units.

    Variables are labelled as in the full standard form: the ncols
    structural columns, a mirror label ncols + j for each of the first
    `free` columns (minus column j in every row and cost, so x_j is the
    difference of the two), then one slack per row, then one artificial
    per row with a negative rhs. Only the structural and slack columns
    are stored: a mirror stays minus its column through every pivot, and
    an artificial starts basic and never enters once it leaves, so
    nothing reads their columns. A row is ncols + m + 1 wide; _col maps a label to its stored
    column and sign.

    pivot, price_out and drop_row replace rows and never change one in
    place, so copy() shares the rows.
    """

    def __init__(self, ncols, rows, free=0):
        self.ncols = ncols
        self.free = free
        self.n = ncols + free
        self.m = len(rows)
        self.art0 = self.n + self.m
        self.width = ncols + self.m + 1
        self.T = []
        self.den = [1] * self.m
        self.mult = [m for _, _, m in rows]
        self.basis = []
        self.delta = 1
        self.red = [0] * self.width
        self.rden = 1
        self.scale = 1
        self.n_art = 0
        for i, (coeffs, rhs, _) in enumerate(rows):
            row = list(coeffs) + [0] * self.m + [rhs]
            row[ncols + i] = 1
            if rhs < 0:
                row = [-v for v in row]
                self.basis.append(self.art0 + self.n_art)
                self.n_art += 1
            else:
                self.basis.append(self.n + i)
            self.T.append(row)

    def copy(self):
        t = copy.copy(self)
        t.T, t.den, t.basis = list(self.T), list(self.den), list(self.basis)
        return t

    def _col(self, j):
        """(stored column, sign) of the label j."""
        if j < self.ncols:
            return j, 1
        if j < self.n:
            return j - self.ncols, -1
        return j - self.free, 1

    def price_out(self, costs):
        """Install an objective, one cost per label (missing ones are 0), as
        reduced costs."""
        ints, scale = _int_row(costs)
        delta = self.delta
        own = ints[:self.ncols] + ints[self.n:self.art0]  # labels with a stored column
        red = [delta * c for c in own] + [0] * (self.width - len(own))
        for row, d, b in zip(self.T, self.den, self.basis):
            f = ints[b] if b < len(ints) else 0
            if f:
                if d != delta:
                    row = [v * delta // d for v in row]
                red = [x - f * y for x, y in zip(red, row)]
        self.red = red
        self.rden = delta
        self.scale = scale

    def pivot(self, r, e):
        """Bring row r to denominator delta, then eliminate the label e.

        Rows with a 0 in e's column keep their entries and denominator.
        """
        c, s = self._col(e)
        T, den = self.T, self.den
        row = T[r]
        d = den[r]
        if d != self.delta:
            row = [v * self.delta // d for v in row]
        p = s * row[c]
        if p < 0:
            row = [-v for v in row]
            p = -p
        for i, other in enumerate(T):
            f = s * other[c]
            if f and i != r:
                d = den[i]
                T[i] = [(p * x - f * y) // d for x, y in zip(other, row)]
                den[i] = p
        f = s * self.red[c]
        if f:
            d = self.rden
            self.red = [(p * x - f * y) // d for x, y in zip(self.red, row)]
            self.rden = p
        T[r] = row
        den[r] = p
        self.basis[r] = e
        self.delta = p

    def _leaving(self, c, s):
        """The ratio-test row of the column s * T[.][c] (least rhs / entry
        over its positive entries, ties to the least basic label), or None."""
        basis = self.basis
        best_row = None
        for i, row in enumerate(self.T):
            coef = s * row[c]
            if coef > 0:
                # compare row[-1] / coef with the best ratio so far;
                # the row's denominator cancels
                if best_row is None:
                    best_row, best_rhs, best_coef = i, row[-1], coef
                    continue
                lhs, rhs = row[-1] * best_coef, best_rhs * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best_row]):
                    best_row, best_rhs, best_coef = i, row[-1], coef
        return best_row

    def run(self):
        """Bland's rule until optimal or unbounded: the least label with a
        positive reduced cost enters; artificials never do."""
        nc, free = self.ncols, self.free
        while True:
            red = self.red
            e = next((j for j in range(nc) if red[j] > 0), None)
            if e is None:  # a mirror's reduced cost is minus its column's
                e = next((nc + j for j in range(free) if red[j] < 0), None)
            if e is None:
                e = next((j + free for j in range(nc, nc + self.m) if red[j] > 0), None)
            if e is None:
                return "optimal", None
            r = self._leaving(*self._col(e))
            if r is None:
                return "unbounded", e
            self.pivot(r, e)

    def drop_artificials(self):
        """After a zero-value phase 1, pivot each artificial still basic (at
        0) out on the first label with a nonzero entry in its row. Its own
        slack's entry is minus the artificial's, so one always exists."""
        for r, b in enumerate(self.basis):
            if b >= self.art0:
                c = next(j for j, v in enumerate(self.T[r][:-1]) if v)
                self.pivot(r, c if c < self.ncols else c + self.free)
        self.red = [0] * self.width  # phase 1's costs are spent

    def drop_row(self, k):
        """Delete input row k from a feasible tableau, with its slack.

        A basic slack loses its row. A nonbasic one is pivoted in first on
        the ratio-test row of its column, taken in the + direction, or
        else in the - direction (the column is one of B^-1, so it is never
        0); either keeps the other rows feasible. The deleted row and
        column meet in a unit column of the input system, so delta stays
        |det| of the basis that is left.
        """
        s = self.n + k
        if s in self.basis:
            r = self.basis.index(s)
        else:
            c = self.ncols + k
            r = self._leaving(c, 1)
            if r is None:
                r = self._leaving(c, -1)
            self.pivot(r, s)
        del self.T[r], self.den[r], self.basis[r]

    def _basic(self, c, s=1):
        """The stored column c times s on the basic labels, 0 elsewhere, as
        (integers over the labels, their common positive denominator)."""
        rows = [(b, s * row[c], d)
                for row, d, b in zip(self.T, self.den, self.basis) if b < self.n]
        den = lcm(*[d for _, _, d in rows])
        x = [0] * self.n
        for b, v, d in rows:
            x[b] = v * (den // d)
        return x, den

    def value(self):
        return -self.red[-1], self.scale * self.rden

    def solution(self):
        return self._basic(-1)

    def slack_duals(self):
        # the multipliers on the integer rows
        nc = self.ncols
        return [-v for v in self.red[nc:nc + self.m]], self.scale * self.rden

    def ray(self, e):
        # a slack enters in units of its rational row: mult units of its own
        k = self.mult[e - self.n] if e >= self.n else 1
        r, den = self._basic(*self._col(e))
        r = [-k * v for v in r]
        if e < self.n:
            r[e] = den
        return r, den


def _phase1(ncols, rows, free=0):
    """Phase 1 of the rows as _solve_standard takes them: (the feasible
    tableau, its artificials pivoted out, None), or (None, the Farkas
    multipliers on the integer rows) when the rows have no point."""
    tab = _Tableau(ncols, rows, free)
    if tab.n_art:
        # the artificial of a row scaled by m stands for m units of the
        # rational one, so it costs -1/m
        tab.price_out([0] * tab.art0 + [Fraction(-1, m) for _, rhs, m in rows if rhs < 0])
        status, _ = tab.run()
        if status != "optimal":  # pragma: no cover - its value is at most 0
            raise RuntimeError("phase 1 cannot be unbounded")
        if tab.red[-1] > 0:
            return None, tab.slack_duals()
        tab.drop_artificials()
    return tab, None


def _solve_standard(ncols, rows, costs, free=0, start=None, dropped=()):
    """max costs . z subject to rows as <=, z >= 0.

    Each row is (coeffs, rhs, scale): integers over the ncols columns,
    scale times a rational row. The first `free` columns also get a
    mirror column (_Tableau), so z has ncols + free entries and costs
    has ncols: a mirror costs minus its column. Phase 1 runs here, or
    not at all when `start` is _phase1's answer for these rows; the
    objective is priced on a copy of the feasible tableau, so `start` is
    never changed. The LP leaves the rows `dropped` out (a feasible
    system only; the caller checks that they carry no multiplier).
    Returns (status, x, value, duals, farkas, ray): x, duals, farkas and
    ray are (integers, positive denominator), duals and farkas are
    multipliers on the integer rows, and value is (numerator,
    denominator).
    """
    tab, farkas = start or _phase1(ncols, rows, free)
    if tab is None:
        return "infeasible", None, None, None, farkas, None
    tab = tab.copy()
    for k in dropped:
        tab.drop_row(k)
    tab.price_out(costs + [-v for v in costs[:free]])
    status, e = tab.run()
    if status == "unbounded":
        return "unbounded", tab.solution(), None, None, None, tab.ray(e)
    return "optimal", tab.solution(), tab.value(), tab.slack_duals(), None, None


def _check(cond, what):
    if not cond:
        raise RuntimeError(f"internal certificate check failed: {what}")


# the sense -> sign rule: y >= 0 on <= rows, y <= 0 on >= rows, free on =
_SIGN = {"<=": 1, "=": 0, ">=": -1}


def _le_rows(P):
    """(index, sign, A, B) per row of P's integer rows written as A . x <= B:
    a >= row negated (sign -1), an = row as its + then its - row."""
    for i, h in enumerate(P.constraints):
        for s in (1, -1) if h.sense == "=" else (_SIGN[h.sense],):
            yield i, s, [s * v for v in h._int_a], s * h._int_rhs


def _combination(P, w, what):
    """(sum of w_i A_i, sum of w_i B_i) over P's integer rows A_i x ? B_i,
    once each w_i has its row's sign."""
    comb, total = [0] * P.dim, 0
    for h, wk in zip(P.constraints, w):
        if wk:
            _check(_SIGN[h.sense] * wk >= 0, f"{what} sign on {h.sense} row")
            comb = [u + wk * v for u, v in zip(comb, h._int_a)]
            total += wk * h._int_rhs
    return comb, total


def solve_lp(P, objective, maximize=True):
    """Optimize an exact linear objective over an HPolyhedron.

    The returned LPOutcome always carries an exact certificate, verified
    here before returning:
      optimal    - feasible point, dual multipliers with the right signs,
                   dual combination equal to the objective, equal values;
      infeasible - multipliers combining the rows into 0 . x <= beta < 0;
      unbounded  - a feasible point plus an improving recession direction.
    Dual sign convention: for maximization, multipliers are >= 0 on <=
    rows, <= 0 on >= rows, free on equalities; flipped for minimization.
    """
    if len(objective) != P.dim:
        raise DimMismatch("objective dimension does not match polyhedron")
    return _solve(P, [_frac(v) for v in objective], maximize)


# The last polyhedron _solve was asked about, as (a weak reference to it,
# its standard-form rows, their provenance, their _phase1 answer): the
# next LP over the same object starts from that phase 1. One slot,
# replaced as one tuple; its tableau is only ever copied.
_last_phase1 = None


def _forget(ref):
    """Empty the slot when the polyhedron it holds dies (ref's callback)."""
    global _last_phase1
    if _last_phase1 is not None and _last_phase1[0] is ref:
        _last_phase1 = None


def _solve(P, c, maximize=True, dropped=()):
    """solve_lp's answer for the objective c over P, with no phase 1 when
    the previous LP was over the same object P (_last_phase1).

    The LP is over P without the constraints whose indices are in
    `dropped`, after the same phase 1 of P, so P must have points when
    any are dropped. Its answer is checked against the constraints it
    kept, and a dropped one must carry no multiplier. The standard form
    is P's _le_rows, each x with a free column (its x+ and x- parts).
    The checks read the rows' integer form: a multiplier W_i on the
    integer row h_i is W_i * h._scale on its rational row.
    """
    global _last_phase1
    d = P.dim
    last = _last_phase1
    if last is not None and last[0]() is P:
        _, rows, prov, start = last
    else:
        _last_phase1 = None  # the old tableau goes before the new one is built
        rows = []
        prov = []  # (constraint index, sign) per standard-form row
        for i, s, a, b in _le_rows(P):
            rows.append((a, b, P.constraints[i]._scale))
            prov.append((i, s))
        start = _phase1(d, rows, free=d)
        _last_phase1 = (weakref.ref(P, _forget), rows, prov, start)
    # in max form without denominators: c0 = sign * cs * c
    ints, cs = _int_row(c)
    sign = 1 if maximize else -1
    c0 = [sign * v for v in ints]
    dropped = set(dropped)
    status, z, value, y_std, farkas_std, ray_std = _solve_standard(
        d, rows, c0, free=d, start=start,
        dropped=[k for k, (i, _) in enumerate(prov) if i in dropped])
    kept = [h for i, h in enumerate(P.constraints)
            if i not in dropped] if dropped else P.constraints

    def fold(ys, what):
        w = [0] * len(P.constraints)
        for (i, s), yk in zip(prov, ys):
            if yk:
                _check(i not in dropped, f"{what} on a dropped row")
                w[i] += s * yk
        return w

    def split(zs):
        return [zs[j] - zs[d + j] for j in range(d)]

    # tuples of lists: tuple() of a generator over-allocates, then resizes
    def vector(v, den):
        return tuple([Fraction(u, den) for u in v])

    def multipliers(w, den):  # w / den on the integer rows, on the rational ones
        return tuple([Fraction(wk * h._scale, den) for h, wk in zip(P.constraints, w)])

    if status == "infeasible":
        w = fold(farkas_std[0], "farkas")
        comb, beta = _combination(P, w, "farkas")
        _check(not any(comb), "farkas combination is zero")
        _check(beta < 0, "farkas value negative")
        return LPOutcome(status="infeasible", farkas=multipliers(w, farkas_std[1]))

    x, den = split(z[0]), z[1]
    _check(all(_holds(h, x, den) for h in kept),
           "optimal point feasible" if status == "optimal"
           else "unbounded: basic point feasible")
    if status == "unbounded":
        r, rden = split(ray_std[0]), ray_std[1]
        _check(any(r), "ray nonzero")
        _check(all(_holds(h, r, 0) for h in kept), "ray in the recession cone")
        _check(vdot(c0, r) > 0, "ray improves objective")
        return LPOutcome(status="unbounded", point=vector(x, den), ray=vector(r, rden))

    # the value V / vden and the multipliers w / yden are those of c0
    (V, vden), w, yden = value, fold(y_std[0], "dual"), y_std[1]
    _check(vdot(c0, x) * vden == V * den, "objective value matches point")
    comb, dual_value = _combination(P, w, "dual")
    _check(comb == [yden * v for v in c0], "dual combination equals objective")
    _check(dual_value * vden == V * yden, "dual value equals primal value")
    return LPOutcome(status="optimal", value=Fraction(sign * V, vden * cs),
                     point=vector(x, den), dual=multipliers(w, sign * yden * cs))


def _pinned(S, C):
    """The hull LP's presolve of the point list C against the nonempty set
    S: (free coordinates, pins, the ascending indices of S's points at
    every pin). A coordinate on which all of C agree at v is pinned, as
    (k, v, s) with s (x_k - v) <= 0 on S, unless v is strictly between
    S's bounds there or all of S is at v. Only the points of S at v on
    every pin can be terms of a convex combination that is at v there:
    none when v is off S's bounds. Every other coordinate is free."""
    lo, hi = S.bounds()
    free, pins = [], []
    for k, col in enumerate(zip(*C)):
        v = col[-1]
        if col.count(v) < len(col) or lo[k] < v < hi[k]:
            free.append(k)
        elif not lo[k] == v == hi[k]:
            pins.append((k, v, -1 if v <= lo[k] else 1))
    return free, pins, S._rows_at(pins)


def _hull_point(C, X, mismatch):
    """Does conv(C) meet conv(X)? C is a nonempty list of points.

    C's last point is the base, and each other point c gets a weight
    column with entries base - c. A hit is (multipliers aligned with X,
    the point: tuple(C[0]) for one point, else base + sum w_c (c - base)),
    re-checked in integers: weights >= 0, X's summing to 1 and C's to at
    most 1, and X's combination den times the point. Exact presolve
    (_pinned): only the points of X at every pin are kept. They are found
    by ANDing X's column bitmasks, one per pin (PointSet._rows_at), with
    no Python loop over X, and only they are indexed. A miss is
    (None, (a, sigma, pins)), the pieces of strict_separation's row:
    a . x <= sigma on the kept points and a . y > sigma on C (a = 0 and
    sigma = -1 when none is kept), and a pin (k, v, s) has s (x_k - v) <= 0 on X, < 0 at some
    pin off the kept points. An empty X misses with (None, None); a
    dimension mismatch raises DimMismatch(mismatch).
    """
    S = _point_set(X)
    pts = S.points
    if not pts:
        return None, None
    d = S.dim
    for c in C:
        if len(c) != d:
            raise DimMismatch(mismatch)
    others, base = C[:-1], C[-1]
    free, pins, idx = _pinned(S, C)
    if not idx:
        return None, ([0] * d, -1, pins)
    kept = [pts[i] for i in idx] if pins else pts
    if not others:
        tup = tuple(base)
        if tup in kept:
            mult = [Fraction(0)] * len(pts)
            mult[idx[kept.index(tup)]] = Fraction(1)
            return tuple(mult), tup
    # columns: one multiplier per kept point, then one weight per other point
    # of C; a coordinate's row is cleared of denominators once for both copies
    n, nt = len(idx), len(others)
    rows = []
    for k in free:
        vb = base[k]
        coeffs, scale = _int_row([p[k] for p in kept] + [vb - c[k] for c in others] + [vb])
        rhs = coeffs.pop()
        rows.append((coeffs, rhs, scale))
        rows.append(([-v for v in coeffs], -rhs, scale))
    rows.append(([1] * n + [0] * nt, 1, 1))
    rows.append(([-1] * n + [0] * nt, -1, 1))
    if others:
        rows.append(([0] * n + [1] * nt, 1, 1))
    status, z, _, _, farkas, _ = _solve_standard(n + nt, rows, [0] * (n + nt))
    if status != "optimal":  # a is minus the coordinate rows' multipliers
        y, a = farkas[0], [0] * d
        for j, k in enumerate(free):
            a[k] = (y[2 * j + 1] - y[2 * j]) * rows[2 * j][2]
        return None, (a, y[2 * len(free)] - y[2 * len(free) + 1], pins)
    # den times the point, den base + sum w_c (c - base), is checked against
    # the kept points' combination in integers (for integer C); the point's
    # Fractions are built once, for the answer
    z, den = z
    lam, w = z[:n], z[n:]
    target = [den * v for v in base]
    if others:
        _check(min(w) >= 0 and sum(w) <= den, "weights on C")
        for wc, c in zip(w, others):
            if wc:
                target = [u + wc * (ck - bk) for u, ck, bk in zip(target, c, base)]
    _check(min(lam) >= 0 and sum(lam) == den, "hull multipliers")
    used = [(i, p, l) for i, p, l in zip(idx, kept, lam) if l]
    comb = [sum(l * p[k] for _, p, l in used) for k in range(d)]
    _check(comb == target, "hull point lies in the hull")
    mult = [Fraction(0)] * len(pts)
    for i, _, l in used:
        mult[i] = Fraction(l, den)
    point = tuple([Fraction(u, den) for u in target]) if others else tuple(base)
    return tuple(mult), point


def conv_membership(p, X):
    """Is p in conv(X)? Returns (bool, multipliers aligned with X or None)."""
    mult, _ = _hull_point([p], X, "point dimension does not match point set")
    return mult is not None, mult


def segment_hits_hull(a, b, X):
    """Does the closed segment [a, b] meet conv(X)? Returns (bool, witness)."""
    C = [a] if tuple(a) == tuple(b) else [a, b]
    mult, point = _hull_point(C, X, "segment endpoints do not match point set dimension")
    return (True, point) if mult is not None else (False, None)


def strict_separation(X, C):
    """Halfspace with a.x <= gamma on X and a.y >= gamma + 1 on C, or None.

    The unit gap is a normalization: any strictly separating row can be
    scaled to it, so None really means no strict separation exists. It
    is the hull LP's checked point of conv(C) in conv(X). Otherwise the
    row is a . x <= sigma from the LP's miss (_hull_point), lifted over
    the pins with the least M = num / den that keeps all of X, kept times
    den so that it stays integer, checked against every point of X and C
    and scaled to the unit gap.
    """
    X, C = _point_set(X), _point_set(C)
    ptsx, ptsc, d = X.points, C.points, X.dim
    if not ptsx:
        raise EmptySet("strict separation needs a nonempty valid side")
    if not d:
        raise ValueError("strict separation needs dimension at least 1, got 0")
    if not ptsc:
        m = max(p[0] for p in ptsx)
        a = (Fraction(1),) + (Fraction(0),) * (d - 1)
        return Halfspace(a, "<=", m)
    mult, miss = _hull_point(ptsc, X, "point sets of different dimensions")
    if mult is not None:
        return None
    a, sigma, pins = miss
    # adding M * s (x_k - v) per pin changes nothing on C; on X that sum
    # is e . x - top <= 0, its size the point's distance off the pins, and
    # the ratios are compared cross-multiplied
    e, top = [0] * d, 0
    for k, v, s in pins:
        e[k], top = s, top + s * v
    num, den = 0, 1
    for x in ptsx:
        over = vdot(a, x) - sigma
        if over > 0 and (off := top - vdot(e, x)) and over * den > num * off:
            num, den = over, off
    a = [den * u + num * t for u, t in zip(a, e)]
    sigma = den * sigma + num * top
    gap = min(vdot(a, y) for y in ptsc) - sigma
    _check(gap > 0, "separation gap positive")
    _check(all(vdot(a, x) <= sigma for x in ptsx), "separation row")
    return Halfspace([Fraction(u, gap) for u in a], "<=", Fraction(sigma, gap))


def _unit_ray(ray):
    """ray scaled so its largest |coordinate| is 1."""
    top = max(map(abs, ray))
    return tuple([v / top for v in ray])


def recession_nontrivial(P):
    """Does the recession cone of P contain a nonzero vector?

    Asks the cone (P's rows with right-hand side 0) the bounding LPs of
    each coordinate, all under one phase 1, and returns (True, the
    checked ray of the first unbounded answer as a unit ray) or
    (False, None).
    """
    d = P.dim
    cone = HPolyhedron(d, [Halfspace(h.a, h.sense, 0) for h in P.constraints])
    for k in range(d):
        e = [int(j == k) for j in range(d)]
        for maximize in (True, False):
            out = _solve(cone, e, maximize)
            if out.status == "unbounded":
                return True, _unit_ray(out.ray)
    return False, None
