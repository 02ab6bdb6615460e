"""Exact linear programming over the rationals.

A two-phase primal simplex with Bland's rule (no cycling, fully
deterministic). The tableau pivots in integers with exact division
(fraction-free, as in Bareiss 1968); answers are read out as Fractions.
Every answer carries an exact certificate which is re-checked before it
is returned: an optimal point with matching dual multipliers, an
infeasibility witness, or a feasible improving ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DimMismatch, EmptySet
from .rational import is_zero_vector, vdot

SENSES = ("<=", "=", ">=")


def _frac(v):
    if isinstance(v, float):
        raise TypeError("floats are not allowed; use Fraction or int")
    return Fraction(v)


@dataclass(frozen=True)
class Halfspace:
    """One row a . x <sense> rhs with exact rational data."""

    a: tuple
    sense: str
    rhs: Fraction

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"bad sense {self.sense!r}")
        object.__setattr__(self, "a", tuple(_frac(v) for v in self.a))
        object.__setattr__(self, "rhs", _frac(self.rhs))
        if is_zero_vector(self.a) and not (self.sense == "=" and self.rhs == 0):
            raise ValueError("zero row with a nontrivial right-hand side")

    @property
    def dim(self):
        return len(self.a)

    def satisfied_by(self, x):
        lhs = vdot(self.a, x)
        if self.sense == "<=":
            return lhs <= self.rhs
        if self.sense == ">=":
            return lhs >= self.rhs
        return lhs == self.rhs


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
        return all(c.satisfied_by(x) for c in self.constraints)

    def without_row(self, i):
        rows = self.constraints[:i] + self.constraints[i + 1 :]
        return HPolyhedron(self.dim, rows)


@dataclass(frozen=True)
class LPOutcome:
    """Solver verdict plus its exact certificate.

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


def _den_lcm(vals, m=1):
    """Least common multiple of m and the denominators of ints and Fractions."""
    for v in vals:
        d = v.denominator
        if m % d:
            m = m * d // gcd(m, d)
    return m


class _Tableau:
    """Standard form max c.z : A z <= b, z >= 0, fraction-free integer tableau.

    Row i of the rational tableau is T[i] / den[i]: integer entries, rhs
    last, over the row's own positive denominator. The reduced costs are
    red / (scale * rden), and red[-1] is minus the objective value.

    Each input row is scaled to integers by the lcm of its denominators
    (mult[i]) with its slack coefficient kept at 1, so the start basis is
    the identity. delta is |det| of the current basis in that integer
    system, so delta times any tableau row is an integer row (Cramer's
    rule) and every pivot update divides exactly (Sylvester's identity;
    Edmonds 1967, Bareiss 1968). Rescaling rows and columns by positive
    factors changes no sign and no ratio that Bland's rule compares, so
    the pivots are those of the rational tableau; the scale factors are
    undone when answers are read out.
    """

    def __init__(self, ncols, rows):
        self.n = ncols
        self.m = len(rows)
        self.T = []
        self.den = []
        self.mult = []
        self.basis = []
        self.delta = 1
        self.red = []
        self.rden = 1
        self.scale = 1
        neg = [i for i, (_, rhs) in enumerate(rows) if rhs < 0]
        self.art0 = self.n + self.m
        self.width = self.art0 + len(neg) + 1
        art_of = {r: self.art0 + k for k, r in enumerate(neg)}
        for i, (coeffs, rhs) in enumerate(rows):
            m = _den_lcm(coeffs, rhs.denominator)
            flip = -1 if rhs < 0 else 1
            s = flip * m
            row = [0] * self.width
            for j, v in enumerate(coeffs):
                if v:
                    row[j] = s * v.numerator // v.denominator
            row[self.n + i] = flip
            row[-1] = s * rhs.numerator // rhs.denominator
            if flip < 0:
                row[art_of[i]] = 1
                self.basis.append(art_of[i])
            else:
                self.basis.append(self.n + i)
            self.T.append(row)
            self.den.append(1)
            self.mult.append(m)
        self.n_art = len(neg)

    def price_out(self, costs):
        """Install an objective (list over leading columns) as reduced costs."""
        scale = _den_lcm(costs)
        delta = self.delta
        ints = [v.numerator * (scale // v.denominator) for v in costs]
        red = [delta * c for c in ints] + [0] * (self.width - len(ints))
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
        """Bring row r to denominator delta, then eliminate column e.

        Rows with a 0 in column e keep their entries and denominator.
        """
        T, den = self.T, self.den
        row = T[r]
        d = den[r]
        if d != self.delta:
            row = [v * self.delta // d for v in row]
        p = row[e]
        if p < 0:
            row = [-v for v in row]
            p = -p
        for i, other in enumerate(T):
            f = other[e]
            if f and i != r:
                d = den[i]
                T[i] = [(p * x - f * y) // d for x, y in zip(other, row)]
                den[i] = p
        f = self.red[e]
        if f:
            d = self.rden
            self.red = [(p * x - f * y) // d for x, y in zip(self.red, row)]
            self.rden = p
        T[r] = row
        den[r] = p
        self.basis[r] = e
        self.delta = p

    def run(self, last_col):
        """Bland's rule until optimal or unbounded; entering cols < last_col."""
        basis = self.basis
        while True:
            e = None
            red = self.red
            for j in range(last_col):
                if red[j] > 0:
                    e = j
                    break
            if e is None:
                return "optimal", None
            best_row = None
            for i, row in enumerate(self.T):
                coef = row[e]
                if coef > 0:
                    # compare row[-1] / coef with the best ratio so far;
                    # the row's denominator cancels
                    if best_row is None:
                        best_row, best_rhs, best_coef = i, row[-1], coef
                        continue
                    lhs, rhs = row[-1] * best_coef, best_rhs * coef
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[best_row]):
                        best_row, best_rhs, best_coef = i, row[-1], coef
            if best_row is None:
                return "unbounded", e
            self.pivot(best_row, e)

    def drop_artificials(self):
        """After a zero-value phase 1: pivot artificials out, drop their columns.

        Rows that reduce to 0 = 0 are implied by the others and are deleted.
        """
        cut = self.art0
        keep = []
        for r in range(len(self.T)):
            if self.basis[r] >= cut:
                e = next((j for j in range(cut) if self.T[r][j] != 0), None)
                if e is None:
                    continue
                self.pivot(r, e)
            keep.append(r)
        self.T = [self.T[r][:cut] + [self.T[r][-1]] for r in keep]
        self.den = [self.den[r] for r in keep]
        self.basis = [self.basis[r] for r in keep]
        self.width = cut + 1

    def value(self):
        return Fraction(-self.red[-1], self.scale * self.rden)

    def solution(self):
        x = [0] * self.n
        for row, d, b in zip(self.T, self.den, self.basis):
            if b < self.n:
                x[b] = Fraction(row[-1], d)
        return x

    def slack_duals(self):
        # slack i stands for mult[i] units of the unscaled row's slack
        red, n, den = self.red, self.n, self.scale * self.rden
        return [Fraction(-red[n + i] * m, den) for i, m in enumerate(self.mult)]

    def ray(self, e):
        k = self.mult[e - self.n] if e >= self.n else 1
        r = [0] * self.n
        if e < self.n:
            r[e] = 1
        for row, d, b in zip(self.T, self.den, self.basis):
            if b < self.n:
                r[b] = Fraction(-row[e] * k, d)
        return r


def _solve_standard(ncols, rows, costs):
    """max costs . z subject to rows (coeffs, rhs) as <=, z >= 0.

    Returns (status, x, value, duals, farkas, ray); x, duals, farkas and
    ray are lists, duals/farkas are over the rows, everything exact.
    """
    tab = _Tableau(ncols, rows)
    if tab.n_art:
        # the artificial of a row scaled by m stands for m units of the
        # unscaled one, so it costs -1/m
        phase1 = [0] * tab.art0 + [Fraction(-1, tab.mult[i])
                                   for i, (_, rhs) in enumerate(rows) if rhs < 0]
        tab.price_out(phase1)
        status, _ = tab.run(tab.art0)
        if status != "optimal":  # pragma: no cover - box below is bounded
            raise RuntimeError("phase 1 cannot be unbounded")
        if tab.red[-1] > 0:
            return "infeasible", None, None, None, tab.slack_duals(), None
        tab.drop_artificials()
    tab.price_out(costs)
    status, e = tab.run(tab.n + tab.m)
    if status == "unbounded":
        return "unbounded", tab.solution(), None, None, None, tab.ray(e)
    return "optimal", tab.solution(), tab.value(), tab.slack_duals(), None, None


def _check(cond, what):
    if not cond:
        raise RuntimeError(f"internal certificate check failed: {what}")


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
    c = [_frac(v) for v in objective]
    c0 = c if maximize else [-v for v in c]
    d = P.dim
    rows = []
    prov = []  # (constraint index, sign) per standard-form row
    for i, h in enumerate(P.constraints):
        pairs = []
        if h.sense in ("<=", "="):
            pairs.append(1)
        if h.sense in (">=", "="):
            pairs.append(-1)
        for s in pairs:
            coeffs = [s * v for v in h.a] + [-s * v for v in h.a]
            rows.append((coeffs, s * h.rhs))
            prov.append((i, s))
    costs = c0 + [-v for v in c0]
    status, z, value, y_std, farkas_std, ray_std = _solve_standard(2 * d, rows, costs)

    def fold(ys):
        out = [Fraction(0)] * len(P.constraints)
        for (i, s), yk in zip(prov, ys):
            out[i] += s * yk
        return out

    def split(zs):
        return tuple(zs[j] - zs[d + j] for j in range(d))

    if status == "infeasible":
        y = fold(farkas_std)
        for h, yk in zip(P.constraints, y):
            if h.sense == "<=":
                _check(yk >= 0, "farkas sign on <= row")
            elif h.sense == ">=":
                _check(yk <= 0, "farkas sign on >= row")
        comb = [sum(yk * h.a[j] for h, yk in zip(P.constraints, y))
                for j in range(d)]
        _check(all(v == 0 for v in comb), "farkas combination is zero")
        _check(sum(yk * h.rhs for h, yk in zip(P.constraints, y)) < 0,
               "farkas value negative")
        return LPOutcome(status="infeasible", farkas=tuple(y))

    if status == "unbounded":
        x = split(z)
        r = split(ray_std)
        _check(P.contains(x), "unbounded: basic point feasible")
        _check(not is_zero_vector(r), "ray nonzero")
        for h in P.constraints:
            lhs = vdot(h.a, r)
            if h.sense == "<=":
                _check(lhs <= 0, "ray respects <= row")
            elif h.sense == ">=":
                _check(lhs >= 0, "ray respects >= row")
            else:
                _check(lhs == 0, "ray respects = row")
        gain = vdot(c, r)
        _check(gain > 0 if maximize else gain < 0, "ray improves objective")
        return LPOutcome(status="unbounded", point=x, ray=r)

    x = split(z)
    y = fold(y_std)
    if not maximize:
        value = -value
        y = [-v for v in y]
    _check(P.contains(x), "optimal point feasible")
    _check(vdot(c, x) == value, "objective value matches point")
    for h, yk in zip(P.constraints, y):
        if h.sense == "<=":
            _check(yk >= 0 if maximize else yk <= 0, "dual sign on <= row")
        elif h.sense == ">=":
            _check(yk <= 0 if maximize else yk >= 0, "dual sign on >= row")
    comb = [sum(yk * h.a[j] for h, yk in zip(P.constraints, y)) for j in range(d)]
    _check(all(u == v for u, v in zip(comb, c)), "dual combination equals objective")
    _check(sum(yk * h.rhs for h, yk in zip(P.constraints, y)) == value,
           "dual value equals primal value")
    return LPOutcome(status="optimal", value=value, point=x,
                     dual=tuple(y))


def _points_view(X):
    """Accept a point-set object (with .points/.dim/.bounds) or a plain list."""
    if hasattr(X, "points"):
        return X.points, X.dim, X.bounds()
    pts = list(X)
    if not pts:
        return [], None, None
    d = len(pts[0])
    lo = list(pts[0])
    hi = list(pts[0])
    for p in pts:
        for k, v in enumerate(p):
            if v < lo[k]:
                lo[k] = v
            elif v > hi[k]:
                hi[k] = v
    return pts, d, (tuple(lo), tuple(hi))


def _filter_at_bounds(pts, fixed):
    """Indices of points matching every (coordinate, value) pin.

    Exact presolve: if a convex combination attains the minimum (or
    maximum) of some coordinate over the whole set, only points attaining
    that bound can carry weight. Restricting to them loses nothing.
    """
    if not fixed:
        return list(range(len(pts)))
    out = []
    for i, x in enumerate(pts):
        for k, v in fixed:
            if x[k] != v:
                break
        else:
            out.append(i)
    return out


def conv_membership(p, X):
    """Is p in conv(X)? Returns (bool, multipliers aligned with X or None)."""
    pts, d, bounds = _points_view(X)
    if not pts:
        return False, None
    if len(p) != d:
        raise DimMismatch("point dimension does not match point set")
    lo, hi = bounds
    fixed = []
    free = []
    for k, v in enumerate(p):
        if v < lo[k] or v > hi[k]:
            return False, None
        if lo[k] == hi[k]:
            continue
        if v == lo[k] or v == hi[k]:
            fixed.append((k, v))
        else:
            free.append(k)
    idx = _filter_at_bounds(pts, fixed)
    if not idx:
        return False, None
    tup = tuple(p)
    for i in idx:
        if pts[i] == tup:
            mult = [Fraction(0)] * len(pts)
            mult[i] = Fraction(1)
            return True, tuple(mult)
    rows = []
    for k in free:
        coeffs = [pts[i][k] for i in idx]
        rows.append((coeffs, p[k]))
        rows.append(([-v for v in coeffs], -p[k]))
    ones = [1] * len(idx)
    rows.append((ones, 1))
    rows.append(([-1] * len(idx), -1))
    status, lam, _, _, _, _ = _solve_standard(len(idx), rows, [0] * len(idx))
    if status != "optimal":
        return False, None
    mult = [Fraction(0)] * len(pts)
    for i, l in zip(idx, lam):
        mult[i] = Fraction(l)
    comb = [sum(mult[i] * pts[i][k] for i in idx) for k in range(d)]
    _check(all(u == v for u, v in zip(comb, p)), "membership multipliers")
    return True, tuple(mult)


def segment_hits_hull(a, b, X):
    """Does the closed segment [a, b] meet conv(X)? Returns (bool, witness)."""
    pts, d, bounds = _points_view(X)
    if not pts:
        return False, None
    if len(a) != d or len(b) != d:
        raise DimMismatch("segment endpoints do not match point set dimension")
    if tuple(a) == tuple(b):
        inside, _ = conv_membership(a, X)
        return (True, tuple(a)) if inside else (False, None)
    lo, hi = bounds
    fixed = []
    free = []
    for k in range(d):
        va, vb = a[k], b[k]
        if va == vb:
            if va < lo[k] or va > hi[k]:
                return False, None
            if lo[k] == hi[k]:
                continue
            if va == lo[k] or va == hi[k]:
                fixed.append((k, va))
            else:
                free.append(k)
        else:
            free.append(k)
    idx = _filter_at_bounds(pts, fixed)
    if not idx:
        return False, None
    # variables: one multiplier per kept point, then the segment parameter t;
    # the segment point is b + t (a - b) with t in [0, 1]
    nv = len(idx) + 1
    rows = []
    for k in free:
        coeffs = [pts[i][k] for i in idx] + [b[k] - a[k]]
        rows.append((coeffs, b[k]))
        rows.append(([-v for v in coeffs], -b[k]))
    rows.append(([1] * len(idx) + [0], 1))
    rows.append(([-1] * len(idx) + [0], -1))
    rows.append(([0] * len(idx) + [1], 1))
    status, z, _, _, _, _ = _solve_standard(nv, rows, [0] * nv)
    if status != "optimal":
        return False, None
    t = Fraction(z[-1])
    witness = tuple(Fraction(vb) + t * (va - vb) for va, vb in zip(a, b))
    inside, _ = conv_membership(witness, X)
    _check(inside, "segment witness lies in the hull")
    return True, witness


def strict_separation(X, C):
    """Halfspace with a.x <= gamma on X and a.y >= gamma + 1 on C, or None.

    The unit gap is a normalization: any strictly separating row can be
    scaled to it, so None really means no strict separation exists.
    """
    ptsx, d, _ = _points_view(X)
    if not ptsx:
        raise EmptySet("strict separation needs a nonempty valid side")
    ptsc, dc, _ = _points_view(C)
    if ptsc and dc != d:
        raise DimMismatch("point sets of different dimensions")
    if not ptsc:
        m = max(p[0] for p in ptsx)
        a = (Fraction(1),) + (Fraction(0),) * (d - 1)
        return Halfspace(a, "<=", m)
    # variables: a as u - v, gamma as g - h, all nonnegative
    nv = 2 * d + 2
    rows = []
    for x in ptsx:
        rows.append((list(x) + [-v for v in x] + [-1, 1], 0))
    for y in ptsc:
        rows.append(([-v for v in y] + list(y) + [1, -1], -1))
    status, z, _, _, _, _ = _solve_standard(nv, rows, [0] * nv)
    if status != "optimal":
        return None
    a = tuple(Fraction(z[j]) - z[d + j] for j in range(d))
    gamma = Fraction(z[2 * d]) - z[2 * d + 1]
    for x in ptsx:
        _check(vdot(a, x) <= gamma, "separation valid side")
    for y in ptsc:
        _check(vdot(a, y) >= gamma + 1, "separation violated side")
    return Halfspace(a, "<=", gamma)


def recession_nontrivial(P):
    """Does the recession cone of P contain a nonzero vector?

    Probes each coordinate in both directions over the recession rows
    intersected with the [-1, 1] box; returns (bool, witness or None).
    """
    d = P.dim
    rows = []
    for h in P.constraints:
        rows.append(Halfspace(h.a, h.sense, 0))
    for k in range(d):
        e = tuple(Fraction(int(j == k)) for j in range(d))
        rows.append(Halfspace(e, "<=", 1))
        rows.append(Halfspace(e, ">=", -1))
    Q = HPolyhedron(d, rows)
    for k in range(d):
        c = tuple(Fraction(int(j == k)) for j in range(d))
        for maximize in (True, False):
            out = solve_lp(Q, c, maximize=maximize)
            _check(out.status == "optimal", "recession probe is bounded")
            if (out.value > 0) if maximize else (out.value < 0):
                return True, out.point
    return False, None
