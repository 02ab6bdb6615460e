"""Exact rational scalars, vectors, and affine hulls.

Everything downstream works over Fraction (or plain int, which mixes
exactly); floats never enter the toolkit.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import DimMismatch, EmptySet
from .families import _point_set

_RAT_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def parse_rational(s):
    """Parse 'p' or 'p/q' (q > 0) into a Fraction; reject anything else."""
    m = _RAT_RE.match(s)
    if not m:
        raise ValueError(f"not a rational literal: {s!r}")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


def format_rational(x):
    """Canonical 'p' / 'p/q' string with q > 0 and gcd(p, q) = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def vdot(u, v):
    if len(u) != len(v):
        raise DimMismatch(f"dot of {len(u)}-vector with {len(v)}-vector")
    return sum(map(mul, u, v))


def is_zero_vector(v):
    return all(a == 0 for a in v)


def _den_lcm(vals):
    """Least common multiple of the denominators of ints and Fractions."""
    m = 1
    for v in vals:
        d = v.denominator
        if m % d:
            m = m * d // gcd(m, d)
    return m


def _int_row(row):
    """(the row times the lcm of its denominators, as ints; that lcm)."""
    den = _den_lcm(row)
    return [v.numerator * (den // v.denominator) for v in row], den


def _frac(v):
    """v as a Fraction; the one place a float is refused."""
    if isinstance(v, float):
        raise TypeError("floats are not allowed; use Fraction or int")
    return Fraction(v)


def _cleared_rows(rows):
    # clear denominators row by row
    return [_int_row([_frac(v) for v in row])[0] for row in rows]


def _primitive(row):
    # divide by gcd, make the leading nonzero entry positive
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            break
    if g == 0:
        return row
    lead = next(v for v in row if v)
    if lead < 0:
        g = -g
    return [v // g for v in row]


def _pivot_col(row):
    for j, v in enumerate(row):
        if v:
            return j
    return None


class _Echelon:
    """Incremental fraction-free row echelon over the integers."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []    # primitive int rows, sorted by pivot column
        self.pivots = []  # pivot column of each row

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row):
        """Eliminate this row against the current basis; returns an int row."""
        row = list(row)
        for r, p in zip(self.rows, self.pivots):
            a = row[p]
            if a:
                b = r[p]
                row = [x * b - y * a for x, y in zip(row, r)]
        return row

    def add(self, row):
        """Insert one row; returns True if it enlarged the span."""
        row = self.reduce(row)
        p = _pivot_col(row)
        if p is None:
            return False
        row = _primitive(row)
        at = 0
        while at < len(self.pivots) and self.pivots[at] < p:
            at += 1
        self.rows.insert(at, row)
        self.pivots.insert(at, p)
        return True

    def back_substitute(self):
        """Clear entries above every pivot, giving a canonical reduced form."""
        for i in range(len(self.rows) - 1, -1, -1):
            p = self.pivots[i]
            low = self.rows[i]
            for k in range(i):
                a = self.rows[k][p]
                if a:
                    b = low[p]
                    self.rows[k] = _primitive(
                        [x * b - y * a for x, y in zip(self.rows[k], low)]
                    )


def gaussian_rank(rows):
    """Rank plus a canonical reduced echelon basis of the row space.

    Accepts rows of ints or Fractions; returns (rank, rows) where the
    rows are primitive integer tuples in reduced echelon form.
    """
    rows = list(rows)
    if not rows:
        return 0, []
    ncols = len(rows[0])
    ech = _Echelon(ncols)
    for row in _cleared_rows(rows):
        if len(row) != ncols:
            raise DimMismatch("ragged rows")
        ech.add(row)
    ech.back_substitute()
    return ech.rank, [tuple(r) for r in ech.rows]


@dataclass(frozen=True)
class AffineHull:
    """aff(X) as a base point, direction basis, and defining equations.

    Directions are a canonical reduced echelon basis; every equation is a
    primitive integer pair (a, b) with a . x = b on the hull, and there
    are exactly ambient_dim - dim of them.
    """

    base_point: tuple
    basis: tuple
    equations: tuple

    @property
    def ambient_dim(self):
        return len(self.base_point)

    @property
    def dim(self):
        return len(self.basis)


def affine_hull(points):
    """Affine hull of a finite point collection (exact, deterministic).

    The base point is the lexicographically smallest input point, so the
    result is invariant under reordering of the input. The basis is the
    reduced echelon form of the direction space, which is unique, so the
    answer does not depend on which points were reduced.

    A set of at most 4·d points is reduced whole. A larger one is reduced
    through 4·d seeded probes only until the first probe that does not
    enlarge the rank (the stall); the equations are built then, each later
    probe and then every point of X is checked against them, and a point
    that breaks one is added and the equations rebuilt (`_widen`). Probes,
    and the points of a set whose rows are not all single digits, are
    checked one by one against a packed row (`_packed`). Single digits
    are checked equation by equation on sums of the digit buffer's
    columns, each row a lane of L bytes with 2^(8L) > 2 (sum |a_k| reach
    + |b|) + 1, so that no carry crosses a row (`_check`).
    """
    X = _point_set(points)
    pts = X.points
    if not pts:
        raise EmptySet("affine hull of no points")
    d = len(pts[0])
    base = min(pts)
    if len(set(map(len, pts))) > 1:
        raise DimMismatch("points of mixed dimension")
    ech = _Echelon(d)
    sampled = len(pts) > 4 * d
    probes = iter(pts)
    if sampled:
        probes = iter([pts[i] for i in random.Random(0).sample(range(len(pts)), 4 * d)])
    for p in probes:
        if ech.rank == d or (not ech.add([a - b for a, b in zip(p, base)]) and sampled):
            break
    ech.back_substitute()
    equations = _nullspace_equations(ech, d, base)
    if sampled and equations:
        lows, highs = X.bounds()
        reach = max(max(highs), -min(lows))
        equations = _scan(probes, ech, equations, base, reach)
        equations = _check(X, ech, equations, base, reach)
    return AffineHull(tuple(base), tuple(tuple(r) for r in ech.rows), equations)


def _widen(ech, p, base):
    """Add p's direction to the basis; the equations of the wider hull."""
    ech.add([a - b for a, b in zip(p, base)])
    ech.back_substitute()
    return _nullspace_equations(ech, len(base), base)


def _scan(rows, ech, equations, base, reach):
    """The equations after each row in turn is checked against their
    packed row, a row that breaks it widening the basis."""
    if equations:
        w, t = _packed(equations, reach)
        for p in rows:
            if sum(map(mul, w, p)) != t:
                equations = _widen(ech, p, base)
                if not equations:
                    break
                w, t = _packed(equations, reach)
    return equations


def _check(X, ech, equations, base, reach):
    """The equations after every point of X is checked against them.

    Single digits are checked equation by equation on column sums. For
    a . x = b, P = sum of a_k C_k over a_k > 0 and N = sum of |a_k| C_k
    over a_k < 0 plus b ONES (b moves to P when negative), where C_k is
    column k as one int with a lane of L bytes per row and ONES has a 1
    in every lane. L is the least power-of-two byte count with
    2^(8L) > 2 (sum |a_k| reach + |b|) + 1, so every lane of P and N is
    nonnegative and below 2^(8L), no carry crosses a lane, and P == N
    exactly when every row meets the equation. Else the lowest set bit
    of P ^ N names the equation's first failing row. The first row that
    fails any equation is added, the equations rebuilt, and the check
    goes on from the next row: earlier rows met the old equations, which
    imply the new ones. Other sets take the packed per-point scan.
    """
    cols = X._columns() if equations else None
    if cols is None:
        return _scan(X.points, ech, equations, base, reach)
    done = 0
    while equations and cols[0]:
        rows = first = len(cols[0])
        for a, b in equations:
            width = (2 * (sum(map(abs, a)) * reach + abs(b)) + 1).bit_length()
            L = 1 << ((width + 7) // 8 - 1).bit_length()
            sides = [0, 0]
            for ak, col in zip(a, cols):
                if ak:
                    sides[ak < 0] += abs(ak) * _lanes(col, L)
            if b:
                sides[b > 0] += abs(b) * _lanes(b"\1" * rows, L)
            diff = sides[0] ^ sides[1]
            if diff:
                first = min(first, ((diff & -diff).bit_length() - 1) // (8 * L))
        if first == rows:
            break
        done += first + 1
        equations = _widen(ech, X.points[done - 1], base)
        cols = [c[first + 1:] for c in cols]
    return equations


def _lanes(col, L):
    """A bytes column as one int, row i in bytes iL .. iL + L - 1."""
    if L > 1:
        wide = bytearray(len(col) * L)
        wide[::L] = col
        col = wide
    return int.from_bytes(col, "little")


def _packed(equations, reach):
    """One weight row (w, t) with w·p == t exactly when every a·p == b, for
    points whose coordinates are at most `reach` in absolute value.

    Each residual a·p - b lies strictly inside (-B/2, B/2), so the base-B
    sum of the residuals is zero only when each residual is.
    """
    B = 2 * max(sum(map(abs, a)) * reach + abs(b) for a, b in equations) + 1
    w, t, scale = [0] * len(equations[0][0]), 0, 1
    for a, b in equations:
        w = [x + scale * y for x, y in zip(w, a)]
        t += scale * b
        scale *= B
    return w, t


def _nullspace_equations(ech, d, base):
    # one equation per non-pivot column of the direction basis
    pivset = set(ech.pivots)
    eqs = []
    for f in range(d):
        if f in pivset:
            continue
        a = [Fraction(0)] * d
        a[f] = Fraction(1)
        for row, p in zip(ech.rows, ech.pivots):
            a[p] = Fraction(-row[f], row[p])
        a = tuple(_primitive(_cleared_rows([a])[0]))
        eqs.append((a, vdot(a, base)))
    return tuple(eqs)


def in_affine_hull(p, hull):
    """Exact membership of a point in an affine hull."""
    if len(p) != hull.ambient_dim:
        raise DimMismatch(
            f"point of dimension {len(p)} vs hull in dimension {hull.ambient_dim}"
        )
    return all(vdot(a, p) == b for a, b in hull.equations)
