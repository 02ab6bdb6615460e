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
    return sum(a * b for a, b in zip(u, v))


def is_zero_vector(v):
    return all(a == 0 for a in v)


def _int_rows(rows):
    # clear denominators row by row; plain ints pass through
    out = []
    for row in rows:
        den = 1
        for v in row:
            if isinstance(v, float):
                raise TypeError("floats are not allowed; use Fraction or int")
            if isinstance(v, Fraction):
                den = den * v.denominator // gcd(den, v.denominator)
        out.append([int(v * den) for v in row])
    return out


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
    for row in _int_rows(rows):
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
    result is invariant under reordering of the input. About 4·d seeded
    probes find the rank of most families; while it is short, every point
    is checked once against the current equations, and a point that breaks
    one enlarges the basis. The basis is the reduced echelon form of the
    direction space, which is unique, so the answer does not depend on
    which points were probed.
    """
    pts = list(points)
    if not pts:
        raise EmptySet("affine hull of no points")
    d = len(pts[0])
    base = min(pts)
    if len(set(map(len, pts))) > 1:
        raise DimMismatch("points of mixed dimension")
    probes = pts
    if len(pts) > 4 * d:
        probes = [pts[i] for i in random.Random(0).sample(range(len(pts)), 4 * d)]
    ech = _Echelon(d)
    for p in probes:
        if ech.rank == d:
            break
        ech.add([a - b for a, b in zip(p, base)])
    ech.back_substitute()
    equations = _nullspace_equations(ech, d, base)
    if equations:
        reach = max(max(map(max, pts)), -min(map(min, pts)))
        w, t = _packed(equations, reach)
        for p in pts:
            if sum(map(mul, w, p)) != t:
                ech.add([a - b for a, b in zip(p, base)])
                ech.back_substitute()
                equations = _nullspace_equations(ech, d, base)
                if not equations:
                    break
                w, t = _packed(equations, reach)
    basis = tuple(tuple(r) for r in ech.rows)
    return AffineHull(tuple(base), basis, equations)


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
        a = tuple(_primitive(_int_rows([a])[0]))
        eqs.append((a, vdot(a, base)))
    return tuple(eqs)


def in_affine_hull(p, hull):
    """Exact membership of a point in an affine hull."""
    if len(p) != hull.ambient_dim:
        raise DimMismatch(
            f"point of dimension {len(p)} vs hull in dimension {hull.ambient_dim}"
        )
    return all(vdot(a, p) == b for a, b in hull.equations)
