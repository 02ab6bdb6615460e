"""The hand-built separation LP that rcx.linprog.strict_separation replaced.

Kept verbatim as a test-only reference: it writes the LP over (a, gamma)
in the simplex core's standard form itself, a as u - v and gamma as
g - h with every column nonnegative, runs phase 1 on it and checks only
a "yes" answer (both sides of the row). `strict_separation` now asks the
hull LP whether conv(C) meets conv(X) and reads its row from that LP's
Farkas multipliers. The differential tests require both to give the
same verdicts.

`lifted_separation` is `strict_separation` as it was before its lift
went to integers: it takes the same hull LP miss and lifts it over the
pins with a `Fraction` M, then scales it to the unit gap and checks a
second, `far` row on C. The differential tests require both to give
equal rows.
"""

from fractions import Fraction

from fraction_simplex import tableau_rows
from rcx.errors import DimMismatch, EmptySet
from rcx.linprog import (Halfspace, _check, _holds, _hull_point, _point_set,
                         _solve_standard)
from rcx.rational import vdot


def strict_separation(X, C):
    """Halfspace with a.x <= gamma on X and a.y >= gamma + 1 on C, or None.

    The unit gap is a normalization: any strictly separating row can be
    scaled to it, so None really means no strict separation exists.
    """
    X, C = _point_set(X), _point_set(C)
    ptsx, ptsc, d = X.points, C.points, X.dim
    if not ptsx:
        raise EmptySet("strict separation needs a nonempty valid side")
    if ptsc and C.dim != d:
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
    status, z, *_ = _solve_standard(nv, tableau_rows(rows), [0] * nv)
    if status != "optimal":
        return None
    z, den = z
    a = tuple(Fraction(z[j] - z[d + j], den) for j in range(d))
    gamma = Fraction(z[2 * d] - z[2 * d + 1], den)
    h, gap = Halfspace(a, "<=", gamma), Halfspace(a, ">=", gamma + 1)
    _check(all(map(h.satisfied_by, ptsx)), "separation valid side")
    _check(all(map(gap.satisfied_by, ptsc)), "separation violated side")
    return h


def lifted_separation(X, C):
    """strict_separation with its lift in Fraction arithmetic."""
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
    # adding M * s (x_k - v) per pin changes nothing on C
    M = max([0] + [Fraction(vdot(a, x) - sigma, off) for x in ptsx
                   if (off := sum(abs(x[k] - v) for k, v, _ in pins))])
    for k, v, s in pins:
        a[k] += s * M
        sigma += s * M * v
    gap = Fraction(min(vdot(a, y) for y in ptsc) - sigma)
    _check(gap > 0, "separation gap positive")
    h = Halfspace([u / gap for u in a], "<=", sigma / gap)
    far = Halfspace(h.a, ">=", h.rhs + 1)
    _check(all(_holds(h, x) for x in ptsx) and all(_holds(far, y) for y in ptsc),
           "separation row")
    return h
