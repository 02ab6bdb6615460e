"""The hand-built separation LP that rcx.linprog.strict_separation replaced.

Kept verbatim as a test-only reference: it writes the LP over (a, gamma)
in the simplex core's standard form itself, a as u - v and gamma as
g - h with every column nonnegative, runs phase 1 on it and checks only
a "yes" answer (both sides of the row). `strict_separation` now asks the
hull LP whether conv(C) meets conv(X) and reads its row from that LP's
Farkas multipliers. The differential tests require both to give the
same verdicts.
"""

from fractions import Fraction

from fraction_simplex import tableau_rows
from rcx.errors import DimMismatch, EmptySet
from rcx.linprog import Halfspace, _check, _point_set, _solve_standard


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
