"""The ordered-scan affine hull that rcx.rational's probed hull replaced.

Kept verbatim as a test-only reference: it reduces the points against a
growing echelon in input order until the rank is full, then takes the
reduced form and its null-space equations. The differential tests
require both hulls to be identical.
"""

from rcx.errors import DimMismatch, EmptySet
from rcx.rational import AffineHull, _Echelon, _nullspace_equations


def affine_hull(points):
    """Affine hull of a finite point collection (exact, deterministic).

    The base point is the lexicographically smallest input point, so the
    result is invariant under reordering of the input.
    """
    pts = list(points)
    if not pts:
        raise EmptySet("affine hull of no points")
    d = len(pts[0])
    base = min(pts)
    ech = _Echelon(d)
    for p in pts:
        if len(p) != d:
            raise DimMismatch("points of mixed dimension")
        if ech.rank == d:
            break
        diff = [a - b for a, b in zip(p, base)]
        if any(diff):
            ech.add(diff)
    ech.back_substitute()
    basis = tuple(tuple(r) for r in ech.rows)
    equations = _nullspace_equations(ech, d, base)
    return AffineHull(tuple(base), basis, equations)
