"""The LP path that rcx.relaxations' propagated box skips.

Kept as a test-only reference: `enumerate_lattice` solves the 2·d
bounding LPs and scans the LP box; `verify_relaxation` runs the
recession test (`recession_nontrivial`) on every polyhedron with a
point to check, then that enumeration. A box passed to the library's
`enumerate_lattice` is scanned as given, with no propagation, so the
scan is the library's own. Containment is tested here in `Fraction`
arithmetic over `h.a` and `h.rhs`, not by `P.contains`, which reads the
rows' integer form. The differential tests require both paths to give
the same points, the same reports and the same exceptions.
"""

from functools import cache

from rcx.errors import DimMismatch
from rcx.families import PointSet
from rcx.linprog import conv_membership, recession_nontrivial
from rcx import relaxations
from rcx.relaxations import RelaxationReport


@cache
def bounding_box(P):
    """relaxations.bounding_box, cached; a raised exception is not cached."""
    return relaxations.bounding_box(P)


@cache
def enumerate_lattice(P, max_points=None):
    """bounding_box(P), then the scan over that box; no points when P has
    no lattice point (no box).

    Cached, so a test that asks both functions about one polyhedron
    solves its bounding LPs once; a raised exception is not cached.
    """
    box = bounding_box(P)
    if box is None:
        return PointSet(P.dim, [])
    return relaxations.enumerate_lattice(P, box=box, max_points=max_points)


def contains(P, p):
    """p satisfies every row of P, in Fraction arithmetic."""
    for h in P.constraints:
        lhs = sum(u * v for u, v in zip(h.a, p, strict=True))
        if not {"<=": lhs <= h.rhs, ">=": lhs >= h.rhs, "=": lhs == h.rhs}[h.sense]:
            return False
    return True


def verify_relaxation(P, X, max_points=None):
    """Containment, the recession test, then the LP-box enumeration."""
    if P.dim != X.dim:
        raise DimMismatch("polyhedron and point set dimensions differ")
    for p in X:
        if not contains(P, p):
            return RelaxationReport("failed", ("missing_point", tuple(p)))
    if len(X) > 0:
        nontrivial, ray = recession_nontrivial(P)
        if nontrivial:
            return RelaxationReport("failed", ("unbounded_with_finite_X", ray))
    lattice = enumerate_lattice(P, max_points=max_points)
    known = set(X.points)
    for z in lattice:
        if z in known:
            continue
        if not conv_membership(z, X)[0]:
            return RelaxationReport("failed", ("extra_lattice_point", z))
    return RelaxationReport("verified", None, len(lattice))
