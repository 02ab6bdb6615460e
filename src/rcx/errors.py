"""Shared exception types."""


class DimMismatch(ValueError):
    """Operands live in different ambient dimensions."""


class EmptySet(ValueError):
    """An operation that needs at least one point got none."""


class TooLarge(ValueError):
    """A requested enumeration exceeds its candidate cap."""


class OddNodeSet(ValueError):
    """T-joins need an even number of odd-degree terminals."""


class Infeasible(ValueError):
    """The polyhedron has no points at all."""


class UnboundedCoordinate(ValueError):
    """A coordinate of the polyhedron is unbounded in some direction.

    ray is the checked recession ray of the bounding LP that found it.
    """

    def __init__(self, coord, direction, ray):
        self.coord = coord
        self.direction = direction
        self.ray = ray
        super().__init__(f"coordinate {coord} unbounded ({direction})")
