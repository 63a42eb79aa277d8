"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all geometric and numeric failures."""


class DimensionMismatch(GeometryError):
    """Operands live in different ambient dimensions."""


class BadParameter(GeometryError):
    """An argument violates a documented precondition."""


class Infeasible(GeometryError):
    """The constraint system has no solution."""


class Unbounded(GeometryError):
    """The feasible region (or the LP objective over it) is unbounded."""


class EmptyInterior(GeometryError):
    """The region is non-empty but has no interior at the working tolerance."""


class DegenerateInput(GeometryError):
    """Input points are affinely dependent where full dimension is required."""


class DegenerateNumerics(GeometryError):
    """A computed result failed a numerical consistency check."""


class OutsideBody(GeometryError):
    """A query point lies outside the body beyond tolerance."""


class SolverFailure(GeometryError):
    """The LP solver hit its iteration cap before reaching optimality."""


class EpsOutOfRange(GeometryError):
    """An offset parameter lies outside [0, inradius]."""


class DegenerateImage(GeometryError):
    """A projective image collapsed (non-positive coordinate sum)."""


class SingularMatrix(GeometryError):
    """A matrix required to be invertible is singular."""


class IfsValidationError(GeometryError):
    """An iterated function system failed its hypothesis checks."""


class Unstable(GeometryError):
    """Series ratio estimates carry no usable convergence signal."""


class InsufficientDepth(GeometryError):
    """The finest grid resolution is below the generated hole scale."""
