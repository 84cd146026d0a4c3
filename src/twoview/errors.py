"""Exception hierarchy shared by all twoview modules.

Every error that maps to a CLI exit code derives from TwoViewError;
the CLI distinguishes input errors (exit 2), geometric precondition
failures (exit 3) and numerical non-convergence (exit 4).
"""


class TwoViewError(Exception):
    """Base class for all twoview errors."""


class InputError(TwoViewError):
    """Malformed or unreadable input data (CLI exit 2)."""


class GeometricError(TwoViewError):
    """A geometric precondition was violated (CLI exit 3)."""


class NumericalError(TwoViewError):
    """A numerical routine failed to converge (CLI exit 4)."""


# -- geometry ---------------------------------------------------------------

class InvalidFrame(GeometricError):
    """Projection frame is not right-handed orthonormal."""


class InvalidInvolution(GeometricError):
    """Matrix is not an orthogonal involution."""


# -- moments ----------------------------------------------------------------

class ZeroMass(GeometricError):
    """Total weight is not positive; centroid undefined."""


# -- recon ------------------------------------------------------------------

class NonTransverse(GeometricError):
    """Viewing directions are (near-)coaxial; rays do not intersect
    transversally."""


class LengthMismatch(InputError):
    """Paired observations have different lengths."""


class AmbiguousDirection(GeometricError):
    """Direction solution space has dimension > 1."""

    def __init__(self, msg, nullity=None, fixed_subspace_dim=None):
        super().__init__(msg)
        self.nullity = nullity
        self.fixed_subspace_dim = fixed_subspace_dim


class Inconsistent(GeometricError):
    """Homogeneous system admits only the trivial solution."""


class DimMismatch(InputError):
    """Array dimensions are inconsistent."""


class NotConverged(NumericalError):
    """Iterative solver hit max_iter; carries the best iterate."""

    def __init__(self, msg, best=None, residual=None, iterations=None):
        super().__init__(msg)
        self.best = best
        self.residual = residual
        self.iterations = iterations


# -- diffgeo ----------------------------------------------------------------

class HeaderMismatch(InputError):
    """Grids do not share dims/spacing/origin."""


class GridTooSmall(InputError):
    """Grid has too few nodes for the requested stencil."""


class PathOutsideGrid(GeometricError):
    """Transport path leaves the sampled grid."""


class DegenerateDistribution(GeometricError):
    """Spanning fields are nearly parallel at some node."""


# -- toric ------------------------------------------------------------------

class DegenerateCloud(GeometricError):
    """Point cloud is collinear or otherwise too degenerate."""
