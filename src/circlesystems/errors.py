"""Exception types shared across the package."""


class CircleSystemsError(Exception):
    """Base class for all package-specific failures."""


class UsageError(CircleSystemsError):
    """Bad input or an argument outside the operation's domain (exit 2)."""


class NumericError(CircleSystemsError):
    """Computation that missed its tolerance or hit a degeneracy (exit 3)."""


class MalformedRotation(UsageError):
    """Rotation data is not a valid dart system (asymmetric adjacency etc.)."""


class MalformedRealization(UsageError):
    """A point or an arc names a circle the realization does not have."""


class NonPlanarEmbedding(UsageError):
    """The supplied rotation system violates the Euler formula."""


class Disconnected(UsageError):
    """Operation requires a connected graph."""


class NotBipartiteDual(UsageError):
    """Face adjacency graph is not 2-colorable (input not Eulerian)."""


class VertexNotOnTwoGrayFaces(CircleSystemsError):
    """Internal consistency failure while building the gray-face graph."""


class TooSmall(UsageError):
    """Input below the minimum size the operation is defined for."""


class NoConvergence(NumericError):
    """Numerical iteration hit its cap before reaching tolerance."""


class NotThreeConnected(UsageError):
    """Realization pipeline requires a 3-connected input."""


class ILNotSimple(CircleSystemsError):
    """Gray-face graph unexpectedly non-simple; indicates an internal bug."""


class DegenerateArc(NumericError):
    """Two points on one circle are closer than the tolerance allows."""


class NoInnermostFace(CircleSystemsError):
    """No interior face disjoint from the outer face was found."""


class NoClassMatch(CircleSystemsError):
    """Realization matched none of the known octahedron classes."""


class DomainError(UsageError):
    """Numeric argument outside the formula's domain."""


class InvalidConfig(UsageError):
    """Arc-pair configuration violates its structural preconditions."""


class NotTangent(UsageError):
    """Circles expected to be pairwise tangent are not."""


class DegenerateRadius(NumericError):
    """Could not avoid a triple-concurrence after the retry budget."""


class EmptyInput(UsageError):
    """Nothing to render or process."""


class NotRenderable(UsageError):
    """Document type that has no drawing (a graph or an oriented dual)."""
