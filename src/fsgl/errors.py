"""Exception types raised across the package."""


class FsglError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteInput(FsglError):
    """Input data holds a NaN or infinite entry."""


class NonFiniteObjective(FsglError):
    """The objective of a solve's starting graph is NaN or infinite."""


class DuplicateEdge(FsglError):
    """An edge list names the same unordered node pair twice."""


class MissingEdge(FsglError):
    """An operation referenced an edge that is not present in the graph."""


class InsufficientEigenpairs(FsglError):
    """Fewer eigenpairs retained than the requested quantity needs."""


class InvalidBudget(FsglError):
    """Extra-edge budget exceeds the number of available node pairs."""


class TooLarge(FsglError):
    """Input too large for exhaustive subset enumeration, or a dense array
    above datagen.MAX_ARRAY_BYTES."""


class Disconnected(FsglError):
    """Operation requires a connected graph."""


class InvalidDof(FsglError):
    """Degrees of freedom too small for a finite covariance."""


class ZeroReference(FsglError):
    """Reference matrix has zero Frobenius norm."""
