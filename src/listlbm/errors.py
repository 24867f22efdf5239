"""Exception taxonomy shared by all listlbm modules."""


class ListLbmError(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(ListLbmError):
    """Geometry parameters cannot produce a valid voxel domain."""


class DecompositionError(ListLbmError):
    """Requested rank decomposition is impossible for the given dims."""


class DomainError(ListLbmError):
    """A coordinate lies outside the bounding box."""


class SchemeParseError(ListLbmError):
    """A numbering-scheme string does not match the canonical grammar."""


class FormatError(ListLbmError):
    """A file is structurally invalid. Carries the byte offset of the problem."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ProtocolError(ListLbmError):
    """The distributed reduction or exchange received inconsistent data."""


class ConsistencyError(ListLbmError):
    """Records violate the contiguous-index bijection."""


class TooManyProcessesError(ListLbmError):
    """More partitions requested than fluid cells available."""


class PartitionMapError(ListLbmError):
    """An external partition-map file is malformed. Carries the line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class DataError(ListLbmError):
    """Sparse records reference indices outside the valid range."""


class ParameterError(ListLbmError):
    """A physical or numerical parameter is out of its valid range."""


class DivergenceError(ListLbmError):
    """A solver step met a cell whose density is not positive (or NaN)."""

    def __init__(self, step):
        super().__init__(f"density not positive at step {step}: the run diverged")
        self.step = step


class NotConvergedError(ListLbmError):
    """A steady-state run did not reach the convergence criterion."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
