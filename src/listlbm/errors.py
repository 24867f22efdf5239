"""Exception taxonomy shared by all listlbm modules. Bad sparse records
raise DataError in memory and FormatError, at a byte offset, in a file."""


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


class TooManyProcessesError(ListLbmError):
    """More partitions requested than fluid cells available."""


class DataError(ListLbmError):
    """In-memory sparse records break a record rule: their count, the I_c
    order 1..N_f, the neighbor range or link symmetry."""


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
