"""Exception taxonomy shared by all listlbm modules.

Every bad value a caller or a file can pass raises a ListLbmError
subclass, so the CLI ends it in one `error:` line; TypeError is left
for passing the wrong kind of object. Bad sparse records raise DataError
in memory and FormatError, at a byte offset, in a file. Bad counts,
ranges and header fields passed in memory raise ParameterError.
"""


class ListLbmError(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(ListLbmError):
    """Geometry parameters cannot produce a valid voxel domain."""


class DecompositionError(ListLbmError):
    """Requested rank decomposition is impossible for the given dims."""


class DomainError(ListLbmError):
    """A bounding box is too large for the numbering scheme's codes."""


class SchemeParseError(ListLbmError):
    """A numbering-scheme string or parameter does not match the
    canonical grammar of `numbering.parse_scheme`."""


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
    """In-memory sparse records break a record rule: their array shapes,
    their count, the I_c order 1..N_f, the neighbor range, or cells and
    links that disagree with the coordinates."""


class ParameterError(ListLbmError):
    """A physical or numerical parameter, a count, a record range or a
    header field is out of its valid range."""


class DivergenceError(ListLbmError):
    """A solver step met a cell outside the state's health bounds: its
    density not positive (or NaN), or its velocity above Mach 1. Carries
    the bound that failed, the step, the smallest such I_c and its
    (x, y, z)."""

    def __init__(self, step, ic, cell, bound):
        super().__init__(f"{bound} at step {step} at I_c={ic} {cell}: the run diverged")
        self.bound = bound
        self.step = step
        self.ic = ic
        self.cell = cell


class NotConvergedError(ListLbmError):
    """A steady-state run did not reach the convergence criterion."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
