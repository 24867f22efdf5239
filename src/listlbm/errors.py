"""Exception taxonomy shared by all listlbm modules: one class per fault source.

Every bad value a caller or a file can pass raises a ListLbmError
subclass, so the CLI ends it in one `error:` line; TypeError is left
for passing the wrong kind of object.

- ParameterError: a value the caller passed in memory (a size, count,
  range, box, scheme or header field).
- FormatError: a file's bytes, at a byte offset.
- DataError: sparse records passed in memory.
- ProtocolError: a message of the distributed reduction or exchange.
- DivergenceError: a solver run that left its health bounds.
- NotConvergedError: a steady-state run that did not converge.
"""


class ListLbmError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(ListLbmError):
    """A file is structurally invalid. Carries the byte offset of the problem."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ProtocolError(ListLbmError):
    """The distributed reduction or exchange received inconsistent data."""


class DataError(ListLbmError):
    """In-memory sparse records break a record rule: their array shapes,
    their count, the I_c order 1..N_f, the neighbor range, or cells and
    links that disagree with the coordinates."""


class ParameterError(ListLbmError):
    """A value passed in memory is out of its valid range: a size, a
    count, a rank box, a scheme or its box, a physical parameter, a
    record range or a header field."""


class DivergenceError(ListLbmError):
    """A solver step met a cell outside the state's health bounds: its
    density not positive (or NaN), its density +inf, or its velocity
    above Mach 1. Carries the bound that failed, the step, the smallest
    such I_c and its (x, y, z)."""

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
