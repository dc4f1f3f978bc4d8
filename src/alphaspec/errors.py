"""Exception types shared across the package."""


class AlphaspecError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(AlphaspecError, ValueError):
    """A constructor or operation received parameters violating its contract."""


class DimensionError(AlphaspecError, ValueError):
    """A vector or matrix argument has the wrong length or shape."""


class CapacityError(AlphaspecError):
    """The requested computation exceeds a documented size limit."""


class GraphFormatError(AlphaspecError, ValueError):
    """An edge-list document could not be parsed."""


class SolverError(AlphaspecError, ArithmeticError):
    """Numeric iteration failed to converge or failed a consistency check.

    diagnostics carries whatever context the failing routine could attach
    (matrix shape, residuals, bracket ends).
    """

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)
