"""Shared exception types."""


class MinimalPointError(ValueError):
    """Raised when an operation requires |H| > 0 but the mean curvature vanishes."""


class DegenerateGeometryError(RuntimeError):
    """Raised when a discrete immersion has a singular or near-singular metric."""


class NonFiniteError(DegenerateGeometryError, ValueError):
    """Positions hold a NaN or an infinity: bad input, or a flow state gone bad."""


class CapExtinctError(ValueError):
    """Raised when a shrinking spherical cap has already vanished at the requested time."""

    def __init__(self, message, extinction_time=None):
        super().__init__(message)
        self.extinction_time = extinction_time
