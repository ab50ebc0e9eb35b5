"""Exception types shared across the package."""


class GridShaveError(Exception):
    """Base class for all gridshave errors; `hour` is the hour at fault, if known."""

    def __init__(self, message="", hour=None):
        super().__init__(message)
        self.hour = hour


class ShapeError(GridShaveError):
    """Series lengths or array shapes do not line up."""


class InfeasibleDemandError(GridShaveError):
    """Electrical demand exceeds total generating capacity."""


class CopDomainError(GridShaveError):
    """PLR or wet-bulb temperature outside the COP model's validity domain."""


class DegenerateCopError(GridShaveError):
    """COP polynomial evaluated at or below the admissible floor."""


class ChillerCapacityError(GridShaveError):
    """Requested chiller output exceeds nominal cooling capacity."""


class InfeasibleScheduleError(GridShaveError):
    """A given storage schedule breaks a rate, tank or terminal-state limit."""


class InfeasibleDischargeError(GridShaveError):
    """Storage discharge exceeds the cooling demand it could serve."""


class SingularFitError(GridShaveError):
    """Regression design matrix is rank deficient."""

    def __init__(self, message, collinear_columns=()):
        super().__init__(message)
        self.collinear_columns = tuple(collinear_columns)


class MetricUndefinedError(GridShaveError):
    """Validation metric denominator is zero."""


class ScenarioParseError(GridShaveError):
    """Scenario file failed validation; carries the offending row."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class SynthesisError(GridShaveError):
    """Synthetic scenario parameters imply an infeasible system."""


class InfeasibleStartError(GridShaveError):
    """No feasible starting schedule exists for the optimization."""


class GridResourceError(GridShaveError):
    """Dynamic-programming table would exceed the configured memory cap."""


class ConfigError(GridShaveError):
    """Malformed or incomplete flat config file."""
