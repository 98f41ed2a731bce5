"""Exception hierarchy shared across the library.

Each class carries the CLI exit code of its failures as ``exit_code``:
configuration problems exit 1, data and validation problems (``DataError``)
exit 2, everything else exits 3.
"""

from __future__ import annotations


class ConvsurvError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class ConfigError(ConvsurvError):
    """Invalid configuration or incompatible option combination."""

    exit_code = 1


class DataError(ConvsurvError):
    """Input data or a model file the operation cannot use."""

    exit_code = 2


class EmptyInputError(DataError):
    """An operation received an empty dataset or empty population."""


class InvalidCurveError(ConvsurvError):
    """A step function violates the invariants required by the operation."""


class WrongEstimatorError(DataError):
    """Single-risk estimator applied to a competing-risks dataset."""


class InvalidEventError(DataError):
    """Unknown or inapplicable event type."""


class DegenerateFitError(DataError):
    """Training data cannot support a fit (e.g. no events)."""


class ConvergenceError(ConvsurvError):
    """Iterative fit failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_fit=None):
        super().__init__(message)
        self.last_fit = last_fit


class MonotoneLikelihoodError(ConvsurvError):
    """Perfect separation drove an unpenalized Cox coefficient to diverge."""


class ShapeMismatchError(DataError):
    """Covariate vector dimensionality does not match the fitted model."""


class InvalidModelError(ConvsurvError):
    """Operation is not defined for this model kind."""


class StratificationError(DataError):
    """Stratified split impossible (single-class dataset)."""


class UndefinedMetricError(ConvsurvError):
    """Metric has an empty population and no defined value."""


class LogParseError(DataError):
    """Malformed player-log input; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class LogValidationError(DataError):
    """Player log violates a structural invariant; carries the player id."""

    def __init__(self, message: str, player_id: str | None = None):
        super().__init__(message)
        self.player_id = player_id


class CompatibilityError(DataError):
    """Model file and input data disagree (feature spec hash, version)."""
