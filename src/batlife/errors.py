"""Exception hierarchy shared across the package.

Two broad families map onto CLI exit codes: ``DataError`` (malformed or
insufficient input, exit 3) and ``NumericalError`` (a computation that could
not be completed soundly, exit 4). Everything derives from ``BatlifeError``
so callers can catch the whole family at once.
"""


class BatlifeError(Exception):
    """Base class for all batlife errors."""


class DataError(BatlifeError):
    """Input data is malformed, inconsistent, or insufficient."""


class NumericalError(BatlifeError):
    """A numerical procedure failed or produced a degenerate result."""


# -- dataset ----------------------------------------------------------------

class SchemaError(DataError):
    """A declared column is missing or duplicated in an input file."""


class ValidationError(DataError):
    """Parsed data violates a structural invariant (monotonicity, range)."""


class EmptyFileError(DataError):
    """An input file contains no data rows."""


class InsufficientCellsError(DataError):
    """A split requests more cells than a condition provides."""


class NeverReachedError(DataError):
    """The capacity trace never crosses the end-of-life threshold."""


class UnknownCycleError(DataError):
    """A requested cycle index does not exist in the cell history."""


# -- simgen -----------------------------------------------------------------

class DriftUnderflowError(DataError):
    """A drifted circuit parameter would become non-positive."""


# -- ecm --------------------------------------------------------------------

class InsufficientDataError(DataError):
    """Fewer relaxation samples than the fit requires."""


class NoConvergenceError(NumericalError):
    """An iterative solver exhausted its iteration budget."""


# -- features ---------------------------------------------------------------

class TimeGridMismatchError(DataError):
    """Two curves do not share an identical sampling grid."""


class NoVoltageOverlapError(DataError):
    """Two discharge curves share no voltage range."""


class MissingDischargeDataError(DataError):
    """A feature set needs discharge curves the record does not carry."""


# -- gpr / gpc --------------------------------------------------------------

class DimensionMismatchError(DataError):
    """Vector or matrix dimensions are incompatible."""


class SingularKernelError(NumericalError):
    """Kernel matrix failed to factorize even at the maximum jitter, or
    every optimizer restart of a trainer failed to evaluate its objective."""


class DegenerateTargetsError(DataError):
    """Regression targets carry zero variance."""


class OneClassOnlyError(DataError):
    """Binary classifier training data contains a single class."""


class OutOfDomainError(DataError):
    """An input lies outside the domain a formula is defined on."""


# -- metrics / experiments ---------------------------------------------------

class LengthMismatchError(DataError):
    """Paired sequences differ in length."""


class EmptyInputError(DataError):
    """An operation received an empty sequence."""


class ZeroEolError(DataError):
    """A percentage-error denominator (end-of-life cycle) is not positive."""


class EmptyWindowError(DataError):
    """No training samples fall inside the requested cycle window."""
