"""Exception classes: one per catch.

A class exists only where some code catches it by type. Two families map
onto the CLI's exit codes (``cli.main``): ``DataError`` (malformed or
insufficient input, exit 3) and ``NumericalError`` (a computation that
could not be completed soundly, exit 4). A check nobody catches raises its
family base with a message that names what failed; the four classes below
the bases each have a catch site, named in their docstrings. A new class
needs a new catch.
"""


class DataError(Exception):
    """Input data is malformed, inconsistent, or insufficient (exit 3)."""


class NumericalError(Exception):
    """A numerical procedure failed or produced a degenerate result (exit 4)."""


class SchemaError(DataError):
    """A declared column or key is missing, or a file is not of its format.

    Caught by ``modelio._Fields``, which reports a v1 model file."""


class ValidationError(DataError):
    """Parsed data violates a structural invariant (monotonicity, range).

    Caught where the message gains the file or figure it came from:
    ``dataset.CellMeta.parse``, ``modelio._Fields.make`` and
    ``plots.emit_plots``."""


class NeverReachedError(DataError):
    """The capacity trace never crosses the end-of-life threshold.

    Caught by ``dataset.build_history``: such a cell is kept unlabeled."""


class NoConvergenceError(NumericalError):
    """The Laplace posterior-mode search exhausted its iteration budget.

    Caught by the ``gpc.train_binary`` objective, which scores that point
    as failed."""
