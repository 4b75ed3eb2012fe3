"""Shared exception types.

The CLI maps these onto exit codes: structurally bad input (wrong length,
nonpositive entries, unparseable tokens) is a usage error, while
mathematically meaningful failures (a sequence that is not a quiddity
sequence, a window that is not a positive tiling) are domain errors.
"""


class InvalidSequenceError(ValueError):
    """Input fails a structural precondition (length, positivity, shape)."""


class NotQuiddityError(ValueError):
    """A sequence required to be a quiddity sequence is not one.

    When raised by frieze generation, ``row`` and ``col`` locate the cell
    whose diamond-rule divisor is zero; both are None when the failure is
    global (no all-ones row).
    """

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class ContractionError(ValueError):
    """Ear removal impossible at the requested position."""


class NotUnimodularError(ValueError):
    """A 2x2 integer matrix does not have determinant 1."""


class NotAPositiveTilingError(ValueError):
    """A window violates positivity or the linear-factor relations."""


class InconsistentFactorsError(ValueError):
    """Row and column propagation disagree for the given factor vectors."""
