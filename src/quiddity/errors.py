"""Shared exception types.

The CLI maps these onto exit codes: structurally bad input (wrong length,
nonpositive entries, unparseable tokens) is a usage error, while
mathematically meaningful failures (a sequence that is not a quiddity
sequence, a window that is not a positive tiling) are domain errors.

A scalar argument that must be an int is checked by ``_check_int``, one
rule for every module: exactly ``int``, so bools and other int subclasses
are refused like floats, strings and None.  The name in the message is
formatted only on refusal, so a check in a loop costs one call.

Every exhaustive sweep of the package runs only for 3 <= n <= SWEEP_CAP
unless its ``cap=`` argument (the CLI's ``--cap``) raises the cap;
``check_sweep`` is the one range check, here so that no sweep loads
:mod:`quiddity.polygons` for it.

Every other size limit is one call of ``check_limit``, the one rule and
the one message form: an S/T normal form of more than
NORMAL_FORM_LETTER_CAP letters, a frieze of more than FRIEZE_LENGTH_CAP
entries, a matrix frieze of more than MATRIX_FRIEZE_CELL_CAP cells, a
tiling window of more than TILING_CELL_CAP cells and the perfect
tri-partitions of an n above TRIPARTITION_N_CAP are refused before they
are built, and the CLI refuses a ``verify`` of more than
VERIFY_LENGTH_CAP entries and a formula ``count`` of an n above
FORMULA_COUNT_N_CAP before it computes anything.  A supplement of more
than SUPPLEMENT_CAP entries keeps its own sentence.
"""


class InvalidSequenceError(ValueError):
    """Input fails a structural precondition (length, positivity, shape)."""


def _check_int(value, what: str, *where) -> None:
    """Refuse a value that is not exactly an int, naming it ``what.format(*where)``."""
    if type(value) is not int:
        raise InvalidSequenceError(f"{what.format(*where)} must be an int, got {value!r}")


def check_limit(size: int, limit: int, what: str) -> None:
    """Refuse a size above ``limit``, naming it ``what.format(size)`` only on refusal."""
    if size > limit:
        raise InvalidSequenceError(f"{what.format(size)}, over the limit of {limit}")


SWEEP_CAP = 14  # largest n of an exhaustive sweep unless cap= raises it
# Longest supplement built: supplement((1, 10**6)) takes about 0.1 s and the
# CLI's supplement 1,1000000 about 0.5 s (Python 3.11).
SUPPLEMENT_CAP = 1_000_000
# The most letters ts_normal_form writes out (U^q has 2*|q|, T^2 counts as
# one letter); a longer normal form is refused before it is built.
NORMAL_FORM_LETTER_CAP = 100_000
# Outputs quadratic in the input, as CLI processes (Python 3.11, 2 CPUs): the
# frieze of a fan of 1000 entries takes 0.5-0.8 s and 56 MB (2000: 2.1-2.7 s and
# 195 MB), and a 1000 x 1000 tiling --formula-paper window 0.5-0.7 s and 81 MB.
FRIEZE_LENGTH_CAP = 1000
TILING_CELL_CAP = 1_000_000
# verify's orbit pass slices a rotation per least entry: with a 1 at every
# other entry (the fan with an ear on every side), a verify process of 10 000
# entries takes 0.35-0.45 s, of 20 000 1.5 s and of 50 000 8 s (Python 3.11).
VERIFY_LENGTH_CAP = 10_000
# A matrix frieze holds one Mat2 per cell: the fan of 400 entries (160 400
# cells) takes 0.2 s and 26 MB as a process, of 550 entries (303 050 cells)
# 0.5 s and 44 MB, and of 1000 entries 2.1 s and 150 MB (Python 3.11).
MATRIX_FRIEZE_CELL_CAP = 300_000
# The formula count spends nearly all its time in the math.comb behind
# C_{n-2}, about n^1.7: as CLI processes, count --n 50000 takes 0.4-0.5 s,
# 100 000 0.85-1.0 s, and K_200 000 2.8 s (Python 3.11, python -c pass
# 0.05-0.08 s).  Checked by the CLI only; count_types itself is unbounded.
FORMULA_COUNT_N_CAP = 100_000
# perfect_tripartitions builds about n^2/48 tuples: as processes, n = 3000
# (187 501) takes 0.34 s and 41 MB, 5000 (520 834) 0.9 s and 89 MB, 6000
# (750 001) 1.3-1.5 s and 123 MB (Python 3.11).
TRIPARTITION_N_CAP = 5000


def check_sweep(n: int, cap: int = None) -> None:
    """Refuse an exhaustive sweep at n unless 3 <= n <= cap (default SWEEP_CAP)."""
    limit = SWEEP_CAP if cap is None else cap
    _check_int(n, "n")
    _check_int(limit, "cap")
    if not 3 <= n <= limit:
        raise ValueError(f"n={n} outside 3..{limit} (raise the cap with cap= or --cap)")


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
    """A tiling seed whose determinant is not 1, or that lies outside the window."""
