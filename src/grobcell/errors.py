"""Exception types shared across the package.

Validation errors mean the caller's input violates a documented
precondition; they map to CLI exit code 2.  Internal errors signal a broken
invariant inside the package itself (a bug, never bad input) and map to
exit code 3.
"""


class GrobcellError(Exception):
    code = "ERROR"


class ValidationError(GrobcellError):
    """Bad or out-of-domain input."""

    code = "VALIDATION"


class InternalError(GrobcellError):
    """A violated internal invariant; indicates a defect, not bad input."""

    code = "INTERNAL"


class DivisionByZero(ValidationError):
    code = "DIVISION_BY_ZERO"


class FieldMismatch(ValidationError):
    code = "FIELD_MISMATCH"


class ZeroPolynomial(ValidationError):
    code = "ZERO_POLYNOMIAL"


class BadMVector(ValidationError):
    code = "BAD_M_VECTOR"


class NotLexSegment(ValidationError):
    code = "NOT_LEXSEGMENT"


class ColengthTooSmall(ValidationError):
    code = "COLENGTH_TOO_SMALL"


class BoundViolation(ValidationError):
    """Degree-bound violations in a parameter matrix.

    Carries every offending slot as a (row, col, degree, bound) tuple with
    1-based row/col indices.
    """

    code = "BOUND_VIOLATION"

    def __init__(self, violations):
        self.violations = [tuple(v) for v in violations]
        msg = "; ".join(
            f"slot ({i},{j}): degree {d} exceeds bound {b}"
            for i, j, d, b in self.violations
        )
        super().__init__(msg)


class LeadingTermMismatch(ValidationError):
    code = "LEADING_TERM_MISMATCH"


class WrongInitialIdeal(ValidationError):
    code = "WRONG_INITIAL_IDEAL"


class MoveNotApplicable(ValidationError):
    code = "MOVE_NOT_APPLICABLE"


class EmptyStratum(ValidationError):
    code = "EMPTY_STRATUM"


class CharTooSmall(ValidationError):
    code = "CHAR_TOO_SMALL"


class MatrixTooLarge(ValidationError):
    """A cell whose colength is past cell.MAX_COLENGTH; make_cell refuses it,
    so every command does, before it reads a matrix entry or builds the cell."""

    code = "MATRIX_TOO_LARGE"


class InternalReductionFailure(InternalError):
    code = "INTERNAL_REDUCTION_FAILURE"


class NonTerminationGuard(InternalError):
    code = "NON_TERMINATION_GUARD"
