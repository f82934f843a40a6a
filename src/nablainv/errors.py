"""Exception types shared across the package."""


class NablaError(Exception):
    """Base class for mathematical and domain failures."""


class PoleAtOneError(NablaError):
    """F(s) has a pole at s = 1, so no finite-valued causal sequence exists.

    A finite-valued causal sequence always satisfies f(a+1) = lim_{s->1} F(s),
    which forces the transform of such a sequence to be finite at s = 1.
    """

    def __init__(self):
        super().__init__(
            "s = 1 is a pole of F(s); a finite-valued causal sequence has "
            "f(a+1) = lim_{s->1} F(s), so its transform is finite at s = 1"
        )


class PoleEvaluationError(NablaError):
    """Evaluation requested at (or too close to) a pole."""

    def __init__(self, pole):
        self.pole = complex(pole)
        super().__init__(f"evaluation at or near the pole s = {self.pole}")


class ParameterDomainError(NablaError):
    """A parameter lies outside the domain where the operation is defined."""


class ConvergenceError(NablaError):
    """An iterative summation failed to converge within its budget."""


class RealnessError(NablaError):
    """F(s) is not real (its ``is_real`` is False), so its sequence is not
    real: raised before any value is computed, naming no step."""


class UnsupportedExpressionError(NablaError):
    """The expression falls outside the supported function classes.

    Transforms built from irrational constructs (exponentials or logs of s,
    gamma ratios, trigonometric functions of s, fractional powers of
    non-linear bases, ...) have no finite pole structure usable by residue or
    partial-fraction inversion and are rejected.  Supported inputs are
    rational functions of s, sums of fractional-power atoms
    r*s^(alpha-beta)/(s^alpha - lambda), and tabulated pair shapes.
    """


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        detail = f"{message} at line {line}, column {column}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class TruncationWarning(UserWarning):
    """A series was cut off at its iteration cap before meeting tolerance."""
