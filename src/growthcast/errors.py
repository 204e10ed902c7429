"""Exception types shared across the package.

Two broad classes matter for the command-line surface: ``InputError``
covers structural problems with what the user handed us (files, columns,
flags, series invariants) and maps to exit code 2; ``NumericError``
covers domain and numerical failures (log of a non-positive value,
singular rate laws, degenerate fits) and maps to exit code 3.
"""


class GrowthcastError(Exception):
    """Base class for all package errors."""


class InputError(GrowthcastError):
    """Structural problem with user-supplied input (exit code 2)."""


class ConfigError(InputError):
    """A named column, flag, or option is missing or inconsistent."""


class ParseError(InputError):
    """A cell or line could not be parsed; message names the row."""


class ValidationError(InputError):
    """A constructed value violates its invariants (e.g. non-increasing times)."""


class NumericError(GrowthcastError):
    """Domain or numerical failure during computation (exit code 3)."""


class DomainError(NumericError):
    """An operand lies outside the mathematical domain of the operation."""


class SingularityError(NumericError):
    """Evaluation requested at or beyond a finite-time singularity."""


class DegenerateFitError(NumericError):
    """The least-squares design is degenerate (e.g. all x identical)."""


class DegenerateFactorError(NumericError):
    """The two linear factors of a rational integrand are proportional."""


class SingularIntegrandError(NumericError):
    """A linear factor vanishes inside the integration interval."""


class EmptyLinearizationError(NumericError):
    """Every point was dropped by the linearization transform."""


class CollapseError(NumericError):
    """Discrete integration step would drive the size non-positive."""


class RangeRefusalError(NumericError):
    """Polynomial rate law evaluated outside its fitted data range."""
