"""Exception hierarchy of the package, and the checks that raise ``ValidationError``:
one per kind of input, a finite real number, an integer, or a vector of
finite real numbers, each refusal naming the argument and what it got."""

import math
import operator


class PseudoformError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationDomainError(PseudoformError):
    """A field or expression was evaluated outside its domain, or the
    result was non-finite."""


class FormSyntaxError(PseudoformError):
    """A parse error in the expression DSL: its bare ``message``, a 1-based
    ``column``, and the one-form ``component`` it is in, if any."""

    def __init__(self, message, column, component=None):
        self.message = message
        self.column = column
        self.component = component
        prefix = "" if component is None else f"component {component}: "
        super().__init__(f"{prefix}{message} (column {column})")


class DegeneratePfaffianError(PseudoformError):
    """The Pfaffian vanishes (or nearly so) at a point where it must not."""


class DegenerateNormalizationError(PseudoformError):
    """The active metric cannot normalize the given Pfaffian."""


class DegenerateMetricError(PseudoformError):
    """The first fundamental form is singular, so g^ab does not exist."""


class ConstraintViolationError(PseudoformError):
    """A curve or state does not satisfy the Pfaffian constraint."""

    def __init__(self, message, residual):
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")


class DegenerateWindowError(PseudoformError):
    """A precession window is too isotropic to define an oscillation plane."""


class ValidationError(PseudoformError):
    """Invalid argument or configuration value."""


def describe(value):
    """``repr(value)`` for a message, or, for an int too long to convert to
    text (past ``sys.get_int_max_str_digits()``), its count of digits."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            return f"a {type(value).__name__} too long to print"
    digits = int(abs(value).bit_length() * 0.30103)  # within one of the count
    while 10**digits > abs(value):
        digits -= 1
    while 10**digits <= abs(value):
        digits += 1
    return f"an integer of {digits} digits"


def check_integer(name, value):
    """``value`` as an int, else ``ValidationError`` naming ``name``; a bool is not one."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValidationError(f"{name} must be an integer, got {describe(value)}")


def check_real(name, value):
    """``value`` if it is a finite real number, else ``ValidationError`` naming ``name``."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):  # a bool is not a number
            return value
    except (TypeError, OverflowError):  # not a real number, an array, or an int too big for a float
        pass
    raise ValidationError(f"{name} must be a finite real number, got {describe(value)}")


def check_vector(name, value, size):
    """``value`` as a tuple of ``size`` finite floats, else ``ValidationError`` naming ``name``.

    An entry is a plain or NumPy int or float, not a bool.  A list or tuple
    of plain ints and floats is read as it is; anything else is iterated,
    and its entries are checked against ``numbers.Real``.
    """
    try:
        if type(value) in (tuple, list) and all(type(c) in (float, int) for c in value):
            entries = value
        else:
            import numbers

            entries = list(value)  # a scalar raises TypeError
            if not all(isinstance(c, numbers.Real) and not isinstance(c, bool) for c in entries):
                entries = None
        if entries is not None and len(entries) == size:
            coords = tuple([float(c) for c in entries])
            if all(map(math.isfinite, coords)):
                return coords
    except (TypeError, OverflowError):  # not iterable, or an int too large for a float
        pass
    raise ValidationError(f"{name} must be {size} finite real numbers, got {describe(value)}")
