"""Second-order forward-mode dual numbers.

A ``Dual`` carries a value, a gradient (length 3) and a full Hessian
(3x3) through arithmetic, so first and second derivatives of any
expression built from the supported operations are exact to machine
precision.  Plain ints/floats mix freely as constants.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationDomainError

NVARS = 3


class Dual:
    """Value + gradient + Hessian with respect to 3 chart coordinates."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g=None, h=None):
        self.v = float(v)
        self.g = np.zeros(NVARS) if g is None else np.asarray(g, dtype=float)
        self.h = np.zeros((NVARS, NVARS)) if h is None else np.asarray(h, dtype=float)

    @staticmethod
    def variable(value, index):
        g = np.zeros(NVARS)
        g[index] = 1.0
        return Dual(value, g)

    def __repr__(self):
        return f"Dual({self.v!r}, grad={self.g!r})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _lift(other)
        return Dual(self.v + other.v, self.g + other.g, self.h + other.h)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        return Dual(self.v - other.v, self.g - other.g, self.h - other.h)

    def __rsub__(self, other):
        return _lift(other) - self

    def __neg__(self):
        return Dual(-self.v, -self.g, -self.h)

    def __mul__(self, other):
        other = _lift(other)
        cross = np.outer(self.g, other.g)
        return Dual(
            self.v * other.v,
            self.g * other.v + self.v * other.g,
            self.h * other.v + self.v * other.h + cross + cross.T,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        if other.v == 0.0:
            raise EvaluationDomainError("division by zero")
        return self * _chain(other, 1.0 / other.v, -1.0 / other.v**2, 2.0 / other.v**3)

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __pow__(self, other):
        if isinstance(other, Dual):
            if np.any(other.g) or np.any(other.h):
                # general exponent: a^b = exp(b ln a)
                return exp(other * log(self))
            other = other.v
        return _pow_const(self, float(other))

    def __rpow__(self, other):
        return exp(self * math.log(other)) if other > 0 else _lift(other) ** self


def _lift(x):
    return x if isinstance(x, Dual) else Dual(x)


def _chain(u, f0, f1, f2):
    """Compose a scalar function (value f0, derivatives f1, f2 at u.v)."""
    return Dual(f0, f1 * u.g, f1 * u.h + f2 * np.outer(u.g, u.g))


def _pow_const(u, c):
    if u.v == 0.0:
        if c == int(c) and c >= 2:
            f1 = 0.0
            f2 = 2.0 if c == 2 else 0.0
            return _chain(u, 0.0, f1, f2)
        if c == 1:
            return u
        if c == 0:
            return Dual(1.0)
        raise EvaluationDomainError(f"0 raised to power {c}")
    if u.v < 0.0 and c != int(c):
        raise EvaluationDomainError(f"negative base {u.v} with fractional exponent {c}")
    return _chain(u, u.v**c, c * u.v ** (c - 1), c * (c - 1) * u.v ** (c - 2))


# -- functions usable on Dual or plain floats --------------------------


def sin(x):
    if isinstance(x, Dual):
        return _chain(x, math.sin(x.v), math.cos(x.v), -math.sin(x.v))
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return _chain(x, math.cos(x.v), -math.sin(x.v), -math.cos(x.v))
    return math.cos(x)


def tan(x):
    if isinstance(x, Dual):
        t = math.tan(x.v)
        sec2 = 1.0 + t * t
        return _chain(x, t, sec2, 2.0 * t * sec2)
    return math.tan(x)


def exp(x):
    if isinstance(x, Dual):
        e = math.exp(x.v)
        return _chain(x, e, e, e)
    return math.exp(x)


def log(x):
    if isinstance(x, Dual):
        if x.v <= 0.0:
            raise EvaluationDomainError(f"ln of non-positive value {x.v}")
        return _chain(x, math.log(x.v), 1.0 / x.v, -1.0 / x.v**2)
    if x <= 0.0:
        raise EvaluationDomainError(f"ln of non-positive value {x}")
    return math.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        if x.v < 0.0:
            raise EvaluationDomainError(f"sqrt of negative value {x.v}")
        if x.v == 0.0:
            raise EvaluationDomainError("sqrt is not differentiable at 0")
        r = math.sqrt(x.v)
        return _chain(x, r, 0.5 / r, -0.25 / (r * x.v))
    if x < 0.0:
        raise EvaluationDomainError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def fabs(x):
    if isinstance(x, Dual):
        s = math.copysign(1.0, x.v) if x.v != 0.0 else 0.0
        return _chain(x, abs(x.v), s, 0.0)
    return abs(x)


FUNCTIONS = {
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "exp": exp,
    "ln": log,
    "sqrt": sqrt,
    "abs": fabs,
}


def seed_point(p):
    """Lift a 3-coordinate point to seeded dual variables."""
    return tuple(Dual.variable(p[i], i) for i in range(NVARS))
