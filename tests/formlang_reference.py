"""Reference evaluation of formlang trees: a walk on ``Dual`` numbers.

This is how ``formlang`` evaluated fields before it compiled them; the
compiled code must give the same results and raise the same errors.
``pretty`` prints a tree as text that parses back to the same tree.
``Dual`` extends the library's record with forward-mode arithmetic:
exact first and second derivatives, a Hessian only when seeded second
order, constants lifted with zero derivatives, a ``Dual`` exponent as
exp(b ln a) and a constant one by the rules of ``_pow_const``.
"""

import math
from operator import add, neg, sub

import numpy as np

from pseudoform import autodiff
from pseudoform.calculus import ScalarField
from pseudoform.errors import EvaluationDomainError
from pseudoform.formlang import BinOp, Call, Neg, Num, Var, chart_variables

_ZERO_G = (0.0, 0.0, 0.0)
_ZERO_H = (0.0,) * 9
_SEEDS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


class Dual(autodiff.Dual):
    """``g`` and ``h`` read the derivatives as new NumPy arrays (``h`` is
    ``None`` at first order); writing to those does not change the ``Dual``."""

    __slots__ = ()

    @property
    def g(self):
        return np.array(self.grad)

    @property
    def h(self):
        return None if self.hess is None else np.array(self.hess).reshape(3, 3)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _lift(other, self)
        a0, a1, a2 = self.grad
        b0, b1, b2 = other.grad
        hess = _both(add, self.hess, other.hess)
        return Dual(self.v + other.v, (a0 + b0, a1 + b1, a2 + b2), hess)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other, self)
        a0, a1, a2 = self.grad
        b0, b1, b2 = other.grad
        hess = _both(sub, self.hess, other.hess)
        return Dual(self.v - other.v, (a0 - b0, a1 - b1, a2 - b2), hess)

    def __rsub__(self, other):
        return _lift(other, self) - self

    def __neg__(self):
        a0, a1, a2 = self.grad
        return Dual(-self.v, (-a0, -a1, -a2),
                    None if self.hess is None else tuple(map(neg, self.hess)))

    def __mul__(self, other):
        other = _lift(other, self)
        av, bv = self.v, other.v
        a0, a1, a2 = self.grad
        b0, b1, b2 = other.grad
        g = (a0 * bv + av * b0, a1 * bv + av * b1, a2 * bv + av * b2)
        if self.hess is None or other.hess is None:
            return Dual(av * bv, g, None)
        # entry ij: ((ha_ij bv + av hb_ij) + ga_i gb_j) + ga_j gb_i, as in
        # h_a * bv + av * h_b + outer(g_a, g_b) + outer(g_a, g_b).T
        p0, p1, p2, p3, p4, p5, p6, p7, p8 = self.hess
        q0, q1, q2, q3, q4, q5, q6, q7, q8 = other.hess
        c00, c01, c02 = a0 * b0, a0 * b1, a0 * b2
        c10, c11, c12 = a1 * b0, a1 * b1, a1 * b2
        c20, c21, c22 = a2 * b0, a2 * b1, a2 * b2
        h = (
            ((p0 * bv + av * q0) + c00) + c00,
            ((p1 * bv + av * q1) + c01) + c10,
            ((p2 * bv + av * q2) + c02) + c20,
            ((p3 * bv + av * q3) + c10) + c01,
            ((p4 * bv + av * q4) + c11) + c11,
            ((p5 * bv + av * q5) + c12) + c21,
            ((p6 * bv + av * q6) + c20) + c02,
            ((p7 * bv + av * q7) + c21) + c12,
            ((p8 * bv + av * q8) + c22) + c22,
        )
        return Dual(av * bv, g, h)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other, self)
        if other.v == 0.0:
            raise EvaluationDomainError("division by zero")
        return self * _chain(other, 1.0 / other.v, -1.0 / other.v**2, 2.0 / other.v**3)

    def __rtruediv__(self, other):
        return _lift(other, self) / self

    def __pow__(self, other):
        if isinstance(other, Dual):
            return exp(other * log(self))  # variable exponent: a^b = exp(b ln a)
        return _pow_const(self, float(other))

    def __rpow__(self, other):
        return exp(self * log(other))


def _lift(x, like):
    """``x`` as a Dual of ``like``'s order; a constant has zero derivatives."""
    if isinstance(x, Dual):
        return x
    return Dual(float(x), _ZERO_G, None if like.hess is None else _ZERO_H)


def _both(op, a, b):
    """Entrywise ``op`` of two Hessians, or None unless both are present."""
    return None if a is None or b is None else tuple(map(op, a, b))


def _chain(u, f0, f1, f2):
    """Compose a scalar function (value f0, derivatives f1, f2 at u.v).

    The Hessian entry ij is f1 * h_ij + f2 * (g_i g_j), as in
    f1 * h + f2 * outer(g, g).
    """
    g0, g1, g2 = u.grad
    h = u.hess
    if h is not None:
        p0, p1, p2, p3, p4, p5, p6, p7, p8 = h
        s01, s02, s12 = f2 * (g0 * g1), f2 * (g0 * g2), f2 * (g1 * g2)
        h = (
            f1 * p0 + f2 * (g0 * g0), f1 * p1 + s01, f1 * p2 + s02,
            f1 * p3 + s01, f1 * p4 + f2 * (g1 * g1), f1 * p5 + s12,
            f1 * p6 + s02, f1 * p7 + s12, f1 * p8 + f2 * (g2 * g2),
        )
    return Dual(f0, (f1 * g0, f1 * g1, f1 * g2), h)


def _pow_const(u, c):
    # is_integer is False for NaN and ±inf, where int(c) would raise
    if u.v == 0.0:
        if c.is_integer() and c >= 2:
            f1 = 0.0
            f2 = 2.0 if c == 2 else 0.0
            return _chain(u, 0.0, f1, f2)
        if c == 1:
            return u
        if c == 0:
            return _lift(1.0, u)
        raise EvaluationDomainError(f"0 raised to power {c}")
    if u.v < 0.0 and not c.is_integer():
        raise EvaluationDomainError(f"negative base {u.v} with fractional exponent {c}")
    return _chain(u, u.v**c, c * u.v ** (c - 1), c * (c - 1) * u.v ** (c - 2))


# -- functions usable on Dual or plain floats --------------------------


def _periodic_arg(v):
    """``v``, or NaN for ±inf: ``math.sin(inf)`` raises where IEEE gives NaN,
    and a NaN result reaches the field's finite check like any overflow."""
    return math.nan if math.isinf(v) else v


def sin(x):
    if isinstance(x, Dual):
        v = _periodic_arg(x.v)
        return _chain(x, math.sin(v), math.cos(v), -math.sin(v))
    return math.sin(_periodic_arg(x))


def cos(x):
    if isinstance(x, Dual):
        v = _periodic_arg(x.v)
        return _chain(x, math.cos(v), -math.sin(v), -math.cos(v))
    return math.cos(_periodic_arg(x))


def tan(x):
    if isinstance(x, Dual):
        t = math.tan(_periodic_arg(x.v))
        sec2 = 1.0 + t * t
        return _chain(x, t, sec2, 2.0 * t * sec2)
    return math.tan(_periodic_arg(x))


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


def seed_point(p, order=2):
    """The seeded variables of a 3-coordinate point, with a Hessian at ``order`` 2."""
    hess = _ZERO_H if order == 2 else None
    return tuple(Dual(float(x), seed, hess) for x, seed in zip(p, _SEEDS))


# -- the tree walk -----------------------------------------------------

FUNCTIONS = {
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "exp": exp,
    "ln": log,
    "sqrt": sqrt,
    "abs": fabs,
}


def power(a, b):
    """``a ** b``; two constants follow a Dual's rule for a negative base.

    Python's ``**`` gives a complex number for a negative base and a finite
    fractional exponent, where a ``Dual`` base raises the typed domain error.
    """
    if not isinstance(a, Dual) and not isinstance(b, Dual):
        if a < 0.0 and math.isfinite(b) and not b.is_integer():
            raise EvaluationDomainError(f"negative base {a} with fractional exponent {b}")
    return a ** b


def walk(node, env):
    """The value of ``node`` with the variables bound by ``env`` (name -> Dual or float)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -walk(node.operand, env)
    if isinstance(node, Call):
        return FUNCTIONS[node.name](walk(node.argument, env))
    assert isinstance(node, BinOp)
    a = walk(node.left, env)
    b = walk(node.right, env)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return power(a, b)


def pretty(node):
    """Fully parenthesized text of a tree that re-parses to an equivalent tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{pretty(node.operand)})"
    if isinstance(node, Call):
        return f"{node.name}({pretty(node.argument)})"
    return f"({pretty(node.left)} {node.op} {pretty(node.right)})"


def walked_field(node, chart="spatial"):
    """``node`` as a ScalarField that walks the tree on every evaluation.

    Its function takes a point's 3 floats, seeds them at second order and
    returns a ``Dual``, a constant one with zero derivatives, as a
    compiled field does.
    """
    names = chart_variables(chart)

    def field(*p):
        d = walk(node, dict(zip(names, seed_point(p))))
        return d if isinstance(d, Dual) else Dual(float(d), _ZERO_G, _ZERO_H)

    return ScalarField(field, chart)
