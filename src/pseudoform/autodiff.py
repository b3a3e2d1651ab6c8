"""The seeded variables and results of compiled formlang fields.

A ``Dual`` is a record: a value, a gradient (3 floats) and a Hessian (9
floats, row-major), or ``None`` in place of the Hessian at first order.
``seed_point`` lifts a chart point to the three seeded variables that a
field's compiled function (``formcode``) reads, and that function
returns its value and derivatives as a ``Dual``.  The record does no
arithmetic: the derivative formulas live in the generated code alone.
"""

from __future__ import annotations

_ZERO_G = (0.0, 0.0, 0.0)
_ZERO_H = (0.0,) * 9
_SEEDS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


class Dual:
    """Value, gradient and (second order only) Hessian in 3 chart coordinates.

    ``v`` is a float, ``grad`` a 3-tuple of floats and ``hess`` a
    row-major 9-tuple of floats, or ``None`` at first order.
    """

    __slots__ = ("v", "grad", "hess")

    def __init__(self, v, grad=_ZERO_G, hess=_ZERO_H):
        self.v = v
        self.grad = grad
        self.hess = hess

    def __repr__(self):
        return f"Dual({self.v!r}, grad={self.grad!r})"


def seed_point(p, order=2):
    """Lift a 3-coordinate point to seeded dual variables of ``order`` 1 or 2."""
    if order not in (1, 2):
        raise ValueError(f"dual order must be 1 or 2, got {order!r}")
    hess = _ZERO_H if order == 2 else None
    x1, x2, x3 = map(float, p)
    return Dual(x1, _SEEDS[0], hess), Dual(x2, _SEEDS[1], hess), Dual(x3, _SEEDS[2], hess)
