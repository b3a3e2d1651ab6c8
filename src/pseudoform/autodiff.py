"""The result record of a compiled formlang field's own function.

A field's compiled function (``formcode``) takes a point's three floats
and returns one ``Dual``: the value, the gradient (3 floats) and the
Hessian (9 floats, row-major).  A one-form's compiled ``flat_jet`` builds
none, and calls such a function only for a field without a tree, so no
command evaluates a tree's function at a point.  The record does no
arithmetic: the derivative formulas live in the generated code alone.
It is a class rather than a tuple only because the benchmark
(``perfbench``) counts its allocations by wrapping its ``__init__``.

The function of a field without chart variables returns one record,
built once when the field is parsed, at every point, so callers share
it: read a record's fields, and never assign them.  Those records are
the only ``Dual`` a command builds.
"""

from __future__ import annotations


class Dual:
    """Value, gradient and Hessian of a field at a point in 3 chart coordinates.

    ``v`` is a float, ``grad`` a 3-tuple of floats and ``hess`` a
    row-major 9-tuple of floats.
    """

    __slots__ = ("v", "grad", "hess")

    def __init__(self, v, grad, hess):
        self.v = v
        self.grad = grad
        self.hess = hess

    def __repr__(self):
        return f"Dual({self.v!r}, grad={self.grad!r})"
