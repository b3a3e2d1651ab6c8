"""Differential forms on a 3-dimensional chart.

Scalar fields carry exact first and second derivatives through the
dual-number engine in :mod:`pseudoform.autodiff`.  One-forms, two-forms
and the single volume coefficient of a three-form are built from scalar
fields.

Only what reads a Hessian seeds the engine at second order:
``ScalarField.differentiate`` and ``hessian``, and through them the
Jacobian of ``gradient_oneform(f)`` (``values_and_jacobian``).
``ScalarField.value`` and ``gradient``, ``OneForm.components_at`` and
``OneForm.values_and_jacobian`` seed first order, which gives the same
values and gradients bit for bit.

Conventions (all sign-sensitive results in the package refer to these):

* Two-form components are stored in cyclic order, i.e. the coefficients
  of dx2^dx3, dx3^dx1, dx1^dx2 in chart order.
* A three-form coefficient is relative to dx1^dx2^dx3 in chart order.
* ``exterior_derivative`` stores the curl-like components
  (d_i theta_j - d_j theta_i) over the cyclic basis, so evaluation on a
  vector pair gives d theta(v, w) = d_i theta_j (v^i w^j - v^j w^i).
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff
from .autodiff import Dual
from .errors import EvaluationDomainError, ValidationError


def as_point(p):
    """Validate and convert a chart point to a float array of shape (3,)."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (3,):
        raise ValidationError(f"chart point must have 3 coordinates, got shape {arr.shape}")
    if not all(map(math.isfinite, arr.tolist())):  # cheaper than a NumPy reduction on 3 floats
        raise ValidationError(f"chart point has non-finite coordinates: {arr}")
    return arr


def format_point(p):
    """A chart point as a tuple of plain floats, for messages."""
    return str(tuple(float(c) for c in p))


def _check_finite(p, *values):
    """Raise ``EvaluationDomainError`` unless every float in ``values`` is finite."""
    if not all(map(math.isfinite, values)):
        raise EvaluationDomainError(
            f"non-finite field value or derivative at point {format_point(p)}"
        )


class ScalarField:
    """A real function on the chart with exact derivatives.

    ``fn(x1, x2, x3)`` is evaluated on seeded ``Dual`` numbers, so an
    evaluation yields the value, the gradient and, at second order, the
    full Hessian.
    ``chart`` names the coordinates, as in ``formlang.CHARTS``, and
    ``gradient_oneform`` of the field lives on the same chart.
    """

    def __init__(self, fn, chart="spatial"):
        self.fn = fn
        self.chart = chart

    def _vgh(self, p, order):
        """``Dual.v``, ``grad`` and ``hess`` at p, seeded at ``order`` 1 or 2."""
        try:
            d = self.fn(*autodiff.seed_point(p, order))
        except OverflowError as err:
            raise EvaluationDomainError(f"overflow at point {format_point(p)}") from err
        except ZeroDivisionError as err:
            raise EvaluationDomainError(f"{err} at point {format_point(p)}") from err
        if not isinstance(d, Dual):  # constant expression
            d = Dual(float(d))
        return d.v, d.grad, d.hess

    def differentiate(self, p):
        p = as_point(p)
        v, g, h = self._vgh(p, 2)
        _check_finite(p, v, *g, *h)
        return v, np.array(g), np.array(h).reshape(3, 3)

    def value(self, p):
        p = as_point(p)
        v = self._vgh(p, 1)[0]
        _check_finite(p, v)
        return v

    def gradient(self, p):
        p = as_point(p)
        v, g, _ = self._vgh(p, 1)
        _check_finite(p, v, *g)
        return np.array(g)

    def hessian(self, p):
        return self.differentiate(p)[2]


def scalar_field(fn):
    """Wrap a dual-capable evaluator ``fn(x1, x2, x3)`` as a ScalarField."""
    return ScalarField(fn)


def _as_field(c):
    if isinstance(c, ScalarField):
        return c
    if callable(c):
        return ScalarField(c)
    c = float(c)
    return ScalarField(lambda *_: c)


class OneForm:
    """theta = theta_i dx^i with scalar-field components."""

    def __init__(self, components, chart="spatial"):
        if len(components) != 3:
            raise ValidationError("a one-form needs exactly 3 components")
        self.components = tuple(_as_field(c) for c in components)
        self.chart = chart

    def components_at(self, p):
        p = as_point(p)
        vals = [c._vgh(p, 1)[0] for c in self.components]
        _check_finite(p, *vals)
        return np.array(vals)

    def __call__(self, p, v):
        return float(self.components_at(p) @ np.asarray(v, dtype=float))

    def jacobian_at(self, p):
        """J[i, j] = d_i theta_j."""
        return self.values_and_jacobian(p)[1]

    def values_and_jacobian(self, p):
        """Component values and J[i, j] = d_i theta_j in one evaluation."""
        p = as_point(p)
        vals = np.empty(3)
        jac = np.empty((3, 3))
        for j, c in enumerate(self.components):
            v, g, _ = c._vgh(p, 1)
            _check_finite(p, v, *g)
            vals[j] = v
            jac[:, j] = g
        return vals, jac


class PointTwoForm:
    """A two-form evaluated at a point: 3 cyclic components."""

    def __init__(self, components):
        self.components = np.asarray(components, dtype=float)

    def __call__(self, v, w):
        return float(self.components @ np.cross(v, w))


class TwoForm:
    """Field of two-forms, components in cyclic order."""

    def __init__(self, components):
        if len(components) != 3:
            raise ValidationError("a two-form needs exactly 3 cyclic components")
        self.components = tuple(_as_field(c) for c in components)

    def components_at(self, p):
        p = as_point(p)
        return np.array([c.value(p) for c in self.components])

    def at(self, p):
        return PointTwoForm(self.components_at(p))

    def __call__(self, p, v, w):
        return self.at(p)(v, w)


class ThreeForm:
    """Field of three-forms: one coefficient of dx1^dx2^dx3."""

    def __init__(self, coefficient):
        self.coefficient = _as_field(coefficient)

    def coefficient_at(self, p):
        return self.coefficient.value(p)

    def __call__(self, p, u, v, w):
        m = np.column_stack([u, v, w]).astype(float)
        return self.coefficient_at(p) * float(np.linalg.det(m))


def exterior_derivative(theta, p):
    """d theta at p as a PointTwoForm (cyclic components).

    For an exact form (theta = df) the result vanishes.
    """
    j = theta.jacobian_at(p)
    a = j - j.T
    return PointTwoForm([a[1, 2], a[2, 0], a[0, 1]])


def symmetric_part(theta, p):
    """The symmetrized differential (1/2)(d_i theta_j + d_j theta_i) at p."""
    j = theta.jacobian_at(p)
    return 0.5 * (j + j.T)


def wedge_1_2(theta, b, p):
    """Volume coefficient of theta ^ B at p (chart-order orientation)."""
    comps = b.components if isinstance(b, PointTwoForm) else b.components_at(p)
    return float(theta.components_at(p) @ np.asarray(comps, dtype=float))


class _GradientOneForm(OneForm):
    """df on f's chart, read from f's gradient and Hessian."""

    def __init__(self, f):
        self.chart = f.chart
        self.parent = f

    def components_at(self, p):
        return self.parent.gradient(p)

    def values_and_jacobian(self, p):
        _, g, h = self.parent.differentiate(p)
        return g, h


def gradient_oneform(f):
    """df as a OneForm on f's chart."""
    return _GradientOneForm(f)
