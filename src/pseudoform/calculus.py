"""Differential forms on a 3-dimensional chart.

Scalar fields carry exact first and second derivatives through the
dual-number engine in :mod:`pseudoform.autodiff`.  One-forms are built
from scalar fields, and ``exterior_derivative`` evaluates d theta at a
point as a two-form.

Only what reads a Hessian seeds the engine at second order:
``ScalarField.differentiate`` and the Jacobian of ``gradient_oneform(f)``
(``values_and_jacobian``).
``ScalarField.value`` and ``gradient``, ``OneForm.components_at`` and
``OneForm.values_and_jacobian`` seed first order, which gives the same
values and gradients bit for bit.  A one-form seeds its point once and
evaluates all three components on the same seeded variables.

``OneForm.values_and_jacobian`` is the evaluation on the geodesic's hot
path, so it takes and returns plain floats: the point as 3 floats (a
tuple of floats is checked without NumPy), the values as a 3-tuple and
the Jacobian as three 3-tuple rows.  ``jacobian_at`` wraps those rows
as an array for the NumPy callers.

Conventions (all sign-sensitive results in the package refer to these):

* Two-form components are stored in cyclic order, i.e. the coefficients
  of dx2^dx3, dx3^dx1, dx1^dx2 in chart order.
* ``exterior_derivative`` stores the curl-like components
  (d_i theta_j - d_j theta_i) over the cyclic basis, so evaluation on a
  vector pair gives d theta(v, w) = d_i theta_j (v^i w^j - v^j w^i).
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff
from .autodiff import Dual
from .errors import DegeneratePfaffianError, EvaluationDomainError, ValidationError

DEGENERACY_TOL = 1e-12  # |N| at or below this is a vanishing Pfaffian


def point_coords(p):
    """Validate a chart point and return its 3 coordinates as a tuple of floats.

    A tuple of 3 floats is checked as it is; anything else goes through
    NumPy for the shape check.
    """
    if type(p) is tuple and len(p) == 3 and type(p[0]) is type(p[1]) is type(p[2]) is float:
        coords = p
    else:
        arr = np.asarray(p, dtype=float)
        if arr.shape != (3,):
            raise ValidationError(f"chart point must have 3 coordinates, got shape {arr.shape}")
        coords = tuple(arr.tolist())
    if not all(map(math.isfinite, coords)):
        raise ValidationError(f"chart point has non-finite coordinates: {format_point(coords)}")
    return coords


def as_point(p):
    """Validate and convert a chart point to a float array of shape (3,)."""
    return np.array(point_coords(p))


def format_point(p):
    """A chart point as a tuple of plain floats, for messages."""
    return str(tuple(float(c) for c in p))


def pfaffian_norm(comps, p):
    """|N| of a Pfaffian's 3 components at p, finite for any finite N.

    ``math.hypot`` scales before it squares, so no square overflows.
    Raises ``DegeneratePfaffianError`` where |N| <= ``DEGENERACY_TOL``.
    """
    norm = math.hypot(*comps)
    if norm <= DEGENERACY_TOL:
        raise DegeneratePfaffianError(f"Pfaffian vanishes at point {format_point(p)}")
    return norm


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
        return self._seeded(p, autodiff.seed_point(p, order))

    def _seeded(self, p, seeds):
        """``Dual.v``, ``grad`` and ``hess`` of ``fn`` on the seeded variables of p."""
        try:
            d = self.fn(*seeds)
        except OverflowError as err:
            raise EvaluationDomainError(f"overflow at point {format_point(p)}") from err
        except ZeroDivisionError as err:
            raise EvaluationDomainError(f"{err} at point {format_point(p)}") from err
        if not isinstance(d, Dual):  # constant expression
            d = Dual(float(d))
        return d.v, d.grad, d.hess

    def differentiate(self, p):
        p = point_coords(p)
        v, g, h = self._vgh(p, 2)
        _check_finite(p, v, *g, *h)
        return v, np.array(g), np.array(h).reshape(3, 3)

    def value(self, p):
        p = point_coords(p)
        v = self._vgh(p, 1)[0]
        _check_finite(p, v)
        return v

    def gradient(self, p):
        p = point_coords(p)
        v, g, _ = self._vgh(p, 1)
        _check_finite(p, v, *g)
        return np.array(g)


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
        p = point_coords(p)
        seeds = autodiff.seed_point(p, 1)
        vals = [c._seeded(p, seeds)[0] for c in self.components]
        _check_finite(p, *vals)
        return np.array(vals)

    def jacobian_at(self, p):
        """J[i, j] = d_i theta_j, as a (3, 3) array."""
        return np.array(self.values_and_jacobian(p)[1])

    def values_and_jacobian(self, p):
        """Component values and the Jacobian at p from one seeded point, as floats.

        Returns the values (theta_1, theta_2, theta_3) and three rows
        J[i] = (d_i theta_1, d_i theta_2, d_i theta_3), all tuples of floats.
        """
        p = point_coords(p)
        seeds = autodiff.seed_point(p, 1)
        vals, grads = [], []
        for c in self.components:
            v, g, _ = c._seeded(p, seeds)
            _check_finite(p, v, *g)
            vals.append(v)
            grads.append(g)
        return tuple(vals), tuple(zip(*grads))


class PointTwoForm:
    """A two-form evaluated at a point: 3 cyclic components."""

    def __init__(self, components):
        self.components = np.asarray(components, dtype=float)


def exterior_derivative(theta, p):
    """d theta at p as a PointTwoForm (cyclic components).

    For an exact form (theta = df) the result vanishes.
    """
    j = theta.jacobian_at(p)
    a = j - j.T
    return PointTwoForm([a[1, 2], a[2, 0], a[0, 1]])


class _GradientOneForm(OneForm):
    """df on f's chart, read from f's gradient and Hessian."""

    def __init__(self, f):
        self.chart = f.chart
        self.parent = f

    def components_at(self, p):
        return self.parent.gradient(p)

    def values_and_jacobian(self, p):
        p = point_coords(p)
        v, g, h = self.parent._vgh(p, 2)
        _check_finite(p, v, *g, *h)
        return g, (h[0:3], h[3:6], h[6:9])


def gradient_oneform(f):
    """df as a OneForm on f's chart."""
    return _GradientOneForm(f)
