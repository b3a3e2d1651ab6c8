"""Differential forms on a 3-dimensional chart.

Scalar fields carry exact first and second derivatives: ``formlang``
compiles each expression into straight-line code that takes a point's
three floats and returns one ``Dual`` record of the value, the gradient
and the Hessian.  Every evaluation below goes through that one call
(``ScalarField._vgh``) and reads what it needs from the record.
One-forms are built from three scalar fields, and
``exterior_derivative`` evaluates d theta at a point as a two-form.

``OneForm.values_and_jacobian`` and ``ScalarField.differentiate`` are
the evaluations on the per-point hot paths (the geodesic march,
``classify``, the fundamental forms), so they take and return plain
floats: the point as 3 floats (a tuple of floats is checked without
NumPy), values and gradients as 3-tuples and a Jacobian or Hessian as
three 3-tuple rows.  ``jacobian_at`` and ``exterior_derivative`` wrap
those rows as arrays for the NumPy callers.

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

    ``fn(x1, x2, x3)`` takes the 3 floats of a point and returns a
    ``Dual`` record of the value, the gradient and the full Hessian, as
    the function that ``formlang`` compiles does.
    ``chart`` names the coordinates, as in ``formlang.CHARTS``, and
    ``gradient_oneform`` of the field lives on the same chart.
    """

    def __init__(self, fn, chart="spatial"):
        self.fn = fn
        self.chart = chart

    def _vgh(self, p):
        """``Dual.v``, ``grad`` and ``hess`` of ``fn`` at the point p (3 floats)."""
        try:
            d = self.fn(*p)
        except OverflowError as err:
            raise EvaluationDomainError(f"overflow at point {format_point(p)}") from err
        except ZeroDivisionError as err:
            raise EvaluationDomainError(f"{err} at point {format_point(p)}") from err
        return d.v, d.grad, d.hess

    def differentiate(self, p):
        """Value, gradient (3-tuple) and Hessian (three 3-tuple rows) at p, as floats."""
        p = point_coords(p)
        v, g, h = self._vgh(p)
        _check_finite(p, v, *g, *h)
        return v, g, (h[0:3], h[3:6], h[6:9])

    def value(self, p):
        p = point_coords(p)
        v = self._vgh(p)[0]
        _check_finite(p, v)
        return v

    def gradient(self, p):
        p = point_coords(p)
        v, g, _ = self._vgh(p)
        _check_finite(p, v, *g)
        return np.array(g)


class OneForm:
    """theta = theta_i dx^i with scalar-field components."""

    def __init__(self, components, chart="spatial"):
        if len(components) != 3:
            raise ValidationError("a one-form needs exactly 3 components")
        for idx, c in enumerate(components):
            if not isinstance(c, ScalarField):
                raise ValidationError(
                    f"one-form component {idx} must be a ScalarField, got {type(c).__name__}"
                )
        self.components = tuple(components)
        self.chart = chart

    def components_at(self, p):
        p = point_coords(p)
        c1, c2, c3 = self.components
        vals = (c1._vgh(p)[0], c2._vgh(p)[0], c3._vgh(p)[0])
        _check_finite(p, *vals)
        return np.array(vals)

    def jacobian_at(self, p):
        """J[i, j] = d_i theta_j, as a (3, 3) array."""
        return np.array(self.values_and_jacobian(p)[1])

    def values_and_jacobian(self, p):
        """Component values and the Jacobian at p, as floats.

        Returns the values (theta_1, theta_2, theta_3) and three rows
        J[i] = (d_i theta_1, d_i theta_2, d_i theta_3), all tuples of floats.
        """
        p = point_coords(p)
        c1, c2, c3 = self.components
        v1, g1, _ = c1._vgh(p)
        v2, g2, _ = c2._vgh(p)
        v3, g3, _ = c3._vgh(p)
        _check_finite(p, v1, v2, v3, *g1, *g2, *g3)
        return (v1, v2, v3), tuple(zip(g1, g2, g3))


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
        return self.parent.differentiate(p)[1:]


def gradient_oneform(f):
    """df as a OneForm on f's chart."""
    return _GradientOneForm(f)
