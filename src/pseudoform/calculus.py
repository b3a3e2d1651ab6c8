"""Differential forms on a 3-dimensional chart.

Scalar fields carry exact first and second derivatives: ``formlang``
compiles each expression into straight-line code that takes a point's
three floats and returns one ``Dual`` record of the value, the gradient
and the Hessian.  ``ScalarField._vgh`` calls that code for a field, and
each kind of one-form has one flat evaluator, ``flat_jet``, that calls
it for the form: ``OneForm`` once per component, the gradient form of a
level set once on its field.  Every evaluation below goes through one of
them.  One-forms are built from three scalar fields, and
``exterior_derivative`` evaluates d theta at a point as a two-form's
cyclic components.

The evaluations take and return plain floats: the point as 3 finite
floats, values, components and gradients as 3-tuples and a Jacobian or
Hessian as three 3-tuple rows.  ``flat_jet`` alone returns its values
and Jacobian as one flat 12-tuple, which the geodesic's RK4 stages and
``geometry.normal_kernel`` read.  ``point_coords`` checks a point: a
tuple of 3 finite floats passes as it is, and anything else goes through
``errors.check_vector``, the package's one check of a vector.
``exterior_derivative`` returns d theta's 3 cyclic components, so no
evaluation here loads NumPy.

Conventions (all sign-sensitive results in the package refer to these):

* Two-form components are stored in cyclic order, i.e. the coefficients
  of dx2^dx3, dx3^dx1, dx1^dx2 in chart order.
* d theta has the curl-like components (d_i theta_j - d_j theta_i) over
  the cyclic basis, as ``dtheta_cyclic`` writes them, so evaluation on a
  vector pair gives d theta(v, w) = d_i theta_j (v^i w^j - v^j w^i).
"""

from __future__ import annotations

import math

from .errors import DegeneratePfaffianError, EvaluationDomainError, ValidationError, check_vector

DEGENERACY_TOL = 1e-12  # |N| at or below this is a vanishing Pfaffian


def point_coords(p):
    """Validate a chart point and return its 3 coordinates as a tuple of floats.

    A tuple of 3 finite floats is returned as it is; anything else goes
    through ``errors.check_vector``.
    """
    if (type(p) is tuple and len(p) == 3 and type(p[0]) is type(p[1]) is type(p[2]) is float
            and math.isfinite(p[0] + p[1] + p[2])):  # a sum can overflow: then check each
        return p
    return check_vector("chart point", p, 3)


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


def _domain_error(err, p):
    """The ``EvaluationDomainError`` for a compiled field that raised ``err`` at p."""
    if isinstance(err, OverflowError):
        return EvaluationDomainError(f"overflow at point {format_point(p)}")
    return EvaluationDomainError(f"{err} at point {format_point(p)}")


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
        except (OverflowError, ZeroDivisionError) as err:
            raise _domain_error(err, p) from err
        return d.v, d.grad, d.hess

    def differentiate(self, p):
        """Value, gradient (3-tuple) and Hessian (three 3-tuple rows) at p, as floats:
        one call of ``fn``, and every value, gradient and Hessian entry checked finite."""
        p = point_coords(p)
        v, g, h = self._vgh(p)
        if not math.isfinite(v + sum(g) + sum(h)):  # a sum can overflow: then check each
            _check_finite(p, v, *g, *h)
        return v, g, (h[0:3], h[3:6], h[6:9])

    def value(self, p):
        p = point_coords(p)
        v = self._vgh(p)[0]
        _check_finite(p, v)
        return v


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
        """The component values (theta_1, theta_2, theta_3) at p, as floats.

        They come from ``flat_jet``, which checks the gradients too, so a
        non-finite gradient raises ``EvaluationDomainError`` here as it
        does in ``values_and_jacobian``.
        """
        return self.flat_jet(point_coords(p))[:3]

    def values_and_jacobian(self, p):
        """Component values and the Jacobian at p, as floats.

        Returns the values (theta_1, theta_2, theta_3) and three rows
        J[i] = (d_i theta_1, d_i theta_2, d_i theta_3), all tuples of floats.
        """
        jet = self.flat_jet(point_coords(p))
        return jet[:3], (jet[3:6], jet[6:9], jet[9:12])

    def flat_jet(self, p):
        """The form's 12 floats at a point p already checked as 3 floats:
        theta_1..3, then J row-major, J[i][j] = d_i theta_j.

        The one evaluation kernel of the form: each component's compiled
        function is looked up and called once on the point, a compiled
        function's ``OverflowError`` or ``ZeroDivisionError`` is raised as
        ``EvaluationDomainError``, and the values and gradients are checked
        to be finite.
        """
        f1, f2, f3 = self.components
        try:
            d1, d2, d3 = f1.fn(*p), f2.fn(*p), f3.fn(*p)
        except (OverflowError, ZeroDivisionError) as err:
            raise _domain_error(err, p) from err
        v1, v2, v3 = d1.v, d2.v, d3.v
        (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = d1.grad, d2.grad, d3.grad
        if not math.isfinite(v1 + v2 + v3 + a1 + a2 + a3 + b1 + b2 + b3 + c1 + c2 + c3):
            _check_finite(p, v1, v2, v3, a1, a2, a3, b1, b2, b3, c1, c2, c3)
        return v1, v2, v3, a1, b1, c1, a2, b2, c2, a3, b3, c3


def dtheta_cyclic(jac):
    """The cyclic components (d2 theta3 - d3 theta2, d3 theta1 - d1 theta3,
    d1 theta2 - d2 theta1) of d theta, from Jacobian rows J[i][j] = d_i theta_j."""
    j1, j2, j3 = jac
    return (j2[2] - j3[1], j3[0] - j1[2], j1[1] - j2[0])


def exterior_derivative(theta, p):
    """d theta at p as its 3 cyclic components, floats.

    For an exact form (theta = df) the result vanishes.
    """
    return dtheta_cyclic(theta.values_and_jacobian(p)[1])


class _GradientOneForm(OneForm):
    """df on f's chart, read from f's gradient and Hessian."""

    def __init__(self, f):
        self.chart = f.chart
        self.parent = f

    def flat_jet(self, p):
        """f's gradient, then its Hessian row-major as J, from one call of f's
        ``fn``; f's value is checked to be finite with them, as in ``differentiate``."""
        try:
            d = self.parent.fn(*p)
        except (OverflowError, ZeroDivisionError) as err:
            raise _domain_error(err, p) from err
        jet = d.grad + d.hess
        if not math.isfinite(d.v + sum(jet)):  # a sum can overflow: then check each
            _check_finite(p, d.v, *jet)
        return jet


def gradient_oneform(f):
    """df as a OneForm on f's chart."""
    return _GradientOneForm(f)
