"""Differential forms on a 3-dimensional chart.

Scalar fields carry exact first and second derivatives: a field's
``fn`` takes a point's three floats and returns one ``Dual`` record of
the value, the gradient and the Hessian, and ``ScalarField._vgh`` calls
it.  A parsed field's ``fn`` is the walk of its tree written out as
straight-line code, compiled on its first call (``formcode``).  Each
one-form has one flat evaluator, ``flat_jet``, which
``formcode.compile_jet`` writes when the form is built: one
straight-line function of the point for the whole form, with the trees
of all three components at first order, or a level set's tree at second
order for its gradient form.  Only a component built from a plain
function, with no tree, is called there through its ``fn``.  Every
evaluation below goes through ``_vgh`` or ``flat_jet``.  One-forms
are built from three scalar fields on the form's chart, and
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
    the function that ``formcode`` writes from a tree does.
    ``chart`` names the coordinates, as in ``formlang.CHARTS``, and
    ``gradient_oneform`` of the field lives on the same chart.  ``node``
    is the ``formlang`` tree that ``fn`` is compiled from, if any; the
    flat jets of the forms built on the field are written from the tree,
    and call no ``fn`` of it.
    """

    def __init__(self, fn, chart="spatial", node=None):
        self.fn = fn
        self.chart = chart
        self.node = node
        self.gradient = None  # its gradient_oneform, built on first use

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
    """theta = theta_i dx^i with scalar-field components on the form's chart.

    ``flat_jet(p)`` gives the form's 12 floats at a point p already checked
    as 3 floats: theta_1..3, then J row-major, J[i][j] = d_i theta_j.  It is
    the form's one evaluation, compiled here (``formcode.compile_jet``): it
    raises a compiled field's ``OverflowError`` or ``ZeroDivisionError`` as
    ``EvaluationDomainError`` and checks every float it returns to be finite.
    """

    def __init__(self, components, chart="spatial"):
        from .formcode import compile_jet  # loaded with the first form

        if len(components) != 3:
            raise ValidationError("a one-form needs exactly 3 components")
        for idx, c in enumerate(components):
            if not isinstance(c, ScalarField):
                raise ValidationError(
                    f"one-form component {idx} must be a ScalarField, got {type(c).__name__}"
                )
            if c.chart != chart:
                raise ValidationError(f"one-form component {idx} is on chart {c.chart!r}, "
                                      f"not the form's chart {chart!r}")
        self.components = tuple(components)
        self.chart = chart
        self.flat_jet = compile_jet(self.components)

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
    """df on f's chart: its ``flat_jet`` gives f's gradient, then its Hessian
    row-major as J, with f's value checked to be finite too."""

    def __init__(self, f):
        from .formcode import compile_jet

        self.chart = f.chart
        self.flat_jet = compile_jet((f,), gradient=True)


def gradient_oneform(f):
    """df as a OneForm on f's chart: one per field, built on first use."""
    if f.gradient is None:
        f.gradient = _GradientOneForm(f)
    return f.gradient
