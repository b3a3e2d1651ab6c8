"""Differential forms on a 3-dimensional chart.

Scalar fields carry exact first and second derivatives through the
dual-number engine in :mod:`pseudoform.autodiff`; opaque evaluators fall
back to central finite differences.  One-forms, two-forms and the single
volume coefficient of a three-form are built from scalar fields.

Conventions (all sign-sensitive results in the package refer to these):

* Two-form components are stored in cyclic order, i.e. the coefficients
  of dx2^dx3, dx3^dx1, dx1^dx2 in chart order.
* A three-form coefficient is relative to dx1^dx2^dx3 in chart order.
* ``exterior_derivative`` stores the curl-like components
  (d_i theta_j - d_j theta_i) over the cyclic basis, so evaluation on a
  vector pair gives d theta(v, w) = d_i theta_j (v^i w^j - v^j w^i).
"""

from __future__ import annotations

import numpy as np

from . import autodiff
from .autodiff import Dual
from .errors import EvaluationDomainError, PseudoformError, ValidationError


def as_point(p):
    """Validate and convert a chart point to a float array of shape (3,)."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (3,):
        raise ValidationError(f"chart point must have 3 coordinates, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"chart point has non-finite coordinates: {arr}")
    return arr


def _check_finite(value, grad, hess, p):
    ok = np.isfinite(value) and np.all(np.isfinite(grad))
    if ok and hess is not None:
        ok = np.all(np.isfinite(hess))
    if not ok:
        raise EvaluationDomainError(
            f"non-finite field value or derivative at point "
            f"(x1={p[0]!r}, x2={p[1]!r}, x3={p[2]!r})"
        )


class ScalarField:
    """A real function on the chart with derivative access.

    Subclasses implement ``_vgh`` returning (value, gradient, hessian);
    the hessian slot may be None when third derivatives of an underlying
    field would be required.
    """

    def _vgh(self, p):
        raise NotImplementedError

    def differentiate(self, p):
        p = as_point(p)
        v, g, h = self._vgh(p)
        _check_finite(v, g, h, p)
        if h is None:
            raise PseudoformError(
                "second derivatives unavailable for this derived field"
            )
        return v, g, h

    def value(self, p):
        return self._vgh(as_point(p))[0]

    def gradient(self, p):
        p = as_point(p)
        v, g, _ = self._vgh(p)
        _check_finite(v, g, None, p)
        return g

    def hessian(self, p):
        return self.differentiate(p)[2]


class DualScalarField(ScalarField):
    """Scalar field defined by an evaluator over dual numbers (exact)."""

    def __init__(self, fn):
        self.fn = fn

    def _vgh(self, p):
        d = self.fn(*autodiff.seed_point(p))
        if not isinstance(d, Dual):  # constant expression
            d = Dual(d)
        return d.v, d.g, d.h


class FiniteDifferenceScalarField(ScalarField):
    """Scalar field around an opaque float evaluator.

    Central differences with step h_i = max(1e-6, 1e-6*|p_i|).
    """

    def __init__(self, fn):
        self.fn = fn

    def _steps(self, p):
        return np.maximum(1e-6, 1e-6 * np.abs(p))

    def _vgh(self, p):
        f = self.fn
        h = self._steps(p)
        v0 = float(f(*p))
        grad = np.zeros(3)
        hess = np.zeros((3, 3))
        fp = np.zeros(3)
        fm = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h[i]
            fp[i] = f(*(p + e))
            fm[i] = f(*(p - e))
            grad[i] = (fp[i] - fm[i]) / (2 * h[i])
            hess[i, i] = (fp[i] - 2 * v0 + fm[i]) / h[i] ** 2
        for i in range(3):
            for j in range(i + 1, 3):
                ei = np.zeros(3)
                ej = np.zeros(3)
                ei[i] = h[i]
                ej[j] = h[j]
                mixed = (
                    f(*(p + ei + ej))
                    - f(*(p + ei - ej))
                    - f(*(p - ei + ej))
                    + f(*(p - ei - ej))
                ) / (4 * h[i] * h[j])
                hess[i, j] = hess[j, i] = mixed
        return v0, grad, hess


class GradientComponentField(ScalarField):
    """The i-th partial derivative of a parent field, as a field.

    First derivatives come from the parent's Hessian; second derivatives
    would need third derivatives of the parent and are unavailable.
    """

    def __init__(self, parent, index):
        self.parent = parent
        self.index = index

    def _vgh(self, p):
        v, g, h = self.parent._vgh(p)
        if h is None:
            raise PseudoformError("cannot nest derived gradient fields")
        return g[self.index], h[self.index], None


class ConstantField(ScalarField):
    def __init__(self, c):
        self.c = float(c)

    def _vgh(self, p):
        return self.c, np.zeros(3), np.zeros((3, 3))


def scalar_field(fn):
    """Wrap a dual-capable evaluator ``fn(x1, x2, x3)`` as a ScalarField."""
    return DualScalarField(fn)


def opaque_field(fn):
    """Wrap an opaque float evaluator; derivatives via finite differences."""
    return FiniteDifferenceScalarField(fn)


def differentiate(f, p):
    """Return (value, gradient, hessian) of the scalar field at p."""
    return f.differentiate(p)


def _as_field(c):
    if isinstance(c, ScalarField):
        return c
    if callable(c):
        return DualScalarField(c)
    return ConstantField(c)


class OneForm:
    """theta = theta_i dx^i with scalar-field components."""

    def __init__(self, components, chart="spatial"):
        if len(components) != 3:
            raise ValidationError("a one-form needs exactly 3 components")
        self.components = tuple(_as_field(c) for c in components)
        self.chart = chart

    def components_at(self, p):
        p = as_point(p)
        return np.array([c.value(p) for c in self.components])

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
            v, g, _ = c._vgh(p)
            _check_finite(v, g, None, p)
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
    """df with a single-evaluation value/jacobian fast path."""

    def __init__(self, f):
        super().__init__([GradientComponentField(f, i) for i in range(3)])
        self.parent = f

    def values_and_jacobian(self, p):
        _, g, h = self.parent.differentiate(p)
        return g, h


def gradient_oneform(f):
    """df as a OneForm (components are derived gradient fields)."""
    return _GradientOneForm(f)
