"""Scalar fields, one-forms and the exterior derivative."""

import math

import numpy as np
import pytest

from pseudoform.calculus import OneForm, exterior_derivative, gradient_oneform
from pseudoform.errors import EvaluationDomainError, ValidationError
from pseudoform.formlang import parse_oneform, parse_scalar
from pseudoform.pfaff import RegionSampler

RNG = np.random.default_rng(7)


def test_scalar_field_values_and_derivatives():
    f = parse_scalar("x*x + y*y + z*z")
    v, g, h = f.differentiate((1.0, 0.0, 0.0))
    assert v == 1.0
    assert np.allclose(g, [2.0, 0.0, 0.0])
    assert np.allclose(h, 2.0 * np.eye(3))


def test_constant_field():
    f = parse_scalar("4.2")
    v, g, h = f.differentiate((0.3, -1.0, 2.0))
    assert v == 4.2
    assert np.allclose(g, 0.0) and np.allclose(h, 0.0)


def test_point_validation():
    f = parse_scalar("1")
    with pytest.raises(ValidationError):
        f.value((1.0, 2.0))
    with pytest.raises(ValidationError):
        f.value((np.nan, 0.0, 0.0))
    # the float tuples of the geodesic march take the same checks as arrays
    theta = parse_oneform(["x", "y", "1"])
    for p in ((math.inf, 0.0, 0.0), (0.0, math.nan, 0.0), np.array([0.0, 0.0, -math.inf])):
        with pytest.raises(ValidationError, match="chart point must be 3 finite real numbers"):
            theta.values_and_jacobian(p)
    for p in ((0.0, 0.0), (0.0, 0.0, 0.0, 0.0), [[0.0, 0.0, 0.0]]):
        with pytest.raises(ValidationError, match="chart point must be 3 finite real numbers"):
            theta.values_and_jacobian(p)
    assert theta.values_and_jacobian([1, 2, 3])[0] == (1.0, 2.0, 1.0)


def test_oneform_components_must_be_scalar_fields():
    f = parse_scalar("x")
    with pytest.raises(ValidationError, match="component 2 must be a ScalarField, got float"):
        OneForm([f, f, 1.0])
    with pytest.raises(ValidationError, match="component 0 must be a ScalarField, got function"):
        OneForm([lambda x, y, z: x, f, f])
    with pytest.raises(ValidationError, match="exactly 3 components"):
        OneForm([f, f])


def test_exterior_derivative_of_dz_vanishes():
    theta = parse_oneform(["0", "0", "1"])
    assert np.allclose(exterior_derivative(theta, (0.2, 0.5, -1.0)).components, 0.0)


def test_exterior_derivative_x_dy():
    theta = parse_oneform(["0", "x", "0"])
    d = exterior_derivative(theta, (0.3, 0.7, 0.1))
    # dx^dy coefficient +1: cyclic components (dy^dz, dz^dx, dx^dy)
    assert np.allclose(d.components, [0.0, 0.0, 1.0])
    theta2 = parse_oneform(["y", "0", "0"])
    d2 = exterior_derivative(theta2, (0.3, 0.7, 0.1))
    assert np.allclose(d2.components, [0.0, 0.0, -1.0])


def test_exterior_derivative_evaluation_on_vectors():
    theta = parse_oneform(["0", "x", "0"])
    d = exterior_derivative(theta, (1.0, 0.0, 0.0)).components
    # cyclic components pair with v x w: d theta(v, w) = d . (v x w)
    assert np.isclose(d @ np.cross([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), 1.0)
    assert np.isclose(d @ np.cross([0.0, 1.0, 0.0], [1.0, 0.0, 0.0]), -1.0)


def test_d_of_d_is_zero_randomized():
    f = parse_scalar("sin(x*y) + exp(0.3*z) + x*z")
    df = gradient_oneform(f)
    for _ in range(100):
        p = RNG.uniform(-1.5, 1.5, size=3)
        assert np.max(np.abs(exterior_derivative(df, p).components)) < 1e-10


def test_gradient_oneform_keeps_chart_and_reads_the_parent():
    f = parse_scalar("t*x + sin(y)", "spacetime")
    df = gradient_oneform(f)
    p = (0.2, -0.7, 0.4)
    _, g, h = f.differentiate(p)
    vals, jac = df.values_and_jacobian(p)
    assert df.chart == "spacetime"
    assert gradient_oneform(parse_scalar("x")).chart == "spatial"
    assert np.array_equal(df.components_at(p), g) and np.array_equal(vals, g)
    assert np.array_equal(jac, h)


def test_leibniz_rule_sampled():
    f = parse_scalar("exp(0.2*x) + y*y")
    theta = parse_oneform(["z", "x*x", "0"])
    f_theta = parse_oneform(["(exp(0.2*x) + y*y)*z", "(exp(0.2*x) + y*y)*x*x", "0"])
    for _ in range(20):
        p = RNG.uniform(-1.0, 1.0, size=3)
        lhs = exterior_derivative(f_theta, p).components
        # df ^ theta in cyclic components: cross(df, theta)
        df = f.differentiate(p)[1]
        th = theta.components_at(p)
        rhs = np.cross(df, th) + f.value(p) * exterior_derivative(theta, p).components
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_values_and_jacobian_consistency():
    theta = parse_oneform(["x*y", "cos(z)", "y"])
    p = (0.3, -0.4, 0.9)
    vals, jac = theta.values_and_jacobian(p)
    assert np.allclose(vals, theta.components_at(p))
    x, y, z = p  # J[i][j] = d_i theta_j
    assert np.allclose(jac, [(y, 0.0, 0.0), (x, 0.0, 1.0), (0.0, -math.sin(z), 0.0)])


def test_components_at_refuses_a_non_finite_gradient_as_values_and_jacobian_does():
    # the value underflows to a finite 1e-10 while d_x theta_1 = y*y*1e300 overflows
    theta = parse_oneform(["x*y*y*1e300", "0", "1"])
    p = (1e-320, 1e5, 0.0)
    messages = []
    for evaluate in (theta.components_at, theta.values_and_jacobian):
        with pytest.raises(EvaluationDomainError) as err:
            evaluate(p)
        messages.append(str(err.value))
    assert messages == ["non-finite field value or derivative at point (1e-320, 100000.0, 0.0)"] * 2


def test_one_seed_values_and_jacobian_equal_per_component_evaluations():
    # one evaluation of the one-form gives the same floats as evaluating
    # each component on its own
    theta = parse_oneform(["sin(y*z)", "exp(x/2)*cos(z)", "2+sin(x*y)"])
    points = RegionSampler((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), count=100, seed=5).points()
    for p in points:
        vals, jac = theta.values_and_jacobian(p)
        per_component = [c._vgh(p) for c in theta.components]
        assert vals == tuple(v for v, _, _ in per_component)
        assert jac == tuple(zip(*(g for _, g, _ in per_component)))
        assert all(type(x) is float for x in (*vals, *jac[0], *jac[1], *jac[2]))


def test_flat_jet_is_each_kinds_values_then_jacobian_row_major():
    # 12 floats: theta_1..3, then J[i][j] = d_i theta_j row by row; a one-form reads
    # its components' gradients, a level set's gradient form its field's Hessian
    theta = parse_oneform(["sin(y*z)", "exp(x/2)*cos(z)", "2+sin(x*y)"])
    f = parse_scalar("exp(0.3*x*y) + sin(y*z) + x*z^2")
    for p in RegionSampler((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), count=50, seed=3).points():
        per_component = [c.differentiate(p) for c in theta.components]
        values = tuple(v for v, _, _ in per_component)
        rows = [g for _, g, _ in per_component]
        assert theta.flat_jet(p) == (*values, *(r[i] for i in range(3) for r in rows))
        _, grad, hess = f.differentiate(p)
        assert gradient_oneform(f).flat_jet(p) == (*grad, *hess[0], *hess[1], *hess[2])
        assert all(type(x) is float for x in theta.flat_jet(p) + gradient_oneform(f).flat_jet(p))


def test_flat_jet_of_a_gradient_form_checks_the_fields_value():
    # the value overflows while the gradient (1, 0, 0) and the Hessian are finite:
    # the gradient form refuses it as differentiate does
    f = parse_scalar("x + 1e308 + 1e308")
    p = (0.5, 1.0, 0.0)
    assert f.fn(*p).grad == (1.0, 0.0, 0.0)
    with pytest.raises(EvaluationDomainError) as want:
        f.differentiate(p)
    with pytest.raises(EvaluationDomainError) as got:
        gradient_oneform(f).flat_jet(p)
    assert str(got.value) == str(want.value)
