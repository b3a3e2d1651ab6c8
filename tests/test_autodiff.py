"""Dual-number engine: exact first/second derivatives."""

import math

import numpy as np
import pytest

from pseudoform import autodiff
from pseudoform.errors import EvaluationDomainError


def _fd_grad(fn, p, h=1e-6):
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (fn(*(np.array(p) + e)) - fn(*(np.array(p) - e))) / (2 * h)
    return g


def _eval(fn, p):
    return fn(*autodiff.seed_point(np.asarray(p, dtype=float)))


def test_polynomial_gradient_and_hessian():
    fn = lambda x, y, z: x * x + y * y + z * z
    d = _eval(fn, (1.0, 0.0, 0.0))
    assert d.v == 1.0
    assert np.allclose(d.g, [2.0, 0.0, 0.0])
    assert np.allclose(d.h, 2.0 * np.eye(3))


def test_product_rule():
    fn = lambda x, y, z: x * y * z
    d = _eval(fn, (2.0, 3.0, 5.0))
    assert d.v == 30.0
    assert np.allclose(d.g, [15.0, 10.0, 6.0])
    assert d.h[0, 1] == 5.0 and d.h[1, 2] == 2.0 and d.h[0, 2] == 3.0


def test_quotient_and_power():
    fn = lambda x, y, z: x**3 / y
    d = _eval(fn, (2.0, 4.0, 1.0))
    assert d.v == 2.0
    assert np.allclose(d.g[:2], [3.0, -0.5])
    assert np.isclose(d.h[0, 0], 6 * 2.0 / 4.0)
    assert np.isclose(d.h[1, 1], 2 * 8.0 / 64.0)


def test_general_power_dual_exponent():
    fn = lambda x, y, z: x**y
    d = _eval(fn, (2.0, 3.0, 1.0))
    assert np.isclose(d.v, 8.0)
    assert np.isclose(d.g[0], 12.0)
    assert np.isclose(d.g[1], 8.0 * math.log(2.0))


@pytest.mark.parametrize(
    "fn",
    [
        lambda x, y, z: autodiff.sin(x * y) + autodiff.cos(z),
        lambda x, y, z: autodiff.exp(x) * autodiff.log(y + 2.0),
        lambda x, y, z: autodiff.sqrt(x * x + y * y + 1.0),
        lambda x, y, z: autodiff.tan(0.3 * x + 0.1 * y * z),
    ],
)
def test_gradient_matches_finite_differences(fn):
    p = (0.7, 1.3, -0.4)
    d = _eval(fn, p)
    assert np.allclose(d.g, _fd_grad(fn, p), rtol=1e-6, atol=1e-8)


def test_sin_exp_example():
    fn = lambda x, y, z: autodiff.sin(x) * autodiff.exp(y)
    d = _eval(fn, (0.0, 0.0, 0.0))
    assert np.allclose(d.g, [1.0, 0.0, 0.0])


def test_hessian_symmetry():
    fn = lambda x, y, z: autodiff.exp(x * y) + autodiff.sin(y * z) + x * z * z
    d = _eval(fn, (0.3, 0.5, 0.9))
    assert np.allclose(d.h, d.h.T)


def test_domain_errors():
    with pytest.raises(EvaluationDomainError):
        _eval(lambda x, y, z: autodiff.log(x), (-1.0, 0.0, 0.0))
    with pytest.raises(EvaluationDomainError):
        _eval(lambda x, y, z: autodiff.sqrt(x), (-1.0, 0.0, 0.0))
    with pytest.raises(EvaluationDomainError):
        _eval(lambda x, y, z: autodiff.sqrt(x), (0.0, 0.0, 0.0))


def test_abs_away_from_zero():
    d = _eval(lambda x, y, z: autodiff.fabs(x) * y, (-2.0, 3.0, 0.0))
    assert d.v == 6.0
    assert np.allclose(d.g[:2], [-3.0, 2.0])


def test_float_passthrough():
    assert autodiff.sin(0.5) == math.sin(0.5)
    assert autodiff.log(2.0) == math.log(2.0)
