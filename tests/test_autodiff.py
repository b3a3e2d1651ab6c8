"""The reference dual-number engine of ``formlang_reference``: exact first/second derivatives."""

import math

import numpy as np
import pytest

from pseudoform.errors import EvaluationDomainError
from pseudoform.formlang import parse_expression

import formlang_reference as ref

ORDERS = (1, 2)


def _fd_grad(fn, p, h=1e-6):
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (fn(*(np.array(p) + e)) - fn(*(np.array(p) - e))) / (2 * h)
    return g


def _eval(fn, p, order=2):
    return fn(*ref.seed_point(np.asarray(p, dtype=float), order))


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
    for order in ORDERS:
        d = _eval(fn, (2.0, 3.0, 1.0), order)
        assert np.isclose(d.v, 8.0)
        assert np.isclose(d.g[0], 12.0)
        assert np.isclose(d.g[1], 8.0 * math.log(2.0))


@pytest.mark.parametrize(
    "fn",
    [
        lambda x, y, z: ref.sin(x * y) + ref.cos(z),
        lambda x, y, z: ref.exp(x) * ref.log(y + 2.0),
        lambda x, y, z: ref.sqrt(x * x + y * y + 1.0),
        lambda x, y, z: ref.tan(0.3 * x + 0.1 * y * z),
    ],
)
def test_gradient_matches_finite_differences(fn):
    p = (0.7, 1.3, -0.4)
    for order in ORDERS:
        d = _eval(fn, p, order)
        assert np.allclose(d.g, _fd_grad(fn, p), rtol=1e-6, atol=1e-8)


def test_sin_exp_example():
    fn = lambda x, y, z: ref.sin(x) * ref.exp(y)
    for order in ORDERS:
        d = _eval(fn, (0.0, 0.0, 0.0), order)
        assert np.allclose(d.g, [1.0, 0.0, 0.0])


def test_hessian_symmetry():
    fn = lambda x, y, z: ref.exp(x * y) + ref.sin(y * z) + x * z * z
    d = _eval(fn, (0.3, 0.5, 0.9))
    assert np.allclose(d.h, d.h.T)


def test_domain_errors():
    for order in ORDERS:
        with pytest.raises(EvaluationDomainError):
            _eval(lambda x, y, z: ref.log(x), (-1.0, 0.0, 0.0), order)
        with pytest.raises(EvaluationDomainError):
            _eval(lambda x, y, z: ref.sqrt(x), (-1.0, 0.0, 0.0), order)
        with pytest.raises(EvaluationDomainError):
            _eval(lambda x, y, z: ref.sqrt(x), (0.0, 0.0, 0.0), order)


def test_abs_away_from_zero():
    for order in ORDERS:
        d = _eval(lambda x, y, z: ref.fabs(x) * y, (-2.0, 3.0, 0.0), order)
        assert d.v == 6.0
        assert np.allclose(d.g[:2], [-3.0, 2.0])


def test_float_passthrough():
    assert ref.sin(0.5) == math.sin(0.5)
    assert ref.log(2.0) == math.log(2.0)


def test_infinite_argument_of_a_periodic_function_is_nan():
    # math.sin(inf) raises ValueError; the engine returns NaN for the finite check
    for fn in (ref.sin, ref.cos, ref.tan):
        assert math.isnan(fn(math.inf))
        d = fn(_eval(lambda x, y, z: x * 1e300 * 1e300, (1.0, 0.0, 0.0)))
        assert math.isnan(d.v) and np.isnan(d.g[0]) and np.isnan(d.h[0, 0])


# -- first against second order ----------------------------------------------

# every operator, every function, ^ with constant and variable exponents, and
# constants; evaluated at every subexpression
ORDER_EXPRESSIONS = [
    "x + y - z + 2 - (3 - x)",
    "-x * y * 2.5 + 3 * z",
    "x / y - 2 / z + y / 4",
    "x ^ 3 + y ^ 2 + z ^ 0.5 + x ^ -1 + y ^ 1 + z ^ 0",
    "x ^ y + 2 ^ z + (x * z) ^ (z - 1)",
    "sin(x * y) + cos(z) * tan(0.3 * x)",
    "exp(x / 2) * ln(y + 2) - sqrt(x * x + z)",
    "abs(z - 0.25) * abs(y) + pi * e",
    "(x - x) ^ 2 + (y - y) ^ 3 + (z - z) ^ 1 + (x - x) ^ 0",
    "sin(x * 1e300 * 1e300) + x",
    "7",
]
ORDER_POINTS = [(0.7, 1.3, 0.4), (2.0, 0.5, 1.5), (1.1, -0.3, 0.25)]

# (expression, point): each raises at both orders
DOMAIN_FAILURES = [
    ("x / (y - y)", (1.0, 2.0, 3.0)),
    ("ln(x - 5)", (1.0, 2.0, 3.0)),
    ("sqrt(x - 5)", (1.0, 2.0, 3.0)),
    ("sqrt(x - x)", (1.0, 2.0, 3.0)),
    ("(x - x) ^ -1", (1.0, 2.0, 3.0)),
    ("(x - 5) ^ 0.5", (1.0, 2.0, 3.0)),
    ("(x - 5) ^ y", (1.0, 2.0, 3.0)),
    ("(0 - 2) ^ x", (1.0, 2.0, 3.0)),
    ("exp(x * 1000)", (1.0, 2.0, 3.0)),
    ("x ^ 1e10", (10.0, 2.0, 3.0)),
]


def _subexpressions(node):
    yield node
    for name in ("operand", "left", "right", "argument"):
        if hasattr(node, name):
            yield from _subexpressions(getattr(node, name))


def _at(node, p, order):
    seeds = ref.seed_point(np.asarray(p, dtype=float), order)
    return ref.walk(node, dict(zip("xyz", seeds)))


def _bits(d):
    if not isinstance(d, ref.Dual):
        return np.float64(d).tobytes()
    return np.array([d.v, *d.grad]).tobytes()


@pytest.mark.parametrize("text", ORDER_EXPRESSIONS)
def test_first_order_matches_second_order_bit_for_bit(text):
    for sub in _subexpressions(parse_expression(text)):
        for p in ORDER_POINTS:
            first, second = _at(sub, p, 1), _at(sub, p, 2)
            assert _bits(first) == _bits(second), (ref.pretty(sub), p)
            if isinstance(first, ref.Dual):
                assert first.hess is None and first.h is None
                assert len(second.hess) == 9 and second.h.shape == (3, 3)


@pytest.mark.parametrize("text, p", DOMAIN_FAILURES)
def test_domain_errors_are_the_same_at_both_orders(text, p):
    node = parse_expression(text)
    raised = []
    for order in ORDERS:
        with pytest.raises((EvaluationDomainError, OverflowError)) as err:
            _at(node, p, order)
        raised.append((type(err.value), str(err.value)))
    assert raised[0] == raised[1]


def test_hessian_keeps_the_numpy_association():
    # a product's and a chain rule's Hessian entries, as the array formulas give them
    rng = np.random.default_rng(3)
    a, b = (ref.Dual(float(rng.normal()), tuple(rng.normal(size=3).tolist()),
                          tuple(rng.normal(size=9).tolist())) for _ in range(2))
    cross = np.outer(a.g, b.g)
    assert np.array_equal((a * b).h, a.h * b.v + a.v * b.h + cross + cross.T)
    assert np.array_equal(ref.sin(a).h,
                          math.cos(a.v) * a.h + -math.sin(a.v) * np.outer(a.g, a.g))
