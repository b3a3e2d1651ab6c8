"""Expression DSL: grammar, errors with columns, round-trips, fuzzing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoform.errors import EvaluationDomainError, FormSyntaxError
from pseudoform.formlang import (
    parse_expression,
    parse_oneform,
    parse_scalar,
    pretty,
)

from formlang_reference import walk

RNG = np.random.default_rng(11)


def test_basic_evaluation():
    f = parse_scalar("x^2 + y^2 + z^2")
    assert f.value((1.0, 2.0, 3.0)) == 14.0


def test_constant_expression():
    f = parse_scalar("sin(pi/2)")
    assert np.isclose(f.value((0.0, 0.0, 0.0)), 1.0)


def test_unclosed_paren_column():
    with pytest.raises(FormSyntaxError) as err:
        parse_expression("x*(")
    assert err.value.column == 3


def test_precedence_and_associativity():
    f = parse_scalar("2 + 3 * 4 ^ 2")
    assert f.value((0, 0, 0)) == 50.0
    # unary minus binds looser than ^
    g = parse_scalar("-x^2")
    assert g.value((3.0, 0.0, 0.0)) == -9.0
    # right-associative exponent
    h = parse_scalar("2^3^2")
    assert h.value((0, 0, 0)) == 512.0


def test_scientific_notation():
    f = parse_scalar("1.5e-3 * x")
    assert np.isclose(f.value((2.0, 0.0, 0.0)), 3e-3)


def test_wrong_chart_variable():
    with pytest.raises(FormSyntaxError) as err:
        parse_expression("t + x", chart="spatial")
    assert "chart" in str(err.value)
    assert err.value.column == 1


def test_unknown_identifier_column():
    with pytest.raises(FormSyntaxError) as err:
        parse_expression("x + foo")
    assert err.value.column == 5


def test_unknown_function():
    with pytest.raises(FormSyntaxError):
        parse_expression("sinh(x)")


def test_empty_expression():
    with pytest.raises(FormSyntaxError):
        parse_expression("   ")


def test_parse_oneform_component_error_index():
    with pytest.raises(FormSyntaxError) as err:
        parse_oneform(["0", "x +", "1"])
    assert err.value.component == 1


def test_parse_oneform_spacetime():
    theta = parse_oneform(
        ["0", "-sin(2*0.0000729*t)", "cos(2*0.0000729*t)"], chart="spacetime"
    )
    comps = theta.components_at((100.0, 0.0, 0.0))
    phi = 2 * 0.0000729 * 100.0
    assert np.allclose(comps, [0.0, -math.sin(phi), math.cos(phi)])


def test_division_by_zero_is_evaluation_time():
    f = parse_scalar("1 / x")
    assert f.value((2.0, 0.0, 0.0)) == 0.5
    with pytest.raises((EvaluationDomainError, ZeroDivisionError)):
        f.value((0.0, 0.0, 0.0))


def test_domain_error_at_evaluation():
    f = parse_scalar("ln(x)")
    with pytest.raises(EvaluationDomainError):
        f.value((-1.0, 0.0, 0.0))


def test_dual_gradient_matches_finite_differences():
    texts = [
        "sin(x)*cos(y) + z",
        "exp(0.3*x) / (1 + y^2)",
        "sqrt(x^2 + y^2 + z^2 + 1)",
        "x^3 - 2*x*y + tan(0.2*z)",
        "abs(x - 2) * y",
    ]
    h = 1e-6
    for text in texts:
        f = parse_scalar(text)
        for _ in range(5):
            p = RNG.uniform(-0.9, 0.9, size=3)
            g = f.gradient(p)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                fd = (f.value(p + e) - f.value(p - e)) / (2 * h)
                assert np.isclose(g[i], fd, rtol=1e-5, atol=1e-6), text


# -- hypothesis suites ---------------------------------------------------

_leaf = st.one_of(
    st.sampled_from(["x", "y", "z", "pi", "e"]),
    st.floats(min_value=0.1, max_value=9.0).map(lambda v: f"{v:.3f}"),
)


def _expr_strategy():
    return st.recursive(
        _leaf,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            inner.map(lambda s: f"sin({s})"),
            inner.map(lambda s: f"cos({s})"),
            inner.map(lambda s: f"-({s})"),
        ),
        max_leaves=12,
    )


@settings(max_examples=100, deadline=None)
@given(_expr_strategy(), st.integers(0, 2**31 - 1))
def test_pretty_roundtrip(text, seed):
    node = parse_expression(text)
    reparsed = parse_expression(pretty(node))
    rng = np.random.default_rng(seed)
    for _ in range(5):
        p = rng.uniform(-2.0, 2.0, size=3)
        env = {"x": p[0], "y": p[1], "z": p[2]}
        assert abs(walk(node, env) - walk(reparsed, env)) <= 1e-12 * max(
            1.0, abs(walk(node, env))
        )


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=1024))
def test_fuzz_totality_bytes(blob):
    text = blob.decode("utf-8", errors="replace")
    try:
        parse_expression(text)
    except FormSyntaxError:
        pass  # errors are fine; crashes are not


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_fuzz_totality_text(text):
    try:
        parse_expression(text)
    except FormSyntaxError:
        pass


def test_constant_power_follows_the_dual_rule():
    p = (-8.0, 0.0, 0.0)
    assert parse_scalar("(0-8)^2").value(p) == 64.0
    assert parse_scalar("(0-8)^(0-1)").value(p) == -0.125
    with pytest.raises(EvaluationDomainError) as constant:
        parse_scalar("(0-8)^0.5").value(p)
    with pytest.raises(EvaluationDomainError) as variable:
        parse_scalar("x^0.5").value(p)
    assert str(constant.value) == str(variable.value)
    assert str(constant.value) == "negative base -8.0 with fractional exponent 0.5"
