"""Expression DSL: grammar, errors with columns, round-trips, fuzzing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoform import formlang
from pseudoform.errors import EvaluationDomainError, FormSyntaxError
from pseudoform.formlang import (
    parse_expression,
    parse_oneform,
    parse_scalar,
)

from formlang_reference import pretty, walk

RNG = np.random.default_rng(11)


def test_basic_evaluation():
    f = parse_scalar("x^2 + y^2 + z^2")
    assert f.value((1.0, 2.0, 3.0)) == 14.0


def test_constant_expression():
    f = parse_scalar("sin(pi/2)")
    assert np.isclose(f.value((0.0, 0.0, 0.0)), 1.0)


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


_DEEP = formlang._MAX_NESTING  # parentheses or minus signs inside the top level
_LONG = formlang._MAX_TREE_DEPTH  # links of a chain after its first operand


@pytest.mark.parametrize("text, chart, message, column", [
    pytest.param("x + 1.2.3", "spatial", "malformed number '1.2.3'", 5, id="malformed-number"),
    pytest.param("x + .", "spatial", "malformed number '.'", 5, id="lone-dot"),
    pytest.param("x # y", "spatial", "unexpected character '#'", 3, id="unexpected-character"),
    # a digit that is not decimal is no part of a number or the start of a word
    pytest.param("3²", "spatial", "unexpected character '²'", 2, id="superscript-digit"),
    pytest.param("x + 1e²", "spatial", "unexpected trailing input 'e²'", 6, id="superscript-exponent"),
    pytest.param("sinh(x)", "spatial", "unknown function 'sinh'", 1, id="unknown-function"),
    pytest.param("x + foo", "spatial", "unknown identifier 'foo'", 5, id="unknown-identifier"),
    pytest.param("t + x", "spatial",
                 "variable 't' does not belong to this chart (expected one of x, y, z)", 1,
                 id="spacetime-variable-on-spatial"),
    pytest.param("t*z", "spacetime",
                 "variable 'z' does not belong to this chart (expected one of t, x, y)", 3,
                 id="spatial-variable-on-spacetime"),
    pytest.param("x * / y", "spatial", "expected an operand, found '/'", 5, id="operand-mid-text"),
    pytest.param("x +", "spatial", "expected an operand, found end of input", 4, id="operand-at-end"),
    pytest.param("2^-", "spatial", "expected an operand, found end of input", 4, id="exponent-at-end"),
    pytest.param("sin(x y)", "spatial", "expected ')', found 'y'", 7, id="call-not-closed"),
    pytest.param("sin(x 2)", "spatial", "expected ')', found 2.0", 7, id="call-not-closed-number"),
    pytest.param("sin(x", "spatial", "expected ')', found end of input", 6, id="call-at-end"),
    pytest.param("x*(", "spatial", "unclosed parenthesis", 3, id="unclosed-parenthesis"),
    # any error at the end of the text inside parentheses is the outermost one's
    pytest.param("(x + (foo", "spatial", "unclosed parenthesis", 1, id="unclosed-outermost"),
    pytest.param("(x))", "spatial", "unexpected trailing input ')'", 4, id="trailing-input"),
    pytest.param("x 2", "spatial", "unexpected trailing input 2.0", 3, id="trailing-number"),
    pytest.param("   ", "spatial", "empty expression", 1, id="blank"),
    pytest.param("", "spacetime", "empty expression", 1, id="empty"),
    pytest.param("(" * _DEEP + "x" + ")" * _DEEP, "spatial", "expression too deeply nested",
                 _DEEP + 1, id="nesting-limit"),
    pytest.param("-" * _DEEP + "x", "spatial", "expression too deeply nested", _DEEP,
                 id="nesting-limit-minus"),
    pytest.param("1" + "+x" * _LONG, "spatial", "expression too deeply nested", 2 * _LONG,
                 id="tree-depth-limit"),
    # the whole text is tokenized first, so a lexing error wins over an earlier syntax error
    pytest.param("x y #", "spatial", "unexpected character '#'", 5, id="lexing-error-wins"),
    pytest.param("x ) 1.2.3", "spatial", "malformed number '1.2.3'", 5, id="malformed-number-wins"),
])
def test_parser_refusals_pin_message_and_column(text, chart, message, column):
    with pytest.raises(FormSyntaxError) as err:
        parse_expression(text, chart)
    assert (str(err.value), err.value.column) == (f"{message} (column {column})", column)


@pytest.mark.parametrize("parse, given", [
    pytest.param(lambda: parse_oneform("xyz"), "'xyz'", id="oneform-of-a-string"),
    pytest.param(lambda: parse_oneform(None), "None", id="oneform-of-none"),
    pytest.param(lambda: parse_oneform(iter(["x", "y", "z"])), "<list_iterator object",
                 id="oneform-of-an-iterator"),
    pytest.param(lambda: parse_scalar(5), "5", id="scalar-of-an-int"),
    pytest.param(lambda: parse_scalar("x", chart=["spatial"]), "['spatial']", id="list-chart"),
    pytest.param(lambda: parse_oneform(["0", b"x", "1"]), "b'x'", id="bytes-component"),
])
def test_input_that_is_not_text_is_a_syntax_error_naming_it(parse, given):
    with pytest.raises(FormSyntaxError) as err:
        parse()
    assert err.value.column == 1
    assert given in err.value.message


def test_parse_oneform_component_error_index():
    with pytest.raises(FormSyntaxError) as err:
        parse_oneform(["0", "x +", "1"])
    assert err.value.component == 1
    assert err.value.message == "expected an operand, found end of input"
    assert str(err.value) == "component 1: expected an operand, found end of input (column 4)"


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
            g = f.differentiate(p)[1]
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
