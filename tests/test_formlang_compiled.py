"""Compiled formlang fields against the tree walk on Dual numbers.

For every input, either both routes raise the same error type with the
same message, or their results compare equal with ``==``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoform import autodiff, formlang
from pseudoform.calculus import OneForm, gradient_oneform
from pseudoform.errors import FormSyntaxError
from pseudoform.formcode import field_source
from pseudoform.formlang import expression_field, parse_expression

from formlang_reference import pretty, walked_field
from test_autodiff import DOMAIN_FAILURES, ORDER_EXPRESSIONS, ORDER_POINTS, _subexpressions

# NaN and infinite constant exponents are no integers, at a zero, positive or negative base
EXTRA_CASES = ["1e999*x", "0^(0-1)", "(0-8)^0.5", "1/0", "x^(0*1e999)", "(0-x)^(0*1e999)",
               "x^1e999", "(0-x)^(0-1e999)"]
EXTRA_POINTS = [(0.7, 1.3, 0.4), (0.0, -2.0, 1.0), (-0.0, 0.0, 0.0)]


def _plain(result):
    """A result as nested lists of floats; NaN compares equal to NaN."""
    if isinstance(result, autodiff.Dual):
        return [result.v, list(result.grad), list(result.hess)]
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, tuple):
        return [_plain(r) for r in result]
    return result


def _same(a, b):
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def _outcome(call):
    try:
        return "ok", _plain(call())
    except Exception as err:  # the type and message are compared
        return "raised", type(err), str(err)


def _calls(field, p):
    """Every evaluation route of a field at p."""
    form, df = OneForm([field, field, field]), gradient_oneform(field)
    return {
        "fn": lambda: field.fn(*p),
        "value": lambda: field.value(p),
        "differentiate": lambda: field.differentiate(p),
        "components_at": lambda: form.components_at(p),
        "values_and_jacobian": lambda: form.values_and_jacobian(p),
        "gradient components_at": lambda: df.components_at(p),
        "gradient values_and_jacobian": lambda: df.values_and_jacobian(p),
    }


def assert_equivalent(node, p):
    compiled = _calls(expression_field(node), p)
    walked = _calls(walked_field(node), p)
    for route in compiled:
        got, want = _outcome(compiled[route]), _outcome(walked[route])
        assert got[0] == want[0] and _same(list(got[1:]), list(want[1:])), (
            pretty(node), p, route, got, want)


@pytest.mark.parametrize("text", ORDER_EXPRESSIONS)
def test_every_subexpression_matches_the_walk(text):
    for sub in _subexpressions(parse_expression(text)):
        for p in ORDER_POINTS:
            assert_equivalent(sub, p)


@pytest.mark.parametrize("text, p", DOMAIN_FAILURES)
def test_domain_failures_match_the_walk(text, p):
    assert_equivalent(parse_expression(text), p)


@pytest.mark.parametrize("text", EXTRA_CASES)
def test_non_finite_literals_and_constant_errors_match_the_walk(text):
    for p in EXTRA_POINTS:
        assert_equivalent(parse_expression(text), p)


def test_a_non_finite_literal_stays_out_of_the_source():
    source, constants = field_source(parse_expression("1e999*x"), ("x", "y", "z"))
    assert "inf" not in source and constants == (math.inf,)
    with pytest.raises(Exception, match="non-finite field value"):
        formlang.parse_scalar("1e999*x").value((1.0, 0.0, 0.0))


def test_a_folded_zero_times_infinity_is_nan_as_in_the_walk():
    # d/dy of 2*(x + 1e999) is 0 * inf = NaN on Dual numbers; folding it to 0
    # would let values_and_jacobian(), which reads no Hessian, return where
    # the walk raises
    f = formlang.parse_scalar("1/(2*(x + 1e999)) + y")
    with pytest.raises(Exception, match="non-finite field value"):
        OneForm([f, f, f]).values_and_jacobian((0.5, 0.5, 0.5))
    assert f.value((0.5, 0.5, 0.5)) == 0.5


def test_dense_hessians_keep_the_dual_association():
    # products and quotients of factors whose gradients fill every entry, so
    # that an entry summed in another order than Dual's shows in the last bit
    rng = np.random.default_rng(5)
    for text in ["sin(x*y + z) * exp(x - 2*y*z)", "(x + 2*y - z)^3 / (1 + x*x + y*z*z)",
                 "(x*y*z + y) ^ (0.5 + 0.1*z*x)"]:
        node = parse_expression(text)
        for p in rng.uniform(0.2, 1.5, size=(100, 3)):
            assert_equivalent(node, tuple(p.tolist()))


def test_no_tree_node_evaluates_and_evaluation_walks_no_tree(monkeypatch):
    nodes = (formlang.Num, formlang.Const, formlang.Var, formlang.Neg, formlang.BinOp,
             formlang.Call)
    assert not any(hasattr(cls, "eval") for cls in nodes)
    fields = [formlang.parse_scalar(text) for text in ["x^2 + sin(y*z)", "1e999*x", "ln(x)"]]

    def refuse(*_):
        raise AssertionError("a tree was walked during evaluation")

    for cls in nodes:
        monkeypatch.setattr(cls, "emit", refuse)
    for field in fields:
        try:
            field.fn(0.5, 0.25, 2.0)
        except ArithmeticError:
            pass


# -- hypothesis: every operator and function, constants that reach the edge cases

_leaf = st.one_of(
    st.sampled_from(["x", "y", "z", "pi", "e", "0", "1", "2", "3", "0.5", "1e999", "1e-200"]),
    st.floats(min_value=0.0, max_value=9.0).map(lambda v: f"{v:.3f}"),
)


def _expr_strategy():
    return st.recursive(
        _leaf,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^"]), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            st.tuples(st.sampled_from(formlang.FUNCTIONS), inner).map(lambda t: f"{t[0]}({t[1]})"),
            inner.map(lambda s: f"-({s})"),
        ),
        max_leaves=10,
    )


_coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e-200]),
    st.floats(min_value=-3.0, max_value=3.0),
)


@settings(max_examples=250, deadline=None)
@given(_expr_strategy(), st.tuples(_coordinate, _coordinate, _coordinate))
def test_random_expressions_match_the_walk(text, p):
    assert_equivalent(parse_expression(text), p)


# -- the nesting limits: the parser's recursion, and the tree's depth with
# every link of a chain counted


def _nested(nesting, depth):
    """Inputs ``nesting`` deep in the parser's recursion or ``depth`` deep in the tree."""
    n, d = nesting - 1, depth - 1  # levels past the outermost
    links, rest = divmod(d, n)
    return {
        "sum": "1" + "+x" * d,
        "product": "x" + "*y" * d,
        "parentheses": "(" * n + "x" + ")" * n,
        "calls": "sin(" * n + "x" + ")" * n,
        "negations": "-" * n + "x",
        "powers": "1.0001^" * n + "x",
        "mixed": "(" * n + "x" + ("+x" * links + ")") * n + "+x" * rest,
    }


_CHAINS = ("sum", "product", "mixed")  # as deep as the tree limit allows


@pytest.mark.parametrize("shape", sorted(_nested(3, 3)))
def test_the_deepest_accepted_input_compiles_and_matches_the_walk(shape):
    node = parse_expression(_nested(formlang._MAX_NESTING, formlang._MAX_TREE_DEPTH)[shape])
    depth = {"parentheses": 1}.get(shape, formlang._MAX_NESTING)
    assert node.depth == (formlang._MAX_TREE_DEPTH if shape in _CHAINS else depth)
    assert_equivalent(node, (0.5, 0.25, 0.75))
    assert pretty(node)


@pytest.mark.parametrize("shape", sorted(_nested(3, 3)))
def test_one_level_past_the_limit_is_a_syntax_error(shape):
    texts = _nested(formlang._MAX_NESTING + 1, formlang._MAX_TREE_DEPTH + 1)
    with pytest.raises(FormSyntaxError, match="expression too deeply nested"):
        parse_expression(texts[shape])


def test_a_shallow_tree_with_many_folded_terms_compiles():
    # 1024 quotients 13 levels deep: the finiteness check sums thousands of
    # multipliers, more than Python compiles as one a + b + ... chain
    text = "x/(y+2)"
    for _ in range(10):
        text = f"({text})+({text})"
    node = parse_expression(text)
    assert node.depth == 13
    assert_equivalent(node, (0.5, 0.25, 0.75))
