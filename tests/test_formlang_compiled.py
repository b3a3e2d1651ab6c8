"""Compiled formlang fields against the tree walk on Dual numbers.

For every input, either both routes raise the same error type with the
same message, or their results compare equal with ``==``; a field's own
routes (``fn``, ``value`` and ``differentiate``) equal the walk's IEEE
bits, with every NaN counted as one pattern.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoform import autodiff, formcode, formlang
from pseudoform.calculus import OneForm, _check_finite, _domain_error, gradient_oneform
from pseudoform.errors import EvaluationDomainError, FormSyntaxError
from pseudoform.formcode import field_source
from pseudoform.formlang import expression_field, parse_expression

from formlang_reference import pretty, walked_field
from test_autodiff import DOMAIN_FAILURES, ORDER_EXPRESSIONS, ORDER_POINTS, _subexpressions

# NaN and infinite constant exponents are no integers, at a zero, positive or negative base
EXTRA_CASES = ["1e999*x", "0^(0-1)", "(0-8)^0.5", "1/0", "x^(0*1e999)", "(0-x)^(0*1e999)",
               "x^1e999", "(0-x)^(0-1e999)",
               # constants evaluated once at compile time, whose failures still come at evaluation
               "10^400", "ln(0)", "(-8)^(1/3)", "1e999", "0*1e999",
               # operands that raise different errors, so the order of a jet's trees shows
               "ln(x - 5) * sqrt(x - 5)"]
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


def _bits(result):
    """A plain result's floats as their IEEE bytes, so -0.0 differs from 0.0;
    every NaN packs as one pattern."""
    if isinstance(result, list):
        return b"".join(map(_bits, result))
    return struct.pack("<d", math.nan if math.isnan(result) else result)


_FIELD_ROUTES = ("fn", "value", "differentiate")  # the walk written out, bit for bit


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


_CONSTANT = parse_expression("pi/2")


def _mixed(make, node):
    """Three different trees for one one-form: a subexpression of ``node``
    (its last operand, so that an error of its own comes before the whole
    expression's first one), ``node`` and a constant."""
    sub = next((getattr(node, name) for name in ("right", "operand", "argument")
                if hasattr(node, name)), node)
    return [make(sub), make(node), make(_CONSTANT)]


def _component_jet(fields, p):
    """A one-form's values and Jacobian rows from each field's own function,
    called in order, with the errors and the finiteness check of a flat jet."""
    try:
        duals = [field.fn(*p) for field in fields]
    except (OverflowError, ZeroDivisionError) as err:
        raise _domain_error(err, p) from err
    values, grads = tuple(d.v for d in duals), [d.grad for d in duals]
    _check_finite(p, *values, *(g for grad in grads for g in grad))
    return values, tuple(zip(*grads))


def assert_equivalent(node, p):
    compiled = _calls(expression_field(node), p)
    walked = _calls(walked_field(node), p)
    # one jet writes the three trees in turn: its names, error order and fallback
    compiled["mixed"] = lambda: OneForm(_mixed(expression_field, node)).values_and_jacobian(p)
    walked["mixed"] = lambda: _component_jet(_mixed(walked_field, node), p)
    for route in compiled:
        got, want = _outcome(compiled[route]), _outcome(walked[route])
        assert got[0] == want[0] and _same(list(got[1:]), list(want[1:])), (
            pretty(node), p, route, got, want)
        if route in _FIELD_ROUTES and got[0] == "ok":
            assert _bits(got[1]) == _bits(want[1]), (pretty(node), p, route, got, want)


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
    nodes = (formlang.Num, formlang.Var, formlang.Neg, formlang.BinOp, formlang.Call)
    assert not any(hasattr(cls, "eval") for cls in nodes)
    walked = []

    def counted(emit):
        def walk(node, code):
            walked.append(node)
            return emit(node, code)

        return walk

    for cls in nodes:
        monkeypatch.setattr(cls, "emit", counted(cls.emit))
    fields = [formlang.parse_scalar(text) for text in ["x^2 + sin(y*z)", "ln(x)", "1e999*x"]]
    assert walked == []  # a parse writes no source for a tree with a variable

    def walks(field):
        before = len(walked)
        try:
            field.fn(0.5, 0.25, 2.0)
        except ArithmeticError:
            pass
        return len(walked) - before

    # the tree is written out once, at the first evaluation
    for field in fields:
        first, *later = [walks(field) for _ in range(3)]
        assert first > 0 and later == [0, 0]


def test_a_parse_writes_no_source_and_the_first_call_writes_one(monkeypatch):
    sources, function = [], formcode._function
    monkeypatch.setattr(formcode, "_function",
                        lambda source, *rest: sources.append(source) or function(source, *rest))
    field = formlang.parse_scalar("1e999*x + sin(y*z)")
    assert sources == []
    for _ in range(2):
        field.fn(0.5, 0.25, 2.0)
    assert sources == [field_source(field.node, ("x", "y", "z"))[0]]
    assert "_exact" not in sources[0] and "(0.0 * _K[0])" in sources[0]  # nothing folded


def test_a_jet_evaluates_its_own_unfolded_twin_and_no_field_function(monkeypatch):
    sources, function = [], formcode._function
    monkeypatch.setattr(formcode, "_function",
                        lambda source, *rest: sources.append(source) or function(source, *rest))
    theta = formlang.parse_oneform(["1e999*x", "y", "1"])
    assert len(sources) == 2  # the constant, evaluated at parse, and the folded jet
    calls = []
    for field in theta.components:
        monkeypatch.setattr(field, "fn", lambda *p: calls.append(p))
    # d/dy of 1e999*x is 0 * inf = NaN, which the folded jet reads as 0
    for _ in range(2):
        with pytest.raises(EvaluationDomainError, match="non-finite field value"):
            theta.flat_jet((0.5, 0.25, 2.0))
    assert len(sources) == 3 and "_exact" in sources[1] and "_exact" not in sources[2]
    assert calls == []


@pytest.mark.parametrize("text", ["0", "pi/2", "sin(1)*e"])
def test_a_constant_runs_its_straight_line_code_once_per_parse(monkeypatch, text):
    runs, function = [], formcode._function

    def counted(*args):
        fn = function(*args)
        return lambda *p: runs.append(p) or fn(*p)

    monkeypatch.setattr(formcode, "_function", counted)
    node = parse_expression(text)
    field, walked = expression_field(node), walked_field(node)
    assert len(runs) == 1
    for p in EXTRA_POINTS + ORDER_POINTS:
        assert _bits(_plain(field.fn(*p))) == _bits(_plain(walked.fn(*p))), p
    assert len(runs) == 1
    for p in EXTRA_POINTS:
        assert_equivalent(node, p)


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
