"""Tiny text DSL for scalar fields and one-form components.

Grammar (standard precedence, ^ right-associative and tighter than
unary minus):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are the chart variables, the constants ``pi`` and ``e``,
or the functions sin, cos, tan, exp, ln, sqrt, abs.  Angles are in
radians.  Domain errors (ln/sqrt of a negative, division by zero)
surface at evaluation time, not parse time.
"""

from __future__ import annotations

import math

from . import autodiff
from .calculus import OneForm, ScalarField
from .errors import EvaluationDomainError, FormSyntaxError

CHARTS = {
    "spatial": ("x", "y", "z"),
    "spacetime": ("t", "x", "y"),
}

CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = autodiff.FUNCTIONS


def chart_variables(chart):
    try:
        return CHARTS[chart]
    except KeyError:
        raise FormSyntaxError(f"unknown chart {chart!r}", 1) from None


# -- AST ---------------------------------------------------------------


class Num:
    def __init__(self, value):
        self.value = value

    def eval(self, env):
        return self.value

    def text(self):
        return repr(self.value)


class Const:
    def __init__(self, name):
        self.name = name

    def eval(self, env):
        return CONSTANTS[self.name]

    def text(self):
        return self.name


class Var:
    def __init__(self, name):
        self.name = name

    def eval(self, env):
        return env[self.name]

    def text(self):
        return self.name


class Neg:
    def __init__(self, operand):
        self.operand = operand

    def eval(self, env):
        return -self.operand.eval(env)

    def text(self):
        return f"(-{self.operand.text()})"


class BinOp:
    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def eval(self, env):
        a = self.left.eval(env)
        b = self.right.eval(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        return _power(a, b)

    def text(self):
        return f"({self.left.text()} {self.op} {self.right.text()})"


def _power(a, b):
    """``a ** b``; two constants follow a Dual's rule for a negative base.

    Python's ``**`` gives a complex number for a negative base and a finite
    fractional exponent, where a ``Dual`` base raises the typed domain error.
    """
    if not isinstance(a, autodiff.Dual) and not isinstance(b, autodiff.Dual):
        if a < 0.0 and math.isfinite(b) and b != int(b):
            raise EvaluationDomainError(f"negative base {a} with fractional exponent {b}")
    return a ** b


class Call:
    def __init__(self, name, argument):
        self.name = name
        self.argument = argument

    def eval(self, env):
        return FUNCTIONS[self.name](self.argument.eval(env))

    def text(self):
        return f"{self.name}({self.argument.text()})"


# -- lexer -------------------------------------------------------------

_OPS = set("+-*/^()")


class _Token:
    __slots__ = ("kind", "value", "column")

    def __init__(self, kind, value, column):
        self.kind = kind
        self.value = value
        self.column = column


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        col = i + 1
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, col))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                value = float(lexeme)
            except ValueError:
                raise FormSyntaxError(f"malformed number {lexeme!r}", col)
            tokens.append(_Token("number", value, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], col))
            i = j
            continue
        raise FormSyntaxError(f"unexpected character {ch!r}", col)
    tokens.append(_Token("eof", None, n + 1))
    return tokens


# -- parser ------------------------------------------------------------


_MAX_DEPTH = 200


class _Parser:
    def __init__(self, text, variables):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = variables
        self.depth = 0

    def peek(self):
        return self.tokens[min(self.pos, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.peek()
        if tok.kind != "op" or tok.value != op:
            found = "end of input" if tok.kind == "eof" else repr(tok.value)
            raise FormSyntaxError(f"expected {op!r}, found {found}", tok.column)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise FormSyntaxError(f"unexpected trailing input {tok.value!r}", tok.column)
        return node

    def expr(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise FormSyntaxError("expression too deeply nested", self.peek().column)
        try:
            node = self.term()
            while self.peek().kind == "op" and self.peek().value in "+-":
                op = self.advance().value
                node = BinOp(op, node, self.term())
            return node
        finally:
            self.depth -= 1

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().value in "*/":
            op = self.advance().value
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                raise FormSyntaxError("expression too deeply nested", tok.column)
            try:
                self.advance()
                return Neg(self.unary())
            finally:
                self.depth -= 1
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            self.advance()
            node = BinOp("^", node, self.unary())
        return node

    def atom(self):
        tok = self.advance()
        if tok.kind == "number":
            return Num(tok.value)
        if tok.kind == "ident":
            name = tok.value
            if self.peek().kind == "op" and self.peek().value == "(":
                if name not in FUNCTIONS:
                    raise FormSyntaxError(f"unknown function {name!r}", tok.column)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(name, arg)
            if name in CONSTANTS:
                return Const(name)
            if name in self.variables:
                return Var(name)
            all_vars = {v for vs in CHARTS.values() for v in vs}
            if name in all_vars:
                raise FormSyntaxError(
                    f"variable {name!r} does not belong to this chart "
                    f"(expected one of {', '.join(self.variables)})",
                    tok.column,
                )
            raise FormSyntaxError(f"unknown identifier {name!r}", tok.column)
        if tok.kind == "op" and tok.value == "(":
            try:
                node = self.expr()
                self.expect_op(")")
            except FormSyntaxError:
                if self.peek().kind == "eof":
                    raise FormSyntaxError("unclosed parenthesis", tok.column) from None
                raise
            return node
        found = "end of input" if tok.kind == "eof" else repr(tok.value)
        raise FormSyntaxError(f"expected an operand, found {found}", tok.column)


def parse_expression(text, chart="spatial"):
    """Parse text into an AST over the chart's variables."""
    if not isinstance(text, str) or not text.strip():
        raise FormSyntaxError("empty expression", 1)
    return _Parser(text, chart_variables(chart)).parse()


def pretty(node):
    """Fully parenthesized text that re-parses to an equivalent AST."""
    return node.text()


def expression_field(node, chart="spatial"):
    """Wrap a parsed AST as a ScalarField on the chart."""
    names = chart_variables(chart)

    def fn(c1, c2, c3):
        return node.eval({names[0]: c1, names[1]: c2, names[2]: c3})

    return ScalarField(fn, chart)


def parse_scalar(text, chart="spatial"):
    """Parse text into a ScalarField with exact dual-number derivatives."""
    return expression_field(parse_expression(text, chart), chart)


def parse_oneform(texts, chart="spatial"):
    """Parse 3 component strings into a OneForm over the chart."""
    if len(texts) != 3:
        raise FormSyntaxError("a one-form needs exactly 3 component strings", 1)
    fields = []
    for idx, text in enumerate(texts):
        try:
            fields.append(parse_scalar(text, chart))
        except FormSyntaxError as err:
            raise FormSyntaxError(str(err).rsplit(" (column", 1)[0], err.column, component=idx) from None
    return OneForm(fields, chart=chart)
