"""Tiny text DSL for scalar fields and one-form components, compiled at parse time.

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

``expression_field`` compiles a parsed tree, once, into one
straight-line Python function for its value, gradient and Hessian
(``formcode``) and wraps it as a ``ScalarField``.
"""

from __future__ import annotations

import math

from .calculus import OneForm, ScalarField
from .errors import FormSyntaxError

CHARTS = {
    "spatial": ("x", "y", "z"),
    "spacetime": ("t", "x", "y"),
}

CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")


def chart_variables(chart):
    try:
        return CHARTS[chart]
    except KeyError:
        raise FormSyntaxError(f"unknown chart {chart!r}", 1) from None


# -- AST ---------------------------------------------------------------


class Num:
    depth = 1  # levels of the tree below and including this node

    def __init__(self, value):
        self.value = value

    def emit(self, code):
        return code.constant(self.value)


class Const:
    depth = 1

    def __init__(self, name):
        self.name = name

    def emit(self, code):
        return code.constant(CONSTANTS[self.name])


class Var:
    depth = 1

    def __init__(self, name):
        self.name = name

    def emit(self, code):
        return code.variable(self.name)


class Neg:
    def __init__(self, operand):
        self.operand = operand
        self.depth = operand.depth + 1

    def emit(self, code):
        return code.negate(self.operand.emit(code))


class BinOp:
    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right
        self.depth = max(left.depth, right.depth) + 1

    def emit(self, code):
        return code.binop(self.op, self.left.emit(code), self.right.emit(code))


class Call:
    def __init__(self, name, argument):
        self.name = name
        self.argument = argument
        self.depth = argument.depth + 1

    def emit(self, code):
        return code.call(self.name, self.argument.emit(code))


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


# How deep an expression may nest, in two limits.  The parser recurses up
# to 5 frames per parenthesis, function call, unary minus or exponent, so
# _MAX_NESTING of those keeps parsing inside Python's recursion limit.
# Every later pass over the tree (compiling, walking, printing) recurses
# about once per level of the tree, where each link of a + or * chain is a
# level, so _MAX_TREE_DEPTH bounds that.  Both leave 200 frames spare.
_MAX_NESTING = 150
_MAX_TREE_DEPTH = 750


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

    def descend(self, tok):
        """Enter one more level of parser recursion."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise FormSyntaxError("expression too deeply nested", tok.column)

    def built(self, node, tok):
        """``node``, refused when its tree is too deep."""
        if node.depth > _MAX_TREE_DEPTH:
            raise FormSyntaxError("expression too deeply nested", tok.column)
        return node

    def expr(self):
        self.descend(self.peek())
        node = self.term()
        while self.peek().kind == "op" and self.peek().value in "+-":
            tok = self.advance()
            node = self.built(BinOp(tok.value, node, self.term()), tok)
        self.depth -= 1
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().value in "*/":
            tok = self.advance()
            node = self.built(BinOp(tok.value, node, self.unary()), tok)
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind != "op" or tok.value != "-":
            return self.power()
        self.descend(self.advance())
        node = self.built(Neg(self.unary()), tok)
        self.depth -= 1
        return node

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            self.descend(self.advance())
            node = self.built(BinOp("^", node, self.unary()), tok)
            self.depth -= 1
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
                return self.built(Call(name, arg), tok)
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


def expression_field(node, chart="spatial"):
    """Compile a parsed AST into a ScalarField on the chart."""
    # imported on first use, so a CLI call that parses no expression never loads it
    from .formcode import compile_field

    return ScalarField(compile_field(node, chart_variables(chart)), chart)


def parse_scalar(text, chart="spatial"):
    """Parse text into a ScalarField with exact compiled derivatives."""
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
