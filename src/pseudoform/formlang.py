"""Tiny text DSL for scalar fields and one-form components.

A token is an operator ``+ - * / ^ ( )``, a number (decimal digits and
dots, then an optional exponent such as ``e-3``) or a word that starts with
a letter or ``_``; white space separates tokens, and any other character, a
non-decimal digit such as ``²`` too, is a syntax error.  Operands (numbers,
identifiers, calls ``f(expr)`` and ``(expr)``) are joined by, from loosest
to tightest, ``+ -``, ``* /``, unary minus and ``^``; ``+ - * /`` group to
the left and ``^`` to the right, with a unary as its right operand, so
``-x^2`` is ``-(x^2)`` and ``2^-x^2`` is ``2^(-(x^2))``.

Identifiers are the chart variables, the constants ``pi`` and ``e``
(parsed to the numbers ``math.pi`` and ``math.e``), or the functions sin,
cos, tan, exp, ln, sqrt, abs.  Angles are in radians.  Domain errors
(ln/sqrt of a negative, division by zero) surface at evaluation time, not
parse time.

``expression_field`` wraps a parsed tree as a ``ScalarField`` whose
function, the tree's value, gradient and Hessian in straight-line Python
(``formcode``), is compiled on its first call; a one-form built on such
fields compiles its flat jet from their trees when it is built.  Only a
tree without a chart variable is compiled, and evaluated, at parse time.
"""

from __future__ import annotations

import math
import re

from .calculus import OneForm, ScalarField
from .errors import FormSyntaxError, describe

CHARTS = {
    "spatial": ("x", "y", "z"),
    "spacetime": ("t", "x", "y"),
}

CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")


def chart_variables(chart):
    try:
        return CHARTS[chart]
    except (KeyError, TypeError):  # TypeError: an unhashable chart
        raise FormSyntaxError(f"unknown chart {describe(chart)}", 1) from None


# -- AST ---------------------------------------------------------------


class Num:
    depth = 1  # levels of the tree below and including this node
    varies = False  # whether the tree holds a chart variable

    def __init__(self, value):
        self.value = value

    def emit(self, code):
        return code.constant(self.value)


class Var:
    depth = 1
    varies = True

    def __init__(self, name):
        self.name = name

    def emit(self, code):
        return code.variable(self.name)


class Neg:
    def __init__(self, operand):
        self.operand = operand
        self.depth = operand.depth + 1
        self.varies = operand.varies

    def emit(self, code):
        return code.negate(self.operand.emit(code))


class BinOp:
    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right
        self.depth = max(left.depth, right.depth) + 1
        self.varies = left.varies or right.varies

    def emit(self, code):
        return code.binop(self.op, self.left.emit(code), self.right.emit(code))


class Call:
    def __init__(self, name, argument):
        self.name = name
        self.argument = argument
        self.depth = argument.depth + 1
        self.varies = argument.varies

    def emit(self, code):
        return code.call(self.name, self.argument.emit(code))


# -- lexer -------------------------------------------------------------

# One token per match, after any white space: an operator, a number, or a
# word or any other character, which _lex refuses unless it starts with a
# letter or "_".
_TOKEN = re.compile(r"\s*(?:([-+*/^()])|([\d.]+(?:[eE][+-]?\d+)?)|(\w+|\S))")


def _lex(text):
    """``text`` as ``(kind, value, column)`` tokens, ending with ``eof``; an
    operator's kind is the operator itself."""
    tokens = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        lexeme = match[group]
        column = match.start(group) + 1
        if group == 1:
            tokens.append((lexeme, lexeme, column))
        elif group == 2:
            try:
                tokens.append(("number", float(lexeme), column))
            except ValueError:
                raise FormSyntaxError(f"malformed number {lexeme!r}", column) from None
        elif lexeme[0].isalpha() or lexeme[0] == "_":
            tokens.append(("ident", lexeme, column))
        else:
            raise FormSyntaxError(f"unexpected character {lexeme[0]!r}", column)
    tokens.append(("eof", None, len(text) + 1))
    return tokens


# -- parser ------------------------------------------------------------

# The binding levels of the grammar, binary operators by their symbol.
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY = 3

# How deep an expression may nest, in two limits.  The parser recurses at
# most 5 frames per parenthesis or function call (an operand on each binding
# level, the atom and the group) and 1 per unary minus or exponent, so
# _MAX_NESTING of those keeps parsing inside Python's recursion limit.
# Every later pass over the tree (compiling, walking, printing) recurses
# about once per level of the tree, where each link of a + or * chain is a
# level, so _MAX_TREE_DEPTH bounds that.  Both leave 200 frames spare.
_MAX_NESTING = 150
_MAX_TREE_DEPTH = 750


class _Parser:
    def __init__(self, text, variables):
        self.tokens = _lex(text)
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        if token[0] != "eof":
            self.pos += 1
        return token

    def group(self, depth):
        """The expression after a '(' and its ')', one level below ``depth``."""
        node = self.operand(1, depth + 1, self.peek())
        kind, value, column = self.peek()
        if kind != ")":
            found = "end of input" if kind == "eof" else repr(value)
            raise FormSyntaxError(f"expected ')', found {found}", column)
        self.pos += 1
        return node

    def parse(self):
        node = self.operand(1, 1, self.peek())
        kind, value, column = self.peek()
        if kind != "eof":
            raise FormSyntaxError(f"unexpected trailing input {value!r}", column)
        return node

    def built(self, node, token):
        """``node``, refused at ``token`` when its tree is too deep."""
        if node.depth > _MAX_TREE_DEPTH:
            raise FormSyntaxError("expression too deeply nested", token[2])
        return node

    def operand(self, floor, depth, entry):
        """The longest expression from here whose operators bind at ``floor`` or
        tighter, ``depth`` levels deep: refused at ``entry`` past _MAX_NESTING."""
        if depth > _MAX_NESTING:
            raise FormSyntaxError("expression too deeply nested", entry[2])
        token = self.advance()
        if token[0] == "-":
            node = self.built(Neg(self.operand(_UNARY, depth + 1, token)), token)
        else:
            node = self.atom(token, depth)
        while _BINDING.get(self.peek()[0], 0) >= floor:
            token = self.advance()
            op = token[0]
            if op == "^":
                right = self.operand(_UNARY, depth + 1, token)
            else:
                right = self.operand(_BINDING[op] + 1, depth, token)
            node = self.built(BinOp(op, node, right), token)
        return node

    def atom(self, token, depth):
        kind, name, column = token
        if kind == "number":
            return Num(token[1])
        if kind == "(":
            try:
                return self.group(depth)
            except FormSyntaxError:
                if self.peek()[0] == "eof":
                    raise FormSyntaxError("unclosed parenthesis", column) from None
                raise
        if kind != "ident":
            found = "end of input" if kind == "eof" else repr(name)
            raise FormSyntaxError(f"expected an operand, found {found}", column)
        if self.peek()[0] == "(":
            if name not in FUNCTIONS:
                raise FormSyntaxError(f"unknown function {name!r}", column)
            self.advance()
            return self.built(Call(name, self.group(depth)), token)
        if name in CONSTANTS:
            return Num(CONSTANTS[name])
        if name in self.variables:
            return Var(name)
        if any(name in names for names in CHARTS.values()):
            raise FormSyntaxError(f"variable {name!r} does not belong to this chart (expected "
                                  f"one of {', '.join(self.variables)})", column)
        raise FormSyntaxError(f"unknown identifier {name!r}", column)


def parse_expression(text, chart="spatial"):
    """Parse text into an AST over the chart's variables."""
    if not isinstance(text, str):
        raise FormSyntaxError(f"an expression must be a string, got {describe(text)}", 1)
    if not text.strip():
        raise FormSyntaxError("empty expression", 1)
    return _Parser(text, chart_variables(chart)).parse()


def expression_field(node, chart="spatial"):
    """A parsed AST as a ScalarField on the chart, its function compiled on
    its first call (a constant tree's at once, and evaluated once)."""
    # imported on first use, so a CLI call that parses no expression never loads it
    from .formcode import compile_field

    return ScalarField(compile_field(node, chart_variables(chart)), chart, node)


def parse_scalar(text, chart="spatial"):
    """Parse text into a ScalarField with exact compiled derivatives."""
    return expression_field(parse_expression(text, chart), chart)


def parse_oneform(texts, chart="spatial"):
    """Parse 3 component strings into a OneForm over the chart."""
    if not isinstance(texts, (list, tuple)):
        raise FormSyntaxError(f"a one-form needs a list of 3 component strings, "
                              f"got {describe(texts)}", 1)
    if len(texts) != 3:
        raise FormSyntaxError("a one-form needs exactly 3 component strings", 1)
    chart_variables(chart)  # a bad chart is the form's error, not its first component's
    fields = []
    for idx, text in enumerate(texts):
        try:
            fields.append(parse_scalar(text, chart))
        except FormSyntaxError as err:
            raise FormSyntaxError(err.message, err.column, component=idx) from None
    return OneForm(fields, chart=chart)
