"""Reference evaluation of formlang trees: a walk on ``Dual`` numbers.

This is how ``formlang`` evaluated fields before it compiled them; the
compiled code must give the same results and raise the same errors.
"""

import math

from pseudoform import autodiff
from pseudoform.calculus import ScalarField
from pseudoform.errors import EvaluationDomainError
from pseudoform.formlang import CONSTANTS, BinOp, Call, Const, Neg, Num, Var, chart_variables

FUNCTIONS = {
    "sin": autodiff.sin,
    "cos": autodiff.cos,
    "tan": autodiff.tan,
    "exp": autodiff.exp,
    "ln": autodiff.log,
    "sqrt": autodiff.sqrt,
    "abs": autodiff.fabs,
}


def power(a, b):
    """``a ** b``; two constants follow a Dual's rule for a negative base.

    Python's ``**`` gives a complex number for a negative base and a finite
    fractional exponent, where a ``Dual`` base raises the typed domain error.
    """
    if not isinstance(a, autodiff.Dual) and not isinstance(b, autodiff.Dual):
        if a < 0.0 and math.isfinite(b) and b != int(b):
            raise EvaluationDomainError(f"negative base {a} with fractional exponent {b}")
    return a ** b


def walk(node, env):
    """The value of ``node`` with the variables bound by ``env`` (name -> Dual or float)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -walk(node.operand, env)
    if isinstance(node, Call):
        return FUNCTIONS[node.name](walk(node.argument, env))
    assert isinstance(node, BinOp)
    a = walk(node.left, env)
    b = walk(node.right, env)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return power(a, b)


def walked_field(node, chart="spatial"):
    """``node`` as a ScalarField that walks the tree on every evaluation."""
    names = chart_variables(chart)
    return ScalarField(lambda *seeds: walk(node, dict(zip(names, seeds))), chart)
