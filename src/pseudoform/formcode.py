"""Straight-line derivative code for formlang trees: the library's one derivative engine.

Each function is written from parsed trees as Python source and
compiled (Griewank & Walther, *Evaluating Derivatives*, ch. 6, source
transformation) at the order its caller reads (ch. 13).
``compile_jet`` writes a Pfaffian's ``flat_jet``: a one-form's three
trees at first order (no Hessian entry, no ``Dual``, but every line that
can raise) or a level set's tree at second order.  ``compile_field``
writes a field's own function, the tree walk written out, which returns
the value, the gradient and the Hessian as one ``Dual`` record, with zero
derivatives for an expression without variables.  Both take a point's
three floats, compute with ``math`` and use the formulas and operation
order of the second-order forward-mode ``Dual`` arithmetic that the
tests keep as the reference (``tests/formlang_reference.py``), so their
results equal a walk of the tree on those numbers, a field's bit for bit:

* A jet alone folds away the derivative entries that are zero at every
  point.  A folded term ``0 * m`` is exactly zero only for finite ``m``,
  so the jet sums every such ``m``; when the sum is not finite, it
  evaluates again through its unfolded twin, the same trees written with
  nothing folded, compiled at the first such point.  Otherwise only the
  sign of a zero derivative entry can differ.
* Everything that can raise (division, ``**``, ``math`` calls and the
  domain checks) runs in the tree's order, folded or not, with the
  reference's messages.
* The source holds only names the generator makes; finite literals are
  written with ``repr`` and non-finite ones (``1e999``) read from a
  constants tuple.
* A field's function is compiled on its first call, except for a tree
  without a chart variable: that is evaluated once, at parse, and its
  function returns that one record at every point.  If that evaluation
  raises, the straight-line function is kept, and it raises at every
  point as before.

The tree's nodes (``formlang``) call the ``_Code`` method of their
operation from ``emit``; this module knows no node class.
"""

from __future__ import annotations

import math

from .autodiff import Dual
from .calculus import _check_finite, _domain_error
from .errors import EvaluationDomainError
from .formlang import CHARTS

_ONE = "1.0"
_CHAIN_TERMS = 32  # longest finiteness check written as a + b + ...


def _is_literal(expr):
    # the repr of a finite float >= 0: every composite expression holds a space
    return expr[0].isdigit() and " " not in expr


def _atomic(expr):
    return expr is None or expr.isidentifier() or _is_literal(expr)


def _negated(expr):
    return None if expr is None else f"(-{expr})"


def _indent(lines):
    return ["    " + line for line in lines]


def _cases(cases):
    """if/elif/else lines from (condition, body) pairs, in order.

    A condition known at generation time is True or False: False drops
    its case and True ends the chain as ``else`` (or as the bare body).
    """
    lines = []
    for condition, body in cases:
        if condition is False:
            continue
        if condition is True:
            return lines + ["else:"] + _indent(body) if lines else body
        lines += [f"{'elif' if lines else 'if'} {condition}:"] + _indent(body)
    return lines


class _Term:
    """The code of one subexpression.

    ``value`` is a local name or a literal.  ``grad`` (3 entries) and
    ``hess`` (9, row-major) hold a name, a literal or an expression per
    entry, and None for an entry folded as zero.
    ``grad`` is None for a constant, which the tree walk keeps as a
    plain float.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad=None, hess=None):
        self.value = value
        self.grad = grad
        self.hess = hess


class _Code:
    """Straight-line statements for one expression."""

    def __init__(self, variables, fold, second=True):
        self.variables = variables
        self.zero = None if fold else "0.0"  # an entry that no point makes nonzero
        self.second = second  # write Hessian entries; at first order every ``hess`` is None
        self.zeros = [self.zero] * 9 if second else None  # a constant's Hessian
        self.constants = []  # non-finite literals, read from _K
        self.lines = []
        self.checked = {}  # m of each folded term 0 * m, in order
        self.count = 0

    def fresh(self):
        self.count += 1
        return f"t{self.count}"

    def name(self, expr):
        """``expr`` held in a new local, or as it is when it is atomic."""
        if _atomic(expr):
            return expr
        local = self.fresh()
        self.lines.append(f"{local} = {expr}")
        return local

    def constant(self, value):
        """A literal: finite ones by ``repr``, others read from the constants tuple."""
        if math.isfinite(value):
            return _Term(repr(value))
        if value not in self.constants:
            self.constants.append(value)
        return _Term(f"_K[{self.constants.index(value)}]")

    def variable(self, name):
        index = self.variables.index(name)
        grad = [self.zero] * 3
        grad[index] = _ONE
        return _Term(f"x{index}", grad, self.zeros)

    def dual(self, value, grad, hess):
        """A Dual's term with every entry held in a local."""
        grad = [self.name(g) for g in grad]
        return _Term(value, grad, hess and [self.name(h) for h in hess])

    def lift(self, term):
        """A constant as a Dual with zero derivatives, as the reference ``_lift``."""
        if term.grad is not None:
            return term
        return _Term(term.value, [self.zero] * 3, self.zeros)

    def check(self, condition, message):
        self.lines += [f"if {condition}:", f"    raise _Domain(f{message!r})"]

    # -- entry arithmetic; None is a folded zero

    def mul(self, a, b):
        if a is None or b is None:
            m = b if a is None else a
            if m is not None and not _is_literal(m):
                self.checked[m] = None
            return None
        if a == _ONE:
            return b
        if b == _ONE:
            return a
        return f"({a} * {b})"

    @staticmethod
    def add(a, b):
        if a is None or b is None:
            return b if a is None else a
        return f"({a} + {b})"

    @staticmethod
    def sub(a, b):
        if b is None:
            return a
        if a is None:
            return _negated(b)
        return f"({a} - {b})"

    # -- Dual operations, in the reference's formulas and order

    def add_terms(self, s, o):
        return self.dual(self.name(f"{s.value} + {o.value}"), map(self.add, s.grad, o.grad),
                         s.hess and map(self.add, s.hess, o.hess))

    def sub_terms(self, s, o):
        return self.dual(self.name(f"{s.value} - {o.value}"), map(self.sub, s.grad, o.grad),
                         s.hess and map(self.sub, s.hess, o.hess))

    def mul_terms(self, s, o):
        av, bv = s.value, o.value
        value = self.name(f"{av} * {bv}")
        hess = None
        if self.second:
            cross = [self.name(self.mul(a, b)) for a in s.grad for b in o.grad]
            hess = [
                self.add(self.add(self.add(self.mul(s.hess[k], bv), self.mul(av, o.hess[k])),
                                  cross[k]), cross[3 * (k % 3) + k // 3])
                for k in range(9)
            ]
        grad = [self.add(self.mul(a, bv), self.mul(av, b)) for a, b in zip(s.grad, o.grad)]
        return self.dual(value, grad, hess)

    def div_terms(self, s, o):
        ov = o.value
        self.check(f"{ov} == 0.0", "division by zero")
        f0 = self.name(f"1.0 / {ov}")
        f1 = self.name(f"-1.0 / {ov} ** 2")
        f2 = self.name(f"2.0 / {ov} ** 3")
        return self.mul_terms(s, self.chain(o, f0, f1, f2))

    def chain(self, u, f0, f1, f2):
        """The reference ``_chain``: f0, f1 and f2 are the value and derivatives at u."""
        g, hess = u.grad, None
        if self.second:
            square = {(i, j): self.name(self.mul(f2, self.mul(g[i], g[j])))
                      for i in range(3) for j in range(i, 3)}
            hess = [self.add(self.mul(f1, u.hess[3 * i + j]), square[min(i, j), max(i, j)])
                    for i in range(3) for j in range(3)]
        return self.dual(f0, [self.mul(f1, g) for g in u.grad], hess)

    def pow_const(self, u, c):
        """The reference ``_pow_const`` with its branches; a literal ``c`` prunes them now."""
        uv = u.value
        if _is_literal(c):
            cv = float(c)
            cases = (cv.is_integer() and cv >= 2, cv == 1, cv == 0)
            square_f2 = "2.0" if cv == 2 else "0.0"
            negative = not cv.is_integer() and f"{uv} < 0.0"
        else:  # is_integer is False for NaN and ±inf, where int(c) would raise
            cases = (f"_is_integer({c}) and {c} >= 2", f"{c} == 1", f"{c} == 0")
            square_f2 = f"2.0 if {c} == 2 else 0.0"
            negative = f"{uv} < 0.0 and not _is_integer({c})"
        r, f1, f2 = self.fresh(), self.fresh(), self.fresh()
        outer, self.lines = self.lines, []
        result = self.chain(u, r, f1, f2)
        chain_lines, self.lines = self.lines, outer
        entries = result.grad + (result.hess or [])
        out = [None if e is None else self.fresh() for e in entries]

        def assign(values):
            return [f"{o} = {v}" for o, v in zip(out, values) if o is not None]

        on_chain = chain_lines + assign(entries)
        at_zero = _cases([
            (cases[0], [f"{r} = 0.0", f"{f1} = 0.0", f"{f2} = {square_f2}"] + on_chain),
            (cases[1], [f"{r} = {uv}", f"{f1} = 0.0", f"{f2} = 0.0"]
             + assign(["0.0" if e is None else e for e in u.grad + (u.hess or [])])),
            (cases[2], [f"{r} = 1.0", f"{f1} = 0.0", f"{f2} = 0.0"] + assign(["0.0"] * len(out))),
            (True, [f'raise _Domain(f"0 raised to power {{{c}}}")']),
        ])
        elsewhere = _cases([(negative, [
            f'raise _Domain(f"negative base {{{uv}}} with fractional exponent {{{c}}}")'])])
        elsewhere += [f"{r} = {uv} ** {c}", f"{f1} = {c} * {uv} ** ({c} - 1)",
                      f"{f2} = {c} * ({c} - 1) * {uv} ** ({c} - 2)"] + on_chain
        self.lines += _cases([(f"{uv} == 0.0", at_zero), (True, elsewhere)])
        return _Term(r, out[:3], out[3:] or None)

    # -- tree nodes

    def negate(self, t):
        value = self.name(f"-{t.value}")
        if t.grad is None:
            return _Term(value)
        return self.dual(value, map(_negated, t.grad), t.hess and map(_negated, t.hess))

    def binop(self, op, a, b):
        if op == "^":
            return self.power(a, b)
        if a.grad is None and b.grad is None:
            return _Term(self.name(f"{a.value} {op} {b.value}"))
        if op in "+*":  # a constant left operand goes to the Dual's __radd__ or __rmul__
            s, o = (a, b) if a.grad is not None else (b, a)
            return (self.add_terms if op == "+" else self.mul_terms)(s, self.lift(o))
        return (self.sub_terms if op == "-" else self.div_terms)(self.lift(a), self.lift(b))

    def power(self, a, b):
        if a.grad is None and b.grad is None:
            av, bv = a.value, b.value
            self.check(f"{av} < 0.0 and _isfinite({bv}) and not _is_integer({bv})",
                       f"negative base {{{av}}} with fractional exponent {{{bv}}}")
            return _Term(self.name(f"{av} ** {bv}"))
        if b.grad is None:
            return self.pow_const(a, b.value)
        # a variable exponent: exp(b ln a), with b's __mul__ as the reference does
        return self.call("exp", self.mul_terms(b, self.lift(self.call("ln", a))))

    def call(self, fname, t):
        v = t.value
        if fname in ("sin", "cos", "tan"):  # math.sin(inf) raises where IEEE gives NaN
            v = self.name(f"_nan if _isinf({v}) else {v}")
        if fname == "ln":
            self.check(f"{v} <= 0.0", f"ln of non-positive value {{{v}}}")
        elif fname == "sqrt":
            self.check(f"{v} < 0.0", f"sqrt of negative value {{{v}}}")
        if t.grad is None:
            return _Term(self.name(f"_{fname}({v})"))
        if fname == "sin":
            s, c = self.name(f"_sin({v})"), self.name(f"_cos({v})")
            return self.chain(t, s, c, self.second and self.name(f"-{s}"))
        if fname == "cos":
            c, s = self.name(f"_cos({v})"), self.name(f"_sin({v})")
            return self.chain(t, c, self.name(f"-{s}"), self.second and self.name(f"-{c}"))
        if fname == "tan":
            tv = self.name(f"_tan({v})")
            sec2 = self.name(f"1.0 + {tv} * {tv}")
            return self.chain(t, tv, sec2, self.second and self.name(f"2.0 * {tv} * {sec2}"))
        if fname == "exp":
            e = self.name(f"_exp({v})")
            return self.chain(t, e, e, e)
        if fname == "ln":
            return self.chain(t, self.name(f"_ln({v})"), self.name(f"1.0 / {v}"),
                              self.name(f"-1.0 / {v} ** 2"))
        if fname == "sqrt":
            self.check(f"{v} == 0.0", "sqrt is not differentiable at 0")
            r = self.name(f"_sqrt({v})")
            return self.chain(t, r, self.name(f"0.5 / {r}"), self.name(f"-0.25 / ({r} * {v})"))
        s = self.name(f"_copysign(1.0, {v}) if {v} != 0.0 else 0.0")  # abs
        return self.chain(t, self.name(f"_abs({v})"), s, self.zero)


_NAMESPACE = {
    "__builtins__": {}, "_Dual": Dual, "_Domain": EvaluationDomainError, "_nan": math.nan,
    "_is_integer": float.is_integer, "_abs": abs, "_sum": sum, "_isinf": math.isinf,
    "_isfinite": math.isfinite, "_copysign": math.copysign, "_sin": math.sin, "_cos": math.cos,
    "_tan": math.tan, "_exp": math.exp, "_ln": math.log, "_sqrt": math.sqrt,
    "_arith": (OverflowError, ZeroDivisionError), "_domain_error": _domain_error,
    "_check_finite": _check_finite,
}


def field_source(node, variables):
    """Source of ``field(x0, x1, x2)`` for ``node``, the walk of the tree at
    second order with nothing folded, and its constants tuple."""
    code = _Code(variables, False)
    term = code.lift(node.emit(code))  # no variables: zero derivatives
    body = code.lines + [f"return _Dual({term.value}, ({', '.join(term.grad)}), "
                         f"({', '.join(term.hess)}))"]
    return "\n".join(["def field(x0, x1, x2):"] + _indent(body)), tuple(code.constants)


def jet_source(fields, gradient=False, fold=True):
    """Source of ``field(p)``, the ``flat_jet`` of the one-form of 3 ``fields``
    (values, then J[i][j] = d_i theta_j, at first order) or of the one
    field's ``gradient`` form (gradient, then Hessian, at second order, its
    value checked too), and its constants tuple.

    The trees are written in turn, one counter naming all their locals; a
    field without one is called as ``_F[k].fn``.  With ``fold`` the zero
    entries are folded away, and the function sums the multipliers of the
    folded zero terms and returns ``_exact(p)``, the function written
    without ``fold``, when that sum is not finite.  Errors are raised and
    floats checked as ``calculus``'s ``_domain_error`` and ``_check_finite``
    do.
    """
    code = _Code(None, fold, gradient)
    jets = []
    for k, field in enumerate(fields):
        if field.node is not None:
            code.variables = CHARTS[field.chart]
            jets.append(code.lift(field.node.emit(code)))
        else:
            d = code.name(f"_F[{k}].fn(x0, x1, x2)")
            jets.append(_Term(f"{d}.v", [f"{d}.grad[{i}]" for i in range(3)],
                              [f"{d}.hess[{i}]" for i in range(9)]))
    if gradient:
        out = jets[0].grad + jets[0].hess
        read = [jets[0].value] + out
    else:
        out = read = [t.value for t in jets] + [t.grad[i] for i in range(3) for t in jets]
    read = [e for e in read if e is not None and not _is_literal(e)]
    body = ["x0, x1, x2 = p"] + code.lines
    if code.checked:
        body += [f"if not _isfinite({_total(code.checked)}):", "    return _exact(p)"]
    if read:
        body += [f"if not _isfinite({' + '.join(read)}):",
                 f"    _check_finite(p, {', '.join(read)})"]
    body.append(f"return ({', '.join(e or '0.0' for e in out)})")
    lines = ["def field(p):", "    try:", *_indent(_indent(body)),
             "    except _arith as err:", "        raise _domain_error(err, p) from err"]
    return "\n".join(lines), tuple(code.constants)


def _total(terms):
    """Source of the sum of ``terms``.  A long one sums a flat tuple,
    because Python compiles each ``+`` of a chain one level deeper."""
    if len(terms) <= _CHAIN_TERMS:
        return " + ".join(terms)
    return f"_sum(({', '.join(terms)}))"


def _function(source, constants, exact=None, fields=()):
    namespace = dict(_NAMESPACE, _K=constants, _exact=exact, _F=fields)
    exec(compile(source, "<formlang>", "exec"), namespace)
    return namespace["field"]


def _on_first_call(build):
    """A function that calls the function ``build()`` returns, built on its first call."""
    built = []

    def call(*args):
        if not built:
            built.append(build())
        return built[0](*args)

    return call


def compile_field(node, variables):
    """The function ``field(x0, x1, x2)`` for ``node`` over the chart's ``variables``.

    A tree with a chart variable is written and compiled on the
    function's first call, so a parse compiles nothing for it: the
    commands evaluate the forms' jets, which are written from the tree.

    A tree without one is compiled and evaluated once, here, and the
    function returns that one ``Dual`` at every point; these records are
    the only ``Dual`` a command builds, and ``perfbench/test_perfbench.py``
    pins their count above 0 for a classify.  If that evaluation raises, the
    straight-line function is returned instead, so every evaluation raises
    as it would have, with its point.
    """
    if node.varies:
        return _on_first_call(lambda: _function(*field_source(node, variables)))
    field = _function(*field_source(node, variables))
    try:
        record = field(0.0, 0.0, 0.0)  # reads no coordinate
    except Exception:  # whatever it is, each evaluation raises it again
        return field
    return lambda x0, x1, x2: record


def compile_jet(fields, gradient=False):
    """The ``flat_jet`` of ``jet_source`` as a function of a point's 3 floats.

    Where its folded multipliers are not finite, it evaluates the same
    trees with nothing folded, through a jet compiled on the first such
    point.
    """
    exact = _on_first_call(lambda: _function(*jet_source(fields, gradient, False), None, fields))
    return _function(*jet_source(fields, gradient), exact, fields)
