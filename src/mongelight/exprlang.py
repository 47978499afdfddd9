"""Coordinate expression language: parser, AST, and generic evaluator.

Metric components, scalar fields, and domain constraints are written as
strings in a small real-valued DSL and parsed against a coordinate chart.
An expression is compiled three ways, each once into a tree of closures:

- ``compile_expr`` is the float tree, one closure per node kind: each node
  runs its float operation on a point of plain numbers.  ``evaluate``
  compiles and runs in one call.
- ``_compile_first_order`` is the first-order lane on plain floats: a
  closure tree over (value, gradient tuple) that runs the rules of the
  first-order scalar jet Jet1 (the tests' reference, in tests/_jets.py) and
  gives Jet1's bits, with every subexpression that mentions no coordinate
  folded to its number when the tree is built.  MetricField compiles its
  components this way.
- ``compile_stacked`` is the array lane: one call evaluates the
  second-order jets of a whole stack of points (autodiff.JetStack), with
  each domain rule asked at the points a mask flags.

Every lane asks the same domain rules, the scalar functions of autodiff
(_check_positive, _divide, _check_power and, for jets, _check_abs,
_check_variable_base and _power_coefficients), in the same order, and
turns what a rule raises into EvalDomainError(message, node): the scalar
lanes call them on their numbers, and the array lane asks them at the rows
its masks flag.  The derivative lanes add the rules of the derivatives
(abs at 0, a variable exponent's base, u^c at 0 for c < 2, a second
coefficient that underflows).

Grammar (no implicit multiplication; ^ binds tighter than unary minus):

    expr    :=  term (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' unary)?            # right-associative
    atom    :=  NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Identifiers resolve, in order, to chart coordinates, chart parameters, and
the constants pi and e.  Functions: sin, cos, tan, exp, ln, sqrt, abs.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .autodiff import (
    _COEFFICIENTS,
    JetStack,
    _check_abs,
    _check_positive,
    _check_power,
    _check_variable_base,
    _divide,
    _faults,
    _power_coefficients,
    seed_stack,
)

__all__ = [
    "CoordinateChart",
    "DomainConstraint",
    "Expr",
    "ExprError",
    "ExprSyntaxError",
    "EvalDomainError",
    "Num",
    "Coord",
    "Param",
    "Neg",
    "BinOp",
    "Call",
    "FUNCTIONS",
    "parse",
    "parse_constraint",
    "render",
    "evaluate",
    "compile_expr",
    "compile_stacked",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")

_CONSTANTS = {"pi": math.pi, "e": math.e}


class ExprError(Exception):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    """Tokenizer/parser error, carrying the byte offset into the source."""

    def __init__(self, message: str, source: str, position: int):
        super().__init__(f"{message} (at offset {position} in {source!r})")
        self.source = source
        self.position = position


class EvalDomainError(ExprError):
    """Evaluation left the expression's domain; carries the offending node."""

    def __init__(self, message: str, node: "Expr"):
        super().__init__(f"{message} in subexpression {render(node)!r}")
        self.node = node


@dataclass(frozen=True)
class CoordinateChart:
    """Ordered coordinate names plus named real parameters.

    Charts are immutable after construction; the parameter map is the
    resolved environment for every expression parsed against the chart.
    ``read`` is the one rule that turns a base point into the floats every
    consumer of the chart computes at.
    """

    names: tuple[str, ...]
    parameters: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.names) < 1:
            raise ValueError("chart needs at least one coordinate")
        seen = set()
        for name in tuple(self.names) + tuple(self.parameters):
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"bad identifier {name!r}")
            if name in seen:
                raise ValueError(f"duplicate identifier {name!r}")
            seen.add(name)
        parameters = {name: _parameter_value(name, v) for name, v in self.parameters.items()}
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "parameters", MappingProxyType(parameters))

    @property
    def dimension(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def read(self, base, x0=None) -> tuple[float, ...]:
        """The base point as a tuple of floats, or ValueError naming the
        first rule it fails: it is a sequence, of the chart's number of
        coordinates, each a number (what math.isfinite reads: an int, a
        float, NumPy's scalars and 0-d arrays, not a str) and each finite
        (an int beyond the float range is not).  ``x0``, the height of a
        graph point over the base, is checked with the coordinates, after
        them, unless it is None."""
        try:
            length = len(base)
        except TypeError:
            raise ValueError("point is not a sequence") from None
        if length != len(self.names):
            raise ValueError(f"point has {length} coordinates; chart has {len(self.names)}")
        try:
            if all(map(math.isfinite, base)) and (x0 is None or math.isfinite(x0)):
                return tuple(map(float, base))
        except TypeError:
            raise ValueError("point is not a number") from None
        except OverflowError:
            pass
        raise ValueError("point is not finite")


def _parameter_value(name: str, value) -> float:
    """A chart parameter's value as a float: a finite int or float, not a bool."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # its repr may be too long to print
            raise ValueError(f"parameter {name!r} is an int beyond the float range") from None
    if not math.isfinite(number):
        raise ValueError(f"parameter {name!r} must be a finite number, got {value!r}")
    return number


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int
    name: str


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Coord, Param, Neg, BinOp, Call]


@dataclass(frozen=True)
class DomainConstraint:
    """``lhs > rhs`` or ``lhs >= rhs``; holds only on finite evaluations."""

    lhs: Expr
    relation: str  # ">" or ">="
    rhs: Expr

    def compile(self, params: Mapping[str, float]) -> Callable[[Sequence[float]], bool]:
        """A test of the constraint at a point, with both sides compiled once
        (see compile_expr): True iff both evaluate finite and the relation
        holds."""
        lhs, rhs = compile_expr(self.lhs, params), compile_expr(self.rhs, params)
        relation = self.relation

        def holds(point: Sequence[float]) -> bool:
            try:
                a = lhs(point)
                b = rhs(point)
            except EvalDomainError:
                return False
            if not (math.isfinite(a) and math.isfinite(b)):
                return False
            return a > b if relation == ">" else a >= b

        return holds


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"""
    (?P<num>   \d+(?:\.\d*)?(?:[eE][+-]?\d+)? | \.\d+(?:[eE][+-]?\d+)?) |
    (?P<ident> [A-Za-z_][A-Za-z0-9_]*) |
    (?P<op>    [-+*/^(),]) |
    (?P<ws>    \s+)
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", source, pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, chart: CoordinateChart):
        self.source = source
        self.chart = chart
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, position=None):
        if position is None:
            position = self.peek()[2]
        raise ExprSyntaxError(message, self.source, position)

    def expect(self, text):
        kind, value, pos = self.peek()
        if value != text:
            self.fail(f"expected {text!r}")
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        if self.peek()[1] == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek()[1] == "^":
            self.advance()
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        kind, value, pos = self.peek()
        if kind == "num":
            self.advance()
            number = float(value)
            if not math.isfinite(number):  # a literal such as 1e400 reads as inf
                self.fail("number out of range", pos)
            return Num(number)
        if value == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "ident":
            self.advance()
            if self.peek()[1] == "(":
                return self.parse_call(value, pos)
            if value in self.chart.names:
                return Coord(self.chart.index(value), value)
            if value in self.chart.parameters:
                return Param(value)
            if value in _CONSTANTS:
                return Num(_CONSTANTS[value])
            self.fail(f"unknown identifier {value!r}", pos)
        self.fail("expected a number, identifier, or '('")

    def parse_call(self, func: str, pos: int) -> Expr:
        if func not in FUNCTIONS:
            self.fail(f"unknown function {func!r}", pos)
        self.expect("(")
        args = [self.parse_expr()]
        while self.peek()[1] == ",":
            self.advance()
            args.append(self.parse_expr())
        self.expect(")")
        if len(args) != 1:
            self.fail(f"{func} takes 1 argument, got {len(args)}", pos)
        return Call(func, args[0])


def parse(source: str, chart: CoordinateChart) -> Expr:
    """Parse ``source`` against ``chart``; raises ExprSyntaxError on failure."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", source, 0)
    p = _Parser(source, chart)
    node = p.parse_expr()
    kind, value, pos = p.peek()
    if kind != "end":
        p.fail(f"trailing input {value!r}")
    return node


def parse_constraint(source: str, chart: CoordinateChart) -> DomainConstraint:
    """Parse ``lhs > rhs`` / ``lhs >= rhs`` into a DomainConstraint."""
    if ">=" in source:
        lhs_src, _, rhs_src = source.partition(">=")
        relation = ">="
    elif ">" in source:
        lhs_src, _, rhs_src = source.partition(">")
        relation = ">"
    else:
        raise ExprSyntaxError("constraint needs '>' or '>='", source, 0)
    return DomainConstraint(parse(lhs_src, chart), relation, parse(rhs_src, chart))


# ---------------------------------------------------------------------------
# Rendering

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PREC = 3
_ATOM_PREC = 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    # a Num with its sign bit set (-0.0 too) renders with a leading minus
    if isinstance(e, Neg) or (isinstance(e, Num) and math.copysign(1.0, e.value) < 0):
        return _UNARY_PREC
    return _ATOM_PREC


def render(e: Expr) -> str:
    """Render to a string that reparses to a structurally equal AST."""

    def wrap(child: Expr, min_prec: int) -> str:
        text = render(child)
        return f"({text})" if _prec(child) < min_prec else text

    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, (Coord, Param)):
        return e.name
    if isinstance(e, Neg):
        return "-" + wrap(e.operand, _UNARY_PREC)
    if isinstance(e, Call):
        return f"{e.func}({render(e.arg)})"
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        if e.op == "^":
            return wrap(e.left, p + 1) + e.op + wrap(e.right, p)
        return wrap(e.left, p) + e.op + wrap(e.right, p + 1)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation on plain floats

# what Python's float arithmetic and the math module raise, reported as
# EvalDomainError
_ARITHMETIC_ERRORS = (ValueError, OverflowError, ZeroDivisionError)

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _positive(fn: Callable[[float], float], func: str) -> Callable[[float], float]:
    """fn after the rule that its argument is positive."""

    def checked(x):
        _check_positive(func, x)
        return fn(x)

    return checked


def _power(base, expo) -> float:
    """math.pow after the power rules, which only a base <= 0 can fail."""
    if base <= 0.0:
        _check_power(base, expo)
    return math.pow(base, expo)


# f of each function and operator on plain floats, after its domain rules
_FLOAT_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": _positive(math.log, "ln"),
    "sqrt": _positive(math.sqrt, "sqrt"),
    "abs": abs,
}
_FLOAT_OPERATORS = {**_OPERATORS, "/": _divide, "^": _power}


def compile_expr(
    e: Expr, params: Mapping[str, float] | None = None
) -> Callable[[Sequence[float]], float]:
    """Compile ``e`` once into a tree of closures on plain floats;
    ``compile_expr(e, params)(point)`` is ``evaluate(e, point, params)``.

    Each node is dispatched on its type once, here; at every call it runs
    its float operation after its domain checks, and raises EvalDomainError
    naming itself where one fails or its result is not finite.  Parameters
    are resolved now, an int (NumPy's included) to its float and a bool to
    ValueError; an unresolved one raises only when the result is called.
    An int result (of int coordinates or numbers) is returned as its float.
    """
    run = _compile(e, {} if params is None else params)
    if isinstance(e, Num):
        value = float(e.value) if isinstance(e.value, int) else e.value
        return lambda point: value
    # a function but abs, a quotient and a power give floats
    if isinstance(e, Call) and e.func != "abs" or isinstance(e, BinOp) and e.op not in _OPERATORS:
        return run

    def compiled(point: Sequence[float]) -> float:
        result = run(point)
        return float(result) if isinstance(result, int) else result

    return compiled


def _compile(node: Expr, params: Mapping[str, float]) -> Callable[[Sequence[float]], float]:
    if isinstance(node, Num):
        value = node.value
        return lambda point: value
    if isinstance(node, Coord):
        return operator.itemgetter(node.index)
    if isinstance(node, Param):
        try:
            value = params[node.name]
        except KeyError:

            def unresolved(point):
                raise EvalDomainError(f"unresolved parameter {node.name!r}", node)

            return unresolved
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"parameter {node.name!r} must be a finite number, got {value!r}")
        if isinstance(value, (int, np.integer)):
            value = _parameter_value(node.name, int(value))
        return lambda point: value
    if isinstance(node, Neg):
        operand = _compile(node.operand, params)
        return lambda point: -operand(point)
    if isinstance(node, Call) and node.func in _FLOAT_FUNCS:
        return _compile_call(node, _compile(node.arg, params))
    if isinstance(node, BinOp):
        return _compile_binop(node, _compile(node.left, params), _compile(node.right, params))
    raise TypeError(f"not an expression node: {node!r}")


def _compile_call(node: Call, arg: Callable) -> Callable:
    fn = _FLOAT_FUNCS[node.func]
    isfinite = math.isfinite

    def call(point):
        x = arg(point)
        try:
            result = fn(x)
        except _ARITHMETIC_ERRORS as exc:
            raise EvalDomainError(str(exc), node) from None
        if not isfinite(result):
            raise EvalDomainError("non-finite result", node)
        return result

    return call


def _compile_binop(node: BinOp, left: Callable, right: Callable) -> Callable:
    # every operator but + - * / runs as "^"
    apply = _FLOAT_OPERATORS.get(node.op, _power)
    isfinite = math.isfinite

    def binop(point):
        a = left(point)
        b = right(point)
        try:
            result = apply(a, b)
            if not isfinite(result):
                raise EvalDomainError("non-finite result", node)
        except _ARITHMETIC_ERRORS as exc:
            raise EvalDomainError(str(exc), node) from None
        return result

    return binop


def evaluate(e: Expr, point: Sequence[float], params: Mapping[str, float] | None = None) -> float:
    """Evaluate ``e`` at ``point``, a sequence of plain numbers.

    Domain violations (division by zero, ln/sqrt of non-positive values,
    fractional powers of negative bases, overflow to non-finite) raise
    EvalDomainError rather than producing non-finite values.  Compiles
    ``e`` on every call; hold a ``compile_expr`` result to evaluate one
    expression at many points.
    """
    return compile_expr(e, params)(point)


# ---------------------------------------------------------------------------
# First-order evaluation on plain floats
#
# Each rule is that of the tests' scalar jet Jet1 (tests/_jets.py), with a
# value v and a gradient tuple g in place of a Jet1's value and NumPy
# gradient, run in Jet1's floating-point operation order: elementwise
# + - * / on floats are IEEE-identical to NumPy's on float64 arrays, and the
# elementary functions and powers take their coefficients from the
# functions Jet1 takes them from (autodiff._COEFFICIENTS and its kin).
# Where a rule's operand is a plain number (a subexpression that mentions
# no coordinate), the rule is the one Jet1 runs with that float operand.


def _negated(g):
    return tuple(map(operator.neg, g))


# The binary rules, one per operator and operand kind: two operands that
# mention a coordinate, (value, gradient) each, or one of them a plain
# number.  Each asks the operator's domain rules first, as compile_expr does.


def _add(av, ag, bv, bg):
    return av + bv, tuple(map(operator.add, ag, bg))


def _add_number(av, ag, b):
    return av + b, ag


def _number_add(a, bv, bg):
    return bv + a, bg  # Jet1.__radd__


def _sub(av, ag, bv, bg):
    return av - bv, tuple(map(operator.sub, ag, bg))


def _sub_number(av, ag, b):
    return av - b, ag


def _number_sub(a, bv, bg):
    return a - bv, _negated(bg)


def _mul(av, ag, bv, bg):
    return av * bv, tuple([av * y + bv * x for x, y in zip(ag, bg)])


def _mul_number(av, ag, b):
    return av * b, tuple([x * b for x in ag])


def _number_mul(a, bv, bg):
    return bv * a, tuple([y * a for y in bg])  # Jet1.__rmul__


def _div(av, ag, bv, bg):
    q = _divide(av, bv)
    return q, tuple([(x - q * y) / bv for x, y in zip(ag, bg)])


def _div_number(av, ag, b):
    return _divide(av, b), tuple([x / b for x in ag])


def _number_div(a, bv, bg):
    q = _divide(a, bv)
    return q, tuple([(-q * y) / bv for y in bg])


def _pow(av, ag, bv, bg):
    # exp(b ln a), with the value lane the direct power
    _check_power(av, bv)
    _check_variable_base(av)
    lv, l1, _ = _COEFFICIENTS["ln"](av)
    u = [bv * (l1 * x) + lv * y for x, y in zip(ag, bg)]
    p = math.pow(av, bv)
    return p, tuple([p * x for x in u])


def _pow_number(av, ag, c):
    coefficients = _power_coefficients(av, c)
    if coefficients is None:  # u^0 is the constant 1, u^1 is u
        return (1.0, (0.0,) * len(ag)) if c == 0.0 else (av, ag)
    f0, f1, _ = coefficients
    return f0, tuple([f1 * x for x in ag])


def _number_pow(a, bv, bg):
    _check_power(a, bv)
    _check_variable_base(a)
    ln = math.log(a)
    p = math.pow(a, bv)
    return p, tuple([p * (y * ln) for y in bg])


_FIRST_ORDER_RULES = {
    "+": (_add, _add_number, _number_add),
    "-": (_sub, _sub_number, _number_sub),
    "*": (_mul, _mul_number, _number_mul),
    "/": (_div, _div_number, _number_div),
    "^": (_pow, _pow_number, _number_pow),
}


def _compile_first_order(
    e: Expr, params: Mapping[str, float], dimension: int
) -> Callable[[Sequence[float]], tuple[float, tuple[float, ...]]]:
    """Compile ``e`` once for first-order jets on plain floats:
    ``_compile_first_order(e, params, d)(point)`` is (value, gradient
    tuple), the bits of the value and gradient of e on the first-order
    scalar jets Jet1 seeded at a point of d floats (a constant expression
    gives a zero gradient), and it raises where Jet1 raises, with the
    EvalDomainError the jet-generic tree gives.  The tests hold Jet1 and
    that tree (tests/_jets.py) as the reference for this lane.

    Every check of compile_expr runs in its order, with its message.  A
    subexpression that mentions no coordinate is folded to its plain number
    here, by compile_expr's closure; where that fails, the closure stays
    and raises at each call.
    """
    units = tuple(tuple(float(i == j) for j in range(dimension)) for i in range(dimension))
    run = _first_order(e, params, units)
    if run is None:
        run = _folded(e, params)
    if callable(run):
        return run
    zeros = (0.0,) * dimension
    return lambda point: (run, zeros)


def _folded(node: Expr, params: Mapping[str, float]):
    """A subexpression that mentions no coordinate: its plain number, or
    compile_expr's closure where that raises (it raises at every call)."""
    run = _compile(node, params)
    try:
        return run(())
    except EvalDomainError:
        return run


def _first_order(node: Expr, params: Mapping[str, float], units) -> Callable | None:
    """The closure ``point -> (value, gradient)`` of a node that mentions a
    coordinate, or None for one that does not."""
    if isinstance(node, (Num, Param)):
        return None
    if isinstance(node, Coord):
        index, unit = node.index, units[node.index]
        return lambda point: (point[index], unit)
    if isinstance(node, Neg):
        operand = _first_order(node.operand, params, units)
        if operand is None:
            return None

        def neg(point):
            v, g = operand(point)
            return -v, _negated(g)

        return neg
    if isinstance(node, Call):
        arg = _first_order(node.arg, params, units)
        return None if arg is None else _first_order_call(node, arg)
    if isinstance(node, BinOp):
        left = _first_order(node.left, params, units)
        right = _first_order(node.right, params, units)
        if left is None and right is None:
            return None
        return _first_order_binop(
            node,
            _folded(node.left, params) if left is None else left,
            _folded(node.right, params) if right is None else right,
        )
    raise TypeError(f"not an expression node: {node!r}")


def _first_order_call(node: Call, arg: Callable) -> Callable:
    coefficients = _COEFFICIENTS.get(node.func)  # None for abs

    def call(point):
        v, g = arg(point)
        try:
            if coefficients is None:  # Jet1.abs
                _check_abs(v)
                if not v > 0.0:
                    v, g = -v, _negated(g)
            else:
                v, f1, _ = coefficients(v)
                g = tuple([f1 * x for x in g])
        except _ARITHMETIC_ERRORS as exc:
            raise EvalDomainError(str(exc), node) from None
        if not math.isfinite(v):  # a coordinate may be inf or nan
            raise EvalDomainError("non-finite result", node)
        return v, g

    return call


def _first_order_binop(node: BinOp, left, right) -> Callable:
    """left and right are closures, or plain numbers (a folded operand; a
    folded operand that raises stays a closure, and raises before the rule
    runs)."""
    # every operator but + - * / runs as "^", as in compile_expr
    both, with_number, of_number = _FIRST_ORDER_RULES.get(node.op, _FIRST_ORDER_RULES["^"])
    isfinite = math.isfinite

    if callable(left) and callable(right):

        def binop(point):
            av, ag = left(point)
            bv, bg = right(point)
            try:
                v, g = both(av, ag, bv, bg)
            except _ARITHMETIC_ERRORS as exc:
                raise EvalDomainError(str(exc), node) from None
            if not isfinite(v):
                raise EvalDomainError("non-finite result", node)
            return v, g

    elif callable(left):

        def binop(point):
            av, ag = left(point)
            try:
                v, g = with_number(av, ag, right)
            except _ARITHMETIC_ERRORS as exc:
                raise EvalDomainError(str(exc), node) from None
            if not isfinite(v):
                raise EvalDomainError("non-finite result", node)
            return v, g

    else:

        def binop(point):
            bv, bg = right(point)
            try:
                v, g = of_number(left, bv, bg)
            except _ARITHMETIC_ERRORS as exc:
                raise EvalDomainError(str(exc), node) from None
            if not isfinite(v):
                raise EvalDomainError("non-finite result", node)
            return v, g

    return binop


# ---------------------------------------------------------------------------
# Stacked evaluation


def compile_stacked(
    e: Expr, params: Mapping[str, float] | None = None
) -> Callable[[np.ndarray], tuple[JetStack, dict[int, EvalDomainError]]]:
    """Compile ``e`` once for stacks of points: ``compile_stacked(e, params)(points)``
    evaluates ``e`` on the second-order jets of the n points, rows of the
    (n, d) array ``points``, in one pass of JetStack arithmetic.

    It returns a JetStack whose row k (value[k], grad[:, k], hess[:, :, k])
    equals, bit for bit, e on the second-order scalar jets Jet2 seeded at
    points[k] (a constant expression gives zero derivatives), and {row:
    EvalDomainError} of the rows where that evaluation raises, with the same
    message.  The tests hold Jet2 and the jet-generic tree (tests/_jets.py)
    as the reference for this lane.  Each domain rule is asked at the rows
    a mask flags, and a row records the first node
    it fails in the scalar evaluation order (left operand, right operand,
    then the node).  A failed row's numbers mean nothing; no row's numbers
    or error depend on another row.  A subexpression that mentions no
    coordinate runs once on plain numbers, by compile_expr's closures;
    where it fails, every row that has not failed before records its error.
    A subexpression that occurs more than once is evaluated once per call:
    its later occurrences would compute the same numbers and fail at the
    same rows, which have their error already.
    """
    params = {} if params is None else params
    repeated = _repeated(e)
    run = _compile_stacked(e, params, repeated) or _shared(e, params)
    memo = [None] * len(repeated)

    def compiled(points) -> tuple[JetStack, dict[int, EvalDomainError]]:
        points = np.asarray(points, dtype=float)
        n, d = points.shape
        failures: dict[int, EvalDomainError] = {}
        with np.errstate(all="ignore"):  # a failed row's lanes may overflow or turn NaN
            try:
                result = run(seed_stack(points) + memo, failures)
            except EvalDomainError as exc:  # a check that fails at every row
                for k in range(n):
                    failures.setdefault(k, exc)
                result = math.nan
        if not isinstance(result, JetStack):  # a constant, or every row failed
            result = JetStack(np.full(n, float(result)), np.zeros((d, n)), np.zeros((d, d, n)))
        return result, failures

    return compiled


def _repeated(e: Expr) -> dict[tuple[str, Expr], int]:
    """{(render(node), node): slot} of the compound subexpressions that occur
    more than once in e (render tells Num(-0.0) from Num(0.0), which ==
    does not; == tells Num(-2.0)^2 from -(2.0^2), which render does not)."""
    seen: set = set()
    repeated: dict = {}

    def visit(node):
        if isinstance(node, (Num, Param, Coord)):
            return
        key = (render(node), node)
        if key in seen:  # its own subexpressions run only inside it
            repeated.setdefault(key, len(repeated))
            return
        seen.add(key)
        if isinstance(node, Neg):
            visit(node.operand)
        elif isinstance(node, Call):
            visit(node.arg)
        else:
            visit(node.left)
            visit(node.right)

    visit(e)
    return repeated


def _compile_stacked(node: Expr, params: Mapping[str, float], repeated: dict) -> Callable | None:
    """The stacked closure ``(point, failures) -> JetStack`` of a node that
    mentions a coordinate, where point holds one JetStack per coordinate,
    then one memo slot per repeated subexpression (see _repeated), and each
    row's first error goes into failures; None for a node that mentions no
    coordinate."""
    run = _compile_node(node, params, repeated)
    index = repeated.get((render(node), node))
    if run is None or index is None:
        return run
    slot = -1 - index  # the memo slots end point

    def memo(point, failures):
        result = point[slot]
        if result is None:
            result = point[slot] = run(point, failures)
        return result

    return memo


def _compile_node(node: Expr, params: Mapping[str, float], repeated: dict) -> Callable | None:
    """_compile_stacked's closure of the node, before any memo."""
    if isinstance(node, (Num, Param)):
        return None
    if isinstance(node, Coord):
        index = node.index
        return lambda point, failures: point[index]
    if isinstance(node, Neg):
        operand = _compile_stacked(node.operand, params, repeated)
        if operand is None:
            return None
        return lambda point, failures: -operand(point, failures)
    if isinstance(node, Call):
        arg = _compile_stacked(node.arg, params, repeated)
        return None if arg is None else _stacked_call(node, arg)
    if isinstance(node, BinOp):
        left = _compile_stacked(node.left, params, repeated)
        right = _compile_stacked(node.right, params, repeated)
        if left is None and right is None:
            return None
        left = left or _shared(node.left, params)
        right = right or _shared(node.right, params)
        return _stacked_binop(node, left, right)
    raise TypeError(f"not an expression node: {node!r}")


def _shared(node: Expr, params: Mapping[str, float]) -> Callable:
    """A subexpression that mentions no coordinate as a stacked closure: the
    one plain number of compile_expr's closure, shared by every row."""
    run = _compile(node, params)
    return lambda point, failures: run(point)


def _record(failures: dict, faults: dict | None, node: Expr) -> None:
    """Record each fault ({row: exception}) as the node's EvalDomainError at
    its row, where that row has no error yet."""
    if faults:
        for k, exc in faults.items():
            failures.setdefault(k, EvalDomainError(str(exc), node))


def _checked(failures: dict, result: JetStack, node: Expr) -> JetStack:
    """result, after recording at the rows without an error the faults of
    its rule, then its non-finite value lanes."""
    _record(failures, result.faults, node)
    value = result.value
    if not math.isfinite(value.dot(value)):  # a finite sum of squares: every row finite
        shared = EvalDomainError("non-finite result", node)
        for k in np.flatnonzero(~np.isfinite(value)).tolist():
            failures.setdefault(k, shared)
    return result


def _stacked_call(node: Call, arg: Callable) -> Callable:
    # JetStack's ln, sqrt and abs record the domain rules' errors as their
    # faults
    fn = node.func

    def call(point, failures):
        return _checked(failures, getattr(arg(point, failures), fn)(), node)

    return call


def _stacked_binop(node: BinOp, left: Callable, right: Callable) -> Callable:
    # each domain rule is asked at the rows its mask flags (autodiff._faults)
    if node.op in _OPERATORS:
        operate = _OPERATORS[node.op]

        def apply(a, b, failures):
            return operate(a, b)

    elif node.op == "/":

        def apply(a, b, failures):
            if not isinstance(b, JetStack):
                try:
                    return _divide(a, b)
                except ZeroDivisionError as exc:  # a constant 0 fails every row
                    raise EvalDomainError(str(exc), node) from None
            divisor = b.value
            _record(failures, _faults(_divide, divisor == 0.0, getattr(a, "value", a), divisor), node)
            return a / b

    else:  # "^", as which every other operator runs

        def apply(a, b, failures):
            base, expo = getattr(a, "value", a), getattr(b, "value", b)
            negative, zero = np.less(base, 0.0), np.equal(base, 0.0)
            if np.count_nonzero(negative) or np.count_nonzero(zero):
                fractional = np.mod(expo, 1.0) != 0.0  # so are inf and nan, as in the rule
                refused = negative & fractional | zero & np.less(expo, 0.0)
                _record(failures, _faults(_check_power, refused, base, expo), node)
            return a**b

    def binop(point, failures):
        a, b = left(point, failures), right(point, failures)
        return _checked(failures, apply(a, b, failures), node)

    return binop
