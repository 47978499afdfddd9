"""Coordinate expression language: parser, AST, and generic evaluator.

Metric components, scalar fields, and domain constraints are written as
strings in a small real-valued DSL and parsed against a coordinate chart.
The evaluator is generic over the scalar type, so the same AST runs on
plain floats and on second-order jets (see autodiff.Jet2).

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
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence, Union

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
    "check_domain",
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
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "parameters", MappingProxyType(dict(self.parameters)))

    @property
    def dimension(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


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

    def holds(self, point: Sequence[float], params: Mapping[str, float]) -> bool:
        try:
            a = evaluate(self.lhs, point, params)
            b = evaluate(self.rhs, point, params)
        except EvalDomainError:
            return False
        if not (math.isfinite(a) and math.isfinite(b)):
            return False
        return a > b if self.relation == ">" else a >= b


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
            return Num(float(value))
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
    if isinstance(e, Neg):
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
# Evaluation

# f, f', f'' for the float path; jets provide these as methods.
_FLOAT_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}


def _lane(x) -> float:
    """Value lane of a scalar: the float itself, or a jet's value."""
    return getattr(x, "value", x)


def evaluate(e: Expr, point: Sequence, params: Mapping[str, float] | None = None):
    """Evaluate ``e`` at ``point``, whose entries may be floats or jets.

    Domain violations (division by zero, ln/sqrt of non-positive values,
    fractional powers of negative bases, overflow to non-finite) raise
    EvalDomainError rather than producing non-finite values.
    """
    if params is None:
        params = {}

    def ev(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Coord):
            return point[node.index]
        if isinstance(node, Param):
            try:
                return params[node.name]
            except KeyError:
                raise EvalDomainError(f"unresolved parameter {node.name!r}", node) from None
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Call):
            return _call(node, ev(node.arg))
        if isinstance(node, BinOp):
            return _binop(node, ev(node.left), ev(node.right))
        raise TypeError(f"not an expression node: {node!r}")

    def _checked(node, result):
        if not math.isfinite(_lane(result)):
            raise EvalDomainError("non-finite result", node)
        return result

    def _call(node, x):
        v = _lane(x)
        fn = node.func
        if fn == "ln" and v <= 0.0:
            raise EvalDomainError(f"ln of non-positive value {v!r}", node)
        if fn == "sqrt" and v <= 0.0:
            raise EvalDomainError(f"sqrt of non-positive value {v!r}", node)
        if fn == "abs" and v == 0.0 and not isinstance(x, float):
            raise EvalDomainError("abs is not differentiable at 0", node)
        impl = _FLOAT_FUNCS[fn] if isinstance(x, float) else getattr(x, fn)
        try:
            result = impl(v) if isinstance(x, float) else impl()
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise EvalDomainError(str(exc), node) from None
        return _checked(node, result)

    def _binop(node, a, b):
        op = node.op
        try:
            if op == "+":
                return _checked(node, a + b)
            if op == "-":
                return _checked(node, a - b)
            if op == "*":
                return _checked(node, a * b)
            if op == "/":
                if _lane(b) == 0.0:
                    raise EvalDomainError("division by zero", node)
                return _checked(node, a / b)
            # op == "^"
            base, expo = _lane(a), _lane(b)
            if base < 0.0 and not float(expo).is_integer():
                raise EvalDomainError(
                    f"fractional power {expo!r} of negative base {base!r}", node
                )
            if base == 0.0 and expo < 0.0:
                raise EvalDomainError("zero raised to a negative power", node)
            if isinstance(a, float) and isinstance(b, float):
                return _checked(node, math.pow(a, b))
            return _checked(node, a**b)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise EvalDomainError(str(exc), node) from None

    result = ev(e)
    if isinstance(result, int):
        result = float(result)
    return result


def check_domain(
    constraints: Sequence[DomainConstraint],
    point: Sequence[float],
    params: Mapping[str, float] | None = None,
) -> bool:
    """True iff every constraint holds with finite evaluations at ``point``."""
    params = params or {}
    return all(c.holds(point, params) for c in constraints)
