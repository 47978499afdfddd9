"""The scalar jets and the jet-generic expression evaluator: the tests'
reference for the library's compiled lanes.

Jet2 carries one point's value, gradient and Hessian, Jet1 its value and
gradient (vector forward mode; Griewank & Walther, Evaluating Derivatives,
ch. 3).  Jet2's value lane reproduces plain float arithmetic exactly, and
its Hessian stays exactly symmetric under every operation (each rule only
ever adds symmetric outer-product pairs to symmetric inputs).  Jet1 runs
the same floating-point operations, in the same order, as Jet2's value and
gradient lanes, so it agrees with Jet2 bit for bit there and raises on
exactly the same inputs.  Both take their chain-rule coefficients f' and f''
from the functions mongelight.autodiff shares with the library's lanes
(_COEFFICIENTS and _power_coefficients), and ask its domain rules.

``compile_expr`` and ``evaluate`` here are a jet-generic closure tree: the
same compiled expression runs on plain floats and on jets of either order,
asking mongelight.autodiff's domain rules, in the library's order.  The
tests judge against them:

- exprlang.compile_expr (plain floats) by the float bits and errors,
- exprlang's first-order lane by Jet1's value and gradient bits,
- exprlang.compile_stacked (autodiff.JetStack) by Jet2's bits, row by row.

The power rule is chosen by the exponent's type, never by its lanes: a
plain-number exponent takes the constant-power rule, and a jet exponent
(which a compiled expression passes exactly when the exponent mentions a
coordinate) always takes the exp(e ln b) rule, which needs a positive base
even where the exponent's derivatives happen to vanish.

Domain errors mirror the math module: ValueError for ln/sqrt/abs/power
violations, ZeroDivisionError for division by a zero value lane (and for a
coefficient f'' whose denominator underflows to 0), OverflowError where
exp or a power overflows.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from mongelight.autodiff import (
    _check_abs,
    _check_positive,
    _check_power,
    _check_variable_base,
    _divide,
    _power_coefficients,
    _taylor_cos,
    _taylor_exp,
    _taylor_ln,
    _taylor_sin,
    _taylor_sqrt,
    _taylor_tan,
)
from mongelight.exprlang import (
    _ARITHMETIC_ERRORS,
    _OPERATORS,
    BinOp,
    Call,
    Coord,
    EvalDomainError,
    Expr,
    Neg,
    Num,
    Param,
    _parameter_value,
)

__all__ = ["Jet1", "Jet2", "seed", "constant", "compile_expr", "evaluate"]


class _Taylor:
    """The elementary functions and powers, shared by both orders: each
    takes the scalar coefficients f, f', f'' from _COEFFICIENTS or
    _power_coefficients and hands them to the order's _chain, or an exponent
    u and exp(u)'s value to the order's _exp."""

    __slots__ = ()

    def _pow_const(self, c: float):
        coefficients = _power_coefficients(self.value, c)
        if coefficients is None:
            return constant(1.0, self.dim, self.order) if c == 0.0 else self
        return self._chain(*coefficients)

    def __pow__(self, other):
        if not isinstance(other, _Taylor):
            return self._pow_const(float(other))
        # variable exponent: derivatives of exp(e*ln(b)), value lane kept
        # as the direct power so it matches float evaluation
        _check_variable_base(self.value)
        return self._exp(other * self.ln(), math.pow(self.value, other.value))

    def __rpow__(self, base):
        _check_variable_base(base)
        return self._exp(self * math.log(base), math.pow(base, self.value))

    def sin(self):
        return self._chain(*_taylor_sin(self.value))

    def cos(self):
        return self._chain(*_taylor_cos(self.value))

    def tan(self):
        return self._chain(*_taylor_tan(self.value))

    def exp(self):
        return self._chain(*_taylor_exp(self.value))

    def ln(self):
        return self._chain(*_taylor_ln(self.value))

    def sqrt(self):
        return self._chain(*_taylor_sqrt(self.value))

    def abs(self):
        _check_abs(self.value)
        return self if self.value > 0.0 else -self

    __abs__ = abs

    @property
    def dim(self) -> int:
        return self.grad.shape[0]


class Jet2(_Taylor):
    """Truncated second-order Taylor scalar: value + gradient + Hessian."""

    __slots__ = ("value", "grad", "hess")
    order = 2

    def __init__(self, value: float, grad, hess):
        self.value = float(value)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.grad.tolist()}, hess={self.hess.tolist()})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return _jet(self.value + other.value, self.grad + other.grad, self.hess + other.hess)
        return _jet(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return _jet(self.value - other.value, self.grad - other.grad, self.hess - other.hess)
        return _jet(self.value - other, self.grad, self.hess)

    def __rsub__(self, other):
        return _jet(other - self.value, -self.grad, -self.hess)

    def __neg__(self):
        return _jet(-self.value, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            cross = self.grad[:, None] * other.grad
            sym = cross + cross.T  # formed first so the Hessian stays exactly symmetric
            return _jet(
                self.value * other.value,
                self.value * other.grad + other.value * self.grad,
                self.value * other.hess + other.value * self.hess + sym,
            )
        return _jet(self.value * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return _jet(self.value / other, self.grad / other, self.hess / other)
        q = self.value / other.value  # raises ZeroDivisionError like floats
        qg = (self.grad - q * other.grad) / other.value
        cross = qg[:, None] * other.grad
        qh = (self.hess - q * other.hess - (cross + cross.T)) / other.value
        return _jet(q, qg, qh)

    def __rtruediv__(self, other):
        q = other / self.value
        qg = (-q * self.grad) / self.value
        cross = qg[:, None] * self.grad
        qh = (-q * self.hess - (cross + cross.T)) / self.value
        return _jet(q, qg, qh)

    def _chain(self, f0: float, f1: float, f2: float):
        outer = self.grad[:, None] * self.grad
        return _jet(f0, f1 * self.grad, f1 * self.hess + f2 * outer)

    def _exp(self, u: "Jet2", v: float):
        """exp(u) with value lane v."""
        outer = u.grad[:, None] * u.grad
        return _jet(v, v * u.grad, v * (u.hess + outer))


class Jet1(_Taylor):
    """Truncated first-order Taylor scalar: value + gradient.

    Every rule is Jet2's without the Hessian lane.
    """

    __slots__ = ("value", "grad")
    order = 1

    def __init__(self, value: float, grad):
        self.value = float(value)
        self.grad = np.asarray(grad, dtype=float)

    def __repr__(self):
        return f"Jet1({self.value!r}, grad={self.grad.tolist()})"

    def __add__(self, other):
        if isinstance(other, Jet1):
            return _jet1(self.value + other.value, self.grad + other.grad)
        return _jet1(self.value + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet1):
            return _jet1(self.value - other.value, self.grad - other.grad)
        return _jet1(self.value - other, self.grad)

    def __rsub__(self, other):
        return _jet1(other - self.value, -self.grad)

    def __neg__(self):
        return _jet1(-self.value, -self.grad)

    def __mul__(self, other):
        if isinstance(other, Jet1):
            grad = self.value * other.grad + other.value * self.grad
            return _jet1(self.value * other.value, grad)
        return _jet1(self.value * other, self.grad * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet1):
            return _jet1(self.value / other, self.grad / other)
        q = self.value / other.value  # raises ZeroDivisionError like floats
        return _jet1(q, (self.grad - q * other.grad) / other.value)

    def __rtruediv__(self, other):
        q = other / self.value
        return _jet1(q, (-q * self.grad) / self.value)

    def _chain(self, f0: float, f1: float, f2: float):
        return _jet1(f0, f1 * self.grad)

    def _exp(self, u: "Jet1", v: float):
        """exp(u) with value lane v."""
        return _jet1(v, v * u.grad)


def _jet(value: float, grad: np.ndarray, hess: np.ndarray) -> Jet2:
    """A Jet2 from float64 arrays, as every operation forms them, without
    the conversions of ``Jet2.__init__``."""
    jet = object.__new__(Jet2)
    jet.value = float(value)
    jet.grad = grad
    jet.hess = hess
    return jet


def _jet1(value: float, grad: np.ndarray) -> Jet1:
    """A Jet1 from a float64 array, without the conversions of ``Jet1.__init__``."""
    jet = object.__new__(Jet1)
    jet.value = float(value)
    jet.grad = grad
    return jet


def constant(value: float, dim: int, order: int = 2) -> Jet1 | Jet2:
    """A jet of the given order with the given value and vanishing derivatives."""
    if order == 1:
        return _jet1(value, np.zeros(dim))
    return _jet(value, np.zeros(dim), np.zeros((dim, dim)))


@lru_cache(maxsize=None)
def _units(d: int) -> tuple[np.ndarray, ...]:
    """The rows of one read-only d x d identity: the unit gradients every
    seed of dimension d shares (no rule writes into its operands)."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return tuple(eye)


def seed(point: Sequence[float], order: int = 2) -> list[Jet1] | list[Jet2]:
    """Independent-variable jets of the given order for a point: unit
    gradients, read-only rows of one identity cached per dimension (and
    zero Hessians)."""
    d = len(point)
    units = _units(d)
    if order == 1:
        return [_jet1(x, unit) for x, unit in zip(point, units)]
    return [_jet(x, unit, np.zeros((d, d))) for x, unit in zip(point, units)]



# ---------------------------------------------------------------------------
# The jet-generic closure tree

# f for the float path; jets provide these as methods.
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


def compile_expr(
    e: Expr, params: Mapping[str, float] | None = None
) -> Callable[[Sequence], object]:
    """Compile ``e`` once into a tree of closures; ``compile_expr(e, params)(point)``
    is ``evaluate(e, point, params)``, for float and jet points alike.

    Each node is dispatched on its type once, here, not at every call.
    Parameters are resolved now, an int (NumPy's included) to its float
    and a bool to ValueError; an unresolved one raises only when the
    result is called.  On jet points a subexpression that mentions no
    coordinate still yields a plain number, so a power's exponent is a jet
    exactly when it mentions a coordinate (the jets pick the power rule
    from that).
    """
    run = _compile(e, {} if params is None else params)

    def compiled(point: Sequence):
        result = run(point)
        return float(result) if isinstance(result, int) else result

    return compiled


def _compile(node: Expr, params: Mapping[str, float]) -> Callable[[Sequence], object]:
    if isinstance(node, Num):
        value = node.value
        return lambda point: value
    if isinstance(node, Coord):
        index = node.index
        return lambda point: point[index]
    if isinstance(node, Param):
        try:
            value = params[node.name]
        except KeyError:

            def unresolved(point):
                raise EvalDomainError(f"unresolved parameter {node.name!r}", node)

            return unresolved
        # an int would take the jet path of a function or power
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"parameter {node.name!r} must be a finite number, got {value!r}")
        if isinstance(value, (int, np.integer)):
            value = _parameter_value(node.name, int(value))
        return lambda point: value
    if isinstance(node, Neg):
        operand = _compile(node.operand, params)
        return lambda point: -operand(point)
    if isinstance(node, Call):
        return _compile_call(node, _compile(node.arg, params))
    if isinstance(node, BinOp):
        return _compile_binop(node, _compile(node.left, params), _compile(node.right, params))
    raise TypeError(f"not an expression node: {node!r}")


def _compile_call(node: Call, arg: Callable) -> Callable:
    fn = node.func

    def call(point):
        x = arg(point)
        try:
            if isinstance(x, float):
                if fn in ("ln", "sqrt"):
                    _check_positive(fn, x)
                result = _FLOAT_FUNCS[fn](x)
            else:  # a jet's rule asks the domain rules
                result = getattr(x, fn)()
        except _ARITHMETIC_ERRORS as exc:
            raise EvalDomainError(str(exc), node) from None
        if not math.isfinite(_lane(result)):
            raise EvalDomainError("non-finite result", node)
        return result

    return call


def _compile_binop(node: BinOp, left: Callable, right: Callable) -> Callable:
    if node.op in _OPERATORS:
        apply = _OPERATORS[node.op]
    elif node.op == "/":

        def apply(a, b):
            quotient = _divide(_lane(a), _lane(b))  # the value lane, after the rule
            return quotient if isinstance(a, float) and isinstance(b, float) else a / b

    else:  # "^", as which every other operator runs

        def apply(a, b):
            _check_power(_lane(a), _lane(b))
            if isinstance(a, float) and isinstance(b, float):
                return math.pow(a, b)
            return a**b

    def binop(point):
        a, b = left(point), right(point)
        try:
            result = apply(a, b)
            if not math.isfinite(_lane(result)):
                raise EvalDomainError("non-finite result", node)
        except _ARITHMETIC_ERRORS as exc:
            raise EvalDomainError(str(exc), node) from None
        return result

    return binop


def evaluate(e: Expr, point: Sequence, params: Mapping[str, float] | None = None):
    """Evaluate ``e`` at ``point``, whose entries may be floats or jets.

    Domain violations (division by zero, ln/sqrt of non-positive values,
    fractional powers of negative bases, overflow to non-finite) raise
    EvalDomainError rather than producing non-finite values.  Compiles
    ``e`` on every call; hold a ``compile_expr`` result to evaluate one
    expression at many points.
    """
    return compile_expr(e, params)(point)


