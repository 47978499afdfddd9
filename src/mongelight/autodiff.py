"""Forward-mode Taylor arithmetic: stacked second-order jets, the chain-rule
coefficients that every derivative lane shares, and the expression
language's seven domain rules.

A JetStack carries the second-order jets of n points at once: values (n,),
gradients (d, n) and Hessians (d, d, n) with respect to all chart
coordinates, the points along the last axis.  One pass of its arithmetic
gives the second derivatives of a scalar field at every point (vector
forward mode; Griewank & Walther, Evaluating Derivatives, ch. 3).  Each
rule is that of the scalar second-order jet Jet2 (the tests' reference, in
tests/_jets.py), applied elementwise in the same floating-point operation
order, so row k is Jet2's result at point k bit for bit: elementwise
+ - * / and products with a row's scalar are IEEE-identical to Jet2's
float-times-array operations, and the elementary functions and powers are
computed by the math module on each element, as Jet2 computes them
(NumPy's exp, log, tan and pow differ from math's in the last place on
some inputs; sqrt is correctly rounded in both), with the coefficients f'
and f'' formed from them by the same arithmetic.  A rule never raises: a
row where Jet2 would raise holds NaN where the rule could not compute it
and records Jet2's exception in the result's ``faults`` ({row:
exception}); the other rows are computed as usual.  The library runs F
through JetStack (see exprlang.compile_stacked).

The metric, whose Christoffel symbols need only dg, runs exprlang's
first-order lane on plain floats.  It takes its coefficients f, f', f''
from _COEFFICIENTS and _power_coefficients, as the tests' scalar jets do,
and gives their value and gradient bits.

The domain rules are scalar functions, each written once here, and every
lane asks them: the float tree, the first-order lane and the tests' jets
call them on their numbers, and the array lanes flag the rows where a rule
may refuse with a cheap mask and ask the rule at each flagged row (see
_faults).  ln and sqrt need a positive argument (_check_positive), a
divisor must not be 0 (_divide), a negative base needs an integer exponent
and a zero base a non-negative one (_check_power), a variable exponent
needs a positive base (_check_variable_base), and, for jets only, abs
needs a nonzero argument (_check_abs) and u^c with c < 2 a nonzero base
(_power_coefficients).  Each raises ValueError, or ZeroDivisionError for
a zero divisor, as the math module would; the rules' own arithmetic adds
ZeroDivisionError for a coefficient f'' whose denominator underflows to 0,
and OverflowError where exp or a power overflows.

A plain-number exponent takes the constant-power rule, and a jet exponent
(passed exactly when the exponent mentions a coordinate) always takes the
exp(e ln b) rule, which needs a positive base even where the exponent's
derivatives happen to vanish.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

__all__ = ["JetStack", "seed_stack"]


# The domain rules: each refuses its numbers with the message every lane
# reports (see the module docstring)


def _check_positive(func: str, v: float) -> None:
    """Refuse the argument v <= 0 of ln or sqrt (named func)."""
    if v <= 0.0:
        raise ValueError(f"{func} of non-positive value {v!r}")


def _divide(a: float, b: float) -> float:
    """a / b, refusing a zero divisor (float division refuses one too,
    but with another message, and a NumPy float not at all)."""
    if b == 0.0:
        raise ZeroDivisionError("division by zero")
    return a / b


def _check_power(base: float, expo: float) -> None:
    """Refuse a negative base with a fractional exponent, and a zero base
    with a negative one."""
    if base < 0.0 and not float(expo).is_integer():
        raise ValueError(f"fractional power {expo!r} of negative base {base!r}")
    if base == 0.0 and expo < 0.0:
        raise ValueError("zero raised to a negative power")


def _check_variable_base(base: float) -> None:
    """Refuse the base of a power whose exponent mentions a coordinate,
    which the exp(e ln b) rule needs positive."""
    if base <= 0.0:
        raise ValueError("power with variable exponent needs a positive base")


def _check_abs(v: float) -> None:
    """Refuse a jet's abs at 0, where it has no derivative."""
    if v == 0.0:
        raise ValueError("abs is not differentiable at 0")


def _taylor_sin(v: float) -> tuple[float, float, float]:
    s, c = math.sin(v), math.cos(v)
    return s, c, -s


def _taylor_cos(v: float) -> tuple[float, float, float]:
    s, c = math.sin(v), math.cos(v)
    return c, -s, -c


def _taylor_tan(v: float) -> tuple[float, float, float]:
    t = math.tan(v)
    d = 1.0 + t * t
    return t, d, 2.0 * t * d


def _taylor_exp(v: float) -> tuple[float, float, float]:
    e = math.exp(v)
    return e, e, e


def _taylor_ln(v: float) -> tuple[float, float, float]:
    _check_positive("ln", v)
    return math.log(v), 1.0 / v, -1.0 / (v * v)


def _taylor_sqrt(v: float) -> tuple[float, float, float]:
    _check_positive("sqrt", v)
    r = math.sqrt(v)
    return r, 0.5 / r, -0.25 / (r * v)


# f, f', f'' of each elementary function but abs at a value, raising where
# a jet of that value raises; exprlang's first-order float lane and the
# tests' scalar jets compute their chain rules from these
_COEFFICIENTS = {
    "sin": _taylor_sin,
    "cos": _taylor_cos,
    "tan": _taylor_tan,
    "exp": _taylor_exp,
    "ln": _taylor_ln,
    "sqrt": _taylor_sqrt,
}


def _power_coefficients(v: float, c: float) -> tuple[float, float, float] | None:
    """f, f', f'' of u**c at u = v for a plain-number exponent c, or None
    for c = 0 or 1 (a constant 1, and u itself); raises where a jet does:
    where _check_power refuses, and at v = 0 where c < 2."""
    _check_power(v, c)
    if v == 0.0 and c < 2.0 and c not in (0.0, 1.0):
        raise ValueError(f"power {c!r} is not twice differentiable at 0")
    if c == 0.0 or c == 1.0:
        return None
    f1 = c * math.pow(v, c - 1.0)
    f2 = c * (c - 1.0) * math.pow(v, c - 2.0)
    return math.pow(v, c), f1, f2


class JetStack:
    """Second-order jets of n points, rows along the last axis: value (n,),
    grad (d, n), hess (d, d, n).

    Row k is the jet at point k.  With the rows last, a row's scalar (an
    (n,) array) broadcasts against its gradient and Hessian as Jet2's float
    does, so every rule reads as Jet2's code, and every elementwise loop
    runs over contiguous rows.  ``faults`` is {row: the exception Jet2 raises
    there} of the rule that made this stack, or None when no row raised;
    such a row holds NaN where the rule could not compute it.  A zero
    divisor is the one fault not recorded (its rows hold inf or NaN):
    compiled expressions refuse it before they divide.
    """

    __slots__ = ("value", "grad", "hess", "faults")

    def __init__(self, value, grad, hess):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        self.faults = None

    def __add__(self, other):
        if isinstance(other, JetStack):
            return _stack(self.value + other.value, self.grad + other.grad, self.hess + other.hess)
        return _stack(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, JetStack):
            return _stack(self.value - other.value, self.grad - other.grad, self.hess - other.hess)
        return _stack(self.value - other, self.grad, self.hess)

    def __rsub__(self, other):
        return _stack(other - self.value, -self.grad, -self.hess)

    def __neg__(self):
        return _stack(-self.value, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, JetStack):
            cross = self.grad[:, None] * other.grad
            sym = cross + cross.swapaxes(0, 1)
            return _stack(
                self.value * other.value,
                self.value * other.grad + other.value * self.grad,
                self.value * other.hess + other.value * self.hess + sym,
            )
        return _stack(self.value * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, JetStack):
            return _stack(self.value / other, self.grad / other, self.hess / other)
        q = self.value / other.value
        qg = (self.grad - q * other.grad) / other.value
        cross = qg[:, None] * other.grad
        qh = (self.hess - q * other.hess - (cross + cross.swapaxes(0, 1))) / other.value
        return _stack(q, qg, qh)

    def __rtruediv__(self, other):
        q = other / self.value
        qg = (-q * self.grad) / self.value
        cross = qg[:, None] * self.grad
        qh = (-q * self.hess - (cross + cross.swapaxes(0, 1))) / self.value
        return _stack(q, qg, qh)

    def _chain(self, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray, faults=None):
        outer = self.grad[:, None] * self.grad
        return _stack(f0, f1 * self.grad, f1 * self.hess + f2 * outer, faults)

    def _exp(self, u: "JetStack", v: np.ndarray, faults=None):
        """exp(u) with value lane v."""
        outer = u.grad[:, None] * u.grad
        return _stack(v, v * u.grad, v * (u.hess + outer), faults)

    def _pow_const(self, c: float):
        v = self.value
        if c == 0.0:
            return _stack(np.ones_like(v), np.zeros_like(self.grad), np.zeros_like(self.hess))
        if c == 1.0:
            return self
        refused = None
        if c < 2.0 or not c.is_integer():  # a base <= 0 may be refused
            refused = _faults(_power_coefficients, v <= 0.0, v, c)
        p1, f1_faults = _each(math.pow, v, c - 1.0)
        p2, f2_faults = _each(math.pow, v, c - 2.0)
        p0, f0_faults = _each(math.pow, v, c)
        faults = _merged(refused, f1_faults, f2_faults, f0_faults)
        return self._chain(p0, c * p1, c * (c - 1.0) * p2, faults)

    def __pow__(self, other):
        if not isinstance(other, JetStack):
            return self._pow_const(float(other))
        refused = _faults(_check_variable_base, self.value <= 0.0, self.value)
        ln = self.ln()
        power, failed = _each(math.pow, self.value, other.value)
        return self._exp(other * ln, power, _merged(refused, ln.faults, failed))

    def __rpow__(self, base):
        if base <= 0.0:
            refused = _faults(_check_variable_base, np.full(self.value.shape, True), base)
            nan = np.full_like(self.value, math.nan)
            return _stack(nan, np.zeros_like(self.grad), np.zeros_like(self.hess), refused)
        power, failed = _each(math.pow, base, self.value)
        return self._exp(self * math.log(base), power, failed)

    def sin(self):
        s, failed = _each(math.sin, self.value)
        c, _ = _each(math.cos, self.value)
        return self._chain(s, c, -s, failed)

    def cos(self):
        s, failed = _each(math.sin, self.value)
        c, _ = _each(math.cos, self.value)
        return self._chain(c, -s, -c, failed)

    def tan(self):
        t, failed = _each(math.tan, self.value)
        d = 1.0 + t * t
        return self._chain(t, d, 2.0 * t * d, failed)

    def exp(self):
        v, failed = _each(math.exp, self.value)
        return self._chain(v, v, v, failed)

    def ln(self):
        v = self.value
        square = v * v
        log, _ = _each(math.log, v)  # NaN where v <= 0, which the rule refuses
        faults = _faults(_taylor_ln, ~(v * square > 0.0), v)  # v <= 0, or v * v underflowed
        return self._chain(log, 1.0 / v, -1.0 / square, faults)

    def sqrt(self):
        v = self.value
        r = np.sqrt(v)  # correctly rounded, like math.sqrt
        rv = r * v
        faults = _faults(_taylor_sqrt, ~(rv > 0.0), v)  # v <= 0, or r * v underflowed
        return self._chain(r, 0.5 / r, -0.25 / rv, faults)

    def abs(self):
        v = self.value
        refused = _faults(_check_abs, v == 0.0, v)
        positive = v > 0.0
        if refused is None and np.count_nonzero(positive) == len(v):
            return self
        flip = -self
        return _stack(
            np.where(positive, v, flip.value),
            np.where(positive, self.grad, flip.grad),
            np.where(positive, self.hess, flip.hess),
            refused,
        )

    __abs__ = abs


def _stack(value, grad, hess, faults=None) -> JetStack:
    """A JetStack from float64 arrays, as every rule forms them, without the
    conversions of ``JetStack.__init__``."""
    stack = object.__new__(JetStack)
    stack.value = value
    stack.grad = grad
    stack.hess = hess
    stack.faults = faults
    return stack


def _faults(rule, flagged: np.ndarray, *lanes) -> dict[int, Exception] | None:
    """{row: the exception the scalar rule raises at that row's numbers}
    over the rows the mask flags (a plain number is every row's), or None
    where the rule raises at none.  The mask is a cheap superset of the
    rows the rule refuses; the rule decides, with its message."""
    if not np.count_nonzero(flagged):  # the usual case, without the loop
        return None
    faults = {}
    for k in np.flatnonzero(flagged).tolist():
        try:
            rule(*[lane[k].item() if isinstance(lane, np.ndarray) else lane for lane in lanes])
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            faults[k] = exc
    return faults or None


def _merged(*parts) -> dict[int, Exception] | None:
    """The first exception of each row over the parts, in order (None
    where every part is None)."""
    merged = None
    for part in parts:
        if part is None:
            continue
        if merged is None:
            merged = dict(part)
        else:
            for k, exc in part.items():
                merged.setdefault(k, exc)
    return merged


def _each(fn, *lanes) -> tuple[np.ndarray, dict[int, Exception] | None]:
    """fn of each row's numbers, computed by the math module (a plain number
    is every row's), and {row: exception} of the rows where fn raises, which
    hold NaN (None where no row raises)."""
    columns = [lane.tolist() if isinstance(lane, np.ndarray) else repeat(lane) for lane in lanes]
    try:
        return np.array(list(map(fn, *columns))), None
    except (ValueError, OverflowError):
        pass
    values, faults = [], {}
    for k, args in enumerate(zip(*columns)):
        try:
            values.append(fn(*args))
        except (ValueError, OverflowError) as exc:
            values.append(math.nan)
            faults[k] = exc
    return np.array(values), faults


def seed_stack(points) -> list[JetStack]:
    """Independent-variable stacks for the points, rows of an (n, d) array:
    coordinate i's values, unit gradients e_i and zero Hessians (one array,
    shared by the seeds: no rule writes into its operands)."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    values = points.T.copy()
    units = np.zeros((d, d, n))
    hess = np.zeros((d, d, n))
    for i in range(d):
        units[i, i] = 1.0
    return [_stack(values[i], units[i], hess) for i in range(d)]
