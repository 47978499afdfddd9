"""Forward-mode Taylor arithmetic: stacked second-order jets, and the
chain-rule coefficients that every derivative lane shares.

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
from _COEFFICIENTS, _power_coefficients and _check_variable_base, as the
tests' scalar jets do, and gives their value and gradient bits.

A plain-number exponent takes the constant-power rule, and a jet exponent
(passed exactly when the exponent mentions a coordinate) always takes the
exp(e ln b) rule, which needs a positive base even where the exponent's
derivatives happen to vanish.

Domain errors mirror the math module: ValueError for ln/sqrt/abs/power
violations, ZeroDivisionError for division by a zero value lane (and for a
coefficient f'' whose denominator underflows to 0), OverflowError where
exp or a power overflows.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

__all__ = ["JetStack", "seed_stack"]


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
    if v <= 0.0:
        raise ValueError(f"ln of non-positive value {v!r}")
    return math.log(v), 1.0 / v, -1.0 / (v * v)


def _taylor_sqrt(v: float) -> tuple[float, float, float]:
    if v <= 0.0:
        raise ValueError(f"sqrt of non-positive value {v!r}")
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
    for c = 0 or 1 (a constant 1, and u itself); raises where a jet does."""
    if v < 0.0 and not c.is_integer():
        raise ValueError(f"fractional power {c!r} of negative base {v!r}")
    if v == 0.0 and c < 2.0 and c not in (0.0, 1.0):
        raise ValueError(f"power {c!r} is not twice differentiable at 0")
    if c == 0.0 or c == 1.0:
        return None
    f1 = c * math.pow(v, c - 1.0)
    f2 = c * (c - 1.0) * math.pow(v, c - 2.0)
    return math.pow(v, c), f1, f2


def _check_variable_base(base: float) -> None:
    """Refuse the base of a power whose exponent mentions a coordinate,
    which the exp(e ln b) rule needs positive."""
    if base <= 0.0:
        raise ValueError(_VARIABLE_BASE)


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
        refused = None
        if not c.is_integer():
            refused = _rows(
                v < 0.0,
                lambda k: ValueError(f"fractional power {c!r} of negative base {float(v[k])!r}"),
            )
        if c < 2.0 and c not in (0.0, 1.0):
            message = f"power {c!r} is not twice differentiable at 0"
            refused = _merged(refused, _rows(v == 0.0, lambda k: ValueError(message)))
        if c == 0.0:
            return _stack(np.ones_like(v), np.zeros_like(self.grad), np.zeros_like(self.hess))
        if c == 1.0:
            return self
        p1, f1_faults = _each(math.pow, v, c - 1.0)
        p2, f2_faults = _each(math.pow, v, c - 2.0)
        p0, f0_faults = _each(math.pow, v, c)
        faults = _merged(refused, f1_faults, f2_faults, f0_faults)
        return self._chain(p0, c * p1, c * (c - 1.0) * p2, faults)

    def __pow__(self, other):
        if not isinstance(other, JetStack):
            return self._pow_const(float(other))
        refused = _rows(self.value <= 0.0, lambda k: ValueError(_VARIABLE_BASE))
        ln = self.ln()
        power, failed = _each(math.pow, self.value, other.value)
        return self._exp(other * ln, power, _merged(refused, ln.faults, failed))

    def __rpow__(self, base):
        if base <= 0.0:
            refused = dict.fromkeys(range(len(self.value)), ValueError(_VARIABLE_BASE))
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
        log, failed = _each(math.log, v)
        faults = None
        if np.count_nonzero(v * square > 0.0) < len(v):  # v <= 0, or v * v underflowed
            refused = _rows(v <= 0.0, lambda k: ValueError(f"ln of non-positive value {float(v[k])!r}"))
            faults = _merged(refused, failed, _rows(square == 0.0, _underflow))
        return self._chain(log, 1.0 / v, -1.0 / square, faults)

    def sqrt(self):
        v = self.value
        r = np.sqrt(v)  # correctly rounded, like math.sqrt
        rv = r * v
        faults = None
        if np.count_nonzero(rv > 0.0) < len(v):  # v <= 0, or r * v underflowed
            refused = _rows(v <= 0.0, lambda k: ValueError(f"sqrt of non-positive value {float(v[k])!r}"))
            faults = _merged(refused, _rows(rv == 0.0, _underflow))
        return self._chain(r, 0.5 / r, -0.25 / rv, faults)

    def abs(self):
        v = self.value
        refused = _rows(v == 0.0, lambda k: ValueError("abs is not differentiable at 0"))
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


_VARIABLE_BASE = "power with variable exponent needs a positive base"


def _underflow(k: int) -> ZeroDivisionError:
    """Jet2's error where a coefficient's denominator underflows to 0."""
    return ZeroDivisionError("float division by zero")


def _stack(value, grad, hess, faults=None) -> JetStack:
    """A JetStack from float64 arrays, as every rule forms them, without the
    conversions of ``JetStack.__init__``."""
    stack = object.__new__(JetStack)
    stack.value = value
    stack.grad = grad
    stack.hess = hess
    stack.faults = faults
    return stack


def _rows(mask: np.ndarray, error) -> dict[int, Exception] | None:
    """{row: error(row)} over the rows of the mask, or None where it has none."""
    if not np.count_nonzero(mask):
        return None
    return {k: error(k) for k in np.flatnonzero(mask).tolist()}


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
