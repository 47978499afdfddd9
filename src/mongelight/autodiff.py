"""Forward-mode Taylor scalars of first and second order.

A Jet2 carries a value, a gradient, and a Hessian with respect to all chart
coordinates through truncated second-order Taylor arithmetic, so second
derivatives of a scalar field come out of a single evaluation pass.  The
value lane reproduces plain float arithmetic exactly, and the Hessian stays
exactly symmetric under every operation (each rule only ever adds symmetric
outer-product pairs to symmetric inputs).

A Jet1 carries only the value and the gradient.  It runs the same
floating-point operations, in the same order, as Jet2's value and gradient
lanes, and computes the same chain-rule coefficients f' and f'' (the
elementary functions and the power rules are shared), so it agrees with
Jet2 bit for bit there and raises on exactly the same inputs; it skips
only the Hessian arrays.  The library runs Jet1 where no second derivative
is read: the metric, whose Christoffel symbols need only dg, and F at the
finite-difference neighbours of the d >= 3 screen bracket, which read only
dF.  F at the analysed point stays second order.

The power rule is chosen by the exponent's type, never by its lanes: a
plain-number exponent takes the constant-power rule, and a jet exponent
(which a compiled expression passes exactly when the exponent mentions a
coordinate) always takes the exp(e ln b) rule, which needs a positive base
even where the exponent's derivatives happen to vanish.

Domain errors mirror the math module: ValueError for ln/sqrt/abs/power
violations, ZeroDivisionError for division by a zero value lane.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["Jet1", "Jet2", "seed", "constant"]


class _Taylor:
    """The elementary functions and powers, shared by both orders: each
    computes the scalar coefficients f, f', f'' and hands them to the
    order's _chain, or an exponent u and exp(u)'s value to the order's _exp."""

    __slots__ = ()

    def _pow_const(self, c: float):
        v = self.value
        if v < 0.0 and not c.is_integer():
            raise ValueError(f"fractional power {c!r} of negative base {v!r}")
        if v == 0.0 and c < 2.0 and c not in (0.0, 1.0):
            raise ValueError(f"power {c!r} is not twice differentiable at 0")
        if c == 0.0:
            return constant(1.0, self.dim, self.order)
        if c == 1.0:
            return self
        f1 = c * math.pow(v, c - 1.0)
        f2 = c * (c - 1.0) * math.pow(v, c - 2.0)
        return self._chain(math.pow(v, c), f1, f2)

    def __pow__(self, other):
        if not isinstance(other, _Taylor):
            return self._pow_const(float(other))
        # variable exponent: derivatives of exp(e*ln(b)), value lane kept
        # as the direct power so it matches float evaluation
        if self.value <= 0.0:
            raise ValueError("power with variable exponent needs a positive base")
        return self._exp(other * self.ln(), math.pow(self.value, other.value))

    def __rpow__(self, base):
        if base <= 0.0:
            raise ValueError("power with variable exponent needs a positive base")
        return self._exp(self * math.log(base), math.pow(base, self.value))

    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(c, -s, -c)

    def tan(self):
        t = math.tan(self.value)
        d = 1.0 + t * t
        return self._chain(t, d, 2.0 * t * d)

    def exp(self):
        v = math.exp(self.value)
        return self._chain(v, v, v)

    def ln(self):
        v = self.value
        if v <= 0.0:
            raise ValueError(f"ln of non-positive value {v!r}")
        return self._chain(math.log(v), 1.0 / v, -1.0 / (v * v))

    def sqrt(self):
        v = self.value
        if v <= 0.0:
            raise ValueError(f"sqrt of non-positive value {v!r}")
        r = math.sqrt(v)
        return self._chain(r, 0.5 / r, -0.25 / (r * v))

    def abs(self):
        if self.value == 0.0:
            raise ValueError("abs is not differentiable at 0")
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


def seed(point: Sequence[float], order: int = 2) -> list[Jet1] | list[Jet2]:
    """Independent-variable jets of the given order for a point: unit
    gradients (and zero Hessians)."""
    d = len(point)
    eye = np.eye(d)
    if order == 1:
        return [_jet1(point[i], eye[i]) for i in range(d)]
    return [_jet(point[i], eye[i], np.zeros((d, d))) for i in range(d)]
