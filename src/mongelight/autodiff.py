"""Second-order forward-mode scalars.

A Jet2 carries a value, a gradient, and a Hessian with respect to all chart
coordinates through truncated second-order Taylor arithmetic, so first
metric derivatives and second derivatives of a scalar field come out of a
single evaluation pass.  The value lane reproduces plain float arithmetic
exactly, and the Hessian stays exactly symmetric under every operation
(each rule only ever adds symmetric outer-product pairs to symmetric
inputs).

Domain errors mirror the math module: ValueError for ln/sqrt/abs/power
violations, ZeroDivisionError for division by a zero value lane.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["Jet2", "seed", "constant"]


class Jet2:
    """Truncated second-order Taylor scalar: value + gradient + Hessian."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad, hess):
        self.value = float(value)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

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

    def __pow__(self, other):
        if isinstance(other, Jet2):
            if np.any(other.grad) or np.any(other.hess):
                # variable exponent: derivatives of exp(e*ln(b)), value lane
                # kept as the direct power so it matches float evaluation
                if self.value <= 0.0:
                    raise ValueError("power with variable exponent needs a positive base")
                u = other * self.ln()
                v = math.pow(self.value, other.value)
                outer = u.grad[:, None] * u.grad
                return _jet(v, v * u.grad, v * (u.hess + outer))
            other = other.value
        return self._pow_const(float(other))

    def _pow_const(self, c: float):
        v = self.value
        if v < 0.0 and not c.is_integer():
            raise ValueError(f"fractional power {c!r} of negative base {v!r}")
        if v == 0.0 and c < 2.0 and c not in (0.0, 1.0):
            raise ValueError(f"power {c!r} is not twice differentiable at 0")
        if c == 0.0:
            return constant(1.0, self.dim)
        if c == 1.0:
            return _jet(self.value, self.grad, self.hess)
        f1 = c * math.pow(v, c - 1.0)
        f2 = c * (c - 1.0) * math.pow(v, c - 2.0)
        return self._chain(math.pow(v, c), f1, f2)

    def __rpow__(self, base):
        if base <= 0.0:
            raise ValueError("power with variable exponent needs a positive base")
        u = self * math.log(base)
        v = math.pow(base, self.value)
        outer = u.grad[:, None] * u.grad
        return _jet(v, v * u.grad, v * (u.hess + outer))

    # -- elementary functions (chain rule with f' and f'') -------------------

    def _chain(self, f0: float, f1: float, f2: float):
        outer = self.grad[:, None] * self.grad
        return _jet(f0, f1 * self.grad, f1 * self.hess + f2 * outer)

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


def _jet(value: float, grad: np.ndarray, hess: np.ndarray) -> Jet2:
    """A Jet2 from float64 arrays, as every operation forms them, without
    the conversions of ``Jet2.__init__``."""
    jet = object.__new__(Jet2)
    jet.value = float(value)
    jet.grad = grad
    jet.hess = hess
    return jet


def constant(value: float, dim: int) -> Jet2:
    """A jet with the given value and vanishing derivatives."""
    return _jet(value, np.zeros(dim), np.zeros((dim, dim)))


def seed(point: Sequence[float]) -> list[Jet2]:
    """Independent-variable jets for a point: unit gradients, zero Hessians."""
    d = len(point)
    eye = np.eye(d)
    return [_jet(point[i], eye[i], np.zeros((d, d))) for i in range(d)]
