"""Tensor kernels on a semi-Riemannian base manifold.

Everything here is a pure function of its inputs: the metric at a point,
its values alone or with its first partials from first-order forward mode
on plain floats; the verified
inverses of a stack of metric matrices, with the symmetry, degeneracy and
inverse-residual gates checked per row in one call (the one place these
gates live); and Levi-Civita connection coefficients from jet derivatives
of the metric.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exprlang import CoordinateChart, Expr, _compile_first_order, compile_expr, parse, render

__all__ = [
    "MetricField",
    "OrthoFrame",
    "DegenerateMetricError",
    "invert_metric",
    "metric_jets_at",
    "christoffel_from_partials",
]

DEGENERACY_THRESHOLD = 1e-10
_LOG_THRESHOLD = float(np.log(DEGENERACY_THRESHOLD))
_LEAST_SUBNORMAL = float(np.finfo(float).smallest_subnormal)
SYMMETRY_TOLERANCE = 1e-12
INVERSE_RESIDUAL_TOLERANCE = 1e-10


class DegenerateMetricError(Exception):
    """Metric determinant below the degeneracy threshold at a point."""


@dataclass(frozen=True)
class MetricField:
    """A d x d matrix of component expressions over a chart.

    Frozen, with tuple rows, because per-point results are cached by the
    identity of the generator that holds the field.  Each structurally
    distinct component is compiled twice, here: for the values alone
    (compile_expr's float tree, which the order-0 pass runs) and for
    first-order jets on plain floats (exprlang's first-order lane, which
    gives the value and gradient bits of the tests' scalar jet Jet1).  A slot
    map sends each slot [j, k] to its distinct component, so that
    metric_jets_at fills g (and dg) with one gather per pass.
    """

    chart: CoordinateChart
    components: tuple[tuple[Expr, ...], ...]
    # each structurally distinct component once, compiled for floats and
    # for first-order jets
    _distinct: tuple[Callable, ...] = dataclasses.field(init=False, repr=False, compare=False)
    _first_order: tuple[Callable, ...] = dataclasses.field(init=False, repr=False, compare=False)
    # stored in the shapes of g and of (g, dg), so that a pass's one gather
    # gives them with no reshape: _slots[j, k] is the index c into _distinct
    # of component [j][k]; into the flat rows (value, then gradient) of the
    # first-order pass, _jet_slots[0, j, k] = c*(d + 1) and
    # _jet_slots[1 + i, j, k] = c*(d + 1) + 1 + i, for d_i of component [j][k]
    _slots: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    _jet_slots: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.chart.dimension
        components = tuple(tuple(row) for row in self.components)
        if len(components) != d or any(len(row) != d for row in components):
            raise ValueError(f"metric must be {d}x{d} for this chart")
        object.__setattr__(self, "components", components)
        # render tells Num(-0.0) from Num(0.0), which == does not; == tells
        # Num(-2.0)^2 from -(2.0^2), which render does not
        distinct: dict[tuple[str, Expr], int] = {}
        index = [
            distinct.setdefault((render(e), e), len(distinct)) for row in components for e in row
        ]
        slots = np.array(index, dtype=np.intp).reshape(d, d)
        jet_slots = np.array(
            [c * (d + 1) for c in index] + [c * (d + 1) + 1 + i for i in range(d) for c in index],
            dtype=np.intp,
        ).reshape(d + 1, d, d)
        slots.flags.writeable = jet_slots.flags.writeable = False
        params = self.chart.parameters
        compiled = tuple(compile_expr(expr, params) for _, expr in distinct)
        first_order = tuple(_compile_first_order(expr, params, d) for _, expr in distinct)
        object.__setattr__(self, "_distinct", compiled)
        object.__setattr__(self, "_first_order", first_order)
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_jet_slots", jet_slots)

    @classmethod
    def from_strings(cls, chart: CoordinateChart, rows: Sequence[Sequence[str]]) -> "MetricField":
        parsed = [[parse(entry, chart) for entry in row] for row in rows]
        return cls(chart, parsed)


@dataclass
class OrthoFrame:
    """Vectors with g(v_i, v_j) = sign_i * delta_ij; rows of ``vectors``."""

    vectors: np.ndarray
    signs: tuple[int, ...]


def invert_metric(
    g: np.ndarray, bases: Sequence[Sequence[float]]
) -> tuple[np.ndarray, dict[int, DegenerateMetricError]]:
    """Verified inverses of the metric matrices g (n, d, d) at the points
    ``bases``, and {row: DegenerateMetricError} of the rows that have none.

    A row fails at the first of three gates: it is asymmetric (beyond a
    tolerance relative to 1 + max|g|), it is singular or its |det| falls
    below the degeneracy threshold times max|g|**d (so no constant
    rescaling of g moves the gate), or its inverse residual
    ||g g^-1 - I||_inf exceeds tolerance.  The message ends " at [x, y,
    ...]" with the row's base point, and the row's inverse is NaN.  Each
    row is computed on its own; a row holding NaN passes every gate, since
    a comparison with NaN is false.
    """
    n, d = g.shape[:2]
    peak = np.abs(g).max(axis=(1, 2))
    skew = np.abs(g - g.transpose(0, 2, 1)).max(axis=(1, 2))
    asymmetric = skew > SYMMETRY_TOLERANCE * (1.0 + peak)
    # |det g| against max|g|**d, which a constant rescaling of g moves alike;
    # in logs, because peak**d overflows for extreme metrics.  Only g = 0
    # has a peak below the least subnormal, and raising it there keeps the
    # floor finite: a singular row's log|det| = -inf then always fails.
    floor = _LOG_THRESHOLD + d * np.log(np.maximum(peak, _LEAST_SUBNORMAL))
    degenerate = np.linalg.slogdet(g)[1] < floor
    refused = asymmetric | degenerate
    if refused.any():  # a refused row is inverted as the identity, so it cannot raise
        g = np.where(refused[:, None, None], np.eye(d), g)
    ginv = np.linalg.inv(g)
    product = g @ ginv
    product.reshape(n, d * d)[:, :: d + 1] -= 1.0  # g g^-1 - I, on a view of the diagonals
    residual = np.abs(product).max(axis=(1, 2))
    failures = {}
    for k in np.flatnonzero(refused | (residual >= INVERSE_RESIDUAL_TOLERANCE)).tolist():
        if asymmetric[k]:
            message = "metric not symmetric"
        elif degenerate[k]:
            message = "metric degenerate"
        else:
            message = f"metric inverse residual {residual[k]:.3e}"
        failures[k] = DegenerateMetricError(f"{message} at {list(bases[k])}")
        ginv[k] = np.nan
    return ginv, failures


def metric_jets_at(
    field: MetricField, point: Sequence[float], order: int = 1
) -> tuple[np.ndarray, np.ndarray | None]:
    """The metric g (d, d) at a point and, at order 1, its first partials
    dg[i, j, k] = d_i g_jk, else None.

    Each distinct component is evaluated once, and g and dg are gathered
    from the per-component values and gradients through the slot map.
    Order 1 runs first-order forward mode on plain floats (exprlang's
    first-order lane), which gives the value and gradient bits of the tests'
    scalar jets Jet1 and Jet2 on every expression and raises where Jet1
    raises.  Order 0 runs the compiled expressions (compile_expr's float
    tree) on the plain float point; the first order's value lane runs the
    same floating-point operations, so g has order 1's bits.  It fails
    only where the values leave the domain
    (division by zero, ln or sqrt of a non-positive value, a non-finite
    result), with order 1's message, and not where only a derivative does
    not exist (abs or u^0.5 at 0).  The point is read by float() alone; one
    that float() cannot read, or whose number of coordinates is not the
    chart's, raises the ValueError of the chart's reader
    (CoordinateChart.read), with classify's message.
    """
    d = len(field._slots)  # the chart's dimension, read from the (d, d) slot map
    try:
        x = tuple(map(float, point))
    except (TypeError, ValueError, OverflowError):
        x = ()
    if len(x) != d:  # the chart's reader says why
        x = field.chart.read(point)
    if order == 0:
        return np.array([component(x) for component in field._distinct])[field._slots], None
    if order != 1:
        raise ValueError(f"metric order must be 0 or 1, got {order!r}")
    rows = []
    for component in field._first_order:
        value, grad = component(x)
        rows.append(value)
        rows.extend(grad)
    jets = np.array(rows)[field._jet_slots]
    return jets[0], jets[1:]


def christoffel_from_partials(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Assemble Gamma[k, i, j] from the inverse metric and dg[i, j, k] = d_i g_jk
    of points stacked along a leading axis: ginv (n, d, d) and dg
    (n, d, d, d) give (n, d, d, d), each row computed on its own.
    """
    n, d = ginv.shape[:2]
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij)
    bracket = (
        np.transpose(dg, (0, 2, 1, 3)) + np.transpose(dg, (0, 3, 1, 2)) - dg
    )  # bracket[n, l, i, j]
    gamma = 0.5 * (ginv @ bracket.reshape(n, d, d * d)).reshape(n, d, d, d)
    gamma = 0.5 * (gamma + np.transpose(gamma, (0, 1, 3, 2)))
    return gamma
