"""Tensor kernels on a semi-Riemannian base manifold.

Everything here is a pure function of its inputs: the metric and its first
partials at a point, from jets; the verified inverses of a stack of metric
matrices, with the symmetry, degeneracy and inverse-residual gates checked
per row in one call (the one place these gates live); and Levi-Civita
connection coefficients from jet derivatives of the metric.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff
from .exprlang import CoordinateChart, Expr, compile_expr, parse, render

__all__ = [
    "MetricField",
    "OrthoFrame",
    "DegenerateMetricError",
    "local_scale",
    "invert_metric",
    "metric_jets_at",
    "christoffel_from_partials",
]

DEGENERACY_THRESHOLD = 1e-10
SYMMETRY_TOLERANCE = 1e-12
INVERSE_RESIDUAL_TOLERANCE = 1e-10


class DegenerateMetricError(Exception):
    """Metric determinant below the degeneracy threshold at a point."""


def local_scale(*tensors) -> float:
    """1 + the largest absolute entry of the given tensors."""
    peak = 0.0
    for t in tensors:
        a = np.asarray(t, dtype=float)
        if a.size:
            peak = max(peak, float(np.max(np.abs(a))))
    return 1.0 + peak


@dataclass(frozen=True)
class MetricField:
    """A d x d matrix of component expressions over a chart.

    Frozen, with tuple rows, because per-point results are cached by the
    identity of the generator that holds the field.  Each structurally
    distinct component is compiled once, here.
    """

    chart: CoordinateChart
    components: tuple[tuple[Expr, ...], ...]
    # each structurally distinct component once: compiled, with the (j, k)
    # slots it fills
    _distinct: tuple[tuple[Callable, tuple[tuple[int, int], ...]], ...] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        d = self.chart.dimension
        components = tuple(tuple(row) for row in self.components)
        if len(components) != d or any(len(row) != d for row in components):
            raise ValueError(f"metric must be {d}x{d} for this chart")
        object.__setattr__(self, "components", components)
        # render tells Num(-0.0) from Num(0.0), which == does not; == tells
        # Num(-2.0)^2 from -(2.0^2), which render does not
        slots: dict[tuple[str, Expr], list[tuple[int, int]]] = {}
        for j in range(d):
            for k in range(d):
                expr = components[j][k]
                slots.setdefault((render(expr), expr), []).append((j, k))
        params = self.chart.parameters
        distinct = tuple(
            (compile_expr(expr, params), tuple(where)) for (_, expr), where in slots.items()
        )
        object.__setattr__(self, "_distinct", distinct)

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

    A row fails at the first of three gates: it is asymmetric, its |det|
    falls below the degeneracy threshold relative to the scale 1 + max|g|,
    or its inverse residual ||g g^-1 - I||_inf exceeds tolerance.  The
    message ends " at [x, y, ...]" with the row's base point, and the row's
    inverse is NaN.  Each row is computed on its own; a row holding NaN
    passes every gate, since a comparison with NaN is false.
    """
    n, d = g.shape[:2]
    scale = 1.0 + np.abs(g).max(axis=(1, 2))
    asymmetric = np.abs(g - g.transpose(0, 2, 1)).max(axis=(1, 2)) > SYMMETRY_TOLERANCE * scale
    # in logs, because scale**d overflows for extreme metrics
    degenerate = np.linalg.slogdet(g)[1] < np.log(DEGENERACY_THRESHOLD) + d * np.log(scale)
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


def metric_jets_at(field: MetricField, point: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Metric values and first partials (dg[i, j, k] = d_i g_jk) in one pass
    of first-order jets, which give Jet2's value and gradient bits on every
    expression; each distinct component is evaluated once."""
    d = field.chart.dimension
    jets = autodiff.seed(point, 1)
    g = np.empty((d, d))
    dg = np.empty((d, d, d))
    for component, slots in field._distinct:
        jet = component(jets)
        if isinstance(jet, float):  # constant entry
            value, grad = jet, 0.0
        else:
            value, grad = jet.value, jet.grad
        for j, k in slots:
            g[j, k] = value
            dg[:, j, k] = grad
    return g, dg


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
