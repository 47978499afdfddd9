"""Pointwise tensor kernels on a semi-Riemannian base manifold.

Everything here is a pure function of (field, point): metric values and
inverse, Levi-Civita connection coefficients from jet derivatives of the
metric, and Gram-Schmidt orthonormalization under an indefinite inner
product.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff
from .exprlang import CoordinateChart, Expr, evaluate, parse, render

__all__ = [
    "MetricField",
    "OrthoFrame",
    "DegenerateMetricError",
    "NearNullPivotError",
    "local_scale",
    "invert_metric",
    "evaluate_matrix",
    "metric_at",
    "metric_jets_at",
    "christoffel_from_partials",
    "christoffel_at",
    "orthonormalize",
]

DEGENERACY_THRESHOLD = 1e-10
SYMMETRY_TOLERANCE = 1e-12
INVERSE_RESIDUAL_TOLERANCE = 1e-10


class DegenerateMetricError(Exception):
    """Metric determinant below the degeneracy threshold at a point."""


class NearNullPivotError(Exception):
    """Every remaining Gram-Schmidt candidate is g-null within tolerance."""


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
    identity of the generator that holds the field.
    """

    chart: CoordinateChart
    components: tuple[tuple[Expr, ...], ...]
    # each structurally distinct component once, with the (j, k) slots it fills
    _distinct: tuple[tuple[Expr, tuple[tuple[int, int], ...]], ...] = dataclasses.field(
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
        distinct = tuple((expr, tuple(where)) for (_, expr), where in slots.items())
        object.__setattr__(self, "_distinct", distinct)

    @classmethod
    def from_strings(cls, chart: CoordinateChart, rows: Sequence[Sequence[str]]) -> "MetricField":
        parsed = [[parse(entry, chart) for entry in row] for row in rows]
        return cls(chart, parsed)

    def is_structurally_symmetric(self) -> bool:
        comps = self.components
        d = self.chart.dimension
        return all(
            render(comps[i][j]) == render(comps[j][i]) for i in range(d) for j in range(i + 1, d)
        )


@dataclass
class OrthoFrame:
    """Vectors with g(v_i, v_j) = sign_i * delta_ij; rows of ``vectors``."""

    vectors: np.ndarray
    signs: tuple[int, ...]


def evaluate_matrix(field: MetricField, point) -> np.ndarray:
    """Raw metric matrix at a point, with no symmetry or invertibility gates."""
    params = field.chart.parameters
    d = field.chart.dimension
    g = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            g[i, j] = evaluate(field.components[i][j], point, params)
    return g


def invert_metric(g: np.ndarray, where: str = "") -> np.ndarray:
    """Verified inverse of a symmetric metric matrix.

    Raises DegenerateMetricError when the matrix is asymmetric, when |det|
    falls below the degeneracy threshold relative to the local scale, or
    when the inverse residual ||g g^-1 - I||_inf exceeds tolerance.
    """
    scale = local_scale(g)
    if np.max(np.abs(g - g.T)) > SYMMETRY_TOLERANCE * scale:
        raise DegenerateMetricError(f"metric not symmetric{where}")
    d = g.shape[0]
    # in logs, because scale**d overflows for extreme metrics
    if np.linalg.slogdet(g)[1] < np.log(DEGENERACY_THRESHOLD) + d * np.log(scale):
        raise DegenerateMetricError(f"metric degenerate{where}")
    ginv = np.linalg.inv(g)
    residual = np.max(np.abs(g @ ginv - np.eye(d)))
    if residual >= INVERSE_RESIDUAL_TOLERANCE:
        raise DegenerateMetricError(f"metric inverse residual {residual:.3e}{where}")
    return ginv


def metric_at(field: MetricField, point: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Metric matrix and verified inverse at a point."""
    g = evaluate_matrix(field, point)
    return g, invert_metric(g, f" at {list(point)}")


def metric_jets_at(field: MetricField, point: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Metric values and first partials (dg[i, j, k] = d_i g_jk) in one jet pass,
    evaluating each distinct component once."""
    params = field.chart.parameters
    d = field.chart.dimension
    jets = autodiff.seed(point)
    g = np.empty((d, d))
    dg = np.empty((d, d, d))
    for expr, slots in field._distinct:
        jet = evaluate(expr, jets, params)
        if isinstance(jet, autodiff.Jet2):
            value, grad = jet.value, jet.grad
        else:  # constant entry
            value, grad = jet, 0.0
        for j, k in slots:
            g[j, k] = value
            dg[:, j, k] = grad
    return g, dg


def christoffel_from_partials(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Assemble Gamma[k, i, j] from the inverse metric and dg[i, j, k] = d_i g_jk."""
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij)
    bracket = (
        np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (2, 0, 1)) - dg
    )  # bracket[l, i, j]
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, bracket)
    return 0.5 * (gamma + np.transpose(gamma, (0, 2, 1)))


def christoffel_at(field: MetricField, point: Sequence[float]) -> np.ndarray:
    """Levi-Civita coefficients Gamma[k, i, j], exactly symmetric in (i, j)."""
    g, dg = metric_jets_at(field, point)
    ginv = invert_metric(g, f" at {list(point)}")
    return christoffel_from_partials(ginv, dg)


def orthonormalize(
    vectors: Sequence[Sequence[float]],
    g: np.ndarray,
    tolerance: float = DEGENERACY_THRESHOLD,
    count: int | None = None,
) -> OrthoFrame:
    """Indefinite Gram-Schmidt with greedy pivoting.

    At each step the remaining candidate whose projected self-product has
    the largest magnitude is normalized by sqrt(|g(v, v)|) and its sign
    recorded.  Raises NearNullPivotError when every candidate's
    self-product falls below tolerance * scale, which signals a degenerate
    restriction of g to the span.  With ``count`` set, stops after that
    many vectors were accepted (used to drop dependent directions).
    """
    g = np.asarray(g, dtype=float)
    remaining = [np.asarray(v, dtype=float) for v in vectors]
    scale = local_scale(g, *remaining)
    frame: list[np.ndarray] = []
    signs: list[int] = []
    while remaining and (count is None or len(frame) < count):
        projected = []
        for v in remaining:
            w = v.copy()
            for u, sign in zip(frame, signs):
                w = w - sign * float(w @ g @ u) * u
            projected.append((w, float(w @ g @ w)))
        best = max(range(len(projected)), key=lambda k: abs(projected[k][1]))
        w, q = projected[best]
        if abs(q) < tolerance * scale:
            raise NearNullPivotError(
                f"all remaining self-products below {tolerance:g} * scale"
            )
        norm = np.sqrt(abs(q))
        frame.append(w / norm)
        signs.append(1 if q > 0.0 else -1)
        del remaining[best]
    return OrthoFrame(np.array(frame), tuple(signs))
