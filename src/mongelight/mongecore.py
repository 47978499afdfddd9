"""Graph hypersurfaces x0 = F(p) over a semi-Riemannian base, and their
induced lightlike geometry.

A generator (chart, metric g, scalar field F) determines the ambient
product space with metric diag(-1, g) and the hypersurface of points
(F(p), p).  Ambient vectors are (d+1)-component arrays with slot 0 the
x0 component and slots 1..d the lifted base components.

At each admissible base point this module computes the tangent null
normal xi = (1, grad F), the canonical transversal section
N = -1/2 * (1, -grad F), the coordinate frame e_i = (dF_i) d0 + d_i with
its induced Gram matrix and radical rank, the second fundamental form
B = -Hess(F), the canonical screen frame (the lift (0, v) of the
g-orthonormal frame of ker dF), Gauss/Weingarten decompositions
of ambient derivatives, and the umbilic / minimal defect diagnostics used
by classify().

Constant rescalings xi' = c * xi (with N' = N / c) are supported through
the ``xi_scale`` arguments, under which B scales by exactly c and every
classification verdict is unchanged.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import semiriemann
from .exprlang import (
    CoordinateChart,
    DomainConstraint,
    EvalDomainError,
    Expr,
    check_domain,
    evaluate,
)
from .autodiff import Jet2, constant, seed
from .semiriemann import (
    DegenerateMetricError,
    MetricField,
    NearNullPivotError,
    OrthoFrame,
    christoffel_from_partials,
    invert_metric,
    local_scale,
    orthonormalize,
)

__all__ = [
    "MongeGenerator",
    "SurfacePoint",
    "Tolerances",
    "PointAnalysis",
    "Verdict",
    "ClassificationReport",
    "NotLightlikeWarning",
    "ScreenRankError",
    "IllPosedFitError",
    "TangencyError",
    "NonFiniteValueError",
    "EmptySampleError",
    "ambient_metric_at",
    "normal_and_transversal_at",
    "lightlike_defect_at",
    "monge_frame_at",
    "second_fundamental_form_at",
    "umbilic_fit_at",
    "minimal_defect_at",
    "screen_frame_at",
    "ambient_derivative_at",
    "gauss_decompose_at",
    "weingarten_at",
    "screen_integrability_defect_at",
    "classify",
]

BRACKET_STEP = 1e-5


class NotLightlikeWarning(UserWarning):
    """Second-form requested where the hypersurface is not lightlike."""


class ScreenRankError(Exception):
    """Screen projection yielded fewer (or more) than d-1 independent vectors."""


class IllPosedFitError(Exception):
    """The umbilic target tensor dF (x) dF - g vanished; the fit is ill posed."""


class TangencyError(Exception):
    """A Gauss/Weingarten tangency certificate exceeded tolerance."""


class NonFiniteValueError(Exception):
    """A number derived at a sample point overflowed or became NaN."""


class EmptySampleError(Exception):
    """classify() received no sample points."""


@dataclass(frozen=True, eq=False)
class MongeGenerator:
    """The generating triple: chart, base metric, and scalar field.

    Flagged degenerate exactly where g(grad F, grad F) = 1; the induced
    metric on the graph hypersurface is lightlike at those points.
    Frozen, because per-point results are cached by generator identity.
    """

    name: str
    chart: CoordinateChart
    metric: MetricField
    scalar_field: Expr
    constraints: tuple[DomainConstraint, ...] = ()

    @property
    def dimension(self) -> int:
        return self.chart.dimension

    @property
    def params(self):
        return self.chart.parameters

    def admissible(self, base: Sequence[float]) -> bool:
        return check_domain(self.constraints, base, self.params)

    def surface_point(self, base: Sequence[float]) -> "SurfacePoint":
        base = tuple(float(x) for x in base)
        x0 = evaluate(self.scalar_field, base, self.params)
        return SurfacePoint(base, x0)


@dataclass(frozen=True)
class SurfacePoint:
    """A hypersurface point (x0, base) with x0 = F(base) by construction."""

    base: tuple[float, ...]
    x0: float


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerance knob; gates compare defects against base * scale.
    base must be a finite number > 0 (not a bool)."""

    base: float = 1e-8

    def __post_init__(self):
        real = isinstance(self.base, (int, float)) and not isinstance(self.base, bool)
        if not (real and math.isfinite(self.base) and self.base > 0):
            raise ValueError(f"tolerance must be a finite number > 0, got {self.base!r}")
        object.__setattr__(self, "base", float(self.base))


def _base_of(p) -> tuple[float, ...]:
    if isinstance(p, SurfacePoint):
        return p.base
    return tuple(float(x) for x in p)


# ---------------------------------------------------------------------------
# Shared per-point computation


@dataclass
class _PointData:
    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray  # dg[i, j, k] = d_i g_jk
    dF: np.ndarray
    d2F: np.ndarray  # plain coordinate partials d_i d_j F
    xi_hat: np.ndarray
    gbar: np.ndarray  # ambient metric diag(-1, g)
    xi: np.ndarray  # (1, xi_hat), unscaled
    nxi: np.ndarray  # (-1/2, xi_hat/2), unscaled
    frame: np.ndarray  # rows e_i, shape (d, d+1)
    gamma: np.ndarray  # gamma[k, i, j]
    hess: np.ndarray  # covariant Hessian
    norm2: float
    induced: np.ndarray  # Gram matrix of the frame

    @cached_property
    def kernel_frame(self) -> OrthoFrame:
        """Orthonormal frame of ker dF under g (d-1 base vectors), built once
        for minimal_defect_at and screen_frame_at: the null space of the row
        vector dF, spanned by eliminating against its largest-magnitude
        entry, then orthonormalized; requires d >= 2."""
        d = self.dF.shape[0]
        if d < 2:
            raise ScreenRankError("kernel frame needs chart dimension >= 2")
        pivot = int(np.argmax(np.abs(self.dF)))
        if self.dF[pivot] == 0.0:
            raise ScreenRankError("dF vanishes; kernel of dF is not a hyperplane")
        others = [j for j in range(d) if j != pivot]
        basis = np.eye(d)[others]
        basis[:, pivot] = -self.dF[others] / self.dF[pivot]
        return orthonormalize(basis, self.g)


def _jets(gen: MongeGenerator, base: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """(g, ginv, dg, dF, d2F, xi_hat) at a point; uncached, because the
    screen bracket's finite-difference neighbours read only dF and xi_hat."""
    g, dg = semiriemann.metric_jets_at(gen.metric, base)
    ginv = invert_metric(g, at=base)
    jet = evaluate(gen.scalar_field, seed(list(base)), gen.params)
    if not isinstance(jet, Jet2):
        jet = constant(jet, gen.dimension)
    dF = jet.grad
    # evaluate() checks only the value lane; an infinite dF would turn the
    # frame's Gram matrix into NaN
    if not np.isfinite(dF).all():
        raise NonFiniteValueError(f"derivatives not finite at {list(base)}")
    return g, ginv, dg, dF, jet.hess, ginv @ dF


@lru_cache(maxsize=512)
def _point_data(gen: MongeGenerator, base: tuple[float, ...]) -> _PointData:
    g, ginv, dg, dF, d2F, xi_hat = _jets(gen, base)
    gamma = christoffel_from_partials(ginv, dg)
    hess = d2F - np.einsum("kij,k->ij", gamma, dF)
    # an overflowed dg or d2F lane leaves hess non-finite
    if not np.isfinite(hess).all():
        raise NonFiniteValueError(f"derivatives not finite at {list(base)}")
    d = gen.dimension
    gbar = np.zeros((d + 1, d + 1))
    gbar[0, 0] = -1.0
    gbar[1:, 1:] = g
    xi = np.concatenate(([1.0], xi_hat))
    nxi = np.concatenate(([-0.5], 0.5 * xi_hat))
    frame = np.hstack([dF.reshape(d, 1), np.eye(d)])
    norm2, induced = float(dF @ xi_hat), -np.outer(dF, dF) + g
    return _PointData(
        g, ginv, dg, dF, d2F, xi_hat, gbar, xi, nxi, frame, gamma, hess, norm2, induced
    )


def _screen_fields(dF: np.ndarray, xi_hat: np.ndarray) -> np.ndarray:
    """Base parts of the screen fields s_i = e_i - gbar(e_i, N) xi, as rows.

    gbar(e_i, N) = dF_i exactly, so s_i = (0, delta_i - dF_i xi_hat): the
    x0 part vanishes identically and the base part is I - dF (x) xi_hat.
    """
    return np.eye(len(dF)) - np.outer(dF, xi_hat)


# ---------------------------------------------------------------------------
# Induced objects


def ambient_metric_at(gen: MongeGenerator, point) -> np.ndarray:
    """Ambient metric diag(-1, g) at a base point."""
    return _point_data(gen, _base_of(point)).gbar.copy()


def normal_and_transversal_at(
    gen: MongeGenerator, p, xi_scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Null normal xi = c*(1, grad F) and transversal N = -(1/2c)*(1, -grad F).

    On the degenerate locus these satisfy gbar(xi, xi) = 0,
    gbar(xi, N) = 1, gbar(N, N) = 0 up to the lightlike defect.
    """
    data = _point_data(gen, _base_of(p))
    return xi_scale * data.xi, data.nxi / xi_scale


def lightlike_defect_at(gen: MongeGenerator, point) -> float:
    """g(grad F, grad F) - 1; zero exactly where the hypersurface is lightlike."""
    return _point_data(gen, _base_of(point)).norm2 - 1.0


def monge_frame_at(
    gen: MongeGenerator, p, tolerance: float = 1e-8
) -> tuple[np.ndarray, np.ndarray, int]:
    """Coordinate frame e_i = (dF_i, delta_i), its Gram matrix, and radical rank.

    The radical rank counts singular values of the Gram matrix below
    tolerance * scale; it is 1 exactly on the degenerate locus.
    """
    data = _point_data(gen, _base_of(p))
    singular = np.linalg.svd(data.induced, compute_uv=False)
    rank_deficiency = int(np.sum(singular < tolerance * local_scale(data.induced)))
    return data.frame.copy(), data.induced.copy(), rank_deficiency


def second_fundamental_form_at(
    gen: MongeGenerator, p, xi_scale: float = 1.0, tolerance: float = 1e-8
) -> np.ndarray:
    """B(e_i, e_j) = -c * Hess(F)_ij in the coordinate frame.

    Warns when the point is not lightlike within tolerance, where B loses
    its geometric meaning.
    """
    data = _point_data(gen, _base_of(p))
    if not _is_lightlike(data, tolerance):
        warnings.warn(
            f"second fundamental form at non-lightlike point (defect {data.norm2 - 1.0:.3e})",
            NotLightlikeWarning,
            stacklevel=2,
        )
    return -xi_scale * data.hess


def umbilic_fit_at(gen: MongeGenerator, p) -> tuple[float, float]:
    """Least-squares fit Hess(F) = rho * (dF (x) dF - g).

    Returns (rho, residual) with residual = ||Hess - rho T||_inf normalized
    by 1 + ||Hess||_inf + ||T||_inf.  The point is umbilic when the
    residual is below tolerance, geodesic when ||Hess||_inf itself is.
    """
    rho, residual, _ = _umbilic_fit(_point_data(gen, _base_of(p)))
    if rho is None:
        raise IllPosedFitError("dF (x) dF - g vanishes; cannot fit rho")
    return rho, residual


def _umbilic_fit(data: _PointData) -> tuple[float | None, float | None, float]:
    """(rho, residual, normalizer) of umbilic_fit_at; the normalizer
    1 + ||Hess||_inf + ||T||_inf also scales classify()'s second-form gates.

    rho and residual are None where T = dF (x) dF - g vanishes, as it does
    at every lightlike point of a 1-dimensional chart.
    """
    outer = np.outer(data.dF, data.dF)
    target = outer - data.g
    peak = float(np.max(np.abs(target)))
    normalizer = 1.0 + float(np.max(np.abs(data.hess))) + peak
    if peak < 1e-12 * local_scale(data.g, outer):
        return None, None, normalizer
    rho = float(np.sum(data.hess * target)) / float(np.sum(target * target))
    residual = float(np.max(np.abs(data.hess - rho * target))) / normalizer
    return rho, residual, normalizer


def _is_lightlike(data: _PointData, tolerance: float) -> bool:
    """The lightlike defect g(grad F, grad F) - 1 is below tolerance * (1 + |norm2|)."""
    return abs(data.norm2 - 1.0) < tolerance * (1.0 + abs(data.norm2))


def _minimal_defect(data: _PointData) -> float:
    """Sign-weighted Hessian trace over the g-orthonormal frame of ker dF."""
    frame = data.kernel_frame
    return sum((s * float(v @ data.hess @ v) for v, s in zip(frame.vectors, frame.signs)), 0.0)


def minimal_defect_at(gen: MongeGenerator, p) -> float:
    """Sign-weighted Hessian trace over a g-orthonormal frame of ker dF.

    Zero within tolerance means the hypersurface is minimal at the point.
    The value is invariant (to rounding) under sign-orthogonal changes of
    the frame.
    """
    return _minimal_defect(_point_data(gen, _base_of(p)))


def screen_frame_at(gen: MongeGenerator, p, tolerance: float = 1e-8) -> OrthoFrame:
    """Canonical screen frame: d-1 ambient vectors W with
    gbar(W, xi) = 0, zero x0 component, and gbar(W_i, W_j) = sign_i delta_ij.

    At a lightlike point the screen fields s_i = e_i - gbar(e_i, N) xi
    = (0, delta_i - dF_i xi_hat) span exactly {(0, v) : dF(v) = 0}, and
    gbar restricts there to g, so the frame is the lift (0, v) of the
    g-orthonormal frame of ker dF.  Where the lightlike defect exceeds
    tolerance the screen fields have rank d and no such frame exists.
    """
    data = _point_data(gen, _base_of(p))
    if gen.dimension < 2:
        raise ScreenRankError("screen needs chart dimension >= 2")
    if not _is_lightlike(data, tolerance):
        raise ScreenRankError("screen projection has rank d; expected d-1")
    try:
        frame = data.kernel_frame
    except NearNullPivotError as exc:
        raise ScreenRankError(f"screen projection rank deficient: {exc}") from exc
    lifted = np.hstack([np.zeros((len(frame.signs), 1)), frame.vectors])
    return OrthoFrame(lifted, frame.signs)


# ---------------------------------------------------------------------------
# Gauss-Weingarten data


def _gauss_split(
    data: _PointData, xi_scale: float, tolerance: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ambient, tangent, B, |gbar(tangent, xi)|), each indexed [i, j] by the
    derivative of e_j along e_i.

    Raises TangencyError at the first pair, in row-major order, whose
    certificate exceeds tolerance * local_scale(ambient[i, j], xi, gbar).
    """
    ambient = np.concatenate((data.d2F[:, :, None], data.gamma.transpose(1, 2, 0)), axis=2)
    B = -xi_scale * data.hess
    tangent = ambient - B[:, :, None] * (data.nxi / xi_scale)
    xi = xi_scale * data.xi
    certificate = np.abs(tangent @ data.gbar @ xi)
    peak = max(float(np.max(np.abs(xi))), float(np.max(np.abs(data.gbar))))
    scale = 1.0 + np.maximum(np.max(np.abs(ambient), axis=2), peak)
    failing = np.flatnonzero(certificate > tolerance * scale)
    if failing.size:
        raise TangencyError(
            f"Gauss tangent part pairs with xi "
            f"({certificate.flat[failing[0]]:.3e} > {tolerance:g} * scale)"
        )
    return ambient, tangent, B, certificate


def ambient_derivative_at(gen: MongeGenerator, p, i: int, j: int) -> np.ndarray:
    """Ambient covariant derivative of e_j along e_i, before any splitting.

    The x0 slot carries the plain second partial of F; the base slots carry
    the base connection coefficients (the x0 direction is flat and
    parallel in the product metric).
    """
    # an infinite tolerance skips the tangency gate, which belongs to the split
    return _gauss_split(_point_data(gen, _base_of(p)), 1.0, np.inf)[0][i, j]


def gauss_decompose_at(
    gen: MongeGenerator, p, i: int, j: int, xi_scale: float = 1.0, tolerance: float = 1e-8
) -> tuple[np.ndarray, float]:
    """Split the ambient derivative of e_j along e_i into tangent + B * N.

    Returns (tangent_part, B(i, j)).  The tangency certificates
    gbar(tangent, xi) < tolerance * scale of every pair at the point are
    asserted before returning; they measure the agreement of B = -Hess
    with the defining projection gbar(ambient derivative, xi) and fail off
    the degenerate locus.
    """
    _, tangent, B, _ = _gauss_split(_point_data(gen, _base_of(p)), xi_scale, tolerance)
    return tangent[i, j], B[i, j]


def weingarten_at(
    gen: MongeGenerator, p, i: int, xi_scale: float = 1.0, tolerance: float = 1e-8
) -> tuple[np.ndarray, float]:
    """Shape operator value A_N e_i and transversal form tau(e_i).

    The ambient derivative of N along e_i reduces to half the base
    covariant derivative of grad F (the x0 direction is parallel); tau is
    its pairing with xi and A_N e_i = -(derivative - tau N).
    """
    data = _point_data(gen, _base_of(p))
    # d_i xi_hat^k = d_i g^{kl} dF_l + g^{kl} d_i d_l F, with
    # d_i g^{-1} = -g^{-1} (d_i g) g^{-1}
    dxi_hat_i = -data.ginv @ data.dg[i] @ data.ginv @ data.dF + data.ginv @ data.d2F[i]
    nabla_xi_hat = dxi_hat_i + data.gamma[:, i, :] @ data.xi_hat
    dN = np.concatenate(([0.0], 0.5 * nabla_xi_hat)) / xi_scale
    xi = xi_scale * data.xi
    nxi = data.nxi / xi_scale
    tau = float(dN @ data.gbar @ xi)
    a_vec = -(dN - tau * nxi)
    cert = abs(float(a_vec @ data.gbar @ xi))
    scale = local_scale(dN, xi, data.gbar)
    if cert > tolerance * scale:
        raise TangencyError(
            f"Weingarten tangent part pairs with xi ({cert:.3e} > {tolerance:g} * scale)"
        )
    return a_vec, tau


# ---------------------------------------------------------------------------
# Screen integrability


def screen_integrability_defect_at(gen: MongeGenerator, p) -> float:
    """Worst Lie-bracket leakage of the screen fields out of the screen.

    The x0 part of the closed-form fields s_i = (0, delta_i - dF_i xi_hat),
    and so of every bracket, vanishes identically; the leakage is the
    pairing with N, |dF([s_i, s_j])| / 2.  d_l s_i are central differences
    whose neighbours compute only dF and xi_hat (a metric error there names
    the neighbour).  Line fields (d = 2) are integrable by convention: 0.
    """
    base = _base_of(p)
    d = gen.dimension
    if d < 2:
        raise ScreenRankError("screen needs chart dimension >= 2")
    if d == 2:
        return 0.0
    data = _point_data(gen, base)

    def fields_at(l: int, step: float) -> np.ndarray:
        *_, dF, _, xi_hat = _jets(gen, base[:l] + (base[l] + step,) + base[l + 1 :])
        return _screen_fields(dF, xi_hat)

    h = BRACKET_STEP
    ds = np.array([fields_at(l, h) - fields_at(l, -h) for l in range(d)]) / (2.0 * h)
    # ds[l, i, m] = d_l s_i^m and half[i, j] = s_i(s_j)
    half = np.einsum("il,ljm->ijm", _screen_fields(data.dF, data.xi_hat), ds)
    bracket = half - half.transpose(1, 0, 2)
    return 0.5 * float(np.max(np.abs(bracket @ data.dF)))


# ---------------------------------------------------------------------------
# Classification


@dataclass
class PointAnalysis:
    """Everything computed at one sample point (None where unavailable)."""

    index: int
    point: SurfacePoint
    error: str | None = None
    radical_rank: int | None = None
    B: np.ndarray | None = None
    lightlike_defect: float | None = None
    umbilic_rho: float | None = None
    umbilic_residual: float | None = None
    minimal_defect: float | None = None
    integrability_defect: float | None = None
    tau: np.ndarray | None = None
    certificates: dict = field(default_factory=dict)
    scales: dict = field(default_factory=dict)
    is_lightlike: bool | None = None


@dataclass
class Verdict:
    value: bool | str | None  # True / False / "indeterminate" / None (not applicable)
    witness_index: int | None = None
    witness_value: float | None = None


@dataclass
class ClassificationReport:
    """Aggregated per-point analyses; verdicts hold on the sampled set only."""

    generator_name: str
    tolerances: Tolerances
    xi_scale: float
    points: list[PointAnalysis]
    verdicts: dict[str, Verdict]
    failed_fraction: float
    note: str = "verdicts hold on the sampled set only; umbilical is a per-point fit"


_POINT_ERRORS = (
    EvalDomainError,
    DegenerateMetricError,
    NearNullPivotError,
    ScreenRankError,
    TangencyError,
    NonFiniteValueError,
)


def _analyze_point(
    gen: MongeGenerator, index: int, sp: SurfacePoint, tol: Tolerances, xi_scale: float
) -> PointAnalysis:
    analysis = PointAnalysis(index=index, point=sp)
    base = sp.base
    if not gen.admissible(base):
        analysis.error = "outside domain"
        return analysis
    try:
        data = _point_data(gen, base)
        d = gen.dimension

        frame, _, analysis.radical_rank = monge_frame_at(gen, sp, tol.base)
        analysis.lightlike_defect = data.norm2 - 1.0
        scale_light = 1.0 + abs(data.norm2)
        analysis.is_lightlike = _is_lightlike(data, tol.base)

        analysis.B = -xi_scale * data.hess
        rho, residual, scale_form = _umbilic_fit(data)
        if d >= 2:  # every 1 x 1 form is a multiple of T: the fit says nothing
            analysis.umbilic_rho, analysis.umbilic_residual = rho, residual
        analysis.scales = {"lightlike": scale_light, "second_form": scale_form}

        xi = xi_scale * data.xi
        analysis.certificates["normality"] = float(np.max(np.abs(frame @ data.gbar @ xi)))
        analysis.certificates["xi_null"] = float(xi @ data.gbar @ xi)

        if analysis.is_lightlike:
            nxi = data.nxi / xi_scale
            analysis.certificates["xi_nxi"] = float(xi @ data.gbar @ nxi)
            analysis.certificates["nxi_nxi"] = float(nxi @ data.gbar @ nxi)
            if d >= 2:
                screen = screen_frame_at(gen, sp, tol.base)
                analysis.certificates["screen_nxi"] = float(
                    np.max(np.abs(screen.vectors @ data.gbar @ nxi))
                )
                analysis.minimal_defect = _minimal_defect(data)
                analysis.integrability_defect = screen_integrability_defect_at(gen, sp)
            analysis.tau = np.array(
                [weingarten_at(gen, sp, i, xi_scale, tol.base)[1] for i in range(d)]
            )
            *_, certificate = _gauss_split(data, xi_scale, tol.base)
            analysis.certificates["gauss_tangency"] = float(np.max(certificate))
        _require_finite(analysis)
    except _POINT_ERRORS as exc:
        # partial results of a failed point may be non-finite; keep none
        analysis = PointAnalysis(index=index, point=sp, error=str(exc))
    return analysis


def _require_finite(analysis: PointAnalysis):
    """Raise NonFiniteValueError if a number bound for the report is not finite."""
    numbers = {**vars(analysis), **analysis.scales, **analysis.certificates}
    for name, value in numbers.items():
        if isinstance(value, (float, np.ndarray)) and not np.isfinite(value).all():
            raise NonFiniteValueError(f"{name} is not finite")


def classify(
    gen: MongeGenerator,
    points: Sequence[SurfacePoint],
    tol: Tolerances | float | None = None,
    xi_scale: float = 1.0,
) -> ClassificationReport:
    """Analyze every sample point and aggregate global verdicts.

    Verdicts: degenerate (all lightlike defects below tolerance),
    totally_geodesic (all second forms vanish), totally_umbilical (all
    umbilic residuals vanish; None on 1-dimensional charts), minimal (all
    minimal defects vanish; None when no point carries one).  Points that
    fail to evaluate are recorded with their error; above 10% failures
    every verdict is "indeterminate".  A refused tolerance or a zero or
    non-finite xi_scale raises ValueError; negative scales are valid.
    """
    if not isinstance(tol, Tolerances):
        tol = Tolerances() if tol is None else Tolerances(tol)
    if not (math.isfinite(xi_scale) and xi_scale != 0):
        raise ValueError(f"xi_scale must be finite and nonzero, got {xi_scale!r}")
    if not points:
        raise EmptySampleError("no sample points supplied")

    # overflows here become NonFiniteValueError points, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        analyses = [
            _analyze_point(gen, i, sp, tol, xi_scale) for i, sp in enumerate(points)
        ]
    good = [a for a in analyses if a.error is None]
    failed_fraction = 1.0 - len(good) / len(analyses)

    def aggregate(values: list[tuple[int, float]]) -> Verdict:
        # not applicable unless every analyzed point carries a value
        if not values or len(values) < len(good):
            return Verdict(value=None)
        worst_index, worst = max(values, key=lambda item: abs(item[1]))
        return Verdict(all(abs(v) < tol.base for _, v in values), worst_index, worst)

    if failed_fraction > 0.10:
        verdicts = {
            name: Verdict("indeterminate")
            for name in ("degenerate", "totally_geodesic", "totally_umbilical", "minimal")
        }
    else:
        light = [(a.index, a.lightlike_defect / a.scales["lightlike"]) for a in good]
        geo = [
            (a.index, float(np.max(np.abs(a.B))) / (abs(xi_scale) * a.scales["second_form"]))
            for a in good
        ]
        umb = [(a.index, a.umbilic_residual) for a in good if a.umbilic_residual is not None]
        mini = [
            (a.index, a.minimal_defect / a.scales["second_form"])
            for a in good
            if a.minimal_defect is not None
        ]
        verdicts = {
            "degenerate": aggregate(light),
            "totally_geodesic": aggregate(geo),
            "totally_umbilical": aggregate(umb),
            "minimal": aggregate(mini),
        }

    return ClassificationReport(
        generator_name=gen.name,
        tolerances=tol,
        xi_scale=xi_scale,
        points=analyses,
        verdicts=verdicts,
        failed_fraction=failed_fraction,
    )
