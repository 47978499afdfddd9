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
from itertools import chain, compress
from typing import Callable, Sequence

import numpy as np

from . import semiriemann
from .exprlang import (
    CoordinateChart,
    DomainConstraint,
    EvalDomainError,
    Expr,
    compile_expr,
    compile_stacked,
)
from .semiriemann import (
    DEGENERACY_THRESHOLD,
    MetricField,
    OrthoFrame,
    christoffel_from_partials,
    invert_metric,
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
    F (for plain floats and for stacks of jets) and the domain constraints
    (for one point, and for a stack of points: see _stacked_constraint) are
    compiled once, here.
    """

    name: str
    chart: CoordinateChart
    metric: MetricField
    scalar_field: Expr
    constraints: tuple[DomainConstraint, ...] = ()
    # F, its stacked jets and each constraint, compiled
    _scalar: Callable = field(init=False, repr=False)
    _stacked: Callable = field(init=False, repr=False)
    _domain: tuple[Callable, ...] = field(init=False, repr=False)
    _stacked_domain: tuple[Callable, ...] = field(init=False, repr=False)

    def __post_init__(self):
        params = self.chart.parameters
        object.__setattr__(self, "_scalar", compile_expr(self.scalar_field, params))
        object.__setattr__(self, "_stacked", compile_stacked(self.scalar_field, params))
        object.__setattr__(self, "_domain", tuple(c.compile(params) for c in self.constraints))
        stacked = tuple(_stacked_constraint(c, params) for c in self.constraints)
        object.__setattr__(self, "_stacked_domain", stacked)

    @property
    def dimension(self) -> int:
        return self.chart.dimension

    @property
    def params(self):
        return self.chart.parameters

    def admissible(self, base: Sequence[float]) -> bool:
        """Whether every domain constraint holds at the floats the chart
        reads from the base (see CoordinateChart.read), which the stages
        compute at; a base the chart refuses raises its ValueError, which is
        classify's message."""
        return self._admits(self.chart.read(base))

    def _admits(self, base: tuple[float, ...]) -> bool:
        """admissible, at the floats of a base already read."""
        return all(holds(base) for holds in self._domain)

    def surface_point(self, base: Sequence[float]) -> "SurfacePoint":
        """The point (F(base), base) at the floats the chart reads from the
        base; a base the chart refuses raises its ValueError, which is
        classify's message."""
        base = self.chart.read(base)
        return SurfacePoint(base, self._scalar(base))


@dataclass(frozen=True)
class SurfacePoint:
    """A hypersurface point (x0, base) with x0 = F(base) by construction, or
    None where F cannot be evaluated (the samplers keep such a point, and
    classify records its error)."""

    base: tuple[float, ...]
    x0: float | None


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerance knob; gates compare defects against base * scale.
    base must be a finite number > 0 (not a bool)."""

    base: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "base", _check_tolerance(self.base))


def _finite_real(value) -> bool:
    """A finite int or float, NumPy's included, that is not a bool (an int
    beyond the float range is not finite)."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    return real and not isinstance(value, bool) and _is_finite(value)


def _is_finite(value) -> bool:
    """math.isfinite of a number; False for an int beyond the float range
    and for a value that is not a number."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _shown(value) -> str:
    """repr of a refused value, which for an int beyond the float range
    may be too long to print."""
    if isinstance(value, int) and not _is_finite(value):
        return "an int beyond the float range"
    return repr(value)


def _check_tolerance(tolerance) -> float:
    """The tolerance as a float: a finite number > 0 that is not a bool."""
    if not (_finite_real(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a finite number > 0, got {_shown(tolerance)}")
    return float(tolerance)


def _check_xi_scale(xi_scale) -> float:
    """The xi scale as a float: a finite nonzero number that is not a bool;
    negative scales are valid."""
    if not (_finite_real(xi_scale) and xi_scale != 0):
        raise ValueError(f"xi_scale must be finite and nonzero, got {_shown(xi_scale)}")
    return float(xi_scale)


def _stacked_constraint(constraint: DomainConstraint, params) -> Callable:
    """The test of ``constraint.compile`` over the points, rows of an (n, d)
    float array, with both sides compiled once by compile_stacked: it
    returns the mask of the rows where both values are finite and the
    relation holds.  There the value lanes are compile_expr's floats, bit
    for bit, and compile_expr refuses no such row, so the one-point test
    holds too.  A row the stacked lane refuses does not hold, though the
    one-point test may admit it: that lane also refuses where only a
    derivative fails (abs or x^0.5 at 0)."""
    lhs, rhs = compile_stacked(constraint.lhs, params), compile_stacked(constraint.rhs, params)
    relation = np.greater if constraint.relation == ">" else np.greater_equal

    def test(points: np.ndarray) -> np.ndarray:
        (a, a_failed), (b, b_failed) = lhs(points), rhs(points)
        a, b = a.value, b.value
        holds = relation(a, b) & np.isfinite(a) & np.isfinite(b)
        holds[[*a_failed, *b_failed]] = False
        return holds

    return test


# the coordinate and x0 types of a plain point: the stack reads them as
# they are, and a record writes its point as the floats they are
_FLOATS = frozenset((float, np.float64))


def _gate(
    gen: MongeGenerator, points: Sequence[SurfacePoint]
) -> tuple[dict[int, str], dict[int, SurfacePoint], np.ndarray]:
    """{index: error} of the points the gate refuses, the first rule each
    fails of _point_error, which defines the gate; {index: point as read}
    of the others _point_error decides; and the (n, d) array of the bases'
    floats, which the stages read (a refused point's row means nothing).

    The points are admitted as one stack.  One pass finds the plain points,
    each a tuple base of d floats with a float x0, and one array of them
    admits those whose every coordinate and x0 is finite and at which every
    constraint holds over the stack (see _stacked_constraint).  Every other
    point, admitted or refused, is decided by _point_error alone."""
    n, d = len(points), gen.dimension
    bases = [sp.base for sp in points]
    x0s = [sp.x0 for sp in points]
    plain = [
        type(base) is tuple
        and len(base) == d
        and type(x0) in _FLOATS
        and _FLOATS.issuperset(map(type, base))
        for base, x0 in zip(bases, x0s)
    ]
    rows = np.flatnonzero(plain)
    m = len(rows)
    stack = np.fromiter(chain.from_iterable(compress(bases, plain)), float, m * d).reshape(m, d)
    x0 = np.fromiter(compress(x0s, plain), float, m)
    admitted = np.isfinite(stack).all(axis=1) & np.isfinite(x0)
    for holds in gen._stacked_domain:
        admitted &= holds(stack)
    if m < n:
        floats = np.zeros((n, d))
        floats[rows] = stack
    else:
        floats = stack
    left = np.ones(n, dtype=bool)
    left[rows[admitted]] = False
    errors, read = {}, {}
    for i in np.flatnonzero(left).tolist():
        error, sp = _point_error(gen, points[i])
        if error is None:
            floats[i], read[i] = sp.base, sp
        else:
            errors[i] = error
    return errors, read, floats


def _point_error(gen: MongeGenerator, sp: SurfacePoint) -> tuple[str | None, SurfacePoint | None]:
    """(why classify refuses the point before its analysis, None), or
    (None, the point as the stages read it: its base's floats, and x0 as a
    float or None).  The rules, in order: the chart's reader (the number
    of coordinates, numeric and finite coordinates, and x0 unless it is
    None), then the domain and F (for a point whose x0 is None), each at
    the floats read."""
    try:
        base = gen.chart.read(sp.base, sp.x0)
    except ValueError as exc:
        return str(exc), None
    if not gen._admits(base):
        return "outside domain", None
    if sp.x0 is None:
        try:
            gen._scalar(base)  # raises why F has no value
        except EvalDomainError as exc:
            return str(exc), None
    return None, SurfacePoint(base, None if sp.x0 is None else float(sp.x0))


# ---------------------------------------------------------------------------
# Stacked geometry
#
# The metric is evaluated point by point, one metric_jets_at pass each that
# gathers g (and dg) through the field's slot map, and the passes' results
# are stacked at once: first-order forward mode on plain floats at the
# points, the values only at the d >= 3 bracket neighbours.  The metric
# inverse, F's jets (one compile_stacked call) and everything after them run
# once over the points stacked along a leading axis.  A bracket neighbour whose g is
# bit-identical to its point's takes the point's verified inverse, which
# invert_metric, computing each row from its bits alone, would give again;
# only the other neighbours are inverted.  Every contraction is a matmul of
# per-point slices or an elementwise operation, so a point's numbers do not
# depend on which other points share its stack.  A stage that can fail returns {row: exception}.
# A failed row stays in the stack under errstate _quiet: its numbers mean
# nothing, and classify's ``alive`` mask keeps them out of the records.  The
# public functions run the same stages on a stack of one point and raise
# the exception of row 0.


class _PointData:
    """The geometry of the points, rows of the (n, d) float array ``points``
    and stacked along a leading axis, with {row: first error} of the rows
    that fail, whose numbers mean nothing: a jet error (see _jets), else a
    non-finite covariant Hessian.

    ``points`` holds the only floats of a point that every stage reads and
    every message names.  d2F holds plain coordinate partials
    d_i d_j F, gamma[k, l, i, j] the Christoffel symbols (from the metric's
    partials, which are not kept) and hess the covariant Hessian; the rest
    is derived on first use (the ambient stacks gbar, xi, nxi and frame by
    the public functions only).
    """

    def __init__(self, gen: MongeGenerator, points: np.ndarray):
        self.points = points
        jets, self.failures = _jets(gen, points)
        self.g, self.ginv, dg, self.dF, self.d2F, self.xi_hat = jets
        # the all-i _weingarten result per xi_scale, kept for weingarten_at
        self.weingarten: dict[float, tuple[np.ndarray, ...]] = {}
        n, d = self.dF.shape
        self.gamma = christoffel_from_partials(self.ginv, dg)
        contracted = self.dF[:, None, :] @ self.gamma.reshape(n, d, d * d)
        self.hess = self.d2F - contracted.reshape(n, d, d)
        # an overflowed dg or d2F lane leaves hess non-finite
        finite = np.isfinite(self.hess)
        if finite.all():  # the usual case, without the masks
            return
        for k in np.flatnonzero(~finite.all(axis=(1, 2))).tolist():
            self.failures.setdefault(  # a jet error comes first
                k, NonFiniteValueError(f"derivatives not finite at {points[k].tolist()}")
            )

    @cached_property
    def gbar(self) -> np.ndarray:
        """Ambient metric diag(-1, g)."""
        n, d = self.dF.shape
        gbar = np.zeros((n, d + 1, d + 1))
        gbar[:, 0, 0] = -1.0
        gbar[:, 1:, 1:] = self.g
        return gbar

    @cached_property
    def xi(self) -> np.ndarray:
        """(1, xi_hat), unscaled."""
        return _lift(self.xi_hat, 1.0)

    @cached_property
    def nxi(self) -> np.ndarray:
        """(-1/2, xi_hat/2), unscaled."""
        nxi = 0.5 * self.xi
        nxi[:, 0] = -0.5
        return nxi

    @cached_property
    def frame(self) -> np.ndarray:
        """Rows e_i = (dF_i, delta_i), shape (n, d, d+1)."""
        n, d = self.dF.shape
        frame = np.zeros((n, d, d + 1))
        frame[:, :, 0] = self.dF
        frame.reshape(n, -1)[:, 1 :: d + 2] = 1.0  # the identity in the base slots
        return frame

    @cached_property
    def norm2(self) -> np.ndarray:
        """g(grad F, grad F) = dF . xi_hat."""
        return (self.dF[:, None, :] @ self.xi_hat[:, :, None])[:, 0, 0]

    @cached_property
    def induced(self) -> np.ndarray:
        """Gram matrix of the frame."""
        return self.g - self.dF[:, :, None] * self.dF[:, None, :]

def _jets(
    gen: MongeGenerator, points: np.ndarray
) -> tuple[tuple[np.ndarray, ...], dict[int, Exception]]:
    """(g, ginv, dg, dF, d2F, xi_hat) at the n points, rows of the (n, d)
    float array ``points``, stacked along a leading axis, and {row: error}
    of the rows that fail, whose numbers mean nothing.  The metric runs
    point by point on the rows as plain floats, one first-order
    metric_jets_at pass each (forward mode on plain floats), then the
    inverse's gates and F's jets (see _scalar_jets) run once over every
    row; a message names the row's floats.  A row records the first stage
    it fails, in the order: the metric, the inverse's gates, F's jets, a
    finite dF."""
    bases = points.tolist()
    g, dg, failures = _metric(gen, bases, 1)
    ginv, singular = invert_metric(g, bases)
    failures = singular | failures  # a metric error comes first
    dF, d2F, xi_hat = _scalar_jets(gen, points, ginv, failures)
    return (g, ginv, dg, dF, d2F, xi_hat), failures


def _metric(
    gen: MongeGenerator, bases: Sequence[Sequence[float]], order: int
) -> tuple[np.ndarray, np.ndarray | None, dict[int, Exception]]:
    """g, and at order 1 dg (else None), at the points ``bases``, one
    metric_jets_at pass of the given order each, whose results are stacked
    by one np.array call per stack; and {row: EvalDomainError} of the rows
    whose pass fails, which hold g = 0 (and dg = 0)."""
    n, d = len(bases), gen.dimension
    failed = (np.zeros((d, d)), np.zeros((d, d, d)) if order else None)
    rows, partial_rows = [], []
    failures: dict[int, Exception] = {}
    for k, base in enumerate(bases):
        try:
            g, partials = semiriemann.metric_jets_at(gen.metric, base, order)
        except EvalDomainError as exc:
            failures[k] = exc
            g, partials = failed
        rows.append(g)
        partial_rows.append(partials)
    g = np.array(rows).reshape(n, d, d)
    dg = np.array(partial_rows).reshape(n, d, d, d) if order else None
    return g, dg, failures


def _scalar_jets(
    gen: MongeGenerator,
    points: np.ndarray,
    ginv: np.ndarray,
    failures: dict[int, Exception],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dF, d2F and xi_hat = g^-1 dF at the points (rows of the (n, d) float
    array ``points``) whose metric inverse is ``ginv``, from F's second-order
    jets (one compile_stacked call).  ``failures`` holds the rows that
    failed before; each other row that fails F's jets or has a non-finite
    dF is added to it.  dF and d2F are 0 at a row that fails before the
    last."""
    F, errors = gen._stacked(points)
    dF, d2F = F.grad.T.copy(), F.hess.transpose(2, 0, 1).copy()  # rows first
    if errors or failures:
        for k, exc in errors.items():
            failures.setdefault(k, exc)
        failed = list(failures)
        dF[failed], d2F[failed] = 0.0, 0.0
    # evaluation checks only the value lane; an infinite dF would turn the
    # frame's Gram matrix into NaN
    finite = np.isfinite(dF)
    if not finite.all():  # the usual case skips the masks
        for k in np.flatnonzero(~finite.all(axis=1)).tolist():
            failures[k] = NonFiniteValueError(f"derivatives not finite at {points[k].tolist()}")
    return dF, d2F, (ginv @ dF[:, :, None])[:, :, 0]


# The errstate classify and the public functions run under, as a decorator:
# an overflow or invalid operation gives inf or NaN without a RuntimeWarning.
# classify records such a point as a NonFiniteValueError; the public
# functions return the numbers as they are.  (The decorator's wrapper is one
# more frame for a warning's stacklevel.)
_quiet = np.errstate(over="ignore", invalid="ignore")


def _raise(failures: dict[int, Exception]):
    """Raise the error of row 0, the one point of a public function's stack."""
    if 0 in failures:
        raise failures[0]


# One entry: every caller (mongelight eval, a loop of public queries) asks
# all its questions at one point before it moves to the next, so an older
# point is never asked again.
@lru_cache(maxsize=1)
@_quiet
def _point_data(gen: MongeGenerator, base: tuple) -> _PointData:
    """The stacked geometry of the one point ``base``, at the floats the
    chart reads from it; a base the chart refuses raises its ValueError,
    which is classify's message.  The base is read once per point, here,
    on a miss of the cache."""
    data = _PointData(gen, np.array([gen.chart.read(base)]))
    _raise(data.failures)
    return data


def _point_at(gen: MongeGenerator, p) -> _PointData:
    """_point_data at a SurfacePoint's base or at the coordinates ``p``; a
    base the cache cannot hash (a list, or a tuple holding a 0-d array)
    goes in as the floats the chart reads from it."""
    base = p.base if isinstance(p, SurfacePoint) else p
    try:
        hash(base)
    except TypeError:
        base = gen.chart.read(base)
    return _point_data(gen, base)


def _screen_fields(dF: np.ndarray, xi_hat: np.ndarray) -> np.ndarray:
    """Base parts of the screen fields s_i = e_i - gbar(e_i, N) xi, as rows
    (over any leading axes of dF and xi_hat).

    gbar(e_i, N) = dF_i exactly, so s_i = (0, delta_i - dF_i xi_hat): the
    x0 part vanishes identically and the base part is I - dF (x) xi_hat.
    """
    return np.eye(dF.shape[-1]) - dF[..., :, None] * xi_hat[..., None, :]


def _lift(vectors: np.ndarray, x0: float = 0.0) -> np.ndarray:
    """Base vectors v as ambient vectors (x0, v)."""
    lifted = np.empty(vectors.shape[:-1] + (vectors.shape[-1] + 1,))
    lifted[..., 0] = x0
    lifted[..., 1:] = vectors
    return lifted


def _radical_rank(data: _PointData, tolerance: float) -> np.ndarray:
    """Singular values of the induced Gram matrix below tolerance * scale.
    The matrix is symmetric (g passed the inverse's symmetry gate), so its
    singular values are the magnitudes of its eigenvalues, which eigvalsh
    computes from its lower triangle at a fraction of an SVD's cost."""
    induced = data.induced
    magnitude = np.abs(induced).max(axis=(1, 2))
    finite = np.isfinite(magnitude)
    if finite.all():  # the usual case, without the masks
        singular = np.abs(np.linalg.eigvalsh(induced))
    else:  # an overflowed matrix has rank 0
        singular = np.full(induced.shape[:2], np.nan)
        singular[finite] = np.abs(np.linalg.eigvalsh(induced[finite]))
    scale = 1.0 + magnitude
    return (singular < tolerance * scale[:, None]).sum(axis=1)


def _is_lightlike(defect, tolerance: float):
    """The lightlike defect g(grad F, grad F) - 1 is below tolerance * (1 +
    |defect + 1|), for one defect or an array of them: the one lightlike
    gate of classify, screen_frame_at, second_fundamental_form_at and
    ``mongelight eval``."""
    return abs(defect) < tolerance * (1.0 + abs(defect + 1.0))


def _umbilic_fit(data: _PointData) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rho, residual, normalizer, posed) of umbilic_fit_at; the normalizer
    1 + ||Hess||_inf + ||T||_inf also scales classify()'s second-form gates.

    The fit is not posed (rho and residual NaN) where T = dF (x) dF - g
    vanishes, as it does at every lightlike point of a 1-dimensional chart.
    """
    n, d = data.dF.shape
    outer = data.dF[:, :, None] * data.dF[:, None, :]
    target = outer - data.g
    peak = np.abs(target).max(axis=(1, 2))
    normalizer = 1.0 + np.abs(data.hess).max(axis=(1, 2)) + peak
    scale = 1.0 + np.maximum(np.abs(data.g).max(axis=(1, 2)), np.abs(outer).max(axis=(1, 2)))
    posed = ~(peak < 1e-12 * scale)
    everywhere = posed.all()  # the usual case, without the masks
    if not everywhere:
        target, hess, scale = target[posed], data.hess[posed], normalizer[posed]
    else:
        hess, scale = data.hess, normalizer
    m = len(target)
    rho = (hess * target).reshape(m, d * d).sum(axis=1) / (target * target).reshape(
        m, d * d
    ).sum(axis=1)
    residual = np.abs(hess - rho[:, None, None] * target).max(axis=(1, 2)) / scale
    if not everywhere:
        rho, residual = _scatter(rho, posed), _scatter(residual, posed)
    return rho, residual, normalizer, posed


def _scatter(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """values at the True rows of a mask, NaN elsewhere."""
    out = np.full(len(rows), np.nan)
    out[rows] = values
    return out


def _minimal_defect(data: _PointData) -> tuple[np.ndarray, dict[int, Exception]]:
    """Sign-weighted Hessian trace over g-orthonormal frames of ker dF, and
    the errors of the points that have none (see _screen_rank_failures).
    ker dF is the g-orthogonal complement of xi_hat, so the trace is
    tr(g^-1 Hess) - Hess(xi_hat, xi_hat) / q, q = g(dF, dF)."""
    q, xi_hat = data.norm2, data.xi_hat
    trace = (data.ginv * data.hess.transpose(0, 2, 1)).sum(axis=(1, 2))
    along = (xi_hat[:, None, :] @ data.hess @ xi_hat[:, :, None])[:, 0, 0]
    return trace - along / q, _screen_rank_failures(data)


def _screen_rank_failures(data: _PointData) -> dict[int, Exception]:
    """{row: ScreenRankError} of the rows where g on ker dF is degenerate,
    which it is exactly where q = g(dF, dF) = 0: the one screen-rank gate,
    |q| <= DEGENERACY_THRESHOLD * max|dF| * max|xi_hat|, which no constant
    rescaling of F or g moves.  A vanishing dF fails it with 0 <= 0; an
    overflowed q passes it, though its floor may overflow too."""
    dF, q = data.dF, data.norm2
    floor = DEGENERACY_THRESHOLD * np.abs(dF).max(axis=1) * np.abs(data.xi_hat).max(axis=1)
    return {
        k: ScreenRankError(
            "screen projection rank deficient: |g(dF, dF)| <= "
            f"{DEGENERACY_THRESHOLD:g} * max|dF| * max|xi_hat|"
            if dF[k].any()
            else "dF vanishes; kernel of dF is not a hyperplane"
        )
        for k in np.flatnonzero((np.abs(q) <= floor) & np.isfinite(q)).tolist()
    }


def _tangency_failures(
    kind: str, certificate: np.ndarray, scale: np.ndarray, tolerance: float
) -> dict[int, Exception]:
    """Each point's first certificate, in row-major order, above tolerance * scale."""
    failing = certificate > tolerance * scale
    if not failing.any():  # the usual case, without the masks
        return {}
    flat = certificate.reshape(len(certificate), -1)
    failing = failing.reshape(flat.shape)
    return {
        int(k): TangencyError(
            f"{kind} tangent part pairs with xi "
            f"({flat[k, np.argmax(failing[k])]:.3e} > {tolerance:g} * scale)"
        )
        for k in np.flatnonzero(failing.any(axis=1))
    }


# ---------------------------------------------------------------------------
# Induced objects


@_quiet
def ambient_metric_at(gen: MongeGenerator, point) -> np.ndarray:
    """Ambient metric diag(-1, g) at a base point."""
    return _point_at(gen, point).gbar[0].copy()


@_quiet
def normal_and_transversal_at(
    gen: MongeGenerator, p, xi_scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Null normal xi = c*(1, grad F) and transversal N = -(1/2c)*(1, -grad F).

    On the degenerate locus these satisfy gbar(xi, xi) = 0,
    gbar(xi, N) = 1, gbar(N, N) = 0 up to the lightlike defect.
    """
    xi_scale = _check_xi_scale(xi_scale)
    data = _point_at(gen, p)
    return xi_scale * data.xi[0], data.nxi[0] / xi_scale


@_quiet
def lightlike_defect_at(gen: MongeGenerator, point) -> float:
    """g(grad F, grad F) - 1; zero exactly where the hypersurface is lightlike."""
    return float(_point_at(gen, point).norm2[0] - 1.0)


@_quiet
def monge_frame_at(
    gen: MongeGenerator, p, tolerance: float = 1e-8
) -> tuple[np.ndarray, np.ndarray, int]:
    """Coordinate frame e_i = (dF_i, delta_i), its Gram matrix, and radical rank.

    The radical rank counts singular values of the Gram matrix below
    tolerance * scale; it is 1 exactly on the degenerate locus.
    """
    tolerance = _check_tolerance(tolerance)
    data = _point_at(gen, p)
    rank = int(_radical_rank(data, tolerance)[0])
    return data.frame[0].copy(), data.induced[0].copy(), rank


@_quiet
def second_fundamental_form_at(
    gen: MongeGenerator, p, xi_scale: float = 1.0, tolerance: float = 1e-8
) -> np.ndarray:
    """B(e_i, e_j) = -c * Hess(F)_ij in the coordinate frame.

    Warns when the point is not lightlike within tolerance, where B loses
    its geometric meaning.
    """
    xi_scale, tolerance = _check_xi_scale(xi_scale), _check_tolerance(tolerance)
    data = _point_at(gen, p)
    if not _is_lightlike(data.norm2[0] - 1.0, tolerance):
        warnings.warn(
            f"second fundamental form at non-lightlike point (defect {data.norm2[0] - 1.0:.3e})",
            NotLightlikeWarning,
            stacklevel=3,  # past _quiet's wrapper to the caller
        )
    return -xi_scale * data.hess[0]


@_quiet
def umbilic_fit_at(gen: MongeGenerator, p) -> tuple[float, float]:
    """Least-squares fit Hess(F) = rho * (dF (x) dF - g).

    Returns (rho, residual) with residual = ||Hess - rho T||_inf normalized
    by 1 + ||Hess||_inf + ||T||_inf.  The point is umbilic when the
    residual is below tolerance, geodesic when ||Hess||_inf itself is.
    """
    rho, residual, _, posed = _umbilic_fit(_point_at(gen, p))
    if not posed[0]:
        raise IllPosedFitError("dF (x) dF - g vanishes; cannot fit rho")
    return float(rho[0]), float(residual[0])


@_quiet
def minimal_defect_at(gen: MongeGenerator, p) -> float:
    """Sign-weighted Hessian trace over a g-orthonormal frame of ker dF.

    Zero within tolerance means the hypersurface is minimal at the point.
    The trace is the same over every such frame; it is computed without
    one, as tr(g^-1 Hess) - Hess(xi_hat, xi_hat) / g(dF, dF).
    """
    data = _point_at(gen, p)
    if gen.dimension < 2:
        raise ScreenRankError("screen needs chart dimension >= 2")
    defect, failures = _minimal_defect(data)
    _raise(failures)
    return float(defect[0])


@_quiet
def screen_frame_at(gen: MongeGenerator, p, tolerance: float = 1e-8) -> OrthoFrame:
    """Canonical screen frame: d-1 ambient vectors W with
    gbar(W, xi) = 0, zero x0 component, and gbar(W_i, W_j) = sign_i delta_ij.

    At a lightlike point the screen fields s_i = e_i - gbar(e_i, N) xi
    = (0, delta_i - dF_i xi_hat) span exactly {(0, v) : dF(v) = 0}, and
    gbar restricts there to g, so the frame is the lift (0, v) of the
    g-orthonormal frame of ker dF.  Where the lightlike defect exceeds
    tolerance the screen fields have rank d and no such frame exists.

    The frame comes from one eigendecomposition of the screen metric
    h = g - dF (x) dF / q, q = g(dF, dF): h xi_hat = 0 and h = g on ker dF,
    so the eigenvectors u of its d-1 nonzero eigenvalues lam (ascending,
    the smallest |lam| dropped) give the frame (u - (dF.u / q) xi_hat) /
    sqrt|lam| with signs sign(lam).
    """
    tolerance = _check_tolerance(tolerance)
    data = _point_at(gen, p)
    if gen.dimension < 2:
        raise ScreenRankError("screen needs chart dimension >= 2")
    if not _is_lightlike(data.norm2[0] - 1.0, tolerance):
        raise ScreenRankError("screen projection has rank d; expected d-1")
    _raise(_screen_rank_failures(data))
    dF, xi_hat, q = data.dF[0], data.xi_hat[0], data.norm2[0]
    lam, u = np.linalg.eigh(data.g[0] - dF[:, None] * (dF / q))
    kept = np.arange(len(lam)) != np.abs(lam).argmin()
    lam, u = lam[kept], u[:, kept].T
    vectors = (u - (u @ dF / q)[:, None] * xi_hat) / np.sqrt(np.abs(lam))[:, None]
    return OrthoFrame(_lift(vectors), tuple(np.where(lam < 0.0, -1, 1).tolist()))


# ---------------------------------------------------------------------------
# Gauss-Weingarten data


def _check_indices(d: int, **indices):
    """Refuse a frame index that is a bool or not an int (NumPy's included) in range(d)."""
    for name, k in indices.items():
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k < d:
            raise ValueError(f"{name} must be an int in range({d}), got {k!r}")


def _gauss_split(data: _PointData, xi_scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, |gbar(tangent, xi)|, scale) per point, indexed [k, i, j] by the
    derivative of e_j along e_i: (d2F_ij, Gamma^l_ij), since the x0
    direction is flat and parallel.  It pairs with xi as B_ij and
    gbar(N, xi) = (1 + q) / 2, q = g(dF, dF), so the tangent part
    (derivative - B N) pairs with xi as |B_ij| |1 - q| / 2.  The gate is
    certificate > tolerance * (1 + max(|d2F_ij|, |Gamma^l_ij|, _peak))."""
    B = -xi_scale * data.hess
    certificate = np.abs(B * (0.5 * (1.0 - data.norm2))[:, None, None])
    ambient = np.maximum(np.abs(data.d2F), np.abs(data.gamma).max(axis=1))
    scale = 1.0 + np.maximum(ambient, _peak(data, xi_scale)[:, None, None])
    return B, certificate, scale


@_quiet
def gauss_decompose_at(
    gen: MongeGenerator, p, i: int, j: int, xi_scale: float = 1.0, tolerance: float = 1e-8
) -> tuple[np.ndarray, float]:
    """Split the ambient derivative of e_j along e_i into tangent + B * N.

    Returns (tangent_part, B(i, j)).  The tangency certificates
    gbar(tangent, xi) < tolerance * scale of every pair at the point are
    asserted before returning; they measure the agreement of B = -Hess
    with the defining projection gbar(ambient derivative, xi) and fail off
    the degenerate locus.  i and j must be ints in range(d).
    """
    xi_scale, tolerance = _check_xi_scale(xi_scale), _check_tolerance(tolerance)
    _check_indices(gen.dimension, i=i, j=j)
    data = _point_at(gen, p)
    B, certificate, scale = _gauss_split(data, xi_scale)
    _raise(_tangency_failures("Gauss", certificate, scale, tolerance))
    ambient = np.concatenate(([data.d2F[0, i, j]], data.gamma[0, :, i, j]))
    return ambient - B[0, i, j] * (data.nxi[0] / xi_scale), B[0, i, j]


def _weingarten(data: _PointData, xi_scale: float) -> tuple[np.ndarray, ...]:
    """(dN_i, tau(e_i), |gbar(A_N e_i, xi)|, scale) per point, for every i:
    by nabla g = 0 the derivative of N along e_i is dN_i = (0, (g^-1 Hess)[:, i]
    / 2) / c (x0 is parallel; its base slots are returned), pairing with xi
    as tau_i = Hess(e_i, xi_hat) / 2 = d_i q / 4, and A_N e_i = -(dN_i -
    tau_i N) as |tau_i| |1 - q| / 2, with q = g(dF, dF).  Gate: certificate
    > tolerance * (1 + max(|dN_i|, _peak))."""
    dN = 0.5 * (data.ginv @ data.hess).transpose(0, 2, 1) / xi_scale
    tau = 0.5 * (data.hess @ data.xi_hat[:, :, None])[..., 0]
    certificate = np.abs(tau * (0.5 * (1.0 - data.norm2))[:, None])
    scale = 1.0 + np.maximum(np.abs(dN).max(axis=2), _peak(data, xi_scale)[:, None])
    return dN, tau, certificate, scale


def _peak(data: _PointData, xi_scale: float) -> np.ndarray:
    """max(max |xi|, max |gbar|) per point, xi = c (1, xi_hat) and gbar =
    diag(-1, g), built from neither: rounding to nearest is symmetric and
    monotone, so max_i |c x_i| = |c| max_i |x_i| bit for bit, and max |xi|
    = |c| max(1, max |xi_hat|); max |gbar| = max(1, max |g|)."""
    xi = abs(xi_scale) * np.maximum(1.0, np.abs(data.xi_hat).max(axis=1))
    return np.maximum(xi, np.maximum(1.0, np.abs(data.g).max(axis=(1, 2))))


@_quiet
def weingarten_at(
    gen: MongeGenerator, p, i: int, xi_scale: float = 1.0, tolerance: float = 1e-8
) -> tuple[np.ndarray, float]:
    """Shape operator value A_N e_i and transversal form tau(e_i), i in range(d).

    The ambient derivative of N along e_i reduces to half the base
    covariant derivative of grad F (the x0 direction is parallel); tau is
    its pairing with xi and A_N e_i = -(derivative - tau N).
    """
    xi_scale, tolerance = _check_xi_scale(xi_scale), _check_tolerance(tolerance)
    _check_indices(gen.dimension, i=i)
    data = _point_at(gen, p)
    kept = data.weingarten.get(xi_scale)
    if kept is None:  # computed once for the d calls at a point
        kept = data.weingarten[xi_scale] = _weingarten(data, xi_scale)
    dN, tau, certificate, scale = kept
    column = slice(i, i + 1)
    _raise(_tangency_failures("Weingarten", certificate[:, column], scale[:, column], tolerance))
    a_vec = tau[0, i] * (data.nxi[0] / xi_scale)
    a_vec[1:] -= dN[0, i]
    return a_vec, float(tau[0, i])


# ---------------------------------------------------------------------------
# Screen integrability


def _neighbour_jets(
    gen: MongeGenerator, points: np.ndarray, g: np.ndarray, ginv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """dF and xi_hat, each (n, d, 2, d), at the central-difference neighbours
    base +- BRACKET_STEP e_l of the n points, rows of ``points``, whose
    metric g passed the inverse's gates with the inverse ``ginv``; and
    {point: error} of the points with a failing neighbour: the error of the
    first, in the order l ascending, +h before -h.

    The neighbours run as one stack, like the points themselves: one
    value-only metric pass each (xi_hat = g^-1 dF reads no partial of g)
    and F at second order.  A neighbour whose g equals its point's bit for
    bit (compared as integers, so -0.0 is not 0.0 and NaN payloads count)
    takes the point's inverse: invert_metric computes each row from that
    row's bits alone, so it would give the same inverse and pass the same
    gates.  Only the other neighbours are inverted; on a metric that does
    not read coordinate l, both neighbours along l reuse."""
    n, d = points.shape
    shifted = np.repeat(points, 2 * d, axis=0)  # row (k*d + l)*2 + side
    for l in range(d):
        shifted[2 * l :: 2 * d, l] += BRACKET_STEP
        shifted[2 * l + 1 :: 2 * d, l] -= BRACKET_STEP
    bases = shifted.tolist()
    near, _, failures = _metric(gen, bases, 0)
    bits, own = near.view(np.uint64), g.view(np.uint64)
    same = (bits.reshape(n, 2 * d, d * d) == own.reshape(n, 1, d * d)).all(axis=2)
    differ = np.flatnonzero(~same.ravel()).tolist()
    near_inv = np.repeat(ginv, 2 * d, axis=0)
    if differ:
        near_inv[differ], singular = invert_metric(near[differ], [bases[k] for k in differ])
        failures = {differ[k]: exc for k, exc in singular.items()} | failures
    dF, _, xi_hat = _scalar_jets(gen, shifted, near_inv, failures)
    first: dict[int, Exception] = {}
    for k in sorted(failures):
        first.setdefault(k // (2 * d), failures[k])
    return dF.reshape(n, d, 2, d), xi_hat.reshape(n, d, 2, d), first


def _bracket_defect(
    centre_dF: np.ndarray, centre_xi_hat: np.ndarray, dF: np.ndarray, xi_hat: np.ndarray
) -> np.ndarray:
    """Worst screen leakage |dF([s_i, s_j])| / 2 per point, from the points'
    own dF and xi_hat and their neighbours' of _neighbour_jets, stacked
    along a leading axis."""
    fields = _screen_fields(dF, xi_hat)  # fields[k, l, side, i, m]
    n, d = centre_dF.shape
    # ds[k, l, i, m] = d_l s_i^m and half[k, i, j, m] = s_i(s_j)^m
    ds = (fields[:, :, 0] - fields[:, :, 1]) / (2.0 * BRACKET_STEP)
    half = _screen_fields(centre_dF, centre_xi_hat) @ ds.reshape(n, d, d * d)
    half = half.reshape(n, d, d, d)
    bracket = half - half.transpose(0, 2, 1, 3)
    return 0.5 * np.abs(bracket @ centre_dF[:, None, :, None]).max(axis=(1, 2, 3))


@_quiet
def screen_integrability_defect_at(gen: MongeGenerator, p) -> float:
    """Worst Lie-bracket leakage of the screen fields out of the screen.

    The x0 part of the closed-form fields s_i = (0, delta_i - dF_i xi_hat),
    and so of every bracket, vanishes identically; the leakage is the
    pairing with N, |dF([s_i, s_j])| / 2.  d_l s_i are central differences
    whose neighbours compute only dF and xi_hat, from the metric's values
    (a metric error there names the neighbour; a kink of g, where only its
    partials fail, is no error there).  A neighbour whose g equals the
    point's bit for bit takes the point's verified inverse (see
    _neighbour_jets), which gives the numbers and errors of inverting its
    own.  Line fields (d = 2) are integrable by convention: 0.
    """
    data = _point_at(gen, p)
    d = gen.dimension
    if d < 2:
        raise ScreenRankError("screen needs chart dimension >= 2")
    if d == 2:
        return 0.0
    dF, xi_hat, failures = _neighbour_jets(gen, data.points, data.g, data.ginv)
    _raise(failures)
    return float(_bracket_defect(data.dF, data.xi_hat, dF, xi_hat)[0])


# ---------------------------------------------------------------------------
# Classification


@dataclass
class PointAnalysis:
    """Everything computed at one sample point (None where unavailable).

    ``second_form_scale`` is 1 + ||Hess||_inf + ||T||_inf, the scale of the
    totally-geodesic and minimal verdicts.  The degenerate verdict's scale,
    1 + |lightlike_defect + 1|, is the lightlike gate's and is not stored,
    nor is the Gauss tangency certificate, max|B| |lightlike_defect| / 2:
    each verdict is recomputed bit for bit from these fields."""

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
    second_form_scale: float | None = None
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


@_quiet
def _analyze(
    gen: MongeGenerator, points: Sequence[SurfacePoint], tol: float, xi_scale: float
) -> tuple[list[PointAnalysis], dict[str, object]]:
    """One record per sample point, and the stacked columns of the live
    points (those with no error) that classify aggregates its verdicts from:
    their record indices ("index", a list), their lightlike defects, B,
    the second-form scales, and the umbilic residuals and minimal defects,
    each None unless every live point carries one.

    The points are admitted as one stack (see _gate): one pass checks every
    base's length and every coordinate's finiteness, and x0's, and each
    domain constraint runs once over the stack; the one-point rule
    (_point_error) decides every point the stack does not admit, at the
    floats the chart reads (CoordinateChart.read).  The gate hands on one
    float array of the kept bases, the stack's rows and the one-point
    rule's floats, which are the only floats every later stage reads; a
    kept point's record names them (a plain point, whose floats they are,
    keeps its own SurfacePoint).  The metric's
    jets run point by point, each gathering g and dg from the slot map, and
    are stacked at once; the metric inverse, F's jets and every later stage
    run once over one stack of every point that passed the domain and F,
    and one boolean ``alive`` mask says which rows still count.  A stage's
    failure is recorded only at a row that is alive and that the stage
    gates (the lightlike rows, for the screen rank, Weingarten and Gauss).  The d >= 3
    bracket neighbours of the live lightlike points form one more stack,
    with one more call of F and one value-only metric pass per neighbour;
    the points' g and verified ginv go with them, and a neighbour whose g
    is bit-identical to its point's takes that ginv instead of being
    inverted (a live point passed every gate of the inverse, which the
    same bits pass again).
    A point records the first gate it fails, in the order: its number of
    coordinates, numeric and finite coordinates (base, and x0 unless it is
    None), domain, F (for a point whose x0 is None), metric jets, metric
    inverse, F jets, finite dF, Hessian finiteness, screen rank (g(dF, dF)
    not 0), bracket neighbours, Weingarten, Gauss, and finiteness of the
    reported numbers.  Each live point's record is built once, from the columns.
    No screen frame is built: the minimal defect, tau and both tangency
    certificates are closed forms of the jets.  The certificates gate the
    lightlike points and reach no record: the Gauss certificate is
    max|B| |lightlike_defect| / 2, and the Weingarten certificate is
    |tau| |lightlike_defect| / 2.  No ambient (d+1)-vector is built either,
    since the pairings of xi and N restate q = g(dF, dF)
    (gbar(xi, xi) = c^2 (q - 1), gbar(xi, N) = (1 + q) / 2,
    gbar(N, N) = (q - 1) / (4 c^2)) and gbar(e_i, xi) is the inverse's
    residual."""
    records: list[PointAnalysis | None] = [None] * len(points)
    refused, read, bases = _gate(gen, points)
    for i, error in refused.items():
        records[i] = PointAnalysis(index=i, point=points[i], error=error)
    if read:  # a kept point's record names the floats it was analyzed at
        points = [read.get(i, sp) for i, sp in enumerate(points)]
    kept = [i for i in range(len(points)) if i not in refused]
    if not kept:
        return records, {"index": []}
    n, d = len(kept), gen.dimension
    data = _PointData(gen, bases[kept] if refused else bases)
    everywhere = np.ones(n, dtype=bool)
    alive = everywhere.copy()
    errors: dict[int, str] = {}

    def drop(failures: dict[int, Exception], among: np.ndarray):
        """Record each failure at a row that is among the given rows and alive."""
        for k, exc in failures.items():
            if among[k] and alive[k]:
                errors[k] = str(exc)
                alive[k] = False

    drop(data.failures, everywhere)
    rank = _radical_rank(data, tol)
    defect = data.norm2 - 1.0
    light = _is_lightlike(defect, tol)
    rho, residual, normalizer, posed = _umbilic_fit(data)
    fit = posed & (d >= 2)  # every 1 x 1 form is a multiple of T: the fit says nothing

    minimal, bracket = np.full((2, n), np.nan)
    if d >= 2:
        minimal, failures = _minimal_defect(data)
        drop(failures, light)
    if d == 2:
        bracket[:] = 0.0  # line fields are integrable by convention
    elif d >= 3:
        rows = np.flatnonzero(light & alive)
        centres = data.points[rows], data.g[rows], data.ginv[rows]
        dF, xi_hat, failures = _neighbour_jets(gen, *centres)
        drop({rows[k]: exc for k, exc in failures.items()}, light)
        bracket[rows] = _bracket_defect(data.dF[rows], data.xi_hat[rows], dF, xi_hat)

    _, tau, certificate, scale = _weingarten(data, xi_scale)
    drop(_tangency_failures("Weingarten", certificate, scale, tol), light)
    B, certificate, scale = _gauss_split(data, xi_scale)
    drop(_tangency_failures("Gauss", certificate, scale, tol), light)

    # every number bound for the report, in record order, with the rows
    # that carry it; the first that is not finite names the point's error
    screened = light & (d >= 2)
    reported = (
        ("B", B, everywhere),
        ("lightlike_defect", defect, everywhere),
        ("umbilic_rho", rho, fit),
        ("umbilic_residual", residual, fit),
        ("minimal_defect", minimal, screened),
        ("integrability_defect", bracket, screened),
        ("tau", tau, light),
        ("second_form_scale", normalizer, everywhere),
    )
    for name, values, present in reported:
        bad = np.flatnonzero(~np.isfinite(values.reshape(n, -1)).all(axis=1)).tolist()
        drop(dict.fromkeys(bad, NonFiniteValueError(f"{name} is not finite")), present)

    for k, error in errors.items():
        i = kept[k]
        records[i] = PointAnalysis(index=i, point=points[i], error=error)
    live = np.flatnonzero(alive)
    index = [kept[k] for k in live.tolist()]

    def column(values: np.ndarray, present: np.ndarray = everywhere) -> list:
        """The values at the live rows: floats, or one array per row; None
        at a row that does not carry the number."""
        values = values[live]
        column = values.tolist() if values.ndim == 1 else list(values)
        shown = present[live]
        if shown.all():
            return column
        return [v if p else None for v, p in zip(column, shown.tolist())]

    for i, *fields in zip(
        index,
        rank[live].tolist(),
        column(B),
        column(defect),
        column(rho, fit),
        column(residual, fit),
        column(minimal, screened),
        column(bracket, screened),
        column(tau, light),
        column(normalizer),
        light[live].tolist(),
    ):
        records[i] = PointAnalysis(i, points[i], None, *fields)

    columns = {
        "index": index,
        "lightlike_defect": defect[live],
        "B": B[live],
        "second_form": normalizer[live],
        "umbilic_residual": residual[live] if fit[live].all() else None,
        "minimal_defect": minimal[live] if screened[live].all() else None,
    }
    return records, columns


def classify(
    gen: MongeGenerator,
    points: Sequence[SurfacePoint],
    tol: Tolerances | float | None = None,
    xi_scale: float = 1.0,
) -> ClassificationReport:
    """Analyze every sample point and aggregate global verdicts.

    Verdicts: degenerate (every lightlike defect over 1 + |defect + 1|,
    the lightlike gate's scale, below tolerance), totally_geodesic (every
    max|B| over |xi_scale| times the second-form scale), totally_umbilical
    (every umbilic residual; None on 1-dimensional charts), minimal (every
    minimal defect over the second-form scale; None when no point carries
    one).  Each is recomputed bit for bit from the records.  Points that
    fail to evaluate are recorded with their error; above 10% failures
    every verdict is "indeterminate".  A refused tolerance or a zero,
    non-finite or bool xi_scale raises ValueError; negative scales are valid.

    The points are admitted as one stack: their lengths and finiteness are
    checked at once and each domain constraint runs once over them, and a
    point the stack does not admit (say, abs(x) > 0 at x = 0, where only a
    derivative fails) is tested on its own, by the one rule that refuses.
    An error that names a point (" at [x, y]") names the floats the
    stages read, and so does the record of every point the gate admits:
    the base as the chart reads it (see CoordinateChart.read), and x0 as a
    float.  The domain is tested at those floats.  The metric's
    jets are evaluated point by point, each pass gathering g and dg from the
    metric's slot map, and stacked at once; the metric inverse, F's
    second-order jets and every later stage run once over one stack of all
    the points, with
    one ``alive`` mask for the points that have not failed yet (the d >= 3
    bracket neighbours of the live lightlike points form one more stack,
    with one more call of F; they evaluate the metric's values only, and
    one whose g is bit-identical to its point's reuses the point's verified
    inverse, so only the others are inverted, with the same outcome).  A
    point that fails a gate, in _analyze's order (the screen rank is the
    scalar test |g(dF, dF)| above a floor, with no frame built), keeps its
    first error, and its later numbers reach no record.  A point's record
    does not depend on the other points.  The verdicts are taken from the
    live points' stacked columns; a verdict's witness is the first point
    with the largest |value|.
    """
    if not isinstance(tol, Tolerances):
        tol = Tolerances() if tol is None else Tolerances(tol)
    xi_scale = _check_xi_scale(xi_scale)
    if not points:
        raise EmptySampleError("no sample points supplied")

    analyses, columns = _analyze(gen, points, tol.base, xi_scale)
    index = columns["index"]
    failed_fraction = 1.0 - len(index) / len(analyses)

    def aggregate(values: np.ndarray | None) -> Verdict:
        # not applicable unless every analyzed point carries a value
        if values is None:
            return Verdict(value=None)
        size = np.abs(values)
        worst = int(size.argmax())
        return Verdict(bool((size < tol.base).all()), index[worst], float(values[worst]))

    if failed_fraction > 0.10:
        verdicts = {
            name: Verdict("indeterminate")
            for name in ("degenerate", "totally_geodesic", "totally_umbilical", "minimal")
        }
    else:  # at most 10% failed, so some point is live
        defect = columns["lightlike_defect"]
        second_form = columns["second_form"]
        B_max = np.abs(columns["B"]).max(axis=(1, 2))
        minimal = columns["minimal_defect"]
        verdicts = {
            "degenerate": aggregate(defect / (1.0 + np.abs(defect + 1.0))),
            "totally_geodesic": aggregate(B_max / (abs(xi_scale) * second_form)),
            "totally_umbilical": aggregate(columns["umbilic_residual"]),
            "minimal": aggregate(None if minimal is None else minimal / second_form),
        }

    return ClassificationReport(
        generator_name=gen.name,
        tolerances=tol,
        xi_scale=xi_scale,
        points=analyses,
        verdicts=verdicts,
        failed_fraction=failed_fraction,
    )
