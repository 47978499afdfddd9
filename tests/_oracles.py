"""Independent oracles and random-case generators shared by the tests.

Finite differences here never touch the jet code path: every derivative is
assembled from plain-float expression evaluations, so cross-checks against
the autodiff pipeline are genuinely two-sided.
"""

from __future__ import annotations

import numpy as np

from mongelight.exprlang import (
    BinOp,
    Call,
    Coord,
    CoordinateChart,
    EvalDomainError,
    Neg,
    Num,
    Param,
    compile_expr,
    compile_stacked,
    parse,
    parse_constraint,
)
from mongelight.mongecore import (
    BRACKET_STEP,
    MongeGenerator,
    NonFiniteValueError,
    _bracket_defect,
    screen_frame_at,
)
from mongelight.semiriemann import MetricField, OrthoFrame, invert_metric, metric_jets_at

FD_STEP = 1e-5
RICH_STEP = 1e-3


def local_scale(*tensors) -> float:
    """1 + the largest absolute entry of the given tensors."""
    peak = 0.0
    for t in tensors:
        a = np.asarray(t, dtype=float)
        if a.size:
            peak = max(peak, float(np.max(np.abs(a))))
    return 1.0 + peak


def svd_radical_rank(induced, tolerance: float) -> int:
    """The radical rank by its definition: the number of singular values of
    one point's induced Gram matrix, from a full SVD, below tolerance *
    local_scale(induced)."""
    singular = np.linalg.svd(induced, compute_uv=False)
    return int(np.sum(singular < tolerance * local_scale(induced)))


# ---------------------------------------------------------------------------
# Finite-difference derivatives


def fd_gradient(f, x, h=FD_STEP):
    x = np.asarray(x, dtype=float)
    grad = np.zeros(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return grad


def fd_hessian(f, x, h=FD_STEP):
    """Central second differences (diagonal 3-point, off-diagonal 4-point)."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    hess = np.zeros((d, d))
    f0 = f(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / (h * h)
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            cross = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h * h)
            hess[i, j] = hess[j, i] = cross
    return hess


def fd_hessian_rich(f, x, h=RICH_STEP):
    """Richardson-extrapolated Hessian, error O(h^4) + O(eps/h^2)."""
    d1 = fd_hessian(f, x, h)
    d2 = fd_hessian(f, x, h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def fd_metric_partials(metric_eval, x, h=FD_STEP):
    """dg[i, j, k] = d_i g_jk by central differences of the metric matrix."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    dg = np.zeros((d, d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        dg[i] = (np.asarray(metric_eval(x + e)) - np.asarray(metric_eval(x - e))) / (2.0 * h)
    return dg


def fd_christoffel(metric_eval, x, h=FD_STEP):
    """Brute-force Levi-Civita coefficients from finite-difference metric derivatives."""
    g = np.asarray(metric_eval(np.asarray(x, dtype=float)))
    ginv = np.linalg.inv(g)
    dg = fd_metric_partials(metric_eval, x, h)
    d = g.shape[0]
    gamma = np.zeros((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                s = 0.0
                for l in range(d):
                    s += ginv[k, l] * (dg[i, l, j] + dg[j, l, i] - dg[l, i, j])
                gamma[k, i, j] = 0.5 * s
    return gamma


def fd_covariant_hessian(metric_eval, f, x, h=RICH_STEP):
    """Hess_ij = d_i d_j f - Gamma^k_ij d_k f, everything finite-differenced."""
    gamma = fd_christoffel(metric_eval, x, h=FD_STEP)
    grad = fd_gradient(f, x)
    return fd_hessian_rich(f, x, h) - np.einsum("kij,k->ij", gamma, grad)


def fd_screen_integrability_defect(metric_eval, f, x, h=RICH_STEP):
    """Worst leakage |b0| + |gbar(b, N)| over the brackets b = [s_i, s_j] of
    the projected screen fields s_i = e_i - gbar(e_i, N) xi.

    dF comes from fd_gradient, xi_hat from np.linalg.solve, and d_l s_i from
    a 4-point central stencil, so no jet or closed form enters; the fields
    keep their x0 slot and the leakage both of its terms.
    """
    x = np.asarray(x, dtype=float)
    d = len(x)

    def fields(p):
        g = np.asarray(metric_eval(p))
        dF = fd_gradient(f, p)
        xi_hat = np.linalg.solve(g, dF)
        gbar = np.zeros((d + 1, d + 1))
        gbar[0, 0] = -1.0
        gbar[1:, 1:] = g
        frame = np.hstack([dF[:, None], np.eye(d)])
        xi = np.concatenate(([1.0], xi_hat))
        nxi = np.concatenate(([-0.5], 0.5 * xi_hat))
        return frame - np.outer(frame @ gbar @ nxi, xi), gbar, nxi

    s0, gbar, nxi = fields(x)
    ds = np.zeros((d, d, d + 1))  # ds[l, i] = d_l s_i
    for l in range(d):
        e = np.zeros(d)
        e[l] = h
        far = fields(x - 2 * e)[0] - fields(x + 2 * e)[0]
        near = fields(x + e)[0] - fields(x - e)[0]
        ds[l] = (far + 8.0 * near) / (12.0 * h)
    worst = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            b = sum(s0[i, 1 + l] * ds[l, j] - s0[j, 1 + l] * ds[l, i] for l in range(d))
            worst = max(worst, abs(b[0]) + abs(float(b @ gbar @ nxi)))
    return worst


def reference_bracket_defect(gen, base):
    """The screen bracket of classify and screen_integrability_defect_at at
    a base point of a d >= 3 chart whose own jets pass every gate, with
    every central-difference neighbour's metric inverted, through the
    public metric_jets_at, invert_metric and compile_stacked only:
    (defect, None), or (None, the message of the first failing neighbour,
    in the order axis ascending, +h before -h).

    The point's jets are a stack of one, as a public query's are: g from
    the first-order metric pass, then its inverse and F's jets.  Each
    neighbour runs a value-only metric pass, and every neighbour is
    inverted, whether or not its g equals the point's.  A neighbour
    records the first stage it fails: the metric, the inverse's gates, F's
    jets, a finite dF.  _bracket_defect turns the fields into the leakage.
    """
    base = tuple(map(float, base))
    d = len(base)
    stacked = compile_stacked(gen.scalar_field, gen.params)
    with np.errstate(over="ignore", invalid="ignore"):
        g, _ = metric_jets_at(gen.metric, base)
        ginv, _ = invert_metric(g[None], [base])
        F, _ = stacked(np.array([base]))
        dF = F.grad.T.copy()
        xi_hat = (ginv @ dF[:, :, None])[:, :, 0]
        shifted = [
            base[:l] + (base[l] + step,) + base[l + 1 :]
            for l in range(d)
            for step in (BRACKET_STEP, -BRACKET_STEP)
        ]
        near = np.zeros((2 * d, d, d))
        failures = {}
        for k, point in enumerate(shifted):
            try:
                near[k], _ = metric_jets_at(gen.metric, point, 0)
            except EvalDomainError as exc:
                failures[k] = exc
        near_inv, singular = invert_metric(near, shifted)
        failures = singular | failures
        F, errors = stacked(np.array(shifted))
        for k, exc in errors.items():
            failures.setdefault(k, exc)
        near_dF = F.grad.T.copy()
        near_dF[list(failures)] = 0.0
        for k in np.flatnonzero(~np.isfinite(near_dF).all(axis=1)).tolist():
            failures[k] = NonFiniteValueError(f"derivatives not finite at {list(shifted[k])}")
        if failures:
            return None, str(failures[min(failures)])
        near_xi = (near_inv @ near_dF[:, :, None])[:, :, 0]
        fields = (near_dF.reshape(1, d, 2, d), near_xi.reshape(1, d, 2, d))
        return float(_bracket_defect(dF, xi_hat, *fields)[0]), None


def metric_evaluator(field, chart):
    """Plain-float metric matrix evaluator for a MetricField; each component
    is compiled once."""
    rows = [[compile_expr(e, chart.parameters) for e in row] for row in field.components]

    def at(point):
        point = list(point)
        return np.array([[entry(point) for entry in row] for row in rows])

    return at


def scalar_evaluator(expr, chart):
    """Plain-float evaluator of an expression, compiled once."""
    compiled = compile_expr(expr, chart.parameters)

    def at(point):
        return compiled(list(point))

    return at


# ---------------------------------------------------------------------------
# Random expressions

# Expressions built by random_smooth_expr stay finite and smooth on the box
# [0.6, 1.9]^d with margin for finite-difference stencils: denominators are
# bounded below by 1, ln/sqrt arguments bounded below by 1, exp arguments
# stay small.


def random_smooth_expr(rng: np.random.Generator, chart: CoordinateChart, depth: int = 3):
    d = chart.dimension

    def leaf():
        if rng.random() < 0.7:
            i = int(rng.integers(d))
            return Coord(i, chart.names[i])
        return Num(float(np.round(rng.uniform(0.3, 2.0), 3)))

    def build(level):
        if level <= 0:
            return leaf()
        pick = rng.random()
        if pick < 0.18:
            return BinOp("+", build(level - 1), build(level - 1))
        if pick < 0.33:
            return BinOp("-", build(level - 1), build(level - 1))
        if pick < 0.5:
            return BinOp("*", build(level - 1), build(level - 1))
        if pick < 0.6:
            num = build(level - 1)
            den = BinOp("+", Num(1.0), BinOp("^", build(level - 1), Num(2.0)))
            return BinOp("/", num, den)
        if pick < 0.68:
            return Call("sin", build(level - 1))
        if pick < 0.76:
            return Call("cos", build(level - 1))
        if pick < 0.82:
            return Call("sqrt", BinOp("+", Num(1.0), BinOp("^", build(level - 1), Num(2.0))))
        if pick < 0.88:
            return Call("ln", BinOp("+", Num(1.0), BinOp("^", build(level - 1), Num(2.0))))
        if pick < 0.94:
            return Call("exp", BinOp("*", Num(0.3), leaf()))
        if pick < 0.97:
            return BinOp("^", leaf(), Num(float(rng.choice([2.0, 3.0]))))
        return Neg(build(level - 1))

    return build(depth)


def random_box_point(rng: np.random.Generator, dim: int):
    return [float(x) for x in rng.uniform(0.6, 1.9, size=dim)]


def random_ast(rng: np.random.Generator, chart: CoordinateChart, depth: int = 4):
    """Arbitrary grammar-shaped AST (for parse/render round-trips only)."""
    funcs = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")
    params = list(chart.parameters)

    def build(level):
        if level <= 0 or rng.random() < 0.25:
            pick = rng.random()
            if pick < 0.45:
                i = int(rng.integers(chart.dimension))
                return Coord(i, chart.names[i])
            if pick < 0.6 and params:
                return Param(str(rng.choice(params)))
            return Num(float(np.round(rng.uniform(0.0, 9.0), 4)))
        pick = rng.random()
        if pick < 0.55:
            op = str(rng.choice(["+", "-", "*", "/", "^"]))
            return BinOp(op, build(level - 1), build(level - 1))
        if pick < 0.75:
            return Call(str(rng.choice(funcs)), build(level - 1))
        return Neg(build(level - 1))

    return build(depth)


# ---------------------------------------------------------------------------
# Sign-orthogonal frame mixes


def screen_base_frame(gen, p, tolerance=1e-8) -> OrthoFrame:
    """The base slots of screen_frame_at: a g-orthonormal frame of ker dF."""
    screen = screen_frame_at(gen, p, tolerance)
    return OrthoFrame(screen.vectors[:, 1:], screen.signs)


def random_sign_orthogonal(rng: np.random.Generator, signs) -> np.ndarray:
    """A matrix Q with Q^T diag(signs) Q = diag(signs).

    Composes rotations within same-sign index pairs, boosts within
    mixed-sign pairs, and random sign flips.
    """
    signs = list(signs)
    n = len(signs)
    q = np.diag(rng.choice([-1.0, 1.0], size=n))
    for _ in range(2 * n):
        i, j = rng.integers(n), rng.integers(n)
        if i == j:
            continue
        block = np.eye(n)
        if signs[i] == signs[j]:
            a = rng.uniform(0.0, 2.0 * np.pi)
            block[i, i] = block[j, j] = np.cos(a)
            block[i, j] = -np.sin(a)
            block[j, i] = np.sin(a)
        else:
            a = rng.uniform(-1.0, 1.0)
            block[i, i] = block[j, j] = np.cosh(a)
            block[i, j] = block[j, i] = np.sinh(a)
        q = q @ block
    return q


def sample_admissible(rng: np.random.Generator, gen, ranges, count: int):
    """Random admissible base points drawn uniformly from the given box."""
    points = []
    while len(points) < count:
        base = tuple(float(rng.uniform(lo, hi)) for lo, hi in ranges)
        if gen.admissible(base):
            points.append(base)
    return points


# ---------------------------------------------------------------------------
# A lightlike set that is not open


def lightlike_line_fixtures():
    """Generators whose lightlike set is a line, where tau and the screen
    bracket do not vanish: F = y*sqrt(1 + x) on x > -1 has
    q = g(dF, dF) = y^2 / (4 (1 + x)) + 1 + x over a flat metric in which
    x and y are spacelike, lightlike only at x = y = 0.

    There dF = e_y, Hess F = (e_x (x) e_y + e_y (x) e_x) / 2, so
    tau = Hess(xi_hat) / 2 = e_x / 4 and the minimal defect is 0; in three
    dimensions the screen bracket leaks exactly 1/2.  Returns
    {name: (generator, lightlike base points, tau there)}.
    """
    cases = {
        "line3": (("x", "y", "z"), ("1", "1", "1"), [(0.0, 0.0, z) for z in (-0.5, 0.0, 1.5)]),
        "line2": (("x", "y"), ("1", "1"), [(0.0, 0.0)]),
        "line_txy": (("t", "x", "y"), ("-1", "1", "1"), [(t, 0.0, 0.0) for t in (-0.5, 0.0, 2.0)]),
    }
    fixtures = {}
    for name, (names, diagonal, bases) in cases.items():
        chart = CoordinateChart(names)
        d = chart.dimension
        rows = [[diagonal[i] if i == j else "0" for j in range(d)] for i in range(d)]
        gen = MongeGenerator(
            name,
            chart,
            MetricField.from_strings(chart, rows),
            parse("y*sqrt(1 + x)", chart),
            (parse_constraint("x > -1", chart),),
        )
        tau = np.zeros(d)
        tau[names.index("x")] = 0.25
        fixtures[name] = gen, bases, tau
    return fixtures
