"""The transversal form tau, both tangency certificates and the minimal
defect are closed forms of the jets over q = g(dF, dF):

- tau = Hess(xi_hat) / 2 = dq / 4
- Gauss certificate |B_ij| |1 - q| / 2, Weingarten |tau_i| |1 - q| / 2
- minimal defect tr(g^-1 Hess) - Hess(xi_hat, xi_hat) / q

Each is judged here by something that does not use it: the closed forms of
a lightlike set that is not open, finite differences of q / 4, the pairing
with xi of the returned vectors, and a sign-weighted trace over a frame of
ker dF built with eigh.
"""

import numpy as np
import pytest

from mongelight import catalog
from mongelight.exprlang import CoordinateChart, parse
from mongelight.mongecore import (
    MongeGenerator,
    ambient_metric_at,
    classify,
    gauss_decompose_at,
    lightlike_defect_at,
    minimal_defect_at,
    monge_frame_at,
    normal_and_transversal_at,
    screen_integrability_defect_at,
    weingarten_at,
    _gauss_split,
    _peak,
    _point_data,
    _weingarten,
)
from mongelight.reportio import grid_sample
from mongelight.semiriemann import MetricField

from _oracles import (
    fd_christoffel,
    fd_gradient,
    fd_screen_integrability_defect,
    lightlike_line_fixtures,
    local_scale,
    metric_evaluator,
    scalar_evaluator,
)

LINES = lightlike_line_fixtures()

# an indefinite metric with position-dependent off-diagonal entries, and an
# F whose q ranges well away from 1 on the box [-1, 1]^3
CHART = CoordinateChart(("x", "y", "z"))
MIXED = MongeGenerator(
    "mixed",
    CHART,
    MetricField.from_strings(
        CHART,
        [
            ["2 + sin(x*y)", "0.3*z", "0.1"],
            ["0.3*z", "1 + x^2", "0.2*y"],
            ["0.1", "0.2*y", "-1 - 0.5*cos(z)"],
        ],
    ),
    parse("sin(x) + y*z + 0.3*x*y^2", CHART),
)
# loose enough that the tangency gates pass off the lightlike locus
LOOSE = 1e6


def mixed_points(count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(-1.0, 1.0, 3).tolist()) for _ in range(count)]


class TestLightlikeLine:
    """At x = y = 0 the lightlike set of F = y*sqrt(1 + x) is a line, so
    dq does not vanish there: tau and the bracket are nonzero."""

    @pytest.mark.parametrize("name", sorted(LINES))
    def test_public_functions(self, name):
        gen, bases, tau = LINES[name]
        for base in bases:
            assert lightlike_defect_at(gen, base) == 0.0
            got = [weingarten_at(gen, base, i)[1] for i in range(gen.dimension)]
            assert np.max(np.abs(np.array(got) - tau)) < 1e-15
            assert abs(minimal_defect_at(gen, base)) < 1e-15
            bracket = screen_integrability_defect_at(gen, base)
            if gen.dimension == 2:
                assert bracket == 0.0
            else:
                assert abs(bracket - 0.5) < 1e-6

    @pytest.mark.parametrize("name", sorted(LINES))
    def test_classify_records(self, name):
        gen, bases, tau = LINES[name]
        off = tuple(0.5 for _ in bases[0])  # q = 1.625 + 0.5 / 6 there
        report = classify(gen, [gen.surface_point(b) for b in [*bases, off]])
        *line, rest = report.points
        assert all(a.error is None for a in report.points)
        for a in line:
            assert a.is_lightlike and np.max(np.abs(a.tau - tau)) < 1e-15
            assert abs(a.minimal_defect) < 1e-15
        assert not rest.is_lightlike and rest.tau is None and rest.minimal_defect is None
        assert report.verdicts["degenerate"].value is False

    def test_bracket_against_finite_differences(self):
        gen, bases, _ = LINES["line3"]
        metric = metric_evaluator(gen.metric, gen.chart)
        f = scalar_evaluator(gen.scalar_field, gen.chart)
        assert abs(fd_screen_integrability_defect(metric, f, bases[0]) - 0.5) < 1e-6


class TestOffTheLocus:
    def test_tau_is_a_quarter_of_dq(self):
        metric = metric_evaluator(MIXED.metric, CHART)
        f = scalar_evaluator(MIXED.scalar_field, CHART)

        def quarter_q(p):
            dF = fd_gradient(f, p)
            return float(dF @ np.linalg.solve(metric(p), dF)) / 4.0

        for base in mixed_points(10, 31):
            want = fd_gradient(quarter_q, base, 1e-4)
            unit, scaled = (
                np.array([weingarten_at(MIXED, base, i, c, LOOSE)[1] for i in range(3)])
                for c in (1.0, -2.5)
            )
            assert np.max(np.abs(unit - want)) < 1e-6 * local_scale(want)
            assert scaled.tobytes() == unit.tobytes()  # tau does not scale with xi

    def test_shape_operator_against_finite_differences(self):
        # tau N - A_N e_i = dN_i = (0, nabla_i xi_hat / 2) / c, with nabla_i
        # xi_hat from differences of xi_hat and finite-difference Christoffels
        h = 1e-6
        for base in mixed_points(5, 32):
            gamma = fd_christoffel(metric_evaluator(MIXED.metric, CHART), base)

            def xi_hat(point):
                return normal_and_transversal_at(MIXED, point)[0][1:]

            for c in (1.0, -2.5):
                _, nxi = normal_and_transversal_at(MIXED, base, c)
                for i in range(3):
                    step = np.eye(3)[i] * h
                    d_xi = (xi_hat(np.add(base, step)) - xi_hat(np.subtract(base, step))) / (2 * h)
                    nabla = d_xi + gamma[:, i, :] @ xi_hat(base)
                    a_vec, tau = weingarten_at(MIXED, base, i, c, LOOSE)
                    dN = np.concatenate(([0.0], 0.5 * nabla)) / c
                    assert np.max(np.abs(tau * nxi - a_vec - dN)) < 1e-6 * local_scale(dN)

    def test_certificates_are_the_pairings_with_xi(self):
        for base in mixed_points(10, 33):
            gbar = ambient_metric_at(MIXED, base)
            data = _point_data(MIXED, base)
            assert abs(data.norm2[0] - 1.0) > 1e-3  # off the locus, so the gates matter
            for c in (1.0, -2.5):
                xi, _ = normal_and_transversal_at(MIXED, base, c)
                weingarten = _weingarten(data, c)[2][0]
                gauss = _gauss_split(data, c)[1][0]
                for i in range(3):
                    a_vec, _ = weingarten_at(MIXED, base, i, c, LOOSE)
                    pairing = abs(float(a_vec @ gbar @ xi))
                    assert abs(pairing - weingarten[i]) < 1e-13 * local_scale(a_vec, xi, gbar) ** 2
                    for j in range(3):
                        tangent, _ = gauss_decompose_at(MIXED, base, i, j, c, LOOSE)
                        pairing = abs(float(tangent @ gbar @ xi))
                        scale = local_scale(tangent, xi, gbar) ** 2
                        assert abs(pairing - gauss[i, j]) < 1e-13 * scale


# the pairings of xi and N restate q = g(dF, dF) and reports do not carry
# them: within PAIRING_ULPS ulps of 1 + |q|, in the units of each pairing
# (c^2, 1, 1 / c^2 and |c|); the worst seen is 2.1
PAIRING_ULPS = 4


def pairing_cases():
    """(generator, base) over MIXED, off the lightlike locus, and the
    degenerate builtins' default grids."""
    cases = [(MIXED, base) for base in mixed_points(40, 34)]
    for name, _ in catalog.list_builtins():
        entry = catalog.builtin(name)
        if entry.expected.degenerate:
            points = grid_sample(entry.generator, entry.default_samples)
            cases += [(entry.generator, sp.base) for sp in points]
    return cases


@pytest.mark.parametrize("c", [1.0, -2.5])
def test_pairings_restate_q(c):
    off_locus = 0
    for gen, p in pairing_cases():
        gbar = ambient_metric_at(gen, p)
        xi, N = normal_and_transversal_at(gen, p, c)
        frame, _, _ = monge_frame_at(gen, p)
        q = lightlike_defect_at(gen, p) + 1.0
        off_locus += abs(q - 1.0) > 1e-3
        bound = PAIRING_ULPS * np.finfo(float).eps * (1.0 + abs(q))
        assert abs(xi @ gbar @ xi - c * c * (q - 1.0)) <= bound * c * c
        assert abs(xi @ gbar @ N - (1.0 + q) / 2.0) <= bound
        assert abs(N @ gbar @ N - (q - 1.0) / (4.0 * c * c)) <= bound / (c * c)
        assert np.abs(frame @ gbar @ xi).max() <= bound * abs(c)  # e_i pair with xi as 0
    assert off_locus == 40  # every MIXED point; the builtins' grids are lightlike


def test_gate_peak_is_that_of_the_ambient_stacks():
    # the tangency gates' scale, computed without gbar and xi, against its
    # definition max(max |xi|, max |gbar|) over the public stacks, bit for
    # bit; each of |c|, |c| max |xi_hat|, 1 and max |g| is the peak somewhere
    winners = set()
    for gen, p in pairing_cases():
        gbar = ambient_metric_at(gen, p)
        xi_hat = normal_and_transversal_at(gen, p)[0][1:]
        for c in (1.0, -2.5, 1e-3, 40.0):
            xi, _ = normal_and_transversal_at(gen, p, c)
            want = np.abs(np.concatenate((xi, gbar.ravel()))).max()
            assert _peak(_point_data(gen, p), c)[0].tobytes() == want.tobytes()
            terms = (abs(c), abs(c) * np.abs(xi_hat).max(), 1.0, np.abs(gbar[1:, 1:]).max())
            winners.update(k for k, term in enumerate(terms) if term == want)
    assert winners == {0, 1, 2, 3}


def quadratic_generator(g, dF, hess):
    """F = dF . p + p^T hess p / 2 over the constant metric g: at the origin
    its gradient is dF and its covariant Hessian is hess."""
    d = len(dF)
    chart = CoordinateChart(tuple("pqrst"[:d]))
    names = chart.names
    terms = [f"({float(dF[i])!r})*{names[i]}" for i in range(d)]
    for i in range(d):
        terms.append(f"({0.5 * float(hess[i, i])!r})*{names[i]}^2")
        for j in range(i + 1, d):
            terms.append(f"({float(hess[i, j])!r})*{names[i]}*{names[j]}")
    rows = [[repr(float(x)) for x in row] for row in g]
    metric = MetricField.from_strings(chart, rows)
    return MongeGenerator("quadratic", chart, metric, parse(" + ".join(terms), chart))


def eigh_frame_trace(g, dF, hess):
    """Sign-weighted trace of hess over a g-orthonormal frame of ker dF,
    from an SVD basis of ker dF and an eigendecomposition of its Gram matrix."""
    basis = np.linalg.svd(dF[None, :])[2][1:]
    lam, q = np.linalg.eigh(basis @ g @ basis.T)
    frame = (q.T @ basis) / np.sqrt(np.abs(lam))[:, None]
    return sum(np.sign(s) * float(v @ hess @ v) for v, s in zip(frame, lam))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_minimal_defect_against_an_eigh_frame(d):
    rng = np.random.default_rng(1600 + d)
    for _ in range(15):
        rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
        signs = np.array([1.0, -1.0, *rng.choice([-1.0, 1.0], d - 2)])
        g = (rotation * (rng.uniform(0.5, 2.0, d) * signs)) @ rotation.T
        g = 0.5 * (g + g.T)
        while True:  # q well away from 0, where ker dF turns degenerate
            dF = rng.normal(size=d)
            if abs(dF @ np.linalg.solve(g, dF)) > 0.1:
                break
        hess = rng.normal(size=(d, d))
        hess = 0.5 * (hess + hess.T)
        gen = quadratic_generator(g, dF, hess)
        want = eigh_frame_trace(g, dF, hess)  # repr writes g's entries exactly
        got = minimal_defect_at(gen, (0.0,) * d)
        assert abs(got - want) < 1e-10 * (1.0 + abs(want))


@pytest.mark.parametrize(
    "rows, scalar, error",
    [
        ([["1", "0"], ["0", "1"]], "0*x + 3", "dF vanishes; kernel of dF is not a hyperplane"),
        (
            [["0", "1"], ["1", "0"]],
            "x",
            "screen projection rank deficient: |g(dF, dF)| <= 1e-10 * max|dF| * max|xi_hat|",
        ),
    ],
)
def test_screen_rank_gate_in_classify(rows, scalar, error):
    # q = g(dF, dF) = 0 is lightlike only under a tolerance of 1 or more,
    # and there classify records the screen-rank error
    chart = CoordinateChart(("x", "y"))
    gen = MongeGenerator("rank", chart, MetricField.from_strings(chart, rows), parse(scalar, chart))
    points = [gen.surface_point((0.1, 0.2))]
    assert classify(gen, points, 0.9).points[0].error is None
    assert classify(gen, points, 2.0).points[0].error == error
