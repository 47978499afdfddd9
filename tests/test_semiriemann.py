"""Metric kernels: inverses, connection coefficients, gradients and Hessians,
cross-checked against finite differences."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongelight import catalog
from mongelight.exprlang import (
    BinOp,
    CoordinateChart,
    Coord,
    EvalDomainError,
    Neg,
    Num,
    Param,
    parse,
    render,
)
from mongelight.mongecore import (
    MongeGenerator,
    classify,
    lightlike_defect_at,
    monge_frame_at,
    normal_and_transversal_at,
    second_fundamental_form_at,
)
from mongelight.semiriemann import (
    DegenerateMetricError,
    MetricField,
    christoffel_from_partials,
    invert_metric,
    metric_jets_at,
)

import _jets
from _oracles import (
    fd_christoffel,
    fd_metric_partials,
    jets_at,
    local_scale,
    metric_evaluator,
    random_ast,
    random_box_point,
    random_smooth_expr,
    sample_admissible,
)

HYP2 = catalog.builtin("hyperbolic2").generator
SCHW = catalog.builtin("schwarzschild_tr").generator


def _flat(scalar):
    chart = CoordinateChart(("x", "y"))
    flat = MetricField.from_strings(chart, [["1", "0"], ["0", "1"]])
    return MongeGenerator("flat", chart, flat, parse(scalar, chart))


IDENTITY3 = MetricField.from_strings(
    CoordinateChart(("x", "y", "z")),
    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
)

POLAR = MetricField.from_strings(
    CoordinateChart(("r", "theta")), [["1", "0"], ["0", "r^2"]]
)


# the metric, its verified inverse and the Christoffel symbols along the
# path the kernel runs, on a stack of one point; a failed gate raises
def kernel_metric(field, point):
    g, _ = jets_at(field, point)
    ginv, failures = invert_metric(g[None], [point])
    if failures:
        raise failures[0]
    return g, ginv[0]


def kernel_christoffel(field, point):
    _, dg = jets_at(field, point)
    _, ginv = kernel_metric(field, point)
    return christoffel_from_partials(ginv[None], dg[None])[0]


class TestMetricAt:
    @pytest.mark.parametrize(
        "rows", [[["1"]], [["1", "0"], ["0", "1"], ["0", "0"]], [["1", "0"], ["1"]]]
    )
    def test_metric_that_is_not_d_by_d_refused(self, rows):
        chart = CoordinateChart(("x", "y"))
        with pytest.raises(ValueError, match="^metric must be 2x2 for this chart$"):
            MetricField.from_strings(chart, rows)

    def test_hyperbolic_plane(self):
        g, ginv = kernel_metric(HYP2.metric, [0.0, 2.0])
        assert np.allclose(g, [[0.25, 0.0], [0.0, 0.25]], atol=0)
        assert np.allclose(ginv, [[4.0, 0.0], [0.0, 4.0]], atol=0)

    def test_exterior_chart(self):
        g, _ = kernel_metric(SCHW.metric, [0.0, 2.0])
        assert np.allclose(g, [[-0.5, 0.0], [0.0, 2.0]], atol=1e-15)

    def test_identity(self):
        g, ginv = kernel_metric(IDENTITY3, [0.3, -0.7, 5.0])
        assert np.array_equal(g, np.eye(3))
        assert np.array_equal(ginv, np.eye(3))

    def test_inverse_residual(self):
        g, ginv = kernel_metric(SCHW.metric, [0.0, 1.001])
        assert np.max(np.abs(g @ ginv - np.eye(2))) < 1e-10

    def test_near_horizon_flagged_degenerate(self):
        with pytest.raises(DegenerateMetricError):
            kernel_metric(SCHW.metric, [0.0, 1.0 + 1e-7])

    def test_degenerate_rejected(self):
        field = MetricField.from_strings(
            CoordinateChart(("x", "y")), [["x", "0"], ["0", "1"]]
        )
        with pytest.raises(DegenerateMetricError):
            kernel_metric(field, [0.0, 1.0])

    @staticmethod
    def flat_chart_classified(rows):
        # one point of the graph of F = x + y over the constant metric rows
        chart = CoordinateChart(("x", "y"))
        gen = MongeGenerator(
            "constant", chart, MetricField.from_strings(chart, rows), parse("x + y", chart)
        )
        return classify(gen, [gen.surface_point((0.1, 0.2))]).points[0]

    @pytest.mark.parametrize(
        "rows", [[["1e-6", "0"], ["0", "1e-6"]], [["0", "1e-6"], ["1e-6", "0"]]]
    )
    def test_rescaled_metric_is_not_degenerate(self, rows):
        # |det g| = 1e-12, but g is 1e-6 times a unimodular metric: the gate
        # compares |det g| with max|g|**d, which rescales alike
        field = MetricField.from_strings(CoordinateChart(("x", "y")), rows)
        g, ginv = kernel_metric(field, [0.1, 0.2])
        assert np.array_equal(g @ ginv, np.eye(2))
        point = self.flat_chart_classified(rows)
        assert point.error is None and np.isfinite(point.B).all()

    @pytest.mark.parametrize("rows", [[["1", "0"], ["0", "1e-12"]], [["0", "0"], ["0", "0"]]])
    def test_degenerate_constant_metric_refused(self, rows):
        # diag(1, 1e-12) falls below the threshold; the zero matrix, whose
        # max|g|**d is 0 too, is refused before np.linalg.inv sees it
        field = MetricField.from_strings(CoordinateChart(("x", "y")), rows)
        with pytest.raises(DegenerateMetricError, match=r"^metric degenerate at \[0.1, 0.2\]$"):
            kernel_metric(field, [0.1, 0.2])
        assert self.flat_chart_classified(rows).error == "metric degenerate at [0.1, 0.2]"

    def test_asymmetric_rejected(self):
        field = MetricField.from_strings(
            CoordinateChart(("x", "y")), [["1", "x"], ["2*x", "1"]]
        )
        with pytest.raises(DegenerateMetricError, match=r"^metric not symmetric at \[0.5, 1.0\]$"):
            kernel_metric(field, [0.5, 1.0])

    @staticmethod
    def ill_conditioned():
        # eigenvalues (1, 1e-9, 1): |det| passes the degeneracy gate, but the
        # condition number leaves a residual far above 1e-10
        a, b = 0.5, 1.0
        spin = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0, 0, 1]])
        tilt = np.array([[1, 0, 0], [0.0, np.cos(b), -np.sin(b)], [0.0, np.sin(b), np.cos(b)]])
        q = spin @ tilt
        g = q @ np.diag([1.0, 1e-9, 1.0]) @ q.T
        return 0.5 * (g + g.T)

    def test_every_gate_names_the_point(self):
        # one stack mixing every gate's failure with rows that pass: each
        # failing row gets its gate's message, ending in its own base, and a
        # NaN inverse; every other row's inverse is np.linalg.inv's, bit for
        # bit.  A row holding NaN or inf passes every gate, since a
        # comparison with NaN is false.  Each row alone, a stack of one that
        # takes the path without masks when it passes, gives the same.
        rng = np.random.default_rng(3)

        def good():
            a = rng.normal(size=(3, 3))
            return a + a.T + np.diag([4.0, -4.0, 4.0])  # symmetric, indefinite

        residual = self.ill_conditioned()
        g = np.array(
            [
                good(),
                [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                np.diag([1.0, 1.0, 0.0]),
                good(),
                np.diag([np.nan, 1.0, 1.0]),
                residual,
                np.diag([np.inf, 1.0, 1.0]),
                good(),
            ]
        )
        bases = [(0.5, 2.0, float(-k)) for k in range(len(g))]
        remainder = np.abs(residual @ np.linalg.inv(residual) - np.eye(3)).max()
        expected = {
            1: "metric not symmetric",
            2: "metric degenerate",
            5: f"metric inverse residual {remainder:.3e}",
        }
        with np.errstate(invalid="ignore", over="ignore"):
            ginv, failures = invert_metric(g, bases)
            assert {k: str(exc) for k, exc in failures.items()} == {
                k: f"{message} at {list(bases[k])}" for k, message in expected.items()
            }
            for k in range(len(g)):
                alone, failure = invert_metric(g[k : k + 1], bases[k : k + 1])
                if k in expected:
                    assert np.isnan(ginv[k]).all() and np.isnan(alone).all()
                    assert str(failure[0]) == str(failures[k])
                else:
                    assert not failure
                    assert np.array_equal(ginv[k], np.linalg.inv(g[k]), equal_nan=True)
                    assert np.array_equal(alone[0], ginv[k], equal_nan=True)


SLOT_MAP_ROWS = [
    # all nine entries distinct
    [["1 + x", "x*y", "z"], ["2*y", "3 + y^2", "sin(z)"], ["x - z", "exp(y)", "4 + z*x"]],
    # asymmetric: [j, k] and [k, j] are different components
    [["2", "x", "y^2"], ["z", "2", "x*z"], ["y", "z*x", "2"]],
]
SLOT_MAP_IDS = ["nine_distinct", "asymmetric"]


class TestMetricJets:
    """metric_jets_at evaluates each distinct component once; every slot
    must still hold the bits of evaluating its own entry."""

    @staticmethod
    def entrywise(field, point):
        d = field.chart.dimension
        g = np.empty((d, d))
        dg = np.empty((d, d, d))
        for j in range(d):
            for k in range(d):
                component = field.components[j][k]
                jet = _jets.evaluate(component, _jets.seed(point), field.chart.parameters)
                if not isinstance(jet, _jets.Jet2):
                    jet = _jets.constant(jet, d)
                g[j, k] = jet.value
                dg[:, j, k] = jet.grad
        return g, dg

    @staticmethod
    def assert_same_bits(a, b):
        assert a.tobytes() == b.tobytes()  # tells -0.0 from 0.0

    def test_hyperbolic_space(self):
        field = catalog.builtin("hyperbolic3").generator.metric
        for point in ((0.0, 0.0, 2.0), (0.3, -0.7, 0.9)):
            for got, want in zip(jets_at(field, point), self.entrywise(field, point)):
                self.assert_same_bits(got, want)

    def test_signed_zeros_and_look_alike_renderings(self):
        chart = CoordinateChart(("x", "y"))
        y = Coord(1, "y")
        # Num(-0.0) == Num(0.0), yet they are distinct bits; Num(-2.0)^2 and
        # -(2.0^2) render alike, yet differ in value
        comps = [
            [BinOp("*", BinOp("^", Num(-2.0), Num(2.0)), y), Num(-0.0)],
            [Num(0.0), BinOp("*", Neg(BinOp("^", Num(2.0), Num(2.0))), y)],
        ]
        field = MetricField(chart, comps)
        g, dg = jets_at(field, (0.5, 1.5))
        for got, want in zip((g, dg), self.entrywise(field, (0.5, 1.5))):
            self.assert_same_bits(got, want)
        assert np.signbit(g[0, 1]) and not np.signbit(g[1, 0])
        assert g[0, 0] == 6.0 and g[1, 1] == -6.0
        self.assert_values_only(field, (0.5, 1.5), g)

    def assert_values_only(self, field, point, g):
        # order 0 runs the float closures: g has order 1's bits, and no dg
        values, partials = jets_at(field, point, order=0)
        assert partials is None
        self.assert_same_bits(values, g)

    def test_random_fields_match_the_second_order_reference(self):
        # metric_jets_at runs first-order jets, also on an entry with a
        # coordinate-dependent exponent; entrywise runs Jet2
        rng = np.random.default_rng(31)
        chart = CoordinateChart(("u", "v", "w"))
        variable = [parse(text, chart) for text in ("u^v", "2^(w - u)", "(1 + v^2)^(0.5*w)")]
        variable_ran = 0  # points where a variable-exponent entry gave a nonzero gradient
        for case in range(60):
            rows = [[None] * 3 for _ in range(3)]
            for j in range(3):
                for k in range(j, 3):
                    rows[j][k] = rows[k][j] = random_smooth_expr(rng, chart, depth=2)
            if case % 3 == 0:
                rows[1][1] = variable[case % len(variable)]
            field = MetricField(chart, rows)
            for _ in range(4):
                point = random_box_point(rng, 3)
                g, dg = jets_at(field, point)
                for got, want in zip((g, dg), self.entrywise(field, point)):
                    self.assert_same_bits(got, want)
                self.assert_values_only(field, point, g)
                variable_ran += case % 3 == 0 and bool(dg[:, 1, 1].any())
        assert variable_ran == 80

    @pytest.mark.parametrize("rows", SLOT_MAP_ROWS, ids=SLOT_MAP_IDS)
    def test_slot_map_keeps_every_slot(self, rows):
        field = MetricField.from_strings(CoordinateChart(("x", "y", "z")), rows)
        point = (0.7, -0.4, 1.3)
        g, dg = jets_at(field, point)
        for got, want in zip((g, dg), self.entrywise(field, point)):
            self.assert_same_bits(got, want)
        self.assert_values_only(field, point, g)
        assert len(field._distinct) == len(set(map(str, np.ravel(rows))))

    def test_results_are_fresh_arrays(self):
        # a caller may write into g and dg: nothing reaches the rows it
        # gathered or the next pass (g and dg are views of one array gathered
        # at each call, and the seeds' unit gradients are one cached identity
        # per dimension)
        field = MetricField.from_strings(
            CoordinateChart(("x", "y")), [["x", "1"], ["1", "y"]]
        )
        for order in (1, 0):
            row = metric_jets_at(field, (0.5, 1.5), order)
            kept = list(row)
            for rows in ([row], [np.array(row)], np.array([row])):
                g, dg = field.gather(rows, order)
                for got in (g, dg):
                    if got is not None:
                        assert not any(np.shares_memory(got, r) for r in rows)
                        got[...] = 7.0
                assert [list(r) for r in rows] == [kept]
        for order in (1, 0):
            g, dg = jets_at(field, (0.5, 1.5), order)
            assert g.tolist() == [[0.5, 1.0], [1.0, 1.5]]
            if order:
                assert dg.tolist() == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]
        assert _jets.seed((0.5, 1.5), 1)[0].grad.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize(
        "entry, z",
        [
            ("1/z", 0.0),
            ("ln(z)", -1.0),
            ("sqrt(z)", 0.0),
            ("exp(1000*z)", 1.0),
            ("(z - 1)^0.5", 0.5),
            ("1e200*z*z", 1e200),
            ("0^(z - 2)", 1.0),
        ],
    )
    def test_value_domain_failures_keep_their_message(self, entry, z):
        field = MetricField.from_strings(
            CoordinateChart(("x", "z")), [["1", "0"], ["0", entry]]
        )
        messages = []
        for order in (1, 0):
            with pytest.raises(EvalDomainError) as failure:
                metric_jets_at(field, (0.0, z), order)
            messages.append(str(failure.value))
        assert messages[0] == messages[1]

    def test_order_is_zero_or_one(self):
        with pytest.raises(ValueError, match="order must be 0 or 1"):
            metric_jets_at(IDENTITY3, (0.0, 0.0, 0.0), order=2)
        with pytest.raises(ValueError, match="order must be 0 or 1"):
            IDENTITY3.gather([], order=2)


def jet1_metric(field, point):
    """g and dg from Jet1 run through the reference compile_expr, slot by slot in row-major
    order: the reference for metric_jets_at's first-order lane on plain
    floats."""
    d = field.chart.dimension
    jets = _jets.seed(point, 1)
    g, dg = np.empty((d, d)), np.empty((d, d, d))
    with np.errstate(all="ignore"):  # a gradient may overflow where the value does not
        for j in range(d):
            for k in range(d):
                jet = _jets.compile_expr(field.components[j][k], field.chart.parameters)(jets)
                if isinstance(jet, float):
                    jet = _jets.constant(jet, d, 1)
                g[j, k], dg[:, j, k] = jet.value, jet.grad
    return g, dg


def jets_outcome(jets, field, point):
    """g's and dg's bits, or the error's message and node (compared by
    == and by render, which tells Num(-0.0) from Num(0.0))."""
    try:
        g, dg = jets(field, point)
    except EvalDomainError as exc:
        return "raised", str(exc), exc.node, render(exc.node)
    return "jets", g.tobytes(), dg.tobytes()


# coordinates at the edges of the float range, where a coefficient's
# denominator underflows or a power overflows
EDGE_VALUES = (1e-320, 1e-170, -1e-170, 5e-324, 0.0, -0.0, 1e-160, 1e154, 1e200, -3.0, 1.0, 2.0)
NON_FINITE = (math.inf, -math.inf, math.nan)


# 2-d fields of hand-built rows and the points to run them at; one point
# of a field may raise where Jet1 raises
HAND_BUILT = [
    # signed zeros and constant components, one of them -0.0
    ([[Num(-0.0), "2*x - x*2"], ["-(0*y)", "3"]], [(0.5, -1.5), (-0.0, 0.0)]),
    # variable exponents, the first raising on a base <= 0
    (
        [["x^y", "2^x"], ["2^x", "(1 + y^2)^(x - y)"]],
        [(1.7, -0.6), (-2.0, 2.0), (0.0, 3.0)],
    ),
    # kinks: abs and a fractional power at 0, where only a derivative fails
    ([["abs(x - 1)", "0"], ["0", "(x - 1)^0.5"]], [(1.0, 0.0), (1.5, 0.0), (0.5, 0.0)]),
    # underflowing coefficient denominators and an overflowing exp
    (
        [["sqrt(x)", "ln(y)"], ["ln(y)", "exp(y)"]],
        [(1e-320, 1.0), (2.0, 1e-170), (2.0, 1000.0)],
    ),
    # y / x divides by 0, 1e200 * x * x overflows
    ([["1 + y/x", "0"], ["0", "1e200*x*x"]], [(0.0, 1.0), (1e200, 1.0), (-2.0, 3.0)]),
    # a divisor that is the constant 0
    ([["1", "x/(1 - 1)"], ["0", "1"]], [(2.0, 1.0)]),
    # u^0 is the constant 1 with +0.0 partials, u^1 is u
    ([["(y - x)^0", "(y - x)^1"], ["(y - x)^1", "1"]], [(1.0, 0.5), (-2.0, 3.0)]),
    # the power checks come before the rule's own
    ([["x^(-1)", "0"], ["0", "(y - 2)^0.5"]], [(0.0, 3.0), (1.0, 1.0)]),
]
HAND_BUILT_IDS = [
    "signed_zeros",
    "variable_exponents",
    "kinks",
    "underflow_overflow",
    "division",
    "zero_divisor",
    "constant_powers",
    "power_checks",
]


def hand_built_field(rows):
    """A MetricField over (x, y) of HAND_BUILT rows, parsing each string."""
    chart = CoordinateChart(("x", "y"))
    return MetricField(
        chart, [[parse(e, chart) if isinstance(e, str) else e for e in row] for row in rows]
    )


@st.composite
def random_metrics(draw):
    """A d x d field (d = 1..4) of random_smooth_expr or random_ast
    components, and a point in the smooth box, at the float range's edges,
    anywhere finite, or not finite."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chart = CoordinateChart(tuple("pqrs"[:d]), {"R": 1.5})
    if draw(st.booleans()):
        rows = [[random_smooth_expr(rng, chart, depth=2) for _ in range(d)] for _ in range(d)]
    else:
        rows = [[random_ast(rng, chart, depth=3) for _ in range(d)] for _ in range(d)]
    coordinate = st.one_of(
        st.floats(0.6, 1.9),
        st.sampled_from(EDGE_VALUES),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(NON_FINITE),
    )
    return MetricField(chart, rows), draw(st.lists(coordinate, min_size=d, max_size=d))


class TestFirstOrderLane:
    """metric_jets_at's first-order pass on plain floats must give the bits
    of Jet1 run through the reference compile_expr, and raise its error where it raises."""

    @settings(max_examples=150, deadline=None)
    @given(random_metrics())
    def test_random_fields(self, case):
        field, point = case
        assert jets_outcome(jets_at, field, point) == jets_outcome(jet1_metric, field, point)

    @pytest.mark.parametrize("rows, points", HAND_BUILT, ids=HAND_BUILT_IDS)
    def test_hand_built_fields(self, rows, points):
        field = hand_built_field(rows)
        for point in points:
            assert jets_outcome(jets_at, field, point) == jets_outcome(
                jet1_metric, field, point
            ), point

    def test_non_finite_coordinates(self):
        # no node checks a coordinate itself: abs and Neg pass inf and nan on
        chart = CoordinateChart(("x", "y"))
        field = MetricField.from_strings(chart, [["x", "-y"], ["abs(x)", "-abs(y)"]])
        for point in ((math.inf, 1.0), (1.0, -math.inf), (math.nan, 1.0), (-math.nan, -math.nan)):
            outcome = jets_outcome(jets_at, field, point)
            assert outcome == jets_outcome(jet1_metric, field, point), point
            assert outcome[:2] == ("raised", "non-finite result in subexpression " + (
                "'abs(x)'" if not math.isfinite(point[0]) else "'abs(y)'"
            ))

    @pytest.mark.parametrize("point", [(0.5,), (0.5, 1.0, 2.0)])
    @pytest.mark.parametrize("order", [0, 1])
    def test_point_length_refused(self, point, order):
        field = MetricField.from_strings(CoordinateChart(("x", "y")), [["1", "0"], ["0", "1"]])
        message = f"point has {len(point)} coordinates; chart has 2"
        with pytest.raises(ValueError, match=re.escape(message)):
            metric_jets_at(field, point, order)

    @pytest.mark.parametrize(
        "point, message",
        [
            ((1.0, 10**400), "point is not finite"),
            ((1.0, "a"), "point is not a number"),
            ((None, 2.0), "point is not a number"),
            ((1.0, object()), "point is not a number"),
        ],
    )
    @pytest.mark.parametrize("order", [0, 1])
    def test_coordinate_float_refuses(self, point, message, order):
        # float() raised OverflowError for the int beyond its range, and its
        # own ValueError or TypeError for the others; classify's words now
        field = catalog.builtin("hyperbolic2").generator.metric
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            metric_jets_at(field, point, order)

    def test_unresolved_parameter(self):
        # raises at each call, after the components before it, with its node
        chart = CoordinateChart(("x", "y"))
        x = Coord(0, "x")
        rows = [[BinOp("*", x, Param("Q")), Num(1.0)], [Num(1.0), BinOp("+", Param("Q"), Num(1.0))]]
        field = MetricField(chart, rows)
        outcome = jets_outcome(jets_at, field, (0.5, 1.0))
        assert outcome == jets_outcome(jet1_metric, field, (0.5, 1.0))
        assert outcome[1] == "unresolved parameter 'Q' in subexpression 'Q'"


def passes(field, points, order):
    """metric_jets_at's row at each point, or None where the pass raises."""
    rows = []
    for point in points:
        try:
            rows.append(metric_jets_at(field, point, order))
        except EvalDomainError:
            rows.append(None)
    return rows


def bits(a):
    """a's float64 bits as integers: -0.0 is not 0.0, and NaN payloads count."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestGather:
    """MetricField.gather on a stack of rows must give each row the bits of
    gathering that row alone, at both orders; a None row (a failed pass)
    reads as +0.0."""

    @staticmethod
    def assert_rows_alone(field, rows, order):
        d = field.chart.dimension
        g, dg = field.gather(rows, order)
        assert g.shape == (len(rows), d, d)
        assert dg is None if order == 0 else dg.shape == (len(rows), d, d, d)
        for k, row in enumerate(rows):
            alone_g, alone_dg = field.gather([row], order)
            assert np.array_equal(bits(g[k]), bits(alone_g[0])), k
            if order:
                assert np.array_equal(bits(dg[k]), bits(alone_dg[0])), k

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("rows, points", HAND_BUILT, ids=HAND_BUILT_IDS)
    def test_hand_built_fields(self, rows, points, order):
        field = hand_built_field(rows)
        stack = passes(field, points, order)
        self.assert_rows_alone(field, stack + stack[::-1], order)

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("rows", SLOT_MAP_ROWS, ids=SLOT_MAP_IDS)
    def test_slot_map_fields(self, rows, order):
        field = MetricField.from_strings(CoordinateChart(("x", "y", "z")), rows)
        points = [(0.7, -0.4, 1.3), (-0.0, 0.0, 2.0), (-1.1, 0.5, 0.25), (1e-170, 3.0, -2.0)]
        self.assert_rows_alone(field, passes(field, points, order), order)

    def test_random_fields(self):
        # random_ast components fail at some points, so the stacks mix rows
        # and None; edge coordinates give signed zeros, subnormals and inf
        rng = np.random.default_rng(47)
        edges = EDGE_VALUES + NON_FINITE
        failed = 0
        for case in range(40):
            d = 1 + case % 4
            chart = CoordinateChart(tuple("pqrs"[:d]), {"R": 1.5})
            draw = random_smooth_expr if case % 2 else random_ast
            field = MetricField(chart, [[draw(rng, chart, 2) for _ in range(d)] for _ in range(d)])
            points = [random_box_point(rng, d) for _ in range(5)]
            points += [tuple(rng.choice(edges, d)) for _ in range(3)]
            for order in (0, 1):
                stack = passes(field, points, order)
                failed += stack.count(None)
                self.assert_rows_alone(field, stack, order)
        assert failed > 0

    @pytest.mark.parametrize("order", [0, 1])
    def test_none_rows_read_as_zeros(self, order):
        field = MetricField.from_strings(CoordinateChart(("x", "y", "z")), SLOT_MAP_ROWS[0])
        rows = passes(field, [(0.7, -0.4, 1.3), (-0.0, 2.0, -1.5)], order)
        g, dg = field.gather(rows, order)
        mixed_g, mixed_dg = field.gather([None, rows[0], None, rows[1], None], order)
        assert np.array_equal(bits(mixed_g[[1, 3]]), bits(g))
        assert not bits(mixed_g[[0, 2, 4]]).any()  # +0.0, not -0.0
        if order:
            assert np.array_equal(bits(mixed_dg[[1, 3]]), bits(dg))
            assert not bits(mixed_dg[[0, 2, 4]]).any()

    def test_empty_stack(self):
        g, dg = IDENTITY3.gather([], 1)
        assert g.shape == (0, 3, 3) and dg.shape == (0, 3, 3, 3)
        g, dg = IDENTITY3.gather([], 0)
        assert g.shape == (0, 3, 3) and dg is None


class TestChristoffel:
    def test_hyperbolic_plane_closed_form(self):
        gamma = kernel_christoffel(HYP2.metric, [0.0, 2.0])
        x, y = 0, 1
        assert gamma[y, x, x] == pytest.approx(0.5, abs=1e-14)
        assert gamma[x, x, y] == pytest.approx(-0.5, abs=1e-14)
        assert gamma[y, y, y] == pytest.approx(-0.5, abs=1e-14)
        expected = np.zeros((2, 2, 2))
        expected[y, x, x] = 0.5
        expected[x, x, y] = expected[x, y, x] = -0.5
        expected[y, y, y] = -0.5
        assert np.allclose(gamma, expected, atol=1e-14)

    def test_hyperbolic_plane_fd_oracle(self):
        point = [0.4, 1.7]
        gamma = kernel_christoffel(HYP2.metric, point)
        oracle = fd_christoffel(metric_evaluator(HYP2.metric, HYP2.chart), point)
        assert np.allclose(gamma, oracle, atol=1e-8)

    def test_identity_vanishes(self):
        assert not kernel_christoffel(IDENTITY3, [1.0, 2.0, 3.0]).any()

    def test_polar_closed_form_and_oracle(self):
        point = [2.0, 0.3]
        gamma = kernel_christoffel(POLAR, point)
        r, th = 0, 1
        assert gamma[r, th, th] == pytest.approx(-2.0, abs=1e-13)
        assert gamma[th, r, th] == pytest.approx(0.5, abs=1e-13)
        oracle = fd_christoffel(metric_evaluator(POLAR, POLAR.chart), point)
        assert np.allclose(gamma, oracle, atol=1e-8)

    def test_exact_symmetry(self):
        gamma = kernel_christoffel(SCHW.metric, [0.0, 3.3])
        assert np.array_equal(gamma, np.transpose(gamma, (0, 2, 1)))

    def test_leading_axis_rows_match_single_points(self):
        points = [(0.0, 1.5), (0.0, 3.3), (0.0, 7.0)]
        g, dg = map(np.array, zip(*(jets_at(SCHW.metric, p) for p in points)))
        ginv, failures = invert_metric(g, points)
        assert not failures
        stacked = christoffel_from_partials(ginv, dg)
        assert stacked.shape == (3, 2, 2, 2)
        for k in range(3):
            alone, _ = invert_metric(g[k : k + 1], points[k : k + 1])
            assert np.array_equal(alone[0], ginv[k])
            one = christoffel_from_partials(alone, dg[k : k + 1])
            assert one.shape == (1, 2, 2, 2) and np.array_equal(one[0], stacked[k])


class TestGradient:
    # the raised gradient, dF and g(grad F, grad F) as the per-point kernel
    # exposes them: xi = (1, grad F), e_i = (dF_i, delta_i), defect + 1
    def test_hyperbolic_plane(self):
        xi = normal_and_transversal_at(HYP2, [0.0, 2.0])[0][1:]
        dF = monge_frame_at(HYP2, [0.0, 2.0])[0][:, 0]
        norm2 = lightlike_defect_at(HYP2, [0.0, 2.0]) + 1
        assert np.allclose(xi, [0.0, 2.0], atol=1e-15)
        assert np.allclose(dF, [0.0, 0.5], atol=0)
        assert norm2 == pytest.approx(1.0, abs=1e-14)

    def test_exterior_chart(self):
        xi = normal_and_transversal_at(SCHW, [0.0, 2.0])[0][1:]
        norm2 = lightlike_defect_at(SCHW, [0.0, 2.0]) + 1
        assert xi[0] == pytest.approx(0.0, abs=1e-15)
        assert xi[1] == pytest.approx(0.7071067811865476, abs=1e-14)
        assert norm2 == pytest.approx(1.0, abs=1e-14)

    def test_flat_linear(self):
        gen = _flat("2*x")
        xi = normal_and_transversal_at(gen, [0.3, 0.4])[0][1:]
        norm2 = lightlike_defect_at(gen, [0.3, 0.4]) + 1
        assert xi.tolist() == [2.0, 0.0]
        assert norm2 == 4.0

    def test_raising_lowering_consistency(self):
        # dF(xi) must equal g(xi, xi)
        rng = np.random.default_rng(31)
        for entry_name in ("hyperbolic2", "schwarzschild_tr", "euclid_cone"):
            entry = catalog.builtin(entry_name)
            gen = entry.generator
            for base in sample_admissible(rng, gen, entry.default_samples.ranges, 25):
                g, _ = kernel_metric(gen.metric, base)
                xi = normal_and_transversal_at(gen, base)[0][1:]
                dF = monge_frame_at(gen, base)[0][:, 0]
                assert abs(float(dF @ xi) - float(xi @ g @ xi)) <= 1e-10 * local_scale(g, xi)


class TestHessian:
    # the covariant Hessian is -B at xi_scale 1
    def test_hyperbolic_plane(self):
        hess = -second_fundamental_form_at(HYP2, [0.0, 2.0])
        assert np.allclose(hess, [[-0.25, 0.0], [0.0, 0.0]], atol=1e-16)

    def test_exterior_chart_closed_form(self):
        # Hess_tt = -R sqrt(r - R) / (2 r^(5/2)); frozen at r = 2, R = 1
        hess = -second_fundamental_form_at(SCHW, [0.0, 2.0])
        assert hess[0, 0] == pytest.approx(-0.08838834764831844, rel=1e-12)
        assert abs(hess[0, 1]) < 1e-15 and abs(hess[1, 1]) < 1e-15

    def test_flat_linear_vanishes(self):
        assert not (-second_fundamental_form_at(_flat("x"), [1.0, 2.0])).any()

    def test_exact_symmetry(self):
        rng = np.random.default_rng(8)
        entry = catalog.builtin("schwarzschild_tr")
        gen = entry.generator
        for base in sample_admissible(rng, gen, entry.default_samples.ranges, 50):
            hess = -second_fundamental_form_at(gen, base)
            assert np.array_equal(hess, hess.T)


class TestMetricCompatibility:
    @pytest.mark.parametrize(
        "name",
        [name for name, _ in catalog.list_builtins()],
    )
    def test_connection_kills_metric_derivative(self, name):
        # d_i g_jk - Gamma^l_ij g_lk - Gamma^l_ik g_jl = 0 with FD metric derivatives
        rng = np.random.default_rng(abs(hash(name)) % 2**32)
        entry = catalog.builtin(name)
        gen = entry.generator
        eval_metric = metric_evaluator(gen.metric, gen.chart)
        for base in sample_admissible(rng, gen, entry.default_samples.ranges, 200):
            g, _ = kernel_metric(gen.metric, base)
            gamma = kernel_christoffel(gen.metric, base)
            dg = fd_metric_partials(eval_metric, base)
            residual = (
                dg
                - np.einsum("lij,lk->ijk", gamma, g)
                - np.einsum("lik,jl->ijk", gamma, g)
            )
            assert np.max(np.abs(residual)) <= 1e-6 * local_scale(g, dg)
