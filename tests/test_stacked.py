"""compile_stacked evaluates an expression's second-order jets once over a
stack of points.  Every row must equal the scalar Jet2 evaluation bit for
bit, every failing row must carry the scalar call's error, and no row may
depend on the other rows of its stack."""

import math

import numpy as np
import pytest

from mongelight.autodiff import JetStack
from mongelight.exprlang import (
    CoordinateChart,
    EvalDomainError,
    _compile_first_order,
    compile_expr,
    compile_stacked,
    parse,
    render,
)

import _jets
from _jets import seed
from _oracles import random_ast, random_box_point, random_smooth_expr

XY = CoordinateChart(("x", "y"))
UVW = CoordinateChart(("u", "v", "w"), {"a": 1.5, "b": -0.5})

# coordinate values where smooth fields fail: a zero of either sign, a
# subnormal (sqrt's and ln's second derivatives divide by an underflowed 0),
# negative bases, and magnitudes whose products or exponentials overflow
SPECIAL = (0.0, -0.0, 1e-320, 1e-200, -1.5, -2.0, 1e160, 1e4, 2400.0)


def scalar_row(compiled, point, d):
    """The bits of the scalar Jet2 evaluation at one point, or its error
    (with the derivative lanes' overflows quiet, as the library runs it)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            jet = compiled(seed(point))
    except EvalDomainError as exc:
        return "error", str(exc), render(exc.node)
    if isinstance(jet, float):  # a constant expression
        return "jet", jet.hex(), np.zeros(d).tobytes(), np.zeros((d, d)).tobytes()
    return "jet", jet.value.hex(), jet.grad.tobytes(), jet.hess.tobytes()


def stacked_rows(expr, params, points):
    """The bits of every row of one stacked evaluation, or the row's error."""
    stack, failures = compile_stacked(expr, params)(np.array(points, dtype=float))
    assert isinstance(stack, JetStack) and stack.value.shape == (len(points),)
    grads, hessians = stack.grad.T, stack.hess.transpose(2, 0, 1)  # rows first
    rows = []
    for k in range(len(points)):
        if k in failures:
            exc = failures[k]
            assert isinstance(exc, EvalDomainError)
            rows.append(("error", str(exc), render(exc.node)))
        else:
            value = float(stack.value[k]).hex()
            rows.append(("jet", value, grads[k].tobytes(), hessians[k].tobytes()))
    return rows


def assert_rows_match(expr, params, points):
    compiled = _jets.compile_expr(expr, params)
    d = len(points[0])
    want = [scalar_row(compiled, point, d) for point in points]
    assert stacked_rows(expr, params, points) == want
    return want


def mixed_points(rng, d, count):
    """Box points with some coordinates replaced by SPECIAL values."""
    points = []
    for _ in range(count):
        point = random_box_point(rng, d)
        for i in range(d):
            if rng.random() < 0.3:
                point[i] = float(rng.choice(SPECIAL))
        points.append(point)
    return points


class TestBitIdentity:
    def test_random_smooth_fields(self):
        rng = np.random.default_rng(31)
        failed = passed = 0
        for _ in range(150):
            expr = random_smooth_expr(rng, UVW, depth=int(rng.integers(1, 5)))
            rows = assert_rows_match(expr, UVW.parameters, mixed_points(rng, 3, 12))
            failed += sum(row[0] == "error" for row in rows)
            passed += sum(row[0] == "jet" for row in rows)
        # both kinds of row occur, within the same stacks
        assert failed > 50 and passed > 1000

    @pytest.mark.parametrize("source", ["x^1", "(x*y)^1", "ln(x)^1", "x^1*y", "(x^1)^1"])
    def test_first_power(self, source):
        # u^1 is u itself, jets and errors included
        rng = np.random.default_rng(34)
        rows = assert_rows_match(parse(source, XY), {}, mixed_points(rng, 2, 24))
        assert {row[0] for row in rows} == ({"jet", "error"} if "ln" in source else {"jet"})

    def test_random_grammar_fields(self):
        # every function and operator, parameters and coordinate exponents,
        # on points where most of them leave their domain somewhere
        rng = np.random.default_rng(32)
        messages = set()
        for _ in range(300):
            expr = random_ast(rng, UVW, depth=int(rng.integers(1, 5)))
            points = [list(rng.uniform(-3.0, 3.0, 3)) for _ in range(6)]
            points += mixed_points(rng, 3, 6)
            rows = assert_rows_match(expr, UVW.parameters, points)
            messages.update(row[1].split(" in subexpression")[0] for row in rows if row[0] == "error")
        kinds = {m.split(" ")[0] for m in messages}
        assert {"division", "ln", "sqrt", "fractional", "non-finite", "abs"} <= kinds

    def test_rows_do_not_depend_on_the_stack(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            expr = random_smooth_expr(rng, UVW)
            points = mixed_points(rng, 3, 10)
            whole = stacked_rows(expr, UVW.parameters, points)
            order = rng.permutation(len(points))
            permuted = stacked_rows(expr, UVW.parameters, [points[k] for k in order])
            assert permuted == [whole[k] for k in order]
            subset = sorted(rng.choice(len(points), size=4, replace=False).tolist())
            assert stacked_rows(expr, UVW.parameters, [points[k] for k in subset]) == [
                whole[k] for k in subset
            ]
            for k, point in enumerate(points):
                assert stacked_rows(expr, UVW.parameters, [point]) == [whole[k]]


def lane_outcome(run, point):
    """The message and node of what a lane raises at the point, or "value"."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            run(point)
    except EvalDomainError as exc:
        return "error", str(exc), render(exc.node)
    return "value"


class TestFailures:
    """Each named failure, between rows that pass, and in every lane that
    applies its rule."""

    # the rules of the derivatives alone: the float tree has a value there
    DERIVATIVE_RULES = (
        "float division by zero",
        "power with variable exponent needs a positive base",
        "power 0.5 is not twice differentiable at 0",
        "abs is not differentiable at 0",
    )

    CASES = (
        # sqrt's second derivative divides by sqrt(x) * x, which underflows
        ("sqrt(x)", (1e-320, 0.5), "float division by zero", "sqrt(x)"),
        ("ln(x)*y", (1e-200, 0.5), "float division by zero", "ln(x)"),
        # y^3 mentions a coordinate: the exp(y^3 ln x) rule, even where y = 0
        ("x^(y^3)", (-2.0, 0.0), "power with variable exponent needs a positive base", "x^y^3.0"),
        ("x^y", (-2.0, 2.0), "power with variable exponent needs a positive base", "x^y"),
        ("x^y", (-2.0, 0.5), "fractional power 0.5 of negative base -2.0", "x^y"),
        ("x^y", (-2.0, math.inf), "fractional power inf of negative base -2.0", "x^y"),
        ("x^0.5 + y", (0.0, 1.0), "power 0.5 is not twice differentiable at 0", "x^0.5"),
        ("x^(-1)", (0.0, 1.0), "zero raised to a negative power", "x^(-1.0)"),
        ("abs(x)*y", (0.0, 2.0), "abs is not differentiable at 0", "abs(x)"),
        ("y/(x - 1)", (1.0, 2.0), "division by zero", "y/(x-1.0)"),
        ("exp(x)", (1000.0, 0.0), "math range error", "exp(x)"),
        ("x^y", (10.0, 400.0), "math range error", "x^y"),
        ("x*x*y", (1e200, 1.0), "non-finite result", "x*x"),
        ("sqrt(x - y)", (1.0, 2.0), "sqrt of non-positive value -1.0", "sqrt(x-y)"),
    )

    @pytest.mark.parametrize("text, bad, message, node", CASES)
    def test_named_failure(self, text, bad, message, node):
        expr = parse(text, XY)
        points = [(1.5, 0.75), bad, (1.9, 0.6), bad, (1.1, 0.5)]
        rows = assert_rows_match(expr, {}, points)
        assert [row[0] for row in rows] == ["jet", "error", "jet", "error", "jet"]
        error = ("error", f"{message} in subexpression {node!r}", node)
        assert rows[1] == error
        # the first-order lane gives Jet1's error, and the float tree the
        # value rules' errors
        assert lane_outcome(_compile_first_order(expr, {}, 2), bad) == error
        assert lane_outcome(_jets.compile_expr(expr), seed(bad, 1)) == error
        value_rule = message not in self.DERIVATIVE_RULES
        assert lane_outcome(compile_expr(expr), bad) == (error if value_rule else "value")

    def test_constant_base(self):
        # (-2)^y takes the exp(y ln b) rule, which no negative base passes
        expr = parse("(-2)^y", XY)
        rows = assert_rows_match(expr, {}, [(1.0, 2.0), (1.0, 0.5)])
        assert [row[1].split(" in ")[0] for row in rows] == [
            "power with variable exponent needs a positive base",
            "fractional power 0.5 of negative base -2.0",
        ]
        assert_rows_match(parse("2^y", XY), {}, [(1.0, 2.0), (1.0, -0.5), (0.0, 2000.0)])

    def test_repeated_subexpressions(self):
        # each repeated subexpression runs once per call; its first
        # occurrence records its failures, before the nodes between the two
        expr = parse("sqrt(x)*sqrt(x - y) + y*ln(sqrt(x) + sqrt(x - y)) + (x*x)*(x*x)", XY)
        points = [(2.0, 1.0), (1.0, 2.0), (-1.0, -2.0), (0.0, -1.0), (1e200, 1.0), (3.0, 0.5)]
        rows = assert_rows_match(expr, {}, points)
        assert [row[2] if row[0] == "error" else None for row in rows] == [
            None, "sqrt(x-y)", "sqrt(x)", "sqrt(x)", "x*x", None
        ]

    def test_constant_field(self):
        expr = parse("2*pi - 1", XY)
        rows = assert_rows_match(expr, {}, [(0.5, 1.0), (0.0, -3.0)])
        assert {row[2] for row in rows} == {np.zeros(2).tobytes()}

    def test_failing_constant_keeps_earlier_errors(self):
        # the constant divisor fails at every row after sqrt(x) has failed at
        # the rows where x <= 0
        expr = parse("sqrt(x) + y/(2 - 2)", XY)
        rows = assert_rows_match(expr, {}, [(1.0, 1.0), (-1.0, 1.0), (4.0, 0.0)])
        assert [row[2] for row in rows] == ["y/(2.0-2.0)", "sqrt(x)", "y/(2.0-2.0)"]

    def test_unresolved_parameter_fails_every_row(self):
        expr = parse("R*x", CoordinateChart(("x", "y"), {"R": 1.0}))
        rows = assert_rows_match(expr, {}, [(1.0, 1.0), (2.0, 0.0)])
        assert {row[1] for row in rows} == {"unresolved parameter 'R' in subexpression 'R'"}

    def test_empty_stack(self):
        stack, failures = compile_stacked(parse("sqrt(x)*y", XY))(np.zeros((0, 2)))
        assert failures == {} and stack.grad.shape == (2, 0) and stack.hess.shape == (2, 2, 0)


class TestValueLane:
    """classify's domain gate runs each constraint's sides through
    compile_stacked and reads the value lane at the rows it does not
    refuse.  There the lane must be compile_expr's float bit for bit, and
    every row compile_expr refuses the lane must refuse too; the lane may
    also refuse where only a derivative fails."""

    # smooth fields fail only where a value does; the grammar's abs and
    # powers also fail where only a derivative does
    @pytest.mark.parametrize(
        "draw, seed, kinks", [(random_smooth_expr, 34, 0), (random_ast, 35, 1)]
    )
    def test_unrefused_rows_are_the_float_tree(self, draw, seed, kinks):
        rng = np.random.default_rng(seed)
        outcomes = {"value": 0, "both refuse": 0, "derivative only": 0}
        for _ in range(200):
            expr = draw(rng, UVW, depth=int(rng.integers(1, 5)))
            points = [[float(x) for x in rng.uniform(-3.0, 3.0, 3)] for _ in range(6)]
            points += mixed_points(rng, 3, 6)
            stack, failures = compile_stacked(expr, UVW.parameters)(np.array(points))
            tree = compile_expr(expr, UVW.parameters)
            for k, point in enumerate(points):
                try:
                    value = tree(point)
                except EvalDomainError:
                    assert k in failures
                    outcomes["both refuse"] += 1
                    continue
                if k in failures:
                    outcomes["derivative only"] += 1
                else:
                    assert float(stack.value[k]).hex() == value.hex()
                    outcomes["value"] += 1
        assert outcomes["value"] > 1000 and outcomes["both refuse"] > 20, outcomes
        assert outcomes["derivative only"] >= kinks, outcomes
