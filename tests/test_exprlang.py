"""Parser, renderer, evaluator, and domain-constraint tests."""

import math

import numpy as np
import pytest

from mongelight import exprlang
from mongelight.exprlang import (
    BinOp,
    Call,
    Coord,
    CoordinateChart,
    EvalDomainError,
    ExprSyntaxError,
    Neg,
    Num,
    Param,
    compile_expr,
    evaluate,
    parse,
    parse_constraint,
    render,
)

import _jets
from _jets import seed
from _oracles import random_ast, random_box_point, random_smooth_expr

XY = CoordinateChart(("x", "y"))
TR = CoordinateChart(("t", "r"), {"R": 1.0})


class TestChart:
    def test_dimension(self):
        assert XY.dimension == 2
        assert TR.dimension == 2

    def test_bad_identifier(self):
        with pytest.raises(ValueError):
            CoordinateChart(("2x",))

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            CoordinateChart(("x", "x"))

    def test_name_parameter_clash(self):
        with pytest.raises(ValueError):
            CoordinateChart(("x",), {"x": 2.0})

    def test_empty(self):
        with pytest.raises(ValueError):
            CoordinateChart(())

    @pytest.mark.parametrize(
        "value", ["abc", True, False, None, math.nan, math.inf, -math.inf, np.int64(2), 10**400]
    )
    def test_parameter_value_refused(self, value):
        # "abc" once reached classify as a TypeError; True read as 1, nan and inf passed
        with pytest.raises(ValueError, match="parameter 'R'"):
            CoordinateChart(("t", "r"), {"R": value})

    @pytest.mark.parametrize(
        "value, stored", [(1, 1.0), (-3, -3.0), (2.5, 2.5), (np.float64(0.5), 0.5)]
    )
    def test_parameter_value_stored_as_float(self, value, stored):
        chart = CoordinateChart(("t", "r"), {"R": value})
        assert type(chart.parameters["R"]) is float and chart.parameters["R"] == stored
        # an int parameter once made sin(R) fail: int has no jet method
        jet = _jets.evaluate(parse("sin(R)*r", chart), seed([0.0, 2.0]), chart.parameters)
        assert jet.value == math.sin(stored) * 2.0


class TestParse:
    def test_single_function_application(self):
        assert parse("ln(y)", XY) == Call("ln", Coord(1, "y"))

    def test_metric_component_with_parameter(self):
        # 1/(1-R/r) as used by the exterior-chart metric
        got = parse("1/(1-R/r)", TR)
        want = BinOp("/", Num(1.0), BinOp("-", Num(1.0), BinOp("/", Param("R"), Coord(1, "r"))))
        assert got == want

    def test_power_right_associative(self):
        assert parse("x^2^3", XY) == BinOp(
            "^", Coord(0, "x"), BinOp("^", Num(2.0), Num(3.0))
        )

    def test_power_binds_over_unary_minus(self):
        assert parse("-x^2", XY) == Neg(BinOp("^", Coord(0, "x"), Num(2.0)))

    def test_unary_minus_binds_over_product(self):
        assert parse("-x*y", XY) == BinOp("*", Neg(Coord(0, "x")), Coord(1, "y"))

    def test_precedence_sum_product(self):
        assert parse("x+y*2", XY) == BinOp(
            "+", Coord(0, "x"), BinOp("*", Coord(1, "y"), Num(2.0))
        )

    def test_constants(self):
        assert parse("pi", XY) == Num(math.pi)
        assert parse("e", XY) == Num(math.e)

    def test_coordinate_shadows_constant(self):
        chart = CoordinateChart(("e", "x"))
        assert parse("e", chart) == Coord(0, "e")

    def test_scientific_notation(self):
        assert parse("1.5e-3", XY) == Num(1.5e-3)

    def test_literal_out_of_range(self):
        # 1e400 reads as inf, which render could not write back
        with pytest.raises(ExprSyntaxError, match="^number out of range") as info:
            parse("1e400", XY)
        assert info.value.position == 0
        with pytest.raises(ExprSyntaxError) as info:
            parse("x*1" + "0" * 400, XY)
        assert info.value.position == 2
        assert parse("1e308", XY) == Num(1e308)

    def test_empty_source(self):
        with pytest.raises(ExprSyntaxError):
            parse("", XY)

    def test_unknown_identifier_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("x + zz", XY)
        assert info.value.position == 4

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError, match="unknown function"):
            parse("sinh(x)", XY)

    def test_arity_mismatch(self):
        with pytest.raises(ExprSyntaxError, match="1 argument"):
            parse("sin(x, y)", XY)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse("2x", XY)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError, match="trailing"):
            parse("x + y )", XY)

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("x + $", XY)
        assert info.value.position == 4

    @pytest.mark.parametrize("source, position", [("(x", 2), ("sin(x", 5), ("((x + y)", 8)])
    def test_unclosed_parenthesis(self, source, position):
        with pytest.raises(ExprSyntaxError, match="^expected '\\)' ") as info:
            parse(source, XY)
        assert info.value.position == position


class TestRenderRoundTrip:
    def test_examples(self):
        for source in ("ln(y)", "-x^2", "x^2^3", "1/(1-R/r)", "x*(-y)", "x - -y"):
            chart = TR if "r" in source or "R" in source else XY
            ast = parse(source, chart)
            assert parse(render(ast), chart) == ast

    @pytest.mark.parametrize("base", [-2.0, -0.0])
    def test_negative_num_power_base(self, base):
        # the parser never builds a negative Num; a hand-built AST may hold one
        ast = BinOp("^", Num(base), Num(2.0))
        text = render(ast)
        assert text == f"({base!r})^2.0"
        again = evaluate(parse(text, XY), (0.0, 0.0))
        assert np.float64(again).tobytes() == np.float64(evaluate(ast, (0.0, 0.0))).tobytes()

    def test_negated_power_keeps_leading_minus(self):
        assert render(Neg(BinOp("^", Num(2.0), Num(2.0)))) == "-2.0^2.0"

    def test_random_round_trip_1000(self):
        rng = np.random.default_rng(20260810)
        for _ in range(1000):
            ast = random_ast(rng, TR)
            text = render(ast)
            assert parse(text, TR) == ast, text


class TestEvaluate:
    def test_ln(self):
        assert evaluate(parse("ln(y)", XY), [0.0, 2.0]) == 0.6931471805599453

    def test_exterior_chart_scalar_field(self):
        # frozen from a 50-digit evaluation of sqrt(2) + ln(1 + sqrt(2))
        chart = TR
        expr = parse("sqrt(r)*sqrt(r-R) + R*ln(sqrt(r)+sqrt(r-R))", chart)
        value = evaluate(expr, [0.0, 2.0], chart.parameters)
        assert value == pytest.approx(2.295587149392638074, abs=5e-15)
        # same number from the high-precision oracle, live
        import mpmath as mp

        with mp.workdps(50):
            r, R = mp.mpf(2), mp.mpf(1)
            oracle = mp.sqrt(r) * mp.sqrt(r - R) + R * mp.log(mp.sqrt(r) + mp.sqrt(r - R))
            assert abs(value - float(oracle)) < 5e-15

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("1/x", XY), [0.0, 1.0])

    def test_ln_of_nonpositive(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("ln(x)", XY), [-1.0, 1.0])
        with pytest.raises(EvalDomainError):
            evaluate(parse("sqrt(x)", XY), [0.0, 1.0])

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("x^0.5", XY), [-2.0, 1.0])

    def test_integer_power_of_negative_base(self):
        assert evaluate(parse("x^3", XY), [-2.0, 1.0]) == -8.0

    def test_overflow_is_an_error(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("exp(x)", XY), [1e4, 1.0])
        with pytest.raises(EvalDomainError):
            evaluate(parse("x^y", XY), [10.0, 400.0])

    def test_unresolved_parameter(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("R*r", TR), [0.0, 2.0], params={})

    def test_precedence_property(self):
        rng = np.random.default_rng(7)
        expr = parse("x + y*c", CoordinateChart(("x", "y", "c")))
        for _ in range(100):
            a, b, c = rng.uniform(-5, 5, size=3)
            assert evaluate(expr, [a, b, c]) == a + (b * c)

    def test_value_lane_matches_floats_1000(self):
        # jet evaluation projected to its value must equal plain evaluation exactly
        rng = np.random.default_rng(12345)
        chart = CoordinateChart(("u", "v"))
        for _ in range(1000):
            expr = random_smooth_expr(rng, chart)
            point = random_box_point(rng, 2)
            plain = evaluate(expr, point, chart.parameters)
            jet = _jets.evaluate(expr, seed(point), chart.parameters)
            assert getattr(jet, "value", jet) == plain


class TestCompile:
    def test_messages_and_nodes(self):
        chart = TR
        cases = (
            ("1/(r - 2)", [0.0, 2.0], "division by zero", "1.0/(r-2.0)"),
            ("t + ln(r - 2)", [0.0, 1.0], "ln of non-positive value -1.0", "ln(r-2.0)"),
            ("sqrt(t)", [-0.0, 1.0], "sqrt of non-positive value -0.0", "sqrt(t)"),
            ("(t-1)^0.5", [0.0, 1.0], "fractional power 0.5 of negative base -1.0", "(t-1.0)^0.5"),
            ("t^(-1)", [0.0, 1.0], "zero raised to a negative power", "t^(-1.0)"),
            ("exp(r)", [0.0, 1e3], "math range error", "exp(r)"),
            ("r*r", [0.0, 1e200], "non-finite result", "r*r"),
            ("r^t", [400.0, 10.0], "math range error", "r^t"),
        )
        for text, point, message, node in cases:
            expr = parse(text, chart)
            compiled = compile_expr(expr, chart.parameters)
            for run in (lambda: compiled(point), lambda: evaluate(expr, point, chart.parameters)):
                with pytest.raises(EvalDomainError) as caught:
                    run()
                assert str(caught.value) == f"{message} in subexpression {node!r}"
                assert render(caught.value.node) == node

    def test_abs_of_a_zero_jet(self):
        expr = parse("abs(x)*y", XY)
        assert compile_expr(expr)([0.0, 2.0]) == 0.0
        with pytest.raises(EvalDomainError, match="abs is not differentiable at 0"):
            _jets.compile_expr(expr)(seed([0.0, 2.0]))

    def test_unresolved_parameter_raises_only_when_called(self):
        compiled = compile_expr(parse("t + R*r", TR), {})
        assert compile_expr(parse("t + R*r", TR), TR.parameters)([1.0, 2.0]) == 3.0
        with pytest.raises(EvalDomainError) as caught:
            compiled([1.0, 2.0])
        assert str(caught.value) == "unresolved parameter 'R' in subexpression 'R'"

    @pytest.mark.parametrize("text", ["sin(R)*r", "r/R", "R/r", "r^R", "R^r", "R^R", "exp(R)"])
    @pytest.mark.parametrize("value", [2, -3, np.int64(2), np.int32(-3)])
    def test_int_parameter_runs_as_its_float(self, text, value):
        # sin(R) with R = 1 once raised AttributeError, on plain floats and
        # jets alike: int has no sin method
        expr = parse(text, TR)

        def run(evaluator, point, R):
            try:
                result = evaluator(expr, point, {"R": R})
            except EvalDomainError as exc:  # (-3)^0.5 fails alike
                return "error", str(exc)
            if isinstance(result, float):
                return result.hex()
            return result.value.hex(), result.grad.tobytes(), result.hess.tobytes()

        # plain floats run the library's tree, jets the tests' reference
        for evaluator, point in ((evaluate, [2.0, 0.5]), (_jets.evaluate, seed([2.0, 0.5]))):
            assert run(evaluator, point, value) == run(evaluator, point, float(value))

    @pytest.mark.parametrize("value", [True, np.bool_(False)])
    def test_bool_parameter_refused(self, value):
        with pytest.raises(ValueError, match="^parameter 'R' must be a finite number"):
            compile_expr(parse("r*R", TR), {"R": value})

    def test_integer_results_become_floats(self):
        assert type(compile_expr(Num(2))(())) is float
        assert type(compile_expr(BinOp("*", Coord(0, "n"), Num(3)))([4])) is float
        assert type(compile_expr(Call("abs", Coord(0, "n")))([-4])) is float

    def test_not_a_node(self):
        with pytest.raises(TypeError, match="not an expression node"):
            compile_expr(BinOp("+", Num(1.0), "x"))

    @pytest.mark.parametrize(
        "lane",
        [
            render,
            lambda e: exprlang._compile_first_order(e, {}, 2),
            lambda e: exprlang._compile_stacked(e, {}, {}),
        ],
        ids=["render", "first_order", "stacked"],
    )
    def test_not_a_node_in_every_lane(self, lane):
        # compile_stacked renders its tree before it compiles it, so its
        # own check is reached only through the private compiler
        with pytest.raises(TypeError, match="^not an expression node: 'x'$"):
            lane(BinOp("+", Coord(0, "x"), "x"))

    def test_one_compile_serves_many_points(self):
        rng = np.random.default_rng(5)
        chart = CoordinateChart(("u", "v"))
        for _ in range(50):
            expr = random_smooth_expr(rng, chart)
            compiled = compile_expr(expr)
            for _ in range(5):
                point = random_box_point(rng, 2)
                assert compiled(point) == evaluate(expr, point)

    def test_constraint_compiles_once(self):
        for source, point, params, want in (
            ("r > R", [0.0, 2.0], TR.parameters, True),
            ("r >= R", [0.0, 1.0], TR.parameters, True),
            ("r > R", [0.0, 1.0], TR.parameters, False),
            ("ln(r) > 0", [0.0, -1.0], TR.parameters, False),
            ("r > R", [0.0, 2.0], {}, False),
        ):
            c = parse_constraint(source, TR)
            assert c.compile(params)(point) is want


# coordinates where the random expressions fail: zeros of either sign,
# negative bases, a subnormal, magnitudes whose products, powers or
# exponentials overflow, and the non-finite numbers
FAILING = (0.0, -0.0, -1.5, -2.0, 5e-324, 1e200, 1e4, 400.0, math.inf, -math.inf, math.nan)


def outcome(compiled, point):
    """A compiled expression's result at a point, its type and bits, or the
    message and node of its EvalDomainError."""
    try:
        result = compiled(point)
    except EvalDomainError as exc:
        return "error", str(exc), render(exc.node)
    return type(result).__name__, result.hex()


class TestFloatTree:
    """compile_expr runs plain floats only; on them it must match the tests'
    jet-generic reference tree (tests/_jets.py) call for call."""

    def test_matches_the_jet_reference(self):
        rng = np.random.default_rng(2201)
        chart = CoordinateChart(("u", "v"), {"R": 1.5})
        calls, messages = 0, set()
        for k in range(600):
            if k % 2:
                expr = random_ast(rng, chart, depth=4)
            else:
                expr = random_smooth_expr(rng, chart)
            compiled = compile_expr(expr, chart.parameters)
            reference = _jets.compile_expr(expr, chart.parameters)
            for point in (
                random_box_point(rng, 2),
                [float(v) for v in rng.choice(FAILING, size=2)],
                np.array([rng.choice(FAILING), rng.uniform(-3.0, 3.0)]),
            ):
                with np.errstate(all="ignore"):  # NumPy scalars warn where floats overflow
                    got = outcome(compiled, point)
                    assert got == outcome(reference, point), (render(expr), point)
                calls += 1
                if got[0] == "error":
                    messages.add(got[1].split(" in subexpression")[0])
        assert calls >= 1800
        seen = " | ".join(sorted(messages))
        for kind in (
            "ln of non-positive value",
            "sqrt of non-positive value",
            "division by zero",
            "fractional power",
            "zero raised to a negative power",
            "math range error",
            "non-finite result",
        ):
            assert kind in seen, (kind, seen)


class TestDomain:
    def test_holds(self):
        c = parse_constraint("y > 0", XY)
        assert c.compile({})([0.0, 2.0]) is True

    def test_violated(self):
        c = parse_constraint("r > R", TR)
        assert c.compile(TR.parameters)([0.0, 0.5]) is False

    def test_boundary_excluded(self):
        c = parse_constraint("r > R", TR)
        assert c.compile(TR.parameters)([0.0, 1.0]) is False

    def test_boundary_included_with_ge(self):
        c = parse_constraint("r >= R", TR)
        assert c.compile(TR.parameters)([0.0, 1.0]) is True

    def test_evaluation_error_means_outside(self):
        c = parse_constraint("ln(x) > 0", XY)
        assert c.compile({})([-1.0, 0.0]) is False

    @pytest.mark.parametrize("source", ["x > 0", "x >= y", "0 > x", "y >= x"])
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_coordinate_side_means_outside(self, source, x):
        # a bare coordinate evaluates to itself, with no finiteness check of
        # its own; the constraint refuses it either way round
        assert parse_constraint(source, XY).compile({})([x, 0.0]) is False

    def test_missing_relation(self):
        with pytest.raises(ExprSyntaxError):
            parse_constraint("x + y", XY)
