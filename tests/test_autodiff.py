"""The tests' scalar jets (tests/_jets.py): seeding, Taylor rules, and
finite-difference cross-checks."""

import math

import numpy as np
import pytest

from mongelight import exprlang
from mongelight.exprlang import CoordinateChart, EvalDomainError, parse

from _jets import Jet1, Jet2, compile_expr, constant, evaluate, seed
from _oracles import (
    fd_gradient,
    fd_hessian,
    random_ast,
    random_box_point,
    random_smooth_expr,
    scalar_evaluator,
)


class TestSeed:
    def test_single(self):
        (j,) = seed([3.0])
        assert j.value == 3.0
        assert j.grad.tolist() == [1.0]
        assert j.hess.tolist() == [[0.0]]

    def test_second_coordinate(self):
        j = seed([0.0, 2.0])[1]
        assert j.value == 2.0
        assert j.grad.tolist() == [0.0, 1.0]
        assert not j.hess.any()

    def test_square(self):
        chart = CoordinateChart(("x",))
        j = evaluate(parse("x^2", chart), seed([3.0]))
        assert j.value == 9.0
        assert j.grad.tolist() == [6.0]
        assert j.hess.tolist() == [[2.0]]


class TestRules:
    def test_ln(self):
        (x,) = seed([2.0])
        j = x.ln()
        assert j.value == math.log(2.0)
        assert j.grad.tolist() == [0.5]
        assert j.hess.tolist() == [[-0.25]]

    def test_product(self):
        x, y = seed([3.0, 4.0])
        j = x * y
        assert j.value == 12.0
        assert j.grad.tolist() == [4.0, 3.0]
        assert j.hess.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_ln_of_coordinate_feeds_hessian(self):
        chart = CoordinateChart(("x", "y"))
        j = evaluate(parse("ln(y)", chart), seed([0.0, 2.0]))
        assert j.hess[1][1] == -0.25

    def test_quotient(self):
        x, y = seed([3.0, 4.0])
        j = x / y
        assert j.value == 0.75
        assert np.allclose(j.grad, [0.25, -3.0 / 16.0])
        # d2/dy2 (x/y) = 2x/y^3, d2/dxdy = -1/y^2
        assert np.allclose(j.hess, [[0.0, -1.0 / 16.0], [-1.0 / 16.0, 6.0 / 64.0]])

    def test_scalar_mixing(self):
        (x,) = seed([2.0])
        assert (1.0 + x).value == 3.0
        assert (1.0 - x).grad.tolist() == [-1.0]
        assert (3.0 * x).grad.tolist() == [3.0]
        assert (1.0 / x).value == 0.5
        assert (2.0**x).value == 4.0

    def test_negative_base_integer_power(self):
        (x,) = seed([-2.0])
        j = x**3.0
        assert j.value == -8.0
        assert j.grad.tolist() == [12.0]
        assert j.hess.tolist() == [[-12.0]]

    def test_variable_exponent(self):
        x, y = seed([2.0, 3.0])
        j = x**y
        assert j.value == 8.0
        assert np.allclose(j.grad, [12.0, 8.0 * math.log(2.0)])

    def test_domain_errors(self):
        (x,) = seed([0.0])
        with pytest.raises(ValueError):
            x.ln()
        with pytest.raises(ValueError):
            x.sqrt()
        with pytest.raises(ValueError):
            x.abs()
        with pytest.raises(ZeroDivisionError):
            1.0 / x
        with pytest.raises(ValueError):
            (-x + -2.0) ** 0.5

    def test_abs(self):
        (x,) = seed([-3.0])
        j = (x * x * x).abs()
        assert j.value == 27.0
        assert j.grad.tolist() == [-27.0]


class TestInvariants:
    def test_fd_cross_check_500(self):
        # |AD - FD| <= 1e-6 (1 + |grad|) and 1e-4 (1 + |hess|), h = 1e-5
        rng = np.random.default_rng(99)
        chart = CoordinateChart(("u", "v"))
        for _ in range(500):
            expr = random_smooth_expr(rng, chart)
            point = random_box_point(rng, 2)
            f = scalar_evaluator(expr, chart)
            jet = evaluate(expr, seed(point), chart.parameters)
            if not isinstance(jet, Jet2):
                jet = constant(jet, 2)
            grad_fd = fd_gradient(f, point)
            hess_fd = fd_hessian(f, point)
            assert np.all(
                np.abs(jet.grad - grad_fd) <= 1e-6 * (1.0 + np.abs(jet.grad))
            )
            assert np.all(
                np.abs(jet.hess - hess_fd) <= 1e-4 * (1.0 + np.abs(jet.hess))
            )

    def test_hessian_exactly_symmetric(self):
        rng = np.random.default_rng(4242)
        chart = CoordinateChart(("u", "v", "w"))
        for _ in range(300):
            expr = random_smooth_expr(rng, chart, depth=4)
            jet = evaluate(expr, seed(random_box_point(rng, 3)), chart.parameters)
            if isinstance(jet, Jet2):
                assert np.array_equal(jet.hess, jet.hess.T)

    def test_value_lane_exact(self):
        rng = np.random.default_rng(777)
        chart = CoordinateChart(("u", "v"))
        for _ in range(300):
            expr = random_smooth_expr(rng, chart)
            point = random_box_point(rng, 2)
            jet = evaluate(expr, seed(point), chart.parameters)
            plain = exprlang.evaluate(expr, point, chart.parameters)
            assert getattr(jet, "value", jet) == plain


def outcome(compiled, point, order):
    """Value and gradient bits of a compiled expression on jets of the given
    order, or the type and message of what it raised.  Runs under the
    errstate the library runs its jets in: at an edge value Jet2's Hessian
    lane can overflow where no value or gradient does."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            jet = compiled(seed(point, order))
    except Exception as exc:  # compared across orders, whatever it is
        return "raised", type(exc).__name__, str(exc)
    if isinstance(jet, float):
        return "constant", jet.hex(), None
    return "jet", jet.value.hex(), jet.grad.tobytes()


# coordinates at which f'' of sqrt (-0.25 / (r * v)) or ln (-1 / (v * v))
# underflows to a zero denominator, and other edges of the float range
EDGE_VALUES = (1e-320, 1e-170, -1e-170, 5e-324, 0.0, -0.0, 1e-160, 1e154, 1e200, -3.0, 0.5, 2.0)


class TestJet1:
    """Jet1 must give Jet2's value and gradient bits, and raise where Jet2 does."""

    def test_rules_match_jet2_lanes(self):
        x1, y1 = seed([0.7, -1.3], 1)
        x2, y2 = seed([0.7, -1.3])
        pairs = [
            (x1 * y1 / (1.0 + x1), x2 * y2 / (1.0 + x2)),
            (2.0 / y1 - x1 + 3.0, 2.0 / y2 - x2 + 3.0),
            ((x1**3.0).sin() - y1.cos().exp(), (x2**3.0).sin() - y2.cos().exp()),
            ((x1 * x1).sqrt().ln() * y1.tan(), (x2 * x2).sqrt().ln() * y2.tan()),
            (abs(y1) ** 0.5, abs(y2) ** 0.5),
            (2.0 - x1**0.0, 2.0 - x2**0.0),
        ]
        for one, two in pairs:
            assert isinstance(one, Jet1)
            assert one.value.hex() == two.value.hex()
            assert one.grad.tobytes() == two.grad.tobytes()

    @pytest.mark.parametrize("value", [1e-320, 1e-170])
    def test_second_coefficient_underflow_raises_alike(self, value):
        for order in (1, 2):
            (x,) = seed([value], order)
            with pytest.raises(ZeroDivisionError):
                x.sqrt() if value == 1e-320 else x.ln()

    def test_variable_exponents_match_jet2(self):
        x1, y1 = seed([1.7, -0.6], 1)
        x2, y2 = seed([1.7, -0.6])
        pairs = [(x1**y1, x2**y2), (2.0**x1, 2.0**x2), (x1 ** (y1 * y1), x2 ** (y2 * y2))]
        for one, two in pairs:
            assert isinstance(one, Jet1)
            assert one.value.hex() == two.value.hex()
            assert one.grad.tobytes() == two.grad.tobytes()

    def test_constant_and_seed_orders(self):
        assert isinstance(constant(1.5, 3, 1), Jet1)
        assert not constant(1.5, 3, 1).grad.any()
        (x,) = seed([4.0], 1)
        assert x.grad.tolist() == [1.0] and not hasattr(x, "hess")

    @pytest.mark.parametrize("source", ["smooth", "ast"])
    def test_compiled_expressions_agree_with_jet2(self, source):
        rng = np.random.default_rng(911 if source == "smooth" else 912)
        chart = CoordinateChart(("u", "v"), {"R": 1.5})
        compared = raised = 0
        for _ in range(300):
            if source == "smooth":
                expr = random_smooth_expr(rng, chart)
            else:
                expr = random_ast(rng, chart, depth=3)
            compiled = compile_expr(expr, chart.parameters)
            for point in (
                random_box_point(rng, 2),
                [float(v) for v in rng.choice(EDGE_VALUES, size=2)],
                [float(rng.choice(EDGE_VALUES)), float(rng.uniform(-2.0, 2.0))],
            ):
                first, second = outcome(compiled, point, 1), outcome(compiled, point, 2)
                assert first == second, (expr, point)
                compared += 1
                raised += second[0] == "raised"
        assert compared >= 500 and raised >= 20, (compared, raised)

    def test_underflowing_coefficients_raise_the_same_message(self):
        chart = CoordinateChart(("x", "y"))
        for text, point in (("sqrt(x)", [1e-320, 1.0]), ("ln(y)*x", [2.0, 1e-170])):
            compiled = compile_expr(parse(text, chart))
            messages = set()
            for order in (1, 2):
                with pytest.raises(EvalDomainError) as caught:
                    compiled(seed(point, order))
                messages.add(str(caught.value))
            assert messages == {f"float division by zero in subexpression {text.split('*')[0]!r}"}
