"""Metric kernels: inverses, connection coefficients, gradients, Hessians,
and indefinite orthonormalization, cross-checked against finite differences."""

import numpy as np
import pytest

from mongelight import autodiff, catalog
from mongelight.exprlang import BinOp, CoordinateChart, Coord, Neg, Num, evaluate, parse
from mongelight.mongecore import (
    MongeGenerator,
    lightlike_defect_at,
    monge_frame_at,
    normal_and_transversal_at,
    second_fundamental_form_at,
)
from mongelight.semiriemann import (
    DegenerateMetricError,
    MetricField,
    NearNullPivotError,
    christoffel_at,
    local_scale,
    metric_at,
    metric_jets_at,
    orthonormalize,
)

from _oracles import fd_christoffel, fd_metric_partials, metric_evaluator, sample_admissible

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


class TestMetricAt:
    def test_hyperbolic_plane(self):
        g, ginv = metric_at(HYP2.metric, [0.0, 2.0])
        assert np.allclose(g, [[0.25, 0.0], [0.0, 0.25]], atol=0)
        assert np.allclose(ginv, [[4.0, 0.0], [0.0, 4.0]], atol=0)

    def test_exterior_chart(self):
        g, _ = metric_at(SCHW.metric, [0.0, 2.0])
        assert np.allclose(g, [[-0.5, 0.0], [0.0, 2.0]], atol=1e-15)

    def test_identity(self):
        g, ginv = metric_at(IDENTITY3, [0.3, -0.7, 5.0])
        assert np.array_equal(g, np.eye(3))
        assert np.array_equal(ginv, np.eye(3))

    def test_inverse_residual(self):
        g, ginv = metric_at(SCHW.metric, [0.0, 1.001])
        assert np.max(np.abs(g @ ginv - np.eye(2))) < 1e-10

    def test_near_horizon_flagged_degenerate(self):
        with pytest.raises(DegenerateMetricError):
            metric_at(SCHW.metric, [0.0, 1.0 + 1e-7])

    def test_degenerate_rejected(self):
        field = MetricField.from_strings(
            CoordinateChart(("x", "y")), [["x", "0"], ["0", "1"]]
        )
        with pytest.raises(DegenerateMetricError):
            metric_at(field, [0.0, 1.0])

    def test_asymmetric_rejected(self):
        field = MetricField.from_strings(
            CoordinateChart(("x", "y")), [["1", "x"], ["2*x", "1"]]
        )
        assert not field.is_structurally_symmetric()
        with pytest.raises(DegenerateMetricError):
            metric_at(field, [0.5, 1.0])


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
                jet = evaluate(field.components[j][k], autodiff.seed(point), field.chart.parameters)
                if not isinstance(jet, autodiff.Jet2):
                    jet = autodiff.constant(jet, d)
                g[j, k] = jet.value
                dg[:, j, k] = jet.grad
        return g, dg

    @staticmethod
    def assert_same_bits(a, b):
        assert a.tobytes() == b.tobytes()  # tells -0.0 from 0.0

    def test_hyperbolic_space(self):
        field = catalog.builtin("hyperbolic3").generator.metric
        for point in ((0.0, 0.0, 2.0), (0.3, -0.7, 0.9)):
            for got, want in zip(metric_jets_at(field, point), self.entrywise(field, point)):
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
        g, dg = metric_jets_at(field, (0.5, 1.5))
        for got, want in zip((g, dg), self.entrywise(field, (0.5, 1.5))):
            self.assert_same_bits(got, want)
        assert np.signbit(g[0, 1]) and not np.signbit(g[1, 0])
        assert g[0, 0] == 6.0 and g[1, 1] == -6.0


class TestChristoffel:
    def test_hyperbolic_plane_closed_form(self):
        gamma = christoffel_at(HYP2.metric, [0.0, 2.0])
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
        gamma = christoffel_at(HYP2.metric, point)
        oracle = fd_christoffel(metric_evaluator(HYP2.metric, HYP2.chart), point)
        assert np.allclose(gamma, oracle, atol=1e-8)

    def test_identity_vanishes(self):
        assert not christoffel_at(IDENTITY3, [1.0, 2.0, 3.0]).any()

    def test_polar_closed_form_and_oracle(self):
        point = [2.0, 0.3]
        gamma = christoffel_at(POLAR, point)
        r, th = 0, 1
        assert gamma[r, th, th] == pytest.approx(-2.0, abs=1e-13)
        assert gamma[th, r, th] == pytest.approx(0.5, abs=1e-13)
        oracle = fd_christoffel(metric_evaluator(POLAR, POLAR.chart), point)
        assert np.allclose(gamma, oracle, atol=1e-8)

    def test_exact_symmetry(self):
        gamma = christoffel_at(SCHW.metric, [0.0, 3.3])
        assert np.array_equal(gamma, np.transpose(gamma, (0, 2, 1)))


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
                g, _ = metric_at(gen.metric, base)
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
            g, _ = metric_at(gen.metric, base)
            gamma = christoffel_at(gen.metric, base)
            dg = fd_metric_partials(eval_metric, base)
            residual = (
                dg
                - np.einsum("lij,lk->ijk", gamma, g)
                - np.einsum("lik,jl->ijk", gamma, g)
            )
            assert np.max(np.abs(residual)) <= 1e-6 * local_scale(g, dg)


class TestOrthonormalize:
    def test_hyperbolic_span(self):
        g, _ = metric_at(HYP2.metric, [0.0, 2.0])
        frame = orthonormalize([[1.0, 0.0]], g)
        assert np.allclose(frame.vectors, [[2.0, 0.0]], atol=1e-14)
        assert frame.signs == (1,)
        assert float(frame.vectors[0] @ g @ frame.vectors[0]) == pytest.approx(1.0, abs=1e-12)

    def test_timelike_span(self):
        g, _ = metric_at(SCHW.metric, [0.0, 2.0])
        frame = orthonormalize([[1.0, 0.0]], g)
        assert np.allclose(frame.vectors, [[np.sqrt(2.0), 0.0]], atol=1e-14)
        assert frame.signs == (-1,)

    def test_identity_basis_fixed(self):
        frame = orthonormalize(np.eye(3), np.eye(3))
        assert np.array_equal(frame.vectors, np.eye(3))
        assert frame.signs == (1, 1, 1)

    def test_orthonormality_certificate(self):
        rng = np.random.default_rng(5150)
        g = np.diag([-1.0, 1.0, 1.0, 1.0])
        for _ in range(50):
            vectors = rng.normal(size=(4, 4))
            try:
                frame = orthonormalize(vectors, g)
            except NearNullPivotError:
                continue
            gram = frame.vectors @ g @ frame.vectors.T
            assert np.allclose(gram, np.diag(frame.signs), atol=1e-8)

    def test_signature_invariant_under_shuffles(self):
        rng = np.random.default_rng(616)
        g = np.diag([-1.0, -1.0, 1.0, 1.0])
        vectors = rng.normal(size=(4, 4))
        reference = sorted(orthonormalize(vectors, g).signs)
        for _ in range(20):
            order = rng.permutation(4)
            shuffled = [vectors[i] for i in order]
            assert sorted(orthonormalize(shuffled, g).signs) == reference

    def test_near_null_pivot(self):
        g = np.diag([1.0, -1.0])
        with pytest.raises(NearNullPivotError):
            orthonormalize([[1.0, 1.0]], g)  # a null vector
