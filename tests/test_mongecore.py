"""Induced-object and classification tests for the graph-hypersurface core."""

import dataclasses

import numpy as np
import pytest

from mongelight import catalog
from mongelight.exprlang import CoordinateChart, parse, parse_constraint
from mongelight.mongecore import (
    EmptySampleError,
    MongeGenerator,
    NotLightlikeWarning,
    ScreenRankError,
    SurfacePoint,
    Tolerances,
    ambient_metric_at,
    classify,
    gauss_decompose_at,
    kernel_frame_at,
    lightlike_defect_at,
    minimal_defect_at,
    monge_frame_at,
    normal_and_transversal_at,
    screen_frame_at,
    screen_integrability_defect_at,
    second_fundamental_form_at,
    umbilic_fit_at,
    weingarten_at,
    _frame_data,
    _point_data,
    _screen_fields,
)
from mongelight.reportio import grid_sample
from mongelight.semiriemann import MetricField, local_scale

from _oracles import (
    fd_christoffel,
    fd_gradient,
    fd_hessian_rich,
    metric_evaluator,
    random_sign_orthogonal,
    sample_admissible,
    scalar_evaluator,
)

HYP2 = catalog.builtin("hyperbolic2")
SCHW = catalog.builtin("schwarzschild_tr")
DEGENERATE_NAMES = (
    "hyperbolic2",
    "hyperbolic3",
    "schwarzschild_tr",
    "euclid_hyperplane",
    "euclid_cone",
)


def euclidean(names, scalar, domain=()):
    chart = CoordinateChart(tuple(names))
    d = chart.dimension
    rows = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
    return MongeGenerator(
        "euclid",
        chart,
        MetricField.from_strings(chart, rows),
        parse(scalar, chart),
        tuple(parse_constraint(c, chart) for c in domain),
    )


def default_points(entry, limit=None):
    points = grid_sample(entry.generator, entry.default_samples)
    return points if limit is None else points[:limit]


class TestAmbientMetric:
    def test_hyperbolic_plane(self):
        gbar = ambient_metric_at(HYP2.generator, (0.0, 2.0))
        assert np.allclose(gbar, np.diag([-1.0, 0.25, 0.25]), atol=0)

    def test_exterior_chart(self):
        gbar = ambient_metric_at(SCHW.generator, (0.0, 2.0))
        assert np.allclose(gbar, np.diag([-1.0, -0.5, 2.0]), atol=1e-15)

    def test_identity_base_gives_minkowski(self):
        gen = euclidean(("x", "y", "z"), "x")
        gbar = ambient_metric_at(gen, (0.1, 0.2, 0.3))
        assert np.array_equal(gbar, np.diag([-1.0, 1.0, 1.0, 1.0]))


class TestNormalAndTransversal:
    def test_hyperbolic_plane(self):
        gen = HYP2.generator
        sp = gen.surface_point((0.0, 2.0))
        xi, nxi = normal_and_transversal_at(gen, sp)
        assert np.allclose(xi, [1.0, 0.0, 2.0], atol=1e-15)
        assert np.allclose(nxi, [-0.5, 0.0, 1.0], atol=1e-15)
        gbar = ambient_metric_at(gen, sp)
        assert float(xi @ gbar @ nxi) == pytest.approx(1.0, abs=1e-14)

    def test_exterior_chart(self):
        gen = SCHW.generator
        sp = gen.surface_point((0.0, 2.0))
        xi, nxi = normal_and_transversal_at(gen, sp)
        assert np.allclose(xi, [1.0, 0.0, 0.7071067811865476], atol=1e-14)
        assert np.allclose(nxi, [-0.5, 0.0, 0.3535533905932738], atol=1e-14)

    def test_flat_constant_gradient(self):
        gen = euclidean(("x", "y", "z"), "x")
        xi, nxi = normal_and_transversal_at(gen, (0.0, 0.0, 0.0))
        assert xi.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert nxi.tolist() == [-0.5, 0.5, 0.0, 0.0]


class TestLightlikeDefect:
    def test_hyperbolic_plane_vanishes(self):
        for sp in default_points(HYP2):
            assert abs(lightlike_defect_at(HYP2.generator, sp)) < 1e-12

    def test_control_is_three(self):
        gen = euclidean(("x", "y"), "2*x")
        assert lightlike_defect_at(gen, (0.4, -0.3)) == pytest.approx(3.0, abs=1e-12)

    def test_distance_function_fd_oracle(self):
        # |grad F| = 1 for the Euclidean distance function; FD cross-check
        gen = euclidean(("x", "y"), "sqrt(x^2 + y^2)", domain=("x^2 + y^2 > 0",))
        base = (3.0, 4.0)
        assert lightlike_defect_at(gen, base) == pytest.approx(0.0, abs=1e-12)
        grad = fd_gradient(scalar_evaluator(gen.scalar_field, gen.chart), base)
        assert float(grad @ grad) - 1.0 == pytest.approx(0.0, abs=1e-9)

    def test_euclidean_special_case(self):
        # with an identity base metric the defect is sum (dF_i)^2 - 1
        rng = np.random.default_rng(21)
        gen = euclidean(("x", "y", "z"), "sin(x)*cos(y) + z^2")
        f = scalar_evaluator(gen.scalar_field, gen.chart)
        for _ in range(40):
            base = tuple(rng.uniform(-1.5, 1.5, size=3))
            defect = lightlike_defect_at(gen, base)
            dF = monge_frame_at(gen, base)[0][:, 0]
            assert defect == pytest.approx(float(dF @ dF) - 1.0, abs=1e-10)
            grad_fd = fd_gradient(f, base)
            assert defect == pytest.approx(float(grad_fd @ grad_fd) - 1.0, abs=1e-8)

    def test_semi_euclidean_signed_sum(self):
        chart = CoordinateChart(("t", "x"))
        gen = MongeGenerator(
            "semi",
            chart,
            MetricField.from_strings(chart, [["-1", "0"], ["0", "1"]]),
            parse("t^2 + x", chart),
            (),
        )
        base = (0.7, 0.3)
        # dF = (2t, 1); defect = -(2t)^2 + 1 - 1
        assert lightlike_defect_at(gen, base) == pytest.approx(-(1.4**2), abs=1e-12)


class TestMongeFrame:
    def test_hyperbolic_plane(self):
        gen = HYP2.generator
        frame, induced, rank = monge_frame_at(gen, gen.surface_point((0.0, 2.0)))
        assert np.allclose(frame, [[0.0, 1.0, 0.0], [0.5, 0.0, 1.0]], atol=0)
        assert np.allclose(induced, [[0.25, 0.0], [0.0, 0.0]], atol=1e-16)
        assert rank == 1

    def test_nondegenerate_control(self):
        gen = euclidean(("x", "y"), "2*x")
        _, induced, rank = monge_frame_at(gen, (0.0, 0.0))
        assert np.allclose(induced, [[-3.0, 0.0], [0.0, 1.0]], atol=0)
        assert rank == 0

    def test_hyperplane(self):
        gen = euclidean(("x", "y"), "x")
        _, induced, rank = monge_frame_at(gen, (1.0, 1.0))
        assert np.allclose(induced, [[0.0, 0.0], [0.0, 1.0]], atol=0)
        assert rank == 1

    def test_singular_values_cross_check(self):
        gen = SCHW.generator
        _, induced, rank = monge_frame_at(gen, (0.0, 2.0))
        singular = np.linalg.svd(induced, compute_uv=False)
        assert rank == int(np.sum(singular < 1e-8 * local_scale(induced)))
        assert rank == 1


class TestSecondFundamentalForm:
    def test_hyperbolic_plane_equals_induced_metric(self):
        gen = HYP2.generator
        for sp in default_points(HYP2, limit=10):
            B = second_fundamental_form_at(gen, sp)
            _, induced, _ = monge_frame_at(gen, sp)
            assert np.allclose(B, induced, atol=1e-14)

    def test_exterior_chart_frozen(self):
        gen = SCHW.generator
        B = second_fundamental_form_at(gen, gen.surface_point((0.0, 2.0)))
        assert B[0, 0] == pytest.approx(0.08838834764831844, rel=1e-12)
        assert abs(B[0, 1]) < 1e-15 and abs(B[1, 1]) < 1e-15

    def test_hyperplane_geodesic(self):
        gen = euclidean(("x", "y"), "x")
        assert not second_fundamental_form_at(gen, (0.3, 0.4)).any()

    def test_warns_off_the_degenerate_locus(self):
        gen = euclidean(("x", "y"), "2*x")
        with pytest.warns(NotLightlikeWarning):
            second_fundamental_form_at(gen, (0.0, 0.0))

    def test_symmetric(self):
        for sp in default_points(SCHW, limit=10):
            B = second_fundamental_form_at(SCHW.generator, sp)
            assert np.array_equal(B, B.T)


class TestUmbilicFit:
    def test_hyperbolic_plane(self):
        rho, residual = umbilic_fit_at(HYP2.generator, (0.7, 1.3))
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert residual < 1e-12

    def test_exterior_chart_frozen(self):
        rho, residual = umbilic_fit_at(SCHW.generator, (0.0, 2.0))
        assert rho == pytest.approx(-0.17677669529663687, rel=1e-12)
        assert residual < 1e-12

    def test_cone_fd_oracle(self):
        # rho = -1/r for the distance-function graph, against an FD Hessian fit
        gen = euclidean(("x", "y"), "sqrt(x^2 + y^2)", domain=("x^2 + y^2 > 0",))
        base = (3.0, 4.0)
        rho, residual = umbilic_fit_at(gen, base)
        assert rho == pytest.approx(-0.2, abs=1e-10)
        assert residual < 1e-10
        f = scalar_evaluator(gen.scalar_field, gen.chart)
        hess_fd = fd_hessian_rich(f, base)
        grad_fd = fd_gradient(f, base)
        target = np.outer(grad_fd, grad_fd) - np.eye(2)
        rho_fd = float(np.sum(hess_fd * target) / np.sum(target * target))
        assert rho == pytest.approx(rho_fd, abs=1e-7)

    def test_hyperplane_rho_zero(self):
        gen = euclidean(("x", "y", "z"), "x")
        rho, residual = umbilic_fit_at(gen, (0.0, 0.0, 0.0))
        assert rho == 0.0
        assert residual == 0.0


class TestKernelFrameAndMinimal:
    def test_hyperbolic_plane(self):
        gen = HYP2.generator
        sp = gen.surface_point((0.0, 2.0))
        frame = kernel_frame_at(gen, sp)
        assert np.allclose(np.abs(frame.vectors), [[2.0, 0.0]], atol=1e-14)
        assert frame.signs == (1,)
        assert minimal_defect_at(gen, sp) == pytest.approx(-1.0, abs=1e-12)

    def test_exterior_chart(self):
        gen = SCHW.generator
        sp = gen.surface_point((0.0, 2.0))
        frame = kernel_frame_at(gen, sp)
        assert np.allclose(np.abs(frame.vectors), [[np.sqrt(2.0), 0.0]], atol=1e-14)
        assert frame.signs == (-1,)
        assert minimal_defect_at(gen, sp) == pytest.approx(0.17677669529663687, rel=1e-10)

    def test_hyperplane_minimal(self):
        gen = euclidean(("x", "y", "z"), "x")
        assert minimal_defect_at(gen, (0.0, 0.0, 0.0)) == 0.0

    def test_dimension_one_rejected(self):
        chart = CoordinateChart(("x",))
        gen = MongeGenerator(
            "line",
            chart,
            MetricField.from_strings(chart, [["1"]]),
            parse("x", chart),
            (),
        )
        assert lightlike_defect_at(gen, (0.5,)) == 0.0
        with pytest.raises(ScreenRankError):
            kernel_frame_at(gen, (0.5,))
        with pytest.raises(ScreenRankError):
            screen_frame_at(gen, (0.5,))

    def test_frame_independence_rotations(self):
        # random sign-orthogonal mixes leave the defect unchanged
        rng = np.random.default_rng(1009)
        for name in ("hyperbolic3", "euclid_cone", "schwarzschild_tr"):
            entry = catalog.builtin(name)
            gen = entry.generator
            for base in sample_admissible(rng, gen, entry.default_samples.ranges, 10):
                frame = kernel_frame_at(gen, base)
                reference = minimal_defect_at(gen, base)
                hess = -second_fundamental_form_at(gen, base)
                for _ in range(5):
                    q = random_sign_orthogonal(rng, frame.signs)
                    mixed = q.T @ frame.vectors
                    defect = sum(
                        sign * float(v @ hess @ v)
                        for v, sign in zip(mixed, frame.signs)
                    )
                    assert abs(defect - reference) < 1e-8 * (1.0 + abs(reference))

    def test_frame_independence_boosts(self):
        # mixed-signature kernel: level sets of the Minkowski distance function
        chart = CoordinateChart(("t", "x", "y"))
        gen = MongeGenerator(
            "minkowski_distance",
            chart,
            MetricField.from_strings(
                chart, [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
            ),
            parse("sqrt(x^2 + y^2 - t^2)", chart),
            (parse_constraint("x^2 + y^2 - t^2 > 0", chart),),
        )
        base = (0.5, 2.0, 1.0)
        assert lightlike_defect_at(gen, base) == pytest.approx(0.0, abs=1e-12)
        frame = kernel_frame_at(gen, base)
        assert sorted(frame.signs) == [-1, 1]
        hess = -second_fundamental_form_at(gen, base)
        reference = minimal_defect_at(gen, base)
        rng = np.random.default_rng(55)
        for _ in range(25):
            q = random_sign_orthogonal(rng, frame.signs)
            mixed = q.T @ frame.vectors
            defect = sum(
                sign * float(v @ hess @ v) for v, sign in zip(mixed, frame.signs)
            )
            assert abs(defect - reference) < 1e-8 * (1.0 + abs(reference))


class TestScreenFrame:
    def test_hyperbolic_plane(self):
        gen = HYP2.generator
        screen = screen_frame_at(gen, gen.surface_point((0.0, 2.0)))
        assert np.allclose(np.abs(screen.vectors), [[0.0, 2.0, 0.0]], atol=1e-12)
        assert screen.signs == (1,)

    def test_exterior_chart(self):
        gen = SCHW.generator
        screen = screen_frame_at(gen, gen.surface_point((0.0, 2.0)))
        assert np.allclose(np.abs(screen.vectors), [[0.0, np.sqrt(2.0), 0.0]], atol=1e-12)
        assert screen.signs == (-1,)

    def test_hyperplane_in_three_space(self):
        gen = euclidean(("x", "y", "z"), "x")
        screen = screen_frame_at(gen, (0.0, 0.0, 0.0))
        assert screen.signs == (1, 1)
        # spans {d_y, d_z}: no x0 and no x components
        assert np.allclose(screen.vectors[:, 0], 0.0, atol=1e-15)
        assert np.allclose(screen.vectors[:, 1], 0.0, atol=1e-15)

    def test_orthogonality_conditions(self):
        for name in DEGENERATE_NAMES:
            entry = catalog.builtin(name)
            gen = entry.generator
            for sp in grid_sample(gen, entry.default_samples)[:8]:
                gbar = ambient_metric_at(gen, sp)
                xi, nxi = normal_and_transversal_at(gen, sp)
                screen = screen_frame_at(gen, sp)
                scale = local_scale(gbar, screen.vectors)
                for w in screen.vectors:
                    assert abs(float(w @ gbar @ xi)) < 1e-10 * scale
                    assert abs(w[0]) < 1e-10 * scale  # zero x0 component
                    assert abs(float(w @ gbar @ nxi)) < 1e-10 * scale
                gram = screen.vectors @ gbar @ screen.vectors.T
                assert np.allclose(gram, np.diag(screen.signs), atol=1e-8 * scale)


class TestGaussDecomposition:
    def test_hyperbolic_plane_frozen(self):
        gen = HYP2.generator
        sp = gen.surface_point((0.0, 2.0))
        tangent, b = gauss_decompose_at(gen, sp, 0, 0)
        assert b == pytest.approx(0.25, abs=1e-14)
        assert np.allclose(tangent, [0.125, 0.0, 0.25], atol=1e-14)
        gbar = ambient_metric_at(gen, sp)
        xi, _ = normal_and_transversal_at(gen, sp)
        assert abs(float(tangent @ gbar @ xi)) < 1e-14

    def test_flat_linear_trivial(self):
        gen = euclidean(("x", "y"), "x")
        for i in range(2):
            for j in range(2):
                tangent, b = gauss_decompose_at(gen, (0.2, 0.9), i, j)
                assert b == 0.0
                assert not tangent.any()

    def test_index_symmetry(self):
        gen = SCHW.generator
        sp = gen.surface_point((0.0, 3.0))
        for i in range(2):
            for j in range(2):
                t_ij, b_ij = gauss_decompose_at(gen, sp, i, j)
                t_ji, b_ji = gauss_decompose_at(gen, sp, j, i)
                assert b_ij == b_ji
                assert np.array_equal(t_ij, t_ji)

    def test_independent_path_consistency(self):
        # production (jet Christoffels) vs finite-difference ambient derivatives
        rng = np.random.default_rng(17)
        for name in DEGENERATE_NAMES:
            entry = catalog.builtin(name)
            gen = entry.generator
            d = gen.dimension
            eval_metric = metric_evaluator(gen.metric, gen.chart)
            f = scalar_evaluator(gen.scalar_field, gen.chart)
            for base in sample_admissible(rng, gen, entry.default_samples.ranges, 5):
                gamma_fd = fd_christoffel(eval_metric, base)
                hess_plain_fd = fd_hessian_rich(f, base)
                sp = gen.surface_point(base)
                gbar = ambient_metric_at(gen, sp)
                xi, nxi = normal_and_transversal_at(gen, sp)
                for i in range(d):
                    for j in range(d):
                        tangent, b = gauss_decompose_at(gen, sp, i, j)
                        ambient_prod = tangent + b * nxi
                        ambient_fd = np.concatenate(
                            ([hess_plain_fd[i, j]], gamma_fd[:, i, j])
                        )
                        scale = local_scale(ambient_fd)
                        assert np.max(np.abs(ambient_prod - ambient_fd)) < 1e-6 * scale
                        # defining pairing: gbar(ambient derivative, xi) recovers b
                        assert abs(float(ambient_prod @ gbar @ xi) - b) < 1e-9 * scale


class TestWeingarten:
    def test_hyperbolic_plane_frozen(self):
        gen = HYP2.generator
        sp = gen.surface_point((0.0, 2.0))
        a_vec, tau = weingarten_at(gen, sp, 0)
        assert np.allclose(a_vec, [0.0, 0.5, 0.0], atol=1e-14)
        assert tau == pytest.approx(0.0, abs=1e-14)

    def test_flat_linear_trivial(self):
        gen = euclidean(("x", "y"), "x")
        for i in range(2):
            a_vec, tau = weingarten_at(gen, (0.0, 0.0), i)
            assert not a_vec.any()
            assert tau == 0.0

    def test_pairing_with_second_form_on_screen(self):
        # gbar(A_N e_i, W) = B(e_i, W)/2 for screen W; the 1/2 comes from
        # N = xi/2 - d0 with d0 parallel, via metric compatibility
        for name in DEGENERATE_NAMES:
            entry = catalog.builtin(name)
            gen = entry.generator
            for sp in grid_sample(gen, entry.default_samples)[:6]:
                gbar = ambient_metric_at(gen, sp)
                frame, _, _ = monge_frame_at(gen, sp)
                B = second_fundamental_form_at(gen, sp)
                screen = screen_frame_at(gen, sp)
                for i in range(gen.dimension):
                    a_vec, _ = weingarten_at(gen, sp, i)
                    for w in screen.vectors:
                        coeff, *_ = np.linalg.lstsq(frame.T, w, rcond=None)
                        lhs = float(a_vec @ gbar @ w)
                        rhs = 0.5 * float(B[i] @ coeff)
                        assert abs(lhs - rhs) < 1e-9 * local_scale(B, a_vec)

    def test_fd_cross_check(self):
        # derivative of the raised gradient along a base direction, by FD
        gen = SCHW.generator
        base = (0.0, 2.5)
        h = 1e-6

        def xi_hat(point):
            return normal_and_transversal_at(gen, point)[0][1:]

        gamma = fd_christoffel(metric_evaluator(gen.metric, gen.chart), base)
        for i in range(2):
            plus = list(base)
            minus = list(base)
            plus[i] += h
            minus[i] -= h
            d_xi = (xi_hat(plus) - xi_hat(minus)) / (2.0 * h)
            nabla = d_xi + gamma[:, i, :] @ xi_hat(base)
            a_vec, tau = weingarten_at(gen, gen.surface_point(base), i)
            nxi = normal_and_transversal_at(gen, base)[1]
            dn_fd = np.concatenate(([0.0], 0.5 * nabla))
            dn_prod = tau * nxi - a_vec
            assert np.max(np.abs(dn_prod - dn_fd)) < 1e-6


class TestScreenIntegrability:
    def test_two_dimensional_convention(self):
        assert screen_integrability_defect_at(HYP2.generator, (0.0, 2.0)) == 0.0

    def test_hyperbolic_three_space(self):
        entry = catalog.builtin("hyperbolic3")
        gen = entry.generator
        defect = screen_integrability_defect_at(gen, (0.0, 0.0, 2.0))
        assert defect < 1e-6

    def test_constant_frame(self):
        gen = euclidean(("x", "y", "z"), "x")
        assert screen_integrability_defect_at(gen, (0.1, 0.2, 0.3)) < 1e-10

    @pytest.mark.parametrize("name", ["hyperbolic3", "euclid_cone"])
    def test_uncached_fields_match_point_data(self, name):
        # finite-difference neighbours skip _point_data; at a base point their
        # screen fields must equal, bit for bit, the projection built from it
        entry = catalog.builtin(name)
        for sp in default_points(entry, limit=5):
            data = _point_data(entry.generator, sp.base)
            projected = data.frame - np.outer(data.frame @ data.gbar @ data.nxi, data.xi)
            uncached = _screen_fields(_frame_data(entry.generator, sp.base))
            assert np.array_equal(uncached, projected)

    def test_neighbour_outside_domain_is_point_error(self):
        # at z = 5e-6 the bracket's neighbour z - 1e-5 leaves the domain of sqrt(z)
        chart = CoordinateChart(("x", "y", "z"))
        rows = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "sqrt(z)"]]
        gen = MongeGenerator(
            "root_z",
            chart,
            MetricField.from_strings(chart, rows),
            parse("x", chart),
            (parse_constraint("z > 0", chart),),
        )
        bases = ((0.0, 0.0, 5e-6), (0.0, 0.0, 1.0))
        report = classify(gen, [gen.surface_point(b) for b in bases])
        near, far = report.points
        assert near.error == "sqrt of non-positive value -5e-06 in subexpression 'sqrt(z)'"
        assert far.error is None and far.integrability_defect == 0.0

    def test_sphere_screen(self):
        # screen fields genuinely vary; tangent planes of spheres integrate
        gen = euclidean(
            ("x", "y", "z"), "sqrt(x^2 + y^2 + z^2)", domain=("x^2 + y^2 + z^2 > 0",)
        )
        for base in ((1.0, 2.0, 2.0), (0.5, -1.0, 1.5), (3.0, 0.1, -0.2)):
            assert abs(lightlike_defect_at(gen, base)) < 1e-12
            assert screen_integrability_defect_at(gen, base) < 1e-6


class TestNormalityInvariants:
    def test_xi_is_normal_and_tangent(self):
        for name in DEGENERATE_NAMES:
            entry = catalog.builtin(name)
            gen = entry.generator
            for sp in grid_sample(gen, entry.default_samples):
                gbar = ambient_metric_at(gen, sp)
                xi, nxi = normal_and_transversal_at(gen, sp)
                frame, _, _ = monge_frame_at(gen, sp)
                scale = local_scale(gbar, frame, xi)
                assert np.max(np.abs(frame @ gbar @ xi)) < 1e-10 * scale
                assert abs(float(xi @ gbar @ xi)) < 1e-10 * scale
                coeff, *_ = np.linalg.lstsq(frame.T, xi, rcond=None)
                assert np.max(np.abs(frame.T @ coeff - xi)) < 1e-8 * scale

    def test_transversal_certificates(self):
        for name in DEGENERATE_NAMES:
            entry = catalog.builtin(name)
            gen = entry.generator
            for sp in grid_sample(gen, entry.default_samples):
                gbar = ambient_metric_at(gen, sp)
                xi, nxi = normal_and_transversal_at(gen, sp)
                assert float(xi @ gbar @ nxi) == pytest.approx(1.0, abs=1e-10)
                assert abs(float(nxi @ gbar @ nxi)) < 1e-10

    def test_radical_direction_annihilates_B(self):
        for name in DEGENERATE_NAMES:
            entry = catalog.builtin(name)
            gen = entry.generator
            for sp in grid_sample(gen, entry.default_samples)[:10]:
                xi_hat = normal_and_transversal_at(gen, sp)[0][1:]
                B = second_fundamental_form_at(gen, sp)
                assert np.max(np.abs(B @ xi_hat)) < 1e-8 * local_scale(B, xi_hat)


class TestScalingCovariance:
    @pytest.mark.parametrize("c", [2.0, -3.0])
    def test_B_scales_exactly(self, c):
        for name in ("hyperbolic2", "schwarzschild_tr", "euclid_cone"):
            entry = catalog.builtin(name)
            gen = entry.generator
            for sp in grid_sample(gen, entry.default_samples)[:6]:
                B1 = second_fundamental_form_at(gen, sp)
                Bc = second_fundamental_form_at(gen, sp, xi_scale=c)
                assert np.array_equal(Bc, c * B1)
                # pairing normalization survives the rescale
                gbar = ambient_metric_at(gen, sp)
                xi, nxi = normal_and_transversal_at(gen, sp, xi_scale=c)
                assert float(xi @ gbar @ nxi) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("c", [2.0, -3.0])
    def test_verdicts_unchanged(self, c):
        entry = catalog.builtin("schwarzschild_tr")
        points = default_points(entry)
        base_report = classify(entry.generator, points)
        scaled_report = classify(entry.generator, points, xi_scale=c)
        for key in base_report.verdicts:
            assert scaled_report.verdicts[key].value == base_report.verdicts[key].value


class TestClassify:
    def test_hyperbolic_plane_verdicts(self):
        report = classify(HYP2.generator, default_points(HYP2))
        assert report.verdicts["degenerate"].value is True
        assert report.verdicts["totally_umbilical"].value is True
        assert report.verdicts["totally_geodesic"].value is False
        assert report.verdicts["minimal"].value is False
        rhos = [a.umbilic_rho for a in report.points]
        assert max(abs(r - 1.0) for r in rhos) < 1e-8

    def test_exterior_chart_verdicts(self):
        report = classify(SCHW.generator, default_points(SCHW))
        assert report.verdicts["degenerate"].value is True
        assert report.verdicts["totally_umbilical"].value is True
        assert report.verdicts["totally_geodesic"].value is False
        assert report.verdicts["minimal"].value is False

    def test_hyperplane_all_true(self):
        entry = catalog.builtin("euclid_hyperplane")
        report = classify(entry.generator, default_points(entry))
        assert report.verdicts["degenerate"].value is True
        assert report.verdicts["totally_geodesic"].value is True
        assert report.verdicts["totally_umbilical"].value is True
        assert report.verdicts["minimal"].value is True

    def test_control_not_degenerate(self):
        entry = catalog.builtin("nonlightlike_control")
        report = classify(entry.generator, default_points(entry))
        assert report.verdicts["degenerate"].value is False
        assert report.verdicts["minimal"].value is None
        for a in report.points:
            assert a.lightlike_defect == pytest.approx(3.0, abs=1e-12)
            assert a.radical_rank == 0

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            classify(HYP2.generator, [])

    def test_failures_mark_indeterminate(self):
        # metric degenerates along x = 0: a third of the grid fails
        chart = CoordinateChart(("x", "y"))
        gen = MongeGenerator(
            "pinched",
            chart,
            MetricField.from_strings(chart, [["x", "0"], ["0", "1"]]),
            parse("y", chart),
            (),
        )
        points = [gen.surface_point((x, y)) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
        report = classify(gen, points)
        assert 0.32 < report.failed_fraction < 0.34
        for verdict in report.verdicts.values():
            assert verdict.value == "indeterminate"
        failed = [a for a in report.points if a.error is not None]
        assert len(failed) == 3

    def test_extreme_metric_recorded_degenerate(self):
        # the determinant gate once overflowed on scale**d and crashed classify
        chart = CoordinateChart(("x", "y"))
        gen = MongeGenerator(
            "extreme",
            chart,
            MetricField.from_strings(chart, [["1e-200", "0"], ["0", "1e200"]]),
            parse("x", chart),
        )
        report = classify(gen, [gen.surface_point((0.5, 0.5))])
        assert report.points[0].error.startswith("metric degenerate")

    def test_infinite_derivative_recorded(self):
        # sqrt(x)*1e300 is finite at x = 1e-100 but its slope overflows
        gen = euclidean(("x", "y"), "sqrt(x)*1e300")
        report = classify(gen, [gen.surface_point((1e-100, 0.5))])
        assert report.points[0].error.startswith("derivatives not finite")

    @pytest.mark.parametrize("scalar, x", [("sqrt(x)", 1e-320), ("sqrt(x)*1e200", 1e-250)])
    def test_sqrt_underflow_recorded(self, scalar, x):
        # the jet's second derivative -0.25 / (r * v) divides by an underflowed 0
        gen = euclidean(("x", "y"), scalar)
        report = classify(gen, [gen.surface_point((x, 0.5))])
        assert report.points[0].error == "float division by zero in subexpression 'sqrt(x)'"

    def test_null_line_fit_not_applicable(self):
        # dF (x) dF - g vanishes on a null curve, so there is no umbilic fit
        chart = CoordinateChart(("x",))
        gen = MongeGenerator(
            "null_line", chart, MetricField.from_strings(chart, [["1"]]), parse("x", chart)
        )
        report = classify(gen, [gen.surface_point((x,)) for x in (-1.0, 0.0, 1.0)])
        assert report.failed_fraction == 0
        assert report.verdicts["degenerate"].value is True
        assert report.verdicts["totally_umbilical"].value is None
        assert report.verdicts["minimal"].value is None
        assert all(a.umbilic_rho is None and a.umbilic_residual is None for a in report.points)

    def test_outside_domain_recorded(self):
        gen = HYP2.generator
        good = gen.surface_point((0.0, 2.0))
        bad = SurfacePoint((0.0, -1.0), 0.0)  # constructed off the domain
        report = classify(gen, [good] * 9 + [bad])
        assert report.points[-1].error == "outside domain"
        assert report.failed_fraction == pytest.approx(0.1)
        assert report.verdicts["degenerate"].value is True

    def test_witnesses_recorded(self):
        report = classify(SCHW.generator, default_points(SCHW))
        v = report.verdicts["totally_geodesic"]
        assert v.value is False
        assert v.witness_index is not None
        assert abs(v.witness_value) > 1e-3

    def test_tolerance_gate(self):
        # with an absurdly loose tolerance the control counts as degenerate
        entry = catalog.builtin("nonlightlike_control")
        report = classify(entry.generator, default_points(entry), Tolerances(10.0))
        assert report.verdicts["degenerate"].value is True


class TestGeneratorImmutable:
    # per-point results are cached by generator identity, so a generator
    # that could change would be answered from stale entries
    def test_scalar_field_frozen(self):
        gen = HYP2.generator
        assert lightlike_defect_at(gen, (0.0, 2.0)) == 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            gen.scalar_field = parse("2*ln(y)", gen.chart)

    def test_parameters_read_only(self):
        gen = SCHW.generator
        with pytest.raises(TypeError):
            gen.chart.parameters["R"] = 2.0
        assert gen.params["R"] == 1.0

    def test_metric_components_frozen(self):
        gen = HYP2.generator
        assert lightlike_defect_at(gen, (0.0, 2.0)) == 0.0
        with pytest.raises(TypeError):
            gen.metric.components[1][1] = parse("4/y^2", gen.chart)
        with pytest.raises(dataclasses.FrozenInstanceError):
            gen.metric.components = ()
        assert lightlike_defect_at(gen, (0.0, 2.0)) == 0.0
