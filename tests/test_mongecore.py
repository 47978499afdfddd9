"""Induced-object and classification tests for the graph-hypersurface core."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongelight import catalog, mongecore
from mongelight.exprlang import (
    BinOp,
    Coord,
    CoordinateChart,
    EvalDomainError,
    Num,
    parse,
    parse_constraint,
)
from mongelight.mongecore import (
    BRACKET_STEP,
    EmptySampleError,
    IllPosedFitError,
    MongeGenerator,
    NotLightlikeWarning,
    ScreenRankError,
    SurfacePoint,
    TangencyError,
    Tolerances,
    Verdict,
    ambient_metric_at,
    classify,
    gauss_decompose_at,
    lightlike_defect_at,
    minimal_defect_at,
    monge_frame_at,
    normal_and_transversal_at,
    screen_frame_at,
    screen_integrability_defect_at,
    second_fundamental_form_at,
    umbilic_fit_at,
    weingarten_at,
    _jets,
    _point_data,
    _screen_fields,
)
from mongelight.reportio import GridSpec, grid_sample, render_report, report_to_dict
from mongelight.semiriemann import DegenerateMetricError, MetricField, metric_jets_at

from _jets import compile_expr as reference_compile
from _jets import seed
from _oracles import (
    fd_christoffel,
    fd_gradient,
    fd_hessian,
    fd_hessian_rich,
    fd_screen_integrability_defect,
    local_scale,
    metric_evaluator,
    random_box_point,
    random_sign_orthogonal,
    random_smooth_expr,
    sample_admissible,
    scalar_evaluator,
    screen_base_frame,
    svd_radical_rank,
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
        assert rank == svd_radical_rank(induced, 1e-8) == 1

    @pytest.mark.parametrize("name", [name for name, _ in catalog.list_builtins()])
    def test_radical_rank_is_the_svd_count(self, name):
        # classify counts the magnitudes of the symmetric Gram matrix's
        # eigenvalues; the definition counts its singular values
        entry = catalog.builtin(name)
        gen = entry.generator
        rng = np.random.default_rng(400)
        bases = sample_admissible(rng, gen, entry.default_samples.ranges, 400)
        induced = mongecore._PointData(gen, np.array(bases)).induced
        points = [gen.surface_point(b) for b in bases]
        for tolerance in (1e-8, 1e-2, 0.3):
            records = classify(gen, points, tolerance).points
            ranks = [a.radical_rank for a in records if a.error is None]
            expected = [
                svd_radical_rank(induced[k], tolerance)
                for k, a in enumerate(records)
                if a.error is None
            ]
            assert len(ranks) > 300 and ranks == expected

    def test_radical_rank_of_a_metric_just_inside_the_symmetry_gate(self):
        # g12 and g21 differ by 1e-13, below the gate's 1e-12 * (1 + max|g|);
        # eigvalsh reads one triangle of the Gram matrix, the SVD both
        chart = CoordinateChart(("x", "y"))
        metric = MetricField.from_strings(chart, [["1", "0.3"], ["0.3 + 1e-13", "2"]])
        for scalar, rank in (("sqrt(0.955)*x", 1), ("x + y", 0)):
            gen = MongeGenerator("skew", chart, metric, parse(scalar, chart))
            points = [gen.surface_point((x, 0.5)) for x in (-1.0, 0.0, 2.0)]
            for a in classify(gen, points).points:
                assert a.error is None
                induced = monge_frame_at(gen, a.point)[1]
                assert induced[1, 0] != induced[0, 1]
                assert a.radical_rank == svd_radical_rank(induced, 1e-8) == rank


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
        frame = screen_base_frame(gen, sp)
        assert np.allclose(np.abs(frame.vectors), [[2.0, 0.0]], atol=1e-14)
        assert frame.signs == (1,)
        assert minimal_defect_at(gen, sp) == pytest.approx(-1.0, abs=1e-12)

    def test_exterior_chart(self):
        gen = SCHW.generator
        sp = gen.surface_point((0.0, 2.0))
        frame = screen_base_frame(gen, sp)
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
        with pytest.raises(ScreenRankError, match="^screen needs chart dimension >= 2$"):
            screen_frame_at(gen, (0.5,))
        # dF (x) dF - g vanishes on a null line
        with pytest.raises(IllPosedFitError, match=r"^dF \(x\) dF - g vanishes; cannot fit rho$"):
            umbilic_fit_at(gen, (0.5,))
        with pytest.raises(ScreenRankError, match="^screen needs chart dimension >= 2$"):
            minimal_defect_at(gen, (0.5,))
        with pytest.raises(ScreenRankError, match="^screen needs chart dimension >= 2$"):
            screen_integrability_defect_at(gen, (0.5,))

    def test_frame_independence_rotations(self):
        # random sign-orthogonal mixes leave the defect unchanged
        rng = np.random.default_rng(1009)
        for name in ("hyperbolic3", "euclid_cone", "schwarzschild_tr"):
            entry = catalog.builtin(name)
            gen = entry.generator
            for base in sample_admissible(rng, gen, entry.default_samples.ranges, 10):
                frame = screen_base_frame(gen, base)
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
        frame = screen_base_frame(gen, base)
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


class TestLiftedScreen:
    """The screen frame is the lift (0, v) of the g-orthonormal frame of ker dF."""

    @staticmethod
    def distance_generator(rows, radicand):
        # F = sqrt(p^T g p) has g(grad F, grad F) = 1 wherever the radicand is > 0
        chart = CoordinateChart(("x", "y", "z"))
        return MongeGenerator(
            "distance",
            chart,
            MetricField.from_strings(chart, rows),
            parse(f"sqrt({radicand})", chart),
            (parse_constraint(f"{radicand} > 0", chart),),
        )

    CASES = {
        "non_orthogonal": (
            [["2", "1", "0"], ["1", "2", "0"], ["0", "0", "1"]],
            "2*x^2 + 2*x*y + 2*y^2 + z^2",
            [(1, 1)],
        ),
        "indefinite": (
            [["-1", "0.5", "0"], ["0.5", "1", "0"], ["0", "0", "1"]],
            "-x^2 + x*y + y^2 + z^2",
            [(-1, 1)],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_frame_properties_and_span(self, case):
        rows, radicand, allowed_signs = self.CASES[case]
        gen = self.distance_generator(rows, radicand)
        rng = np.random.default_rng(404)
        for base in sample_admissible(rng, gen, ((-2.0, 2.0),) * 3, 20):
            screen = screen_frame_at(gen, base)
            assert tuple(sorted(screen.signs)) in allowed_signs
            W = screen.vectors
            assert W.shape == (2, 4)
            assert not W[:, 0].any()  # zero x0 slot
            data = _point_data(gen, base)
            gbar = ambient_metric_at(gen, base)
            xi, nxi = normal_and_transversal_at(gen, base)
            scale = local_scale(gbar, W, xi)
            assert np.max(np.abs(W @ gbar @ W.T - np.diag(screen.signs))) < 1e-10 * scale
            assert np.max(np.abs(W @ gbar @ xi)) < 1e-10 * scale
            assert np.max(np.abs(W @ gbar @ nxi)) < 1e-10 * scale
            # every screen field s_i = (0, delta_i - dF_i xi_hat) lies in the span of W
            fields = _screen_fields(data.dF[0], data.xi_hat[0])
            for s in np.hstack([np.zeros((len(fields), 1)), fields]):
                residual = s - sum(
                    sign * float(s @ gbar @ w) * w for w, sign in zip(W, screen.signs)
                )
                assert np.max(np.abs(residual)) < 1e-10 * local_scale(gbar, s, W)

    def test_off_locus_points_rejected(self):
        entry = catalog.builtin("nonlightlike_control")
        for sp in default_points(entry):
            with pytest.raises(ScreenRankError, match="rank d; expected d-1"):
                screen_frame_at(entry.generator, sp)

    @staticmethod
    def assert_frame(gen, base, signs):
        screen = screen_frame_at(gen, base)
        assert sorted(screen.signs) == signs
        W, gbar = screen.vectors, ambient_metric_at(gen, base)
        gram = W @ gbar @ W.T
        assert np.max(np.abs(gram - np.diag(screen.signs))) < 1e-12 * local_scale(gbar, W)

    def test_null_kernel_basis_gives_a_frame(self):
        # g makes both eliminated kernel vectors (-1/2, 1, 0), (-1/2, 0, 1) of
        # dF = (1, 1/2, 1/2) null, yet xi_hat = (1, 0, 0) has g(xi_hat, xi_hat)
        # = 1, so g on ker dF is non-degenerate: eigenvalues -1 and 1
        chart = CoordinateChart(("x", "y", "z"))
        rows = [["1", "0.5", "0.5"], ["0.5", "0.25", "1.25"], ["0.5", "1.25", "0.25"]]
        gen = MongeGenerator(
            "null_kernel",
            chart,
            MetricField.from_strings(chart, rows),
            parse("x + 0.5*y + 0.5*z", chart),
        )
        base = (0.1, 0.2, 0.3)
        assert lightlike_defect_at(gen, base) == pytest.approx(0.0, abs=1e-15)
        self.assert_frame(gen, base, [-1, 1])
        # Hess F = 0: the surface is totally geodesic, so minimal
        assert minimal_defect_at(gen, base) == 0.0

    def test_null_pair_in_kernel_gives_a_frame(self):
        # dF = (1, 0, 0, 0) eliminates to the kernel basis e_y, e_z, e_w; g is 1
        # on e_y and pairs e_z with e_w, both null: signature (+, +, -)
        chart = CoordinateChart(("x", "y", "z", "w"))
        rows = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "1"]]
        rows.append(["0", "0", "1", "0"])
        gen = MongeGenerator(
            "null_pair", chart, MetricField.from_strings(chart, rows), parse("x", chart)
        )
        base = (0.1, 0.2, 0.3, 0.4)
        self.assert_frame(gen, base, [-1, 1, 1])
        assert minimal_defect_at(gen, base) == 0.0

    def test_null_xi_hat_is_rank_deficient(self):
        # off the lightlike locus xi_hat may be g-null, and then so is ker dF:
        # g = [[0, 1], [1, 0]] and F = x give xi_hat = e_y = ker dF, and the
        # frame and the minimal defect are refused by the same gate
        chart = CoordinateChart(("x", "y"))
        gen = MongeGenerator(
            "null_xi_hat",
            chart,
            MetricField.from_strings(chart, [["0", "1"], ["1", "0"]]),
            parse("x", chart),
        )
        base = (0.1, 0.2)
        assert lightlike_defect_at(gen, base) == -1.0
        message = (
            "^screen projection rank deficient: "
            r"\|g\(dF, dF\)\| <= 1e-10 \* max\|dF\| \* max\|xi_hat\|$"
        )
        with pytest.raises(ScreenRankError, match=message):
            screen_frame_at(gen, base, tolerance=5.0)
        with pytest.raises(ScreenRankError, match=message):
            minimal_defect_at(gen, base)

    def test_nearly_null_kernel_gives_a_frame(self):
        # g = [[0, 1], [1, 1.5e-10]] and F = x: q = g(dF, dF) = -1.5e-10 clears
        # the gate's floor 1e-10 * max|dF| * max|xi_hat| = 1e-10, and g on
        # ker dF = span e_y is 1.5e-10, small but not degenerate
        chart = CoordinateChart(("x", "y"))
        rows = [["0", "1"], ["1", "1.5e-10"]]
        gen = MongeGenerator(
            "nearly_null", chart, MetricField.from_strings(chart, rows), parse("x", chart)
        )
        base = (0.1, 0.2)
        frame = screen_base_frame(gen, base, tolerance=2.0)
        assert frame.signs == (1,)
        (v,) = frame.vectors
        assert abs(1.5e-10 * v[1] ** 2 - 1.0) < 1e-12  # g(v, v) = 1
        assert abs(v[0]) < 1e-12 * abs(v[1])  # dF(v) = 0
        assert minimal_defect_at(gen, base) == 0.0

    @pytest.mark.parametrize("scalar", ["1e-9*x", "1e160*x"])
    def test_small_or_overflowing_gradient_is_not_rank_deficient(self, scalar):
        # over flat R^3 g on ker dF is the identity, whether q is 1e-18 or
        # overflows to inf (where the gate's floor overflows too)
        gen = euclidean(("x", "y", "z"), scalar)
        assert minimal_defect_at(gen, (0.1, 0.2, 0.3)) == 0.0

    @pytest.mark.parametrize("f_scale, g_scale", [(1e-9, 1.0), (1.0, 1e-4), (1e6, 1e8)])
    def test_gate_ignores_rescaling(self, f_scale, g_scale):
        # c F over s g moves q by c^2 / s and the floor by the same factor
        g = g_scale * np.array([[0.0, 1.0], [1.0, 1.5e-10]])
        nearly_null = constant_generator(g, (f_scale, 0.0))
        assert minimal_defect_at(nearly_null, (0.1, 0.2)) == 0.0
        null = constant_generator(g_scale * np.array([[0.0, 1.0], [1.0, 0.0]]), (f_scale, 0.0))
        with pytest.raises(ScreenRankError, match="^screen projection rank deficient: "):
            minimal_defect_at(null, (0.1, 0.2))


def constant_generator(g, dF):
    """F = dF . p over the constant metric g, every number written exactly."""
    names = "pqrst"[: len(dF)]
    chart = CoordinateChart(tuple(names))
    rows = [[repr(float(x)) for x in row] for row in g]
    scalar = " + ".join(f"({float(c)!r})*{name}" for c, name in zip(dF, names))
    metric = MetricField.from_strings(chart, rows)
    return MongeGenerator("constant", chart, metric, parse(scalar, chart))


class TestSylvester:
    """The screen frame of a lightlike point has the signature of g less one
    +, since ker dF is the g-orthogonal complement of the unit spacelike
    xi_hat (Sylvester's law of inertia); no basis of ker dF can hide it."""

    @staticmethod
    def random_lightlike(rng, d):
        """A symmetric g of mixed signature and a dF with g(xi_hat, xi_hat) = 1."""
        rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
        signs = np.array([1.0, -1.0, *rng.choice([-1.0, 1.0], d - 2)])
        eigenvalues = rng.uniform(0.5, 2.0, d) * signs
        g = (rotation * eigenvalues) @ rotation.T
        g = 0.5 * (g + g.T)
        while True:
            u = rng.normal(size=d)
            q = u @ np.linalg.solve(g, u)
            if q > 0.1:
                return g, u / np.sqrt(q)

    @staticmethod
    def null_elimination(rng, d):
        """g and dF as above, with every vector b_j of the elimination basis
        of ker dF g-null: g(b_i, b_j) = K_ij with a zero diagonal (K is
        non-singular), g(w, b_j) = 0 and g(w, w) = 1 for w = e_pivot / dF_pivot,
        which makes w = xi_hat.  Returns g, dF and the b_j."""
        dF = rng.uniform(-1.0, 1.0, d)
        pivot = rng.integers(d)
        dF[pivot] = rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 2.0)  # the largest entry
        others = [j for j in range(d) if j != pivot]
        rows = np.eye(d)[others + [pivot]]  # b_j, then w
        rows[:-1, pivot] = -dF[others] / dF[pivot]
        rows[-1] /= dF[pivot]
        entries = rng.choice([-1.0, 1.0], (d - 1, d - 1)) * rng.uniform(0.5, 2.0, (d - 1, d - 1))
        upper = np.triu(entries, 1)
        gram = np.eye(d)
        gram[:-1, :-1] = upper + upper.T
        inverse = np.linalg.inv(rows)  # rows g rows^T = gram
        g = inverse @ gram @ inverse.T
        return 0.5 * (g + g.T), dF, rows[:-1]

    @staticmethod
    def check(g, dF):
        gen = constant_generator(g, dF)
        base = (0.1, 0.2, 0.3, 0.4, 0.5)[: len(dF)]
        assert abs(_point_data(gen, base).norm2[0] - 1.0) < 1e-12
        frame = screen_base_frame(gen, base)
        v, signs = frame.vectors, np.array(frame.signs)
        scale = local_scale(g) * local_scale(v) ** 2
        assert np.max(np.abs(v @ g @ v.T - np.diag(signs))) < 1e-12 * scale
        assert np.max(np.abs(v @ dF)) < 1e-12 * local_scale(dF) * local_scale(v)
        eigenvalues = np.linalg.eigvalsh(g)
        assert (signs < 0).sum() == (eigenvalues < 0).sum()
        assert (signs > 0).sum() == (eigenvalues > 0).sum() - 1

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_random_metrics(self, d):
        rng = np.random.default_rng(1500 + d)
        for _ in range(25):
            self.check(*self.random_lightlike(rng, d))

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_null_elimination_bases(self, d):
        rng = np.random.default_rng(1510 + d)
        for _ in range(25):
            g, dF, basis = self.null_elimination(rng, d)
            nulls = np.einsum("ij,jk,ik->i", basis, g, basis)
            assert np.max(np.abs(nulls)) < 1e-12 * local_scale(g, basis) ** 2
            self.check(g, dF)


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

    def test_result_is_a_fresh_array(self):
        # A_N e_i was once a view into the point's cached result, so a
        # caller's write changed what the next call returned
        gen, base = catalog.builtin("hyperbolic3").generator, (0.1, 0.2, 2.0)
        first, _ = weingarten_at(gen, base, 0)
        want = first.copy()
        first[:] = 7.0
        assert weingarten_at(gen, base, 0)[0].tobytes() == want.tobytes()

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

    def test_two_dimensional_convention_checks_the_point(self):
        # the convention holds only where the point's geometry exists
        with pytest.raises(EvalDomainError, match="^division by zero in subexpression '1.0/y"):
            screen_integrability_defect_at(HYP2.generator, (0.0, 0.0))

    def test_hyperbolic_three_space(self):
        entry = catalog.builtin("hyperbolic3")
        gen = entry.generator
        defect = screen_integrability_defect_at(gen, (0.0, 0.0, 2.0))
        assert defect < 1e-6

    def test_constant_frame(self):
        gen = euclidean(("x", "y", "z"), "x")
        assert screen_integrability_defect_at(gen, (0.1, 0.2, 0.3)) < 1e-10

    # a position-dependent, non-diagonal metric, positive definite on [0.6, 1.9]^3
    GENERIC_ROWS = [
        ["2 + sin(y)", "0.3*x", "0.1"],
        ["0.3*x", "1 + z^2", "0.2*y"],
        ["0.1", "0.2*y", "3"],
    ]

    @pytest.mark.parametrize("name", ["hyperbolic3", "euclid_cone"])
    def test_neighbour_fields_match_point_data(self, name):
        # finite-difference neighbours skip _point_data; at a base point their
        # screen fields must equal, bit for bit, those built from it
        entry = catalog.builtin(name)
        for sp in default_points(entry, limit=5):
            data = _point_data(entry.generator, sp.base)
            (*_, dF, _, xi_hat), _ = _jets(entry.generator, np.array([sp.base]))
            assert np.array_equal(
                _screen_fields(dF[0], xi_hat[0]), _screen_fields(data.dF[0], data.xi_hat[0])
            )

    @pytest.mark.parametrize("name", ["hyperbolic3", "euclid_cone"])
    def test_closed_form_fields_match_projection(self, name):
        # s_i = e_i - gbar(e_i, N) xi = (0, delta_i - dF_i xi_hat), since
        # gbar(e_i, N) = dF_i: the projection agrees to rounding, x0 slot too
        entry = catalog.builtin(name)
        for sp in default_points(entry, limit=5):
            data = _point_data(entry.generator, sp.base)
            frame, gbar, nxi, xi = data.frame[0], data.gbar[0], data.nxi[0], data.xi[0]
            projected = frame - np.outer(frame @ gbar @ nxi, xi)
            bound = 4e-16 * local_scale(projected)
            closed = _screen_fields(data.dF[0], data.xi_hat[0])
            assert np.max(np.abs(closed - projected[:, 1:])) <= bound
            assert np.max(np.abs(projected[:, 0])) <= bound

    def test_matches_plain_float_oracle(self):
        # nonzero defects: random scalar fields over a non-diagonal metric,
        # against brackets of the projected fields built without jets
        chart = CoordinateChart(("x", "y", "z"))
        metric = MetricField.from_strings(chart, self.GENERIC_ROWS)
        rng = np.random.default_rng(2024)
        largest = 0.0
        for k in range(24):
            scalar = random_smooth_expr(rng, chart)
            gen = MongeGenerator(f"random{k}", chart, metric, scalar)
            base = random_box_point(rng, 3)
            oracle = fd_screen_integrability_defect(
                metric_evaluator(metric, chart), scalar_evaluator(scalar, chart), base
            )
            defect = screen_integrability_defect_at(gen, base)
            assert abs(defect - oracle) <= 1e-6 * (1.0 + abs(oracle))
            largest = max(largest, oracle)
        assert largest > 1.0  # the comparison covers defects well away from 0

    def test_neighbour_metric_error_names_the_neighbour(self):
        # the +z neighbour of z = 1 - 1e-5 lands on z = 1, where g33 vanishes
        chart = CoordinateChart(("x", "y", "z"))
        rows = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1e4*(z - 1)^2"]]
        gen = MongeGenerator(
            "pinched_z", chart, MetricField.from_strings(chart, rows), parse("x", chart)
        )
        bases = ((0.0, 0.0, 1.0 - 1e-5), (0.0, 0.0, 2.0))
        near, far = classify(gen, [gen.surface_point(b) for b in bases]).points
        assert near.error == "metric degenerate at [0.0, 0.0, 1.0]"
        assert far.error is None and far.integrability_defect == 0.0

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

    @pytest.mark.parametrize(
        "kink, message",
        [
            ("abs(z - 1)", "abs is not differentiable at 0"),
            ("((z - 1)^2)^0.5", "power 0.5 is not twice differentiable at 0"),
        ],
    )
    def test_neighbour_at_a_kink_of_the_metric(self, kink, message):
        # the +z neighbour of z = 1 - BRACKET_STEP lands on the kink z = 1,
        # where g has a value but no partials.  The neighbours evaluate g's
        # values only, so the point gets its bracket; F = x keeps xi_hat =
        # (1, 0, 0) and the screen fields constant, and the defect is 0.
        chart = CoordinateChart(("x", "y", "z"))
        rows = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", f"1 + {kink}"]]
        gen = MongeGenerator(
            "kinked_z", chart, MetricField.from_strings(chart, rows), parse("x", chart)
        )
        base = (0.0, 0.0, 1.0 - BRACKET_STEP)
        assert base[2] + BRACKET_STEP == 1.0
        with pytest.raises(EvalDomainError, match=f"^{re.escape(message)}"):
            metric_jets_at(gen.metric, (0.0, 0.0, 1.0))  # the kink has no dg
        (point,) = classify(gen, [gen.surface_point(base)]).points
        assert point.error is None and point.is_lightlike
        assert point.integrability_defect == 0.0
        assert screen_integrability_defect_at(gen, base) == 0.0

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

    @pytest.mark.parametrize("c", [1e160, -1e-160])
    @pytest.mark.parametrize("name", [name for name, _ in catalog.list_builtins()])
    def test_extreme_scale_keeps_every_point(self, name, c):
        # c^2 (q - 1) and (q - 1) / (4 c^2) overflow at these scales; while
        # reports carried gbar(xi, xi) and gbar(N, N), every point failed and
        # every verdict read "indeterminate"
        entry = catalog.builtin(name)
        points = default_points(entry)
        base_report = classify(entry.generator, points)
        scaled_report = classify(entry.generator, points, xi_scale=c)
        assert [a.error for a in scaled_report.points] == [a.error for a in base_report.points]
        for key, verdict in base_report.verdicts.items():
            assert scaled_report.verdicts[key].value == verdict.value
            assert scaled_report.verdicts[key].witness_index == verdict.witness_index


@pytest.mark.parametrize("stack", ["gbar", "xi", "nxi", "frame"])
def test_classify_builds_no_ambient_stack(monkeypatch, stack):
    # the (d+1)-dimensional stacks serve the public functions only
    def refuse(data):
        raise AssertionError(f"classify read _PointData.{stack}")

    monkeypatch.setattr(mongecore._PointData, stack, property(refuse))
    for name, _ in catalog.list_builtins():
        entry = catalog.builtin(name)
        for c in (1.0, -2.5):
            classify(entry.generator, default_points(entry), xi_scale=c)
    with pytest.raises(AssertionError, match=f"read _PointData.{stack}$"):
        getattr(mongecore._PointData(HYP2.generator, np.array([(0.0, 2.0)])), stack)


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

    @pytest.mark.parametrize(
        "base", [(np.float64(0.0), np.float64(0.5)), (np.float32(0.0), 0.5), (0, 0.5)]
    )
    def test_error_names_the_floats_the_stages_read(self, base):
        # g = diag(x, 1) is singular at x = 0; the message named the base as
        # given: [np.float64(0.0), np.float64(0.5)], [np.float32(0.0), 0.5], [0, 0.5];
        # the record wrote it as given too, which json could not write for
        # np.float32, and wrote [0, 0.5]
        chart = CoordinateChart(("x", "y"))
        metric = MetricField.from_strings(chart, [["x", "0"], ["0", "1"]])
        gen = MongeGenerator("singular", chart, metric, parse("y", chart))
        report = classify(gen, [SurfacePoint(base, 0.5), gen.surface_point((1.0, 0.5))])
        assert report.points[0].error == "metric degenerate at [0.0, 0.5]"
        (record, _) = json.loads(render_report(report))["points"]
        assert [type(x) for x in record["point"]] == [float, float]
        with pytest.raises(DegenerateMetricError, match=re.escape("at [0.0, 0.5]")):
            lightlike_defect_at(gen, base)

    @pytest.mark.parametrize(
        "base, x0",
        [
            ((np.float32(0.1), np.float32(1.0)), np.float32(0.0)),
            ((np.int64(0), np.int64(1)), np.int64(0)),
            ((0, 1), 0),
            ([np.array(0.1), 1.0], 0.0),
        ],
    )
    def test_record_names_the_floats_the_stages_read(self, base, x0):
        # render_report raised TypeError for the NumPy scalars, which the
        # record wrote as given, and the int base was written [0, 1]
        gen = HYP2.generator
        report = classify(gen, [SurfacePoint(base, x0), gen.surface_point((0.5, 2.0))])
        text = render_report(report)
        assert text == json.dumps(report_to_dict(report), indent=2, allow_nan=False) + "\n"
        (record, _) = report_to_dict(report)["points"]
        assert record["error"] is None
        assert [type(x) for x in record["point"]] == [float, float]
        assert (type(record["x0"]), record["x0"]) == (float, 0.0)
        assert record["point"] == [float(x) for x in base] == list(gen.chart.read(base))

    def test_infinite_derivative_named_by_its_floats(self):
        gen = euclidean(("x", "y"), "sqrt(x)*1e300")
        report = classify(gen, [SurfacePoint((np.float64(1e-100), 0.5), 1.0)])
        assert report.points[0].error == "derivatives not finite at [1e-100, 0.5]"

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

    @pytest.mark.parametrize("base", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-8, True])
    def test_senseless_tolerance_refused(self, base):
        # nan and inf reached the report; <= 0 failed every gate; True read as 1.0
        with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
            Tolerances(base)
        with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
            classify(HYP2.generator, default_points(HYP2, limit=2), base)

    def test_integer_tolerance_accepted(self):
        assert Tolerances(1).base == 1.0
        report = classify(HYP2.generator, default_points(HYP2, limit=2), 1)
        assert report.tolerances.base == 1.0

    @pytest.mark.parametrize("scale", [0.0, -0.0, float("nan"), float("inf"), -float("inf")])
    def test_senseless_xi_scale_refused(self, scale):
        with pytest.raises(ValueError, match="xi_scale must be finite and nonzero"):
            classify(HYP2.generator, default_points(HYP2, limit=2), xi_scale=scale)

    def test_int_beyond_the_float_range_refused(self):
        # these once raised OverflowError from the finiteness check
        points = default_points(HYP2, limit=2)
        tolerance = "^tolerance must be a finite number > 0, got an int beyond the float range$"
        with pytest.raises(ValueError, match=tolerance):
            Tolerances(10**400)
        with pytest.raises(ValueError, match=tolerance):
            classify(HYP2.generator, points, tol=10**400)
        scale = "^xi_scale must be finite and nonzero, got an int beyond the float range$"
        for value in (10**400, -(10**400)):
            with pytest.raises(ValueError, match=scale):
                classify(HYP2.generator, points, xi_scale=value)


def verdicts_from_records(report) -> dict:
    """The four verdicts by one pass over the records, as classify took them
    before it read the stacked columns: the reference for its verdicts."""
    tol, xi_scale = report.tolerances.base, report.xi_scale
    good = [a for a in report.points if a.error is None]
    if report.failed_fraction > 0.10:
        return dict.fromkeys(report.verdicts, Verdict("indeterminate"))

    def aggregate(values):
        if not values or len(values) < len(good):
            return Verdict(value=None)
        worst_index, worst = max(values, key=lambda item: abs(item[1]))
        return Verdict(all(abs(v) < tol for _, v in values), worst_index, worst)

    light = [
        (a.index, a.lightlike_defect / (1.0 + abs(a.lightlike_defect + 1.0))) for a in good
    ]
    geo = [
        (a.index, float(np.abs(a.B).max()) / (abs(xi_scale) * a.second_form_scale))
        for a in good
    ]
    return {
        "degenerate": aggregate(light),
        "totally_geodesic": aggregate(geo),
        "totally_umbilical": aggregate(
            [(a.index, a.umbilic_residual) for a in good if a.umbilic_residual is not None]
        ),
        "minimal": aggregate(
            [
                (a.index, a.minimal_defect / a.second_form_scale)
                for a in good
                if a.minimal_defect is not None
            ]
        ),
    }


def verdict_bits(verdict):
    """A verdict with its types, and its witness value's bits (-0.0 is not 0.0)."""
    value = verdict.witness_value
    return (
        verdict.value,
        type(verdict.value),
        verdict.witness_index,
        type(verdict.witness_index),
        None if value is None else (type(value), value.hex()),
    )


class TestVerdictsFromColumns:
    """classify takes its verdicts from the stacked columns; they must be
    the verdicts of a pass over its own records, types and bits included."""

    def check(self, report):
        reference = verdicts_from_records(report)
        assert list(report.verdicts) == list(reference)
        for name, verdict in report.verdicts.items():
            assert verdict_bits(verdict) == verdict_bits(reference[name]), name

    @pytest.mark.parametrize("name", [name for name, _ in catalog.list_builtins()])
    @pytest.mark.parametrize("xi_scale, tol", [(1.0, None), (-2.5, 1e-3), (1e-3, 10.0)])
    def test_builtin_grids(self, name, xi_scale, tol):
        entry = catalog.builtin(name)
        self.check(classify(entry.generator, default_points(entry), tol, xi_scale))

    def test_witness_is_a_record_index_and_ties_take_the_first(self):
        # failed points ahead of the live ones, and every live point twice:
        # the witness is the first of two equal |values|, by record index
        gen = SCHW.generator
        live = default_points(SCHW, limit=12)
        bad = [SurfacePoint((0.0, 0.5), None), SurfacePoint((0.0,), None)]
        report = classify(gen, bad + live + live[::-1] + live)
        assert report.failed_fraction < 0.1
        self.check(report)
        for verdict in report.verdicts.values():
            if verdict.witness_index is not None:
                assert 2 <= verdict.witness_index < 2 + len(live)

    def test_not_applicable_where_some_point_lacks_the_number(self):
        # g(dF, dF) = x^2 + y^2 for F = x*y on flat R^2: only the lightlike
        # points carry a minimal defect
        gen = euclidean(("x", "y"), "x*y")
        bases = [(0.0, 1.0), (0.6, 0.8), (0.5, 0.5), (1.0, 0.0)]
        report = classify(gen, [gen.surface_point(b) for b in bases])
        assert [a.is_lightlike for a in report.points] == [True, True, False, True]
        self.check(report)
        assert report.verdicts["minimal"].value is None
        assert report.verdicts["degenerate"].witness_index == 2


# the public per-point functions, each asked at the point p of hyperbolic2
PER_POINT_QUERIES = [
    lambda gen, p: ambient_metric_at(gen, p),
    lambda gen, p: normal_and_transversal_at(gen, p),
    lambda gen, p: lightlike_defect_at(gen, p),
    lambda gen, p: monge_frame_at(gen, p),
    lambda gen, p: second_fundamental_form_at(gen, p),
    lambda gen, p: umbilic_fit_at(gen, p),
    lambda gen, p: minimal_defect_at(gen, p),
    lambda gen, p: screen_frame_at(gen, p),
    lambda gen, p: gauss_decompose_at(gen, p, 0, 0),
    lambda gen, p: weingarten_at(gen, p, 0),
    lambda gen, p: screen_integrability_defect_at(gen, p),
]

# bases classify records as failed on hyperbolic2, with its error
REFUSED_BASES = [
    ((1.0, 10**400), "point is not finite"),
    ((1.0, float("inf")), "point is not finite"),
    ((float("nan"), 2.0), "point is not finite"),
    ((1.0, "a"), "point is not a number"),
    ((1.0, "2.0"), "point is not a number"),
    ((None, 2.0), "point is not a number"),
    ((1.0,), "point has 1 coordinates; chart has 2"),
    ((1.0, 2.0, "a"), "point has 3 coordinates; chart has 2"),
]


# coordinates of every kind a caller may hand classify: floats, NumPy's
# scalars, ints (beyond 2**53 and beyond the float range too), 0-d arrays,
# and what is not a number
COORDINATES = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(2**53, 2**60),
    st.sampled_from([10**400, -(10**400), "1.0", None]),
    st.floats(allow_nan=False).map(np.array),
)


class TestPointLength:
    """A sample point with the wrong number of coordinates is the first gate:
    a per-point error in classify, a ValueError from the per-point functions."""

    def test_mixed_sample_keeps_the_good_point(self):
        # one coordinate raised IndexError, three a broadcast ValueError
        gen = HYP2.generator
        good = gen.surface_point((0.0, 2.0))
        points = [
            SurfacePoint((0.1,), None),
            SurfacePoint((0.1, 1.0, 2.0), 0.5),
            good,
            SurfacePoint((float("nan"),), 0.0),  # ahead of finiteness
            SurfacePoint((0.0, -1.0, 1.0), None),  # ahead of the domain
        ]
        report = classify(gen, points)
        errors = [a.error for a in report.points]
        one, three = (f"point has {k} coordinates; chart has 2" for k in (1, 3))
        assert errors == [one, three, None, one, three]
        alone = report_to_dict(classify(gen, [good]))["points"][0]
        assert report_to_dict(report)["points"][2] == dict(alone, index=2)
        assert json.loads(render_report(report))["points"][0]["error"] == one

    def test_points_that_are_not_tuples_of_floats_take_the_one_point_rule(self):
        # classify tests the domain of a tuple of floats with a float x0 on
        # the stack; the one-point rule decides every other point, at the
        # floats the chart reads: x - y on ints was 1 at (2**53 + 1, 2**53),
        # which was admitted and then analyzed at the floats (2**53, 2**53)
        gen = euclidean(("x", "y"), "0.6*x + 0.8*y", ("x - y > 0",))
        big = 2**53
        points = [
            SurfacePoint((big + 1, big), 0.0),
            SurfacePoint((float(big + 1), float(big)), 0.0),
            SurfacePoint([2.0, 1.0], 0.0),
            SurfacePoint((np.float32(2.0), 1.0), 0.0),
            SurfacePoint((2.0, 1.0), 0),
            gen.surface_point((2.0, 1.0)),
            SurfacePoint((1.0, 2.0), 0.0),
        ]
        errors = [a.error for a in classify(gen, points).points]
        outside = "outside domain"
        assert errors == [outside, outside, None, None, None, None, outside]
        assert not gen.admissible((big + 1, big))
        for point, error in zip(points, errors):
            assert classify(gen, [point]).points[0].error == error

    def test_stacked_constraint_is_one_mask(self):
        # the stack admits a row where both sides are finite and the relation
        # holds; the one-point rule decides every other row
        gen = euclidean(("x", "y"), "y", ("x^0.5 >= 0", "exp(x) > 0"))
        points = np.array([[0.25, 1.0], [0.0, 1.0], [-1.0, 1.0], [800.0, 1.0]])
        masks = [test(points) for test in gen._stacked_domain]
        assert [m.dtype for m in masks] == [np.dtype(bool)] * 2
        assert masks[0].tolist() == [True, False, False, True]
        assert masks[1].tolist() == [True, True, True, False]
        surface = [SurfacePoint(tuple(p), 1.0) for p in points.tolist()]
        errors = [a.error for a in classify(gen, surface).points]
        assert errors == [None, None, "outside domain", "outside domain"]

    @pytest.mark.parametrize("query", PER_POINT_QUERIES)
    @pytest.mark.parametrize("point", [(0.1,), (0.1, 1.0, 2.0), SurfacePoint((0.1,), 0.0)])
    def test_per_point_functions_raise(self, query, point):
        k = len(point.base if isinstance(point, SurfacePoint) else point)
        with pytest.raises(ValueError, match=re.escape(f"point has {k} coordinates; chart has 2")):
            query(HYP2.generator, point)

    @pytest.mark.parametrize("base", [(0.1,), (0.1, 1.0, 2.0), ()])
    def test_surface_point_raises(self, base):
        # one coordinate raised IndexError; three gave x0 = F of the first two
        message = f"point has {len(base)} coordinates; chart has 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HYP2.generator.surface_point(base)

    @pytest.mark.parametrize("base, message", REFUSED_BASES)
    @pytest.mark.parametrize("method", ["surface_point", "admissible"])
    def test_generator_refuses_a_base_as_classify_does(self, method, base, message):
        # an int beyond the float range raised OverflowError, a str float()'s
        # own ValueError or TypeError, and a short base IndexError in the
        # domain constraint
        gen = HYP2.generator
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(gen, method)(base)
        (record,) = classify(gen, [SurfacePoint(base, None)]).points
        assert record.error == message

    @settings(max_examples=150, deadline=None)
    @given(
        base=st.tuples(COORDINATES, COORDINATES) | st.lists(COORDINATES, max_size=3).map(tuple),
        x0=st.none() | COORDINATES,
    )
    def test_every_entry_point_reads_a_base_as_the_chart_does(self, base, x0):
        # the generator, the per-point functions and classify refuse a base
        # with the chart's message, and a live record names the floats it
        # reads; the domain is tested at those floats
        gen = euclidean(("x", "y"), "0.6*x + 0.8*y", ("x - y > 0",))
        try:
            read, message = gen.chart.read(base), None
        except ValueError as exc:
            read, message = None, str(exc)
        (record,) = classify(gen, [SurfacePoint(base, None)]).points
        for query in (gen.admissible, gen.surface_point, lambda b: lightlike_defect_at(gen, b)):
            try:
                query(base)
            except ValueError as exc:
                assert str(exc) == record.error
            except EvalDomainError:  # F's value overflowed
                assert read is not None
            else:
                assert read is not None
        if message is not None:
            assert record.error == message
        elif not gen.admissible(read):
            assert record.error == "outside domain"
        if record.error is None:
            assert record.point.base == read and all(type(x) is float for x in read)
        report = classify(gen, [SurfacePoint(base, x0), gen.surface_point((2.0, 1.0))])
        record = report.points[0]
        if record.error is None:  # a plain point keeps its own np.float64s
            assert record.point == SurfacePoint(read, None if x0 is None else float(x0))
            text = render_report(report)
            assert text == json.dumps(report_to_dict(report), indent=2, allow_nan=False) + "\n"

    def test_coordinate_the_point_cache_cannot_hash(self):
        # a 0-d array, which classify accepts, is read as its float
        gen = HYP2.generator
        want = lightlike_defect_at(gen, (0.5, 2.0))
        for point in ((np.array(0.5), 2.0), SurfacePoint((np.array(0.5), 2.0), 0.0)):
            assert lightlike_defect_at(gen, point) == want
        with pytest.raises(ValueError, match="^point is not a number$"):
            lightlike_defect_at(gen, ([0.5], 2.0))

    @pytest.mark.parametrize("query", PER_POINT_QUERIES)
    @pytest.mark.parametrize("base, message", REFUSED_BASES)
    def test_per_point_functions_refuse_a_base_as_classify_does(self, query, base, message):
        # float() raised OverflowError for the int beyond its range and its
        # own ValueError for "a", read "2.0" as 2.0, and inf or nan reached
        # the metric's EvalDomainError; the same base, asked again, and as
        # a SurfacePoint's, is refused again
        gen = HYP2.generator
        for point in (base, base, SurfacePoint(base, 0.0)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                query(gen, point)


class TestArgumentChecks:
    """The public functions refuse a senseless tolerance or xi_scale by the
    rule of Tolerances and classify.  At the lightlike point (0, 0, 2) of
    hyperbolic3 a nan tolerance once gave radical rank 0 and a rank-d screen
    error, a negative one a TangencyError, and xi_scale = 0 NaN output."""

    GEN = catalog.builtin("hyperbolic3").generator
    POINT = (0.0, 0.0, 2.0)
    BY_TOLERANCE = {
        "monge_frame_at": lambda gen, p, t: monge_frame_at(gen, p, t),
        "second_fundamental_form_at": lambda gen, p, t: second_fundamental_form_at(
            gen, p, tolerance=t
        ),
        "screen_frame_at": lambda gen, p, t: screen_frame_at(gen, p, t),
        "weingarten_at": lambda gen, p, t: weingarten_at(gen, p, 0, tolerance=t),
        "gauss_decompose_at": lambda gen, p, t: gauss_decompose_at(gen, p, 0, 0, tolerance=t),
    }
    BY_XI_SCALE = {
        "normal_and_transversal_at": lambda gen, p, c: normal_and_transversal_at(gen, p, c),
        "second_fundamental_form_at": lambda gen, p, c: second_fundamental_form_at(gen, p, c),
        "weingarten_at": lambda gen, p, c: weingarten_at(gen, p, 0, xi_scale=c),
        "gauss_decompose_at": lambda gen, p, c: gauss_decompose_at(gen, p, 0, 0, xi_scale=c),
    }

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-8, True])
    @pytest.mark.parametrize("name", sorted(BY_TOLERANCE))
    def test_senseless_tolerance_refused(self, name, value):
        with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
            self.BY_TOLERANCE[name](self.GEN, self.POINT, value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, True])
    @pytest.mark.parametrize("name", sorted(BY_XI_SCALE))
    def test_senseless_xi_scale_refused(self, name, value):
        with pytest.raises(ValueError, match="xi_scale must be finite and nonzero"):
            self.BY_XI_SCALE[name](self.GEN, self.POINT, value)

    @pytest.mark.parametrize("name", sorted(BY_XI_SCALE))
    def test_small_negative_xi_scale_accepted(self, name):
        result = self.BY_XI_SCALE[name](self.GEN, self.POINT, -1e-8)
        arrays = result if isinstance(result, tuple) else (result,)
        assert all(np.isfinite(a).all() for a in arrays)

    def test_numpy_numbers_accepted_alike_as_floats(self):
        # one rule for both arguments: NumPy scalars pass, and come out as float
        assert Tolerances(np.float32(1e-8)).base == float(np.float32(1e-8))
        assert monge_frame_at(self.GEN, self.POINT, np.float32(1e-8))[2] == 1
        report = classify(HYP2.generator, default_points(HYP2, limit=2), xi_scale=np.int64(2))
        assert type(report.xi_scale) is float and report.xi_scale == 2.0
        with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
            Tolerances(np.float64("nan"))

    def test_classify_refuses_bool_xi_scale(self):
        with pytest.raises(ValueError, match="xi_scale must be finite and nonzero"):
            classify(HYP2.generator, default_points(HYP2, limit=2), xi_scale=True)

    def test_sensible_values_still_answer(self):
        assert monge_frame_at(self.GEN, self.POINT, 1e-8)[2] == 1
        assert len(screen_frame_at(self.GEN, self.POINT, 1).signs) == 2

    # a frame index is an int in range(d): -1 once read an empty slice of
    # the Weingarten gates, and gauss_decompose_at wrapped it around
    BY_INDEX = {
        ("weingarten_at", "i"): lambda gen, p, k: weingarten_at(gen, p, k),
        ("gauss_decompose_at", "i"): lambda gen, p, k: gauss_decompose_at(gen, p, k, 0),
        ("gauss_decompose_at", "j"): lambda gen, p, k: gauss_decompose_at(gen, p, 0, k),
    }

    @pytest.mark.parametrize("value", [-1, 3, True, 1.0])
    @pytest.mark.parametrize("name", sorted(BY_INDEX))
    def test_senseless_index_refused(self, name, value):
        pattern = rf"^{name[1]} must be an int in range\(3\), got {value!r}$"
        with pytest.raises(ValueError, match=pattern):
            self.BY_INDEX[name](self.GEN, self.POINT, value)

    @pytest.mark.parametrize("name", sorted(BY_INDEX))
    def test_numpy_index_accepted(self, name):
        result = self.BY_INDEX[name](self.GEN, self.POINT, np.int64(2))
        expected = self.BY_INDEX[name](self.GEN, self.POINT, 2)
        assert np.array_equal(result[0], expected[0]) and result[1] == expected[1]

    def test_index_refused_before_the_tangency_gate(self):
        # off the lightlike locus the gate of e_2 fails; -1 must not skip it
        gen = euclidean(("x", "y"), "x^2 + y^2")
        with pytest.raises(TangencyError, match="^Weingarten tangent part pairs with xi "):
            weingarten_at(gen, (1.0, 1.0), 1)
        with pytest.raises(ValueError, match=r"^i must be an int in range\(2\), got -1$"):
            weingarten_at(gen, (1.0, 1.0), -1)


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


class TestCompiledExpressions:
    """F, the constraints and the metric are compiled once, when a generator
    is built; nothing compiled is shared between generators."""

    @staticmethod
    def signed_zero(zero):
        chart = CoordinateChart(("x", "y"))
        field = BinOp("*", Num(zero), BinOp("^", Coord(1, "y"), Num(2.0)))
        return MongeGenerator(
            "signed", chart, MetricField.from_strings(chart, [["1", "0"], ["0", "1"]]), field
        )

    @staticmethod
    def report(gen):
        points = grid_sample(gen, GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (2, 3)))
        return render_report(classify(gen, points))

    def test_equal_asts_with_different_bits_keep_their_own_results(self):
        # Num(0.0) == Num(-0.0) and both hash alike, but x0 and B differ in sign
        assert self.signed_zero(0.0).scalar_field == self.signed_zero(-0.0).scalar_field
        # keyed by sign, since 0.0 and -0.0 are one dict key
        zeros = {"+": 0.0, "-": -0.0}
        fresh = {sign: self.report(self.signed_zero(zero)) for sign, zero in zeros.items()}
        assert '"x0": -0.0' in fresh["-"] and '"x0": -0.0' not in fresh["+"]
        for order in ("+-", "-+"):
            for sign in order:
                assert self.report(self.signed_zero(zeros[sign])) == fresh[sign]

    def test_replace_recompiles(self):
        gen = HYP2.generator
        other = dataclasses.replace(gen, scalar_field=parse("2*ln(y)", gen.chart))
        assert other.surface_point((0.0, 2.0)).x0 == 2.0 * gen.surface_point((0.0, 2.0)).x0
        assert lightlike_defect_at(other, (0.0, 2.0)) == 3.0
        narrowed = dataclasses.replace(gen, constraints=(parse_constraint("y > 3", gen.chart),))
        assert gen.admissible((0.0, 2.0)) and not narrowed.admissible((0.0, 2.0))

    def test_stacked_jets_match_each_point(self):
        # F's jets run once over the stack; each row equals a stack of one
        entry = catalog.builtin("schwarzschild_tr")
        bases = [sp.base for sp in default_points(entry, limit=6)]
        stacked, failures = _jets(entry.generator, np.array(bases))
        assert failures == {} and stacked[4].shape == (6, 2, 2)
        for k, base in enumerate(bases):
            alone, _ = _jets(entry.generator, np.array([base]))
            for got, want in zip(stacked, alone):
                assert got[k].tobytes() == want[0].tobytes()

    def test_second_order_fallback_pinned(self):
        # a coordinate-dependent exponent in F and in the metric, through
        # the metric's first-order jets and F's stacked jets at the bracket
        # neighbours of the lightlike points x = 0; the sha256 is that of
        # the report before Jet1 and JetStack existed, recorded again when
        # the Gauss certificate became a closed form (field-wise, only
        # gauss_tangency moved, by at most 2.3e-16, and screen_nxi went),
        # when normality, xi_null, xi_nxi and nxi_nxi went, and for report
        # format 2 (field-wise, nothing else moved either time)
        chart = CoordinateChart(("x", "y", "z"))
        metric = MetricField.from_strings(
            chart, [["e^(2*y)", "0", "0"], ["0", "1", "0"], ["0", "0", "z^z"]]
        )
        gen = MongeGenerator(
            "varexp", chart, metric, parse("x*e^y", chart), (parse_constraint("z > 0", chart),)
        )
        points = grid_sample(gen, GridSpec(((-1.0, 1.0), (-0.5, 0.5), (0.5, 1.5)), (3, 3, 3)))
        report = classify(gen, points)
        bracketed = [a for a in report.points if a.integrability_defect is not None]
        assert len(bracketed) == 9 and all(a.point.base[0] == 0.0 for a in bracketed)
        digest = hashlib.sha256(render_report(report).encode()).hexdigest()
        assert digest == "536ecd50218feaa3ca5c4460a2c005c1cb12e3538017a04b3fb5cd8db19d1f36"

    def test_stationary_variable_exponent_needs_a_positive_base(self):
        # y^3 mentions a coordinate, so x^(y^3) takes the exp(y^3 ln x) rule
        # on jets of either order, also at y = 0 where the exponent's lanes
        # vanish; plain floats still give (-2)^0 = 1
        gen = euclidean(("x", "y"), "x^(y^3)")
        compiled = reference_compile(gen.scalar_field)
        message = "power with variable exponent needs a positive base"
        for order in (1, 2):
            with pytest.raises(EvalDomainError, match=message):
                compiled(seed([-2.0, 0.0], order))
        (record,) = classify(gen, [gen.surface_point((-2.0, 0.0))]).points
        assert record.point.x0 == 1.0
        assert record.error.startswith(message) and record.B is None
        f = scalar_evaluator(gen.scalar_field, gen.chart)
        for point in ([2.0, 0.0], [1.5, 0.7]):
            jet = compiled(seed(point))
            assert jet.value == f(point)
            grad, hess = fd_gradient(f, point), fd_hessian(f, point)
            assert np.all(np.abs(jet.grad - grad) <= 1e-6 * (1.0 + np.abs(jet.grad)))
            assert np.all(np.abs(jet.hess - hess) <= 1e-4 * (1.0 + np.abs(jet.hess)))


class TestQuietOverflow:
    """The public functions run under classify's errstate: an intermediate
    overflow gives classify's numbers, not a RuntimeWarning (which the
    tier-1 run turns into an error)."""

    GEN = euclidean(("x", "y"), "sqrt(x)*1e100")
    POINT = (0.25, 0.5)

    def test_public_functions_return_the_classify_record(self):
        (record,) = classify(self.GEN, [self.GEN.surface_point(self.POINT)]).points
        assert record.error is None
        rho, residual = umbilic_fit_at(self.GEN, self.POINT)
        assert (rho, residual) == (record.umbilic_rho, record.umbilic_residual)
        assert np.signbit(rho) and residual == 2e-100
        assert lightlike_defect_at(self.GEN, self.POINT) == record.lightlike_defect
        assert monge_frame_at(self.GEN, self.POINT)[2] == record.radical_rank
        with pytest.warns(NotLightlikeWarning):
            B = second_fundamental_form_at(self.GEN, self.POINT)
        assert B.tobytes() == record.B.tobytes()
