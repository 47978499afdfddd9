"""Acceptance gate: exact-value regressions on the catalog's closed forms
plus the randomized property suites.  Each criterion prints one PASS/FAIL
line (run with ``pytest -s`` to see them).
"""

import math

import numpy as np
import pytest

from mongelight import catalog
from mongelight.exprlang import CoordinateChart, parse, render
from mongelight.mongecore import (
    MongeGenerator,
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
    _point_data,
)
from mongelight.reportio import grid_sample, render_report
from mongelight.semiriemann import MetricField

from _jets import Jet2, constant, evaluate, seed
from _oracles import (
    fd_christoffel,
    fd_covariant_hessian,
    fd_gradient,
    fd_hessian,
    fd_hessian_rich,
    local_scale,
    metric_evaluator,
    random_ast,
    random_box_point,
    random_sign_orthogonal,
    random_smooth_expr,
    sample_admissible,
    scalar_evaluator,
    screen_base_frame,
)

DEGENERATE_NAMES = (
    "hyperbolic2",
    "hyperbolic3",
    "schwarzschild_tr",
    "euclid_hyperplane",
    "euclid_cone",
)


def ambient_derivative(gen, p, i, j):
    """Ambient covariant derivative of e_j along e_i, read from the kernel:
    the plain second partial of F in the x0 slot, Gamma^k_ij in the base."""
    data = _point_data(gen, p.base)
    return np.concatenate(([data.d2F[0, i, j]], data.gamma[0, :, i, j]))


def _entry_points(name):
    entry = catalog.builtin(name)
    return entry, grid_sample(entry.generator, entry.default_samples)


def _report(number, label, ok, detail):
    print(f"criterion {number} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} [{label}]: {detail}"


def test_criterion_1_hyperbolic_plane_regression():
    entry, points = _entry_points("hyperbolic2")
    gen = entry.generator
    worst_defect = worst_hess = worst_rho = worst_res = 0.0
    for sp in points:
        x, y = sp.base
        worst_defect = max(worst_defect, abs(lightlike_defect_at(gen, sp)))
        hess = -second_fundamental_form_at(gen, sp)
        want = -1.0 / (y * y)
        worst_hess = max(worst_hess, abs(hess[0, 0] - want) / abs(want))
        rho, residual = umbilic_fit_at(gen, sp)
        worst_rho = max(worst_rho, abs(rho - 1.0))
        worst_res = max(worst_res, residual)
    report = classify(gen, points)
    verdicts_ok = (
        report.verdicts["degenerate"].value is True
        and report.verdicts["totally_umbilical"].value is True
        and report.verdicts["totally_geodesic"].value is False
        and report.verdicts["minimal"].value is False
    )
    ok = (
        worst_defect < 1e-10
        and worst_hess < 1e-10
        and worst_rho < 1e-8
        and worst_res < 1e-8
        and verdicts_ok
    )
    _report(
        1,
        "hyperbolic-plane regression",
        ok,
        f"defect {worst_defect:.2e}, Hess rel {worst_hess:.2e}, "
        f"rho {worst_rho:.2e}, residual {worst_res:.2e}, verdicts {verdicts_ok}",
    )


def test_criterion_2_exterior_chart_regression():
    entry, points = _entry_points("schwarzschild_tr")
    gen = entry.generator
    R = gen.params["R"]
    assert len(points) == 20
    worst_xi = worst_hess = worst_rho = 0.0
    for sp in points:
        r = sp.base[1]
        xi_hat = normal_and_transversal_at(gen, sp)[0][1:]
        worst_xi = max(worst_xi, abs(xi_hat[1] - math.sqrt((r - R) / r)))
        hess = -second_fundamental_form_at(gen, sp)
        want_hess = -R * math.sqrt(r - R) / (2.0 * r**2.5)
        worst_hess = max(worst_hess, abs(hess[0, 0] - want_hess) / abs(want_hess))
        rho, _ = umbilic_fit_at(gen, sp)
        want_rho = -R / (2.0 * r**1.5 * math.sqrt(r - R))
        worst_rho = max(worst_rho, abs(rho - want_rho) / abs(want_rho))
    report = classify(gen, points)
    verdicts_ok = (
        report.verdicts["degenerate"].value is True
        and report.verdicts["totally_umbilical"].value is True
        and report.verdicts["totally_geodesic"].value is False
        and report.verdicts["minimal"].value is False
    )
    ok = worst_xi < 1e-10 and worst_hess < 1e-9 and worst_rho < 1e-7 and verdicts_ok
    _report(
        2,
        "exterior-chart regression",
        ok,
        f"xi^r {worst_xi:.2e}, Hess_tt rel {worst_hess:.2e}, "
        f"rho rel {worst_rho:.2e}, verdicts {verdicts_ok}",
    )


def test_criterion_3_transversal_certificates():
    worst = 0.0
    for name in DEGENERATE_NAMES:
        entry, points = _entry_points(name)
        gen = entry.generator
        for sp in points:
            gbar = ambient_metric_at(gen, sp)
            xi, nxi = normal_and_transversal_at(gen, sp)
            worst = max(worst, abs(float(xi @ gbar @ nxi) - 1.0))
            worst = max(worst, abs(float(nxi @ gbar @ nxi)))
            screen = screen_frame_at(gen, sp)
            worst = max(worst, float(np.max(np.abs(screen.vectors @ gbar @ nxi))))
    ok = worst < 1e-10
    _report(3, "transversal certificates", ok, f"worst pairing defect {worst:.2e}")


def test_criterion_4_gauss_weingarten_consistency():
    worst_gauss = worst_tangency = worst_cross = 0.0
    for name in DEGENERATE_NAMES:
        entry, points = _entry_points(name)
        gen = entry.generator
        d = gen.dimension
        eval_metric = metric_evaluator(gen.metric, gen.chart)
        f = scalar_evaluator(gen.scalar_field, gen.chart)
        for sp in points:
            gbar = ambient_metric_at(gen, sp)
            xi, nxi = normal_and_transversal_at(gen, sp)
            gamma_fd = fd_christoffel(eval_metric, sp.base)
            d2f_fd = fd_hessian_rich(f, sp.base)
            for i in range(d):
                a_vec, _ = weingarten_at(gen, sp, i)
                scale = local_scale(a_vec, xi, gbar)
                worst_tangency = max(
                    worst_tangency, abs(float(a_vec @ gbar @ xi)) / scale
                )
                for j in range(d):
                    tangent, b = gauss_decompose_at(gen, sp, i, j)
                    ambient = ambient_derivative(gen, sp, i, j)
                    residual = np.max(np.abs(ambient - (tangent + b * nxi)))
                    worst_gauss = max(worst_gauss, residual / local_scale(ambient))
                    ambient_fd = np.concatenate(([d2f_fd[i, j]], gamma_fd[:, i, j]))
                    cross = np.max(np.abs(ambient - ambient_fd))
                    worst_cross = max(worst_cross, cross / local_scale(ambient))
    ok = worst_gauss < 1e-9 and worst_tangency < 1e-9 and worst_cross < 1e-6
    _report(
        4,
        "Gauss-Weingarten consistency",
        ok,
        f"gauss residual {worst_gauss:.2e}, tangency {worst_tangency:.2e}, "
        f"AD-vs-FD {worst_cross:.2e}",
    )


def test_criterion_5_radical_structure():
    ranks_ok = True
    for name in DEGENERATE_NAMES:
        entry, points = _entry_points(name)
        for sp in points:
            _, _, rank = monge_frame_at(entry.generator, sp)
            ranks_ok = ranks_ok and rank == 1
    entry, points = _entry_points("nonlightlike_control")
    worst_defect = 0.0
    for sp in points:
        _, _, rank = monge_frame_at(entry.generator, sp)
        ranks_ok = ranks_ok and rank == 0
        worst_defect = max(
            worst_defect, abs(lightlike_defect_at(entry.generator, sp) - 3.0)
        )
    ok = ranks_ok and worst_defect < 1e-12
    _report(
        5,
        "radical structure",
        ok,
        f"ranks {'ok' if ranks_ok else 'WRONG'}, control defect off by {worst_defect:.2e}",
    )


def test_criterion_6_derived_oracles():
    rng = np.random.default_rng(606)

    # light cone: rho = -1/r against the finite-difference Hessian fit
    entry = catalog.builtin("euclid_cone")
    gen = entry.generator
    f = scalar_evaluator(gen.scalar_field, gen.chart)
    worst_cone = worst_cone_fd = 0.0
    for base in sample_admissible(rng, gen, ((0.5, 3.0), (0.5, 3.0)), 10):
        rho, _ = umbilic_fit_at(gen, base)
        r = math.hypot(*base)
        worst_cone = max(worst_cone, abs(rho + 1.0 / r))
        hess_fd = fd_hessian_rich(f, base)
        grad_fd = fd_gradient(f, base)
        target = np.outer(grad_fd, grad_fd) - np.eye(2)
        rho_fd = float(np.sum(hess_fd * target) / np.sum(target * target))
        worst_cone_fd = max(worst_cone_fd, abs(rho - rho_fd))

    # hyperbolic plane: minimal defect is exactly -1
    entry, points = _entry_points("hyperbolic2")
    worst_hyp = max(
        abs(minimal_defect_at(entry.generator, sp) + 1.0) for sp in points
    )

    # exterior chart: library defect vs an oracle built from the
    # finite-difference covariant Hessian and the explicit frame/sign
    entry, points = _entry_points("schwarzschild_tr")
    gen = entry.generator
    R = gen.params["R"]
    eval_metric = metric_evaluator(gen.metric, gen.chart)
    f = scalar_evaluator(gen.scalar_field, gen.chart)
    worst_schw = worst_schw_closed = 0.0
    for sp in points:
        r = sp.base[1]
        library = minimal_defect_at(gen, sp)
        hess_fd = fd_covariant_hessian(eval_metric, f, sp.base)
        e_hat = np.array([1.0 / math.sqrt(1.0 - R / r), 0.0])  # unit timelike
        oracle = -1.0 * float(e_hat @ hess_fd @ e_hat)
        worst_schw = max(worst_schw, abs(library - oracle))
        closed = R / (2.0 * r**1.5 * math.sqrt(r - R))
        worst_schw_closed = max(worst_schw_closed, abs(library - closed))

    ok = (
        worst_cone < 1e-8
        and worst_cone_fd < 1e-6
        and worst_hyp < 1e-8
        and worst_schw < 1e-8
        and worst_schw_closed < 1e-8
    )
    _report(
        6,
        "derived-oracle checks",
        ok,
        f"cone rho {worst_cone:.2e} (fd {worst_cone_fd:.2e}), "
        f"hyperbolic defect {worst_hyp:.2e}, exterior defect vs oracle "
        f"{worst_schw:.2e} / closed form {worst_schw_closed:.2e}",
    )


def test_criterion_7a_ad_vs_fd_1000():
    rng = np.random.default_rng(71)
    chart = CoordinateChart(("u", "v"))
    worst_grad = worst_hess = 0.0
    for _ in range(1000):
        expr = random_smooth_expr(rng, chart)
        point = random_box_point(rng, 2)
        f = scalar_evaluator(expr, chart)
        jet = evaluate(expr, seed(point), chart.parameters)
        if not isinstance(jet, Jet2):
            jet = constant(jet, 2)
        grad_gap = np.abs(jet.grad - fd_gradient(f, point)) / (1.0 + np.abs(jet.grad))
        hess_gap = np.abs(jet.hess - fd_hessian(f, point)) / (1.0 + np.abs(jet.hess))
        worst_grad = max(worst_grad, float(np.max(grad_gap)))
        worst_hess = max(worst_hess, float(np.max(hess_gap)))
    ok = worst_grad <= 1e-6 and worst_hess <= 1e-4
    _report(
        "7a",
        "AD vs FD, 1000 cases",
        ok,
        f"grad {worst_grad:.2e} (tol 1e-6), hess {worst_hess:.2e} (tol 1e-4)",
    )


def test_criterion_7b_scaling_covariance_1000():
    rng = np.random.default_rng(72)
    entries = [catalog.builtin(name) for name in DEGENERATE_NAMES]
    exact = 0
    for _ in range(1000):
        entry = entries[int(rng.integers(len(entries)))]
        gen = entry.generator
        (base,) = sample_admissible(rng, gen, entry.default_samples.ranges, 1)
        c = float(rng.choice([2.0, -3.0]))
        b1 = second_fundamental_form_at(gen, base)
        bc = second_fundamental_form_at(gen, base, xi_scale=c)
        if np.array_equal(bc, c * b1):
            exact += 1
    ok = exact == 1000
    _report("7b", "B scaling covariance, 1000 cases", ok, f"{exact}/1000 exactly scaled")


def test_criterion_7c_frame_independence_1000():
    rng = np.random.default_rng(73)
    chart = CoordinateChart(("t", "x", "y"))
    boosted = MongeGenerator(
        "minkowski_distance",
        chart,
        MetricField.from_strings(
            chart, [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        ),
        parse("sqrt(x^2 + y^2 - t^2)", chart),
        (),
    )
    cases = []
    for name in ("hyperbolic3", "schwarzschild_tr", "euclid_cone"):
        entry = catalog.builtin(name)
        gen = entry.generator
        for base in sample_admissible(rng, gen, entry.default_samples.ranges, 25):
            cases.append((gen, base))
    while len(cases) < 100:
        t = float(rng.uniform(-0.5, 0.5))
        x, y = rng.uniform(1.0, 2.0, size=2)
        cases.append((boosted, (t, float(x), float(y))))
    worst = 0.0
    checks = 0
    for gen, base in cases:
        frame = screen_base_frame(gen, base)
        hess = -second_fundamental_form_at(gen, base)
        reference = minimal_defect_at(gen, base)
        for _ in range(10):
            q = random_sign_orthogonal(rng, frame.signs)
            mixed = q.T @ frame.vectors
            defect = sum(
                sign * float(v @ hess @ v) for v, sign in zip(mixed, frame.signs)
            )
            worst = max(worst, abs(defect - reference) / (1.0 + abs(reference)))
            checks += 1
    ok = worst < 1e-8 and checks == 1000
    _report(
        "7c",
        "minimal-defect frame independence, 1000 mixes",
        ok,
        f"worst change {worst:.2e} over {checks} mixes",
    )


def test_criterion_7d_parser_round_trip_1000():
    rng = np.random.default_rng(74)
    chart = CoordinateChart(("t", "r"), {"R": 1.0})
    failures = 0
    for _ in range(1000):
        ast = random_ast(rng, chart)
        if parse(render(ast), chart) != ast:
            failures += 1
    ok = failures == 0
    _report("7d", "parser round-trip, 1000 cases", ok, f"{failures} failures")


def test_criterion_7e_report_determinism():
    mismatches = []
    for name, _ in catalog.list_builtins():
        entry = catalog.builtin(name)
        points = grid_sample(entry.generator, entry.default_samples)
        first = render_report(classify(entry.generator, points))
        fresh = catalog.builtin(name)
        points2 = grid_sample(fresh.generator, fresh.default_samples)
        second = render_report(classify(fresh.generator, points2))
        if first != second:
            mismatches.append(name)
    ok = not mismatches
    _report("7e", "report determinism", ok, f"mismatches: {mismatches or 'none'}")


def test_criterion_8_screen_integrability():
    entry, points = _entry_points("hyperbolic3")
    assert len(points) == 27
    worst = max(
        screen_integrability_defect_at(entry.generator, sp) for sp in points
    )
    ok = worst < 1e-6
    _report(8, "screen integrability", ok, f"worst bracket leakage {worst:.2e}")
