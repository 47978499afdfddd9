"""Generator-file loading, grid sampling, and report serialization."""

import collections
import dataclasses
import enum
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongelight import catalog, cli, reportio
from mongelight.exprlang import (
    BinOp,
    CoordinateChart,
    DomainConstraint,
    EvalDomainError,
    Neg,
    Num,
    Param,
    evaluate,
    parse,
    parse_constraint,
)
from mongelight.mongecore import (
    ClassificationReport,
    EmptySampleError,
    MongeGenerator,
    PointAnalysis,
    SurfacePoint,
    Tolerances,
    Verdict,
    classify,
    lightlike_defect_at,
)
from mongelight.reportio import (
    GeneratorFileError,
    GridSpec,
    SampleSet,
    generator_to_dict,
    grid_sample,
    load_generator,
    render_report,
    report_to_dict,
    save_generator,
)
from mongelight.semiriemann import MetricField
from _oracles import lightlike_line_fixtures, random_ast, random_box_point, random_smooth_expr
from test_batch import CASES, SEEDED_SHA256, seeded_case


def hyperbolic2_doc():
    return {
        "name": "hyperbolic2",
        "dimension": 2,
        "coordinates": ["x", "y"],
        "parameters": {},
        "metric": [["1/y^2", "0"], ["0", "1/y^2"]],
        "scalar_field": "ln(y)",
        "domain": ["y > 0"],
        "samples": {"ranges": [[-1.0, 1.0], [0.5, 4.0]], "counts": [5, 5]},
    }


def write(tmp_path, doc, name="gen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestGridSample:
    def test_counts(self):
        entry = catalog.builtin("hyperbolic2")
        points = grid_sample(entry.generator, entry.default_samples)
        assert len(points) == 25

    def test_count_one_takes_lower_endpoint(self):
        entry = catalog.builtin("hyperbolic2")
        spec = GridSpec(((-1.0, 1.0), (0.5, 4.0)), (1, 1))
        points = grid_sample(entry.generator, spec)
        assert len(points) == 1
        assert points[0].base == (-1.0, 0.5)

    def test_domain_filtering(self):
        entry = catalog.builtin("schwarzschild_tr")
        spec = GridSpec(((0.0, 0.0), (0.5, 10.0)), (1, 20))
        points = grid_sample(entry.generator, spec)
        assert all(p.base[1] > 1.0 for p in points)
        assert len(points) == sum(1 for r in np.linspace(0.5, 10.0, 20) if r > 1.0)

    def test_empty_after_filter(self):
        entry = catalog.builtin("schwarzschild_tr")
        spec = GridSpec(((0.0, 0.0), (0.1, 0.9)), (1, 5))
        with pytest.raises(EmptySampleError):
            grid_sample(entry.generator, spec)

    def test_x0_is_field_value(self):
        entry = catalog.builtin("hyperbolic2")
        for p in grid_sample(entry.generator, entry.default_samples):
            assert p.x0 == np.log(p.base[1])

    def test_admissible_point_where_F_fails_keeps_x0_none(self):
        chart = CoordinateChart(("x", "y"))
        metric = MetricField.from_strings(chart, [["1", "0"], ["0", "1"]])
        gen = MongeGenerator("log", chart, metric, parse("ln(x)", chart))
        points = grid_sample(gen, GridSpec(((-1.0, 1.0), (0.5, 0.5)), (3, 1)))
        assert [p.x0 for p in points] == [None, None, 0.0]
        assert SampleSet(points=((-1.0, 0.5),)).materialize(gen) == points[:1]
        with pytest.raises(EvalDomainError):
            gen.surface_point((-1.0, 0.5))
        doc = report_to_dict(classify(gen, points))
        assert [p["error"] for p in doc["points"]] == [
            "ln of non-positive value -1.0 in subexpression 'ln(x)'",
            "ln of non-positive value 0.0 in subexpression 'ln(x)'",
            None,
        ]
        assert [p["x0"] for p in doc["points"]] == [None, None, 0.0]

    def test_explicit_point_the_chart_refuses_records_its_error(self):
        # materialize keeps such a base as given, with x0 None, and classify
        # records why, as it does where F fails
        gen = catalog.builtin("hyperbolic2").generator
        bases = ((0.1,), (0.1, math.nan), (0.1, "a"), (0.1, 1.0))
        points = SampleSet(points=bases).materialize(gen)
        assert [(p.base, p.x0) for p in points[:3]] == [(base, None) for base in bases[:3]]
        assert points[3] == gen.surface_point((0.1, 1.0))
        report = classify(gen, points)
        assert [a.error for a in report.points] == [
            "point has 1 coordinates; chart has 2",
            "point is not finite",
            "point is not a number",
            None,
        ]

        def reject(token):
            raise ValueError(f"non-finite number {token}")

        doc = json.loads(render_report(report), parse_constant=reject)
        assert [p["point"] for p in doc["points"]] == [[0.1], [0.1, None], [0.1, None], [0.1, 1.0]]

    def test_explicit_point_that_is_not_a_sequence_records_its_error(self):
        # a base with no len once raised TypeError from materialize, from
        # classify's gate and from the record writer; the record writes it
        # as null, and a hand-built point with an x0 is refused alike
        gen = catalog.builtin("hyperbolic2").generator
        with pytest.raises(ValueError, match="^point is not a sequence$"):
            gen.surface_point(5)
        points = SampleSet(points=(5, (0.1, 1.0))).materialize(gen)
        assert (points[0].base, points[0].x0) == (5, None)
        assert points[1] == gen.surface_point((0.1, 1.0))
        points.append(SurfacePoint(5, 0.25))
        report = classify(gen, points)
        errors = ["point is not a sequence", None, "point is not a sequence"]
        assert [a.error for a in report.points] == errors

        def reject(token):
            raise ValueError(f"non-finite number {token}")

        doc = json.loads(render_report(report), parse_constant=reject)
        written = [(p["point"], p["x0"]) for p in doc["points"]]
        assert written == [(None, None), ([0.1, 1.0], points[1].x0), (None, 0.25)]
        assert report_to_dict(report)["points"] == doc["points"]

    @pytest.mark.parametrize(
        "lo, hi", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (1e308, -1e308)]
    )
    def test_non_finite_range_refused(self, lo, hi):
        with pytest.raises(ValueError, match="is not finite or its span overflows"):
            GridSpec(((lo, hi),), (3,))

    @pytest.mark.parametrize("bound", [True, False, np.bool_(True), "a", "1.0", None])
    def test_range_bound_that_is_not_a_real_number_refused(self, bound):
        # a bool bound once built, and save_generator wrote a file its loader refused
        for ranges in (((bound, 2.0), (0.5, 2.0)), ((0.0, 2.0), (0.5, bound))):
            with pytest.raises(ValueError, match=r"^range bound .* is not a real number$"):
                GridSpec(ranges, (2, 2))

    @pytest.mark.parametrize("count", [2.5, 3.0, True, False, np.bool_(True), "3", None])
    def test_count_that_is_not_a_whole_int_refused(self, count):
        with pytest.raises(ValueError, match=r"^count .* is not a whole int$"):
            GridSpec(((-1.0, 1.0), (0.5, 4.0)), (count, 3))

    def test_numpy_int_count_accepted(self, tmp_path):
        entry = catalog.builtin("hyperbolic2")
        ranges = ((np.float64(-1.0), np.float64(1.0)), (np.float64(0.5), 4))
        spec = GridSpec(ranges, (np.int64(5), np.int32(5)))
        assert spec == entry.default_samples
        assert all(type(c) is int for c in spec.counts)
        assert all(type(x) is float for bounds in spec.ranges for x in bounds)
        points = grid_sample(entry.generator, entry.default_samples)
        assert grid_sample(entry.generator, spec) == points
        path = tmp_path / "gen.json"
        save_generator(entry.generator, SampleSet(grid=spec), path)
        assert load_generator(path)[1].grid == spec

    def test_axis_count_mismatch(self):
        entry = catalog.builtin("hyperbolic2")
        with pytest.raises(ValueError):
            grid_sample(entry.generator, GridSpec(((-1.0, 1.0),), (5,)))

    @pytest.mark.parametrize(
        "ranges, counts", [(((-1.0, 1.0),), (5, 5)), (((-1.0, 1.0), (0.5, 4.0)), (5,))]
    )
    def test_ranges_and_counts_misaligned(self, ranges, counts):
        with pytest.raises(ValueError, match="^ranges and counts must align$"):
            GridSpec(ranges, counts)

    @pytest.mark.parametrize("kwargs", [{}, {"points": ()}, {"points": []}])
    def test_sample_set_with_no_points_refused(self, kwargs):
        # save_generator wrote "samples": {"points": []}, which load_generator refuses
        message = "^a sample set needs a grid or a nonempty list of points$"
        with pytest.raises(ValueError, match=message):
            SampleSet(**kwargs)

    @pytest.mark.parametrize("points", [((0.1, 1.0),), ()])
    def test_sample_set_with_a_grid_and_points_refused(self, points):
        # the points were dropped: materialize gave the grid's 25 points
        grid = catalog.builtin("hyperbolic2").default_samples
        with pytest.raises(ValueError, match="^a sample set takes a grid or points, not both$"):
            SampleSet(grid=grid, points=points)

    def test_explicit_points_round_trip(self, tmp_path):
        gen = catalog.builtin("hyperbolic2").generator
        samples = SampleSet(points=((0.1, 1.0), (-0.5, 2.0)))
        path = tmp_path / "gen.json"
        save_generator(gen, samples, path)
        loaded = load_generator(path)[1]
        assert loaded == samples and loaded.materialize(gen) == samples.materialize(gen)


class TestLoadGenerator:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path, hyperbolic2_doc())
        gen, samples = load_generator(path)
        assert gen.name == "hyperbolic2"
        assert gen.chart.names == ("x", "y")
        assert samples.grid == GridSpec(((-1.0, 1.0), (0.5, 4.0)), (5, 5))
        # re-export equals the (normalized) original
        doc2 = generator_to_dict(gen, samples)
        path2 = tmp_path / "again.json"
        path2.write_text(json.dumps(doc2))
        gen2, _ = load_generator(path2)
        assert gen2.metric.components == gen.metric.components
        assert gen2.scalar_field == gen.scalar_field

    def test_save_generator(self, tmp_path):
        entry = catalog.builtin("euclid_cone")
        path = tmp_path / "cone.json"
        save_generator(entry.generator, SampleSet(grid=entry.default_samples), path)
        gen, samples = load_generator(path)
        assert gen.name == "euclid_cone"
        assert samples.grid == entry.default_samples

    @staticmethod
    def assert_saved_reports_alike(gen, samples, tmp_path):
        # the loaded generator samples and classifies to the same bytes
        path = tmp_path / "saved.json"
        save_generator(gen, samples, path)
        loaded, loaded_samples = load_generator(path)
        texts = [
            render_report(classify(g, s.materialize(g)))
            for g, s in ((gen, samples), (loaded, loaded_samples))
        ]
        assert texts[1] == texts[0]

    @pytest.mark.parametrize("name", [name for name, _ in catalog.list_builtins()])
    def test_saved_builtin_reports_the_same_bytes(self, name, tmp_path):
        entry = catalog.builtin(name)
        self.assert_saved_reports_alike(
            entry.generator, SampleSet(grid=entry.default_samples), tmp_path
        )

    @pytest.mark.parametrize("d, domain", [(2, False), (2, True), (3, False), (3, True)])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_saved_random_generator_reports_the_same_bytes(self, d, domain, seed, tmp_path):
        # random_smooth_expr entries over a chart with a parameter: a
        # symmetric metric 1 + e^2 on the diagonal (-(1 + e^2) first, for
        # an indefinite one at odd seeds) and 0.1 e off it, F = R e, and a
        # domain e >= its median over the grid
        rng = np.random.default_rng(seed + 10 * d + 100 * domain)
        chart = CoordinateChart(("x", "y", "z")[:d], {"R": 1.5})

        def expr():
            return random_smooth_expr(rng, chart, 2)

        rows = [[Num(0.0)] * d for _ in range(d)]
        for i in range(d):
            rows[i][i] = BinOp("+", Num(1.0), BinOp("^", expr(), Num(2.0)))
            for j in range(i + 1, d):
                rows[i][j] = rows[j][i] = BinOp("*", Num(0.1), expr())
        if seed % 2:
            rows[0][0] = Neg(rows[0][0])
        F = BinOp("*", Param("R"), expr())
        gen = MongeGenerator("random", chart, MetricField(chart, rows), F)
        grid = GridSpec(((0.6, 1.9),) * d, (6,) * d if d == 2 else (4,) * d)
        if domain:
            e = expr()
            median = np.median([evaluate(e, p.base) for p in grid_sample(gen, grid)])
            constraints = (DomainConstraint(e, ">=", Num(float(median))),)
            gen = MongeGenerator("random", chart, gen.metric, F, constraints)
        self.assert_saved_reports_alike(gen, SampleSet(grid=grid), tmp_path)

    def test_negative_num_power_base_survives_save(self, tmp_path):
        # g = diag((-2)^2, 1) makes F = 2x lightlike; read as -(2^2) it would not be
        chart = CoordinateChart(("x", "y"))
        metric = MetricField(
            chart, [[BinOp("^", Num(-2.0), Num(2.0)), Num(0.0)], [Num(0.0), Num(1.0)]]
        )
        gen = MongeGenerator("power_base", chart, metric, parse("2*x", chart))
        path = tmp_path / "gen.json"
        save_generator(gen, SampleSet(points=((0.5, 0.5),)), path)
        loaded, _ = load_generator(path)
        assert lightlike_defect_at(gen, (0.5, 0.5)) == 0.0
        assert lightlike_defect_at(loaded, (0.5, 0.5)) == 0.0

    def test_string_asymmetric_but_pointwise_symmetric(self, tmp_path):
        doc = hyperbolic2_doc()
        doc["metric"] = [["1/y^2", "x - x"], ["0", "1/y^2"]]
        gen, _ = load_generator(write(tmp_path, doc))
        assert gen.name == "hyperbolic2"

    def test_symmetry_violation(self, tmp_path, capsys):
        # an asymmetric metric loads: classify records each point where it
        # is asymmetric, and the CLI writes that report and exits 2
        doc = hyperbolic2_doc()
        doc["metric"] = [["1/y^2", "x"], ["2*x", "1/y^2"]]
        path = write(tmp_path, doc)
        gen, samples = load_generator(path)
        report = classify(gen, samples.materialize(gen))
        for a in report.points:
            if a.point.base[0] == 0.0:
                assert a.error is None
            else:
                assert a.error == f"metric not symmetric at {list(a.point.base)}"
        out = tmp_path / "report.json"
        assert cli.main(["classify", "--generator", str(path), "--out", str(out)]) == 2
        assert out.read_text() == render_report(report)

    def test_unknown_coordinate_named(self, tmp_path):
        doc = hyperbolic2_doc()
        doc["scalar_field"] = "ln(z)"
        with pytest.raises(GeneratorFileError, match="'z'"):
            load_generator(write(tmp_path, doc))

    def test_missing_field_path(self, tmp_path):
        doc = hyperbolic2_doc()
        del doc["metric"]
        with pytest.raises(GeneratorFileError, match="metric"):
            load_generator(write(tmp_path, doc))

    def test_bad_metric_shape(self, tmp_path):
        doc = hyperbolic2_doc()
        doc["metric"] = [["1"]]
        with pytest.raises(GeneratorFileError, match="2x2"):
            load_generator(write(tmp_path, doc))

    def test_bad_expression_location(self, tmp_path):
        doc = hyperbolic2_doc()
        doc["metric"][0][1] = "1 +"
        doc["metric"][1][0] = "1 +"
        with pytest.raises(GeneratorFileError, match=r"metric\[0\]\[1\]"):
            load_generator(write(tmp_path, doc))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(GeneratorFileError, match="invalid JSON"):
            load_generator(path)

    def test_explicit_points(self, tmp_path):
        doc = hyperbolic2_doc()
        doc["samples"] = {"points": [[0.0, 2.0], [1.0, 1.0]]}
        gen, samples = load_generator(write(tmp_path, doc))
        points = samples.materialize(gen)
        assert [p.base for p in points] == [(0.0, 2.0), (1.0, 1.0)]

    def test_dimension_coordinate_mismatch(self, tmp_path):
        doc = hyperbolic2_doc()
        doc["coordinates"] = ["x", "y", "z"]
        with pytest.raises(GeneratorFileError, match="coordinates"):
            load_generator(write(tmp_path, doc))

    @pytest.mark.parametrize("counts", [[1e300, 1], [100000, 100000], [1001, 1000]])
    def test_oversized_grid_refused_before_it_is_built(self, tmp_path, capsys, monkeypatch, counts):
        def refuse(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(reportio, "grid_sample", refuse)
        doc = hyperbolic2_doc()
        doc["samples"]["counts"] = counts
        path = write(tmp_path, doc)
        tracemalloc.start()
        try:
            with pytest.raises(GeneratorFileError) as caught:
                load_generator(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert caught.value.field_path == "samples.counts"
        assert str(caught.value) == "samples.counts: grid has more than 1000000 points"
        out = tmp_path / "report.json"
        assert cli.main(["classify", "--generator", str(path), "--out", str(out)]) == 66
        assert "file error: samples.counts: grid has more than" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_grid_accepted(self, tmp_path):
        doc = hyperbolic2_doc()
        doc["samples"]["counts"] = [1000, 1000]
        _, samples = load_generator(write(tmp_path, doc))
        assert samples.grid.counts == (1000, 1000)

    @pytest.mark.parametrize("lo, hi", [(1e308, -1e308), (-1e308, 1e308), (-1.7e308, 1e308)])
    def test_grid_span_that_overflows_refused(self, tmp_path, capsys, lo, hi):
        # np.linspace would fill such an axis with nan and inf, and warn
        doc = hyperbolic2_doc()
        doc["samples"] = {"ranges": [[lo, hi], [0.5, 4.0]], "counts": [3, 1]}
        path = write(tmp_path, doc)
        with pytest.raises(GeneratorFileError) as caught:
            load_generator(path)
        assert caught.value.field_path == "samples"
        assert str(caught.value) == (
            f"samples: range [{lo!r}, {hi!r}] is not finite or its span overflows"
        )
        out = tmp_path / "report.json"
        assert cli.main(["classify", "--generator", str(path), "--out", str(out)]) == 66
        assert "file error: samples: range [" in capsys.readouterr().err
        assert not out.exists()

    def test_widest_finite_grid_span_accepted(self, tmp_path):
        doc = hyperbolic2_doc()
        doc["samples"] = {"ranges": [[-8e307, 8e307], [0.5, 4.0]], "counts": [3, 1]}
        gen, samples = load_generator(write(tmp_path, doc))
        assert [p.base[0] for p in samples.materialize(gen)] == [-8e307, 0.0, 8e307]

    @pytest.mark.parametrize(
        "parameters, message",
        [
            ({"1a": 1}, "parameters.1a: bad identifier '1a'"),
            ({"R": 1, "x": 1}, "parameters.x: duplicate identifier 'x'"),
            ({"R": "1"}, "parameters.R: expected a number"),
        ],
    )
    def test_parameter_errors_name_the_parameter(self, tmp_path, capsys, parameters, message):
        doc = hyperbolic2_doc()
        doc["parameters"] = parameters
        path = write(tmp_path, doc)
        with pytest.raises(GeneratorFileError) as caught:
            load_generator(path)
        assert str(caught.value) == message
        assert cli.main(["classify", "--generator", str(path)]) == 66
        assert capsys.readouterr().err.startswith(f"mongelight: file error: {message}")

    def test_coordinate_errors_name_the_coordinates(self, tmp_path):
        doc = hyperbolic2_doc()
        doc["coordinates"] = ["x", "x"]
        with pytest.raises(GeneratorFileError, match=r"^coordinates: duplicate identifier 'x'$"):
            load_generator(write(tmp_path, doc))


class TestReports:
    def make_report(self, name="hyperbolic2"):
        entry = catalog.builtin(name)
        points = grid_sample(entry.generator, entry.default_samples)
        return classify(entry.generator, points)

    def test_deterministic_bytes(self):
        for name, _ in catalog.list_builtins():
            first = render_report(self.make_report(name))
            second = render_report(self.make_report(name))
            assert first == second

    # sha256 of each builtin's default-grid report, recorded before the
    # metric inverse was stacked, and again when tau, the tangency
    # certificates and the minimal defect became closed forms of the jets
    # (field-wise, only those numbers moved, by a few ulps, and screen_nxi
    # left the report), and again when normality, xi_null, xi_nxi and
    # nxi_nxi left the report (field-wise, every other field kept its bits),
    # and again for report format 2 (field-wise, second_form_scale holds
    # scales.second_form's bits, and nothing else moved); a change that
    # claims byte-identical reports is checked here
    PINNED = {
        "hyperbolic2": "6bd2094b020f605d1519585c8b7bb46e38bcf5221600428b85056d76f17440f0",
        "hyperbolic3": "1e3e3bbf4dd6babbd1af3cc56592e93e65162bd23978a10c57a6d38929ea9c29",
        "schwarzschild_tr": "a351dfe0d127ccfb45a85ef9be7fecc948d22eac09da09e0217d0764a7bd960a",
        "euclid_hyperplane": "134c93e0f78db50dca28c7bd6d8c97a70e364b00c4d0e57258ff5e74d36c19d0",
        "euclid_cone": "84d35cb9fea1dfef16240349a9126dd38132e0ff44a981c5c01add08ad82d9ee",
        "nonlightlike_control": "3ecdea04d27ace83d085a8843f5d7c8f531d30647f8afdb6f82ae1c6c1180b4d",
    }

    @pytest.mark.parametrize("name", [name for name, _ in catalog.list_builtins()])
    def test_builtin_report_bytes_pinned(self, name):
        digest = hashlib.sha256(render_report(self.make_report(name)).encode()).hexdigest()
        assert digest == self.PINNED[name]

    def test_builtin_reports_independent_of_the_blas_kernel(self):
        # OpenBLAS picks its kernels for the CPU it runs on, and
        # OPENBLAS_CORETYPE forces another, here in one child interpreter
        # only.  Reports once carried xi_null and nxi_nxi, whose bits moved
        # with the kernel; the Prescott kernel still moves a few tau entries
        script = (
            "import json\n"
            "from mongelight import catalog, classify, render_report\n"
            "from mongelight.reportio import grid_sample\n"
            "texts = {}\n"
            "for name, _ in catalog.list_builtins():\n"
            "    entry = catalog.builtin(name)\n"
            "    points = grid_sample(entry.generator, entry.default_samples)\n"
            "    texts[name] = render_report(classify(entry.generator, points))\n"
            "print(json.dumps(texts))\n"
        )
        src = str(Path(reportio.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=path)
        child = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert child.returncode == 0, child.stderr
        texts = json.loads(child.stdout)
        assert list(texts) == [name for name, _ in catalog.list_builtins()]
        for name, text in texts.items():
            assert text == render_report(self.make_report(name)), name

    @pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
    def test_seeded_hyperbolic3_report_independent_of_the_blas_kernel(self, coretype):
        # 512 points drawn from hyperbolic3's default box run the d = 3
        # bracket neighbours, most of which reuse their point's inverse;
        # unlike euclid_cone's default grid, this report does not move under
        # the Prescott kernel either
        entry = catalog.builtin("hyperbolic3")
        lo, hi = np.array(entry.default_samples.ranges).T
        bases = (lo + (hi - lo) * np.random.default_rng(512).random((512, 3))).tolist()
        script = (
            "import json, sys\n"
            "from mongelight import catalog, classify, render_report\n"
            "gen = catalog.builtin('hyperbolic3').generator\n"
            "points = [gen.surface_point(b) for b in json.load(sys.stdin)]\n"
            "sys.stdout.write(render_report(classify(gen, points)))\n"
        )
        src = str(Path(reportio.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=path)
        child = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(bases),
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert child.returncode == 0, child.stderr
        points = [entry.generator.surface_point(b) for b in bases]
        assert child.stdout == render_report(classify(entry.generator, points))

    def test_json_parses_and_has_schema(self):
        doc = json.loads(render_report(self.make_report()))
        assert list(doc)[:2] == ["format", "generator"]
        assert doc["format"] == reportio.REPORT_FORMAT == 2
        assert doc["generator"] == "hyperbolic2"
        assert doc["tolerance"] == 1e-8
        assert len(doc["points"]) == 25
        for record in doc["points"]:
            assert list(record) == [
                "index",
                "point",
                "x0",
                "error",
                "lightlike_defect",
                "is_lightlike",
                "radical_rank",
                "B",
                "umbilic_rho",
                "umbilic_residual",
                "minimal_defect",
                "integrability_defect",
                "tau",
                "second_form_scale",
            ]
        assert set(doc["verdicts"]) == {
            "degenerate",
            "totally_geodesic",
            "totally_umbilical",
            "minimal",
        }

    @pytest.mark.parametrize("xi_scale", [1.0, -2.5])
    @pytest.mark.parametrize("name", [name for name, _ in catalog.list_builtins()])
    def test_verdicts_recomputable_from_report(self, name, xi_scale):
        entry = catalog.builtin(name)
        points = grid_sample(entry.generator, entry.default_samples)
        doc = json.loads(render_report(classify(entry.generator, points, xi_scale=xi_scale)))
        written = {
            verdict: (v["value"], v["witness_index"], float_bits(v["witness_value"]))
            for verdict, v in doc["verdicts"].items()
        }
        assert written == verdicts_from_json(doc)

    def test_error_records_serialized(self, tmp_path):
        from mongelight.exprlang import CoordinateChart, parse
        from mongelight.mongecore import MongeGenerator
        from mongelight.semiriemann import MetricField

        chart = CoordinateChart(("x", "y"))
        gen = MongeGenerator(
            "pinched",
            chart,
            MetricField.from_strings(chart, [["x", "0"], ["0", "1"]]),
            parse("y", chart),
            (),
        )
        points = [gen.surface_point((x, 0.0)) for x in (-1.0, 0.0, 1.0)]
        doc = report_to_dict(classify(gen, points))
        assert doc["points"][1]["error"] is not None
        assert doc["failed_fraction"] == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("scalar", ["exp(x)*1e300", "x^2*1e200"])
    def test_overflowing_values_become_point_errors(self, scalar):
        from mongelight.exprlang import CoordinateChart, parse
        from mongelight.mongecore import MongeGenerator
        from mongelight.semiriemann import MetricField

        chart = CoordinateChart(("x", "y"))
        gen = MongeGenerator(
            "overflow",
            chart,
            MetricField.from_strings(chart, [["1", "0"], ["0", "1"]]),
            parse(scalar, chart),
        )
        points = [gen.surface_point((x, y)) for x in (-1.0, 0.5, 1.0) for y in (-1.0, 1.0)]
        text = render_report(classify(gen, points))

        def reject(token):
            raise ValueError(f"non-finite number {token}")

        doc = json.loads(text, parse_constant=reject)
        assert all(p["error"] is not None for p in doc["points"])


def float_bits(value):
    return None if value is None else (type(value), value.hex())


def verdicts_from_json(doc) -> dict:
    """Each verdict's (value, witness index, witness value's bits),
    recomputed from a format-2 report's JSON alone."""
    tol, xi_scale = doc["tolerance"], doc["xi_scale"]
    good = [p for p in doc["points"] if p["error"] is None]
    if doc["failed_fraction"] > 0.10:
        return dict.fromkeys(doc["verdicts"], ("indeterminate", None, None))

    def aggregate(ratio):
        # not applicable unless every good record carries the number
        values = [(p["index"], ratio(p)) for p in good]
        if any(v is None for _, v in values):
            return None, None, None
        index, worst = max(values, key=lambda item: abs(item[1]))  # the first of equals
        return all(abs(v) < tol for _, v in values), index, float_bits(worst)

    def minimal(p):
        value = p["minimal_defect"]
        return None if value is None else value / p["second_form_scale"]

    return {
        "degenerate": aggregate(
            lambda p: p["lightlike_defect"] / (1.0 + abs(p["lightlike_defect"] + 1.0))
        ),
        "totally_geodesic": aggregate(
            lambda p: max(abs(x) for row in p["B"] for x in row)
            / (abs(xi_scale) * p["second_form_scale"])
        ),
        "totally_umbilical": aggregate(lambda p: p["umbilic_residual"]),
        "minimal": aggregate(minimal),
    }


# json.dumps is render_report's oracle, whose bytes it must keep
def oracle(tree):
    return json.dumps(tree, indent=2, allow_nan=False)


class Label(str):
    pass


Pair = collections.namedtuple("Pair", "x y")

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 123456789.0, 1.7976931348623157e308, 0.1]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# every code point, lone surrogates included, with the characters json
# escapes drawn often
STRINGS = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600"]),
        st.characters(codec=None, exclude_categories=()),
    ),
    max_size=8,
)


def leaves(floats):
    return st.one_of(
        floats,
        floats.map(np.float64),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.booleans(),
        st.none(),
        STRINGS,
    )


def trees(floats):
    def containers(children):
        return st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(STRINGS, children, max_size=4),
            # flat float lists and dicts, the shapes most report leaves sit in
            st.lists(st.one_of(floats, floats.map(np.float64)), min_size=1, max_size=4),
            st.dictionaries(STRINGS, floats, min_size=1, max_size=4),
        )

    return st.recursive(leaves(floats), containers, max_leaves=24)


EDGE_TREES = [
    [],
    {},
    (),
    [[], {}, ()],
    {"": {"": []}},
    [1.5, 2],
    [1.5, True, None, "x"],
    [np.float64(0.1), 1e-7],
    1e16,
    np.float64(-0.0),
    True,
    None,
    "\U0001f600",
    2**80,
    # subclasses are written as their base type, as json writes them
    [enum.IntEnum("Rank", "ONE TWO").TWO, Label("a\tb")],
    collections.OrderedDict(b=[np.float64(1.5)], a=Pair(0.5, -0.0)),
    # json converts int and None keys to strings
    {1: 2.0},
    {None: 1},
]


def assert_reindented(tree):
    # written after a line break and indent, as a record in its list
    assert "[\n  " + reportio._dumps(tree, "\n  ") + "\n]" == oracle([tree])


class TestWriter:
    # _dumps is a json.dumps call; what it adds is the re-indent
    @settings(max_examples=300, deadline=None)
    @given(trees(FLOATS))
    def test_reindents_as_a_list_item(self, tree):
        assert_reindented(tree)

    @pytest.mark.parametrize("tree", EDGE_TREES)
    def test_reindents_edge_trees(self, tree):
        assert_reindented(tree)

    @pytest.mark.parametrize("name", sorted(CASES) + [f"seeded {name}" for name in SEEDED_SHA256])
    def test_pinned_batch_reports(self, name):
        if name.startswith("seeded "):
            gen, points = seeded_case(name.split()[1])
            tol = None
        else:
            gen, points, tol = CASES[name]
        report = classify(gen, points, tol)
        assert render_report(report) == oracle(report_to_dict(report)) + "\n"


def hand_report(rho=0.5, witness=0.0):
    analysis = PointAnalysis(
        index=0,
        point=SurfacePoint((0.5, 1.0), 0.0),
        radical_rank=1,
        B=np.eye(2),
        lightlike_defect=0.0,
        umbilic_rho=rho,
        umbilic_residual=0.0,
        second_form_scale=3.0,
        is_lightlike=True,
    )
    return ClassificationReport(
        generator_name="by hand",
        tolerances=Tolerances(),
        xi_scale=1.0,
        points=[analysis],
        verdicts={"degenerate": Verdict(True, 0, witness)},
        failed_fraction=0.0,
    )


class TestNonFiniteRefused:
    def test_hand_built_reports(self):
        assert json.loads(render_report(hand_report()))["points"][0]["umbilic_rho"] == 0.5
        with pytest.raises(ValueError, match="not JSON compliant: nan"):
            render_report(hand_report(rho=math.nan))
        with pytest.raises(ValueError, match="not JSON compliant: inf"):
            render_report(hand_report(witness=math.inf))

    def test_finite_numbers_whose_sum_overflows(self):
        # finite entries of B may overflow their sum, and the record is
        # still written: by json in a hand-built report, and from the
        # columns in classify's (F = 1.5e308 x y at the origin)
        report = hand_report()
        report.points[0].B = np.array([[1e308, 1e308], [1e308, -1e308]])
        assert math.isinf(sum(report.points[0].B.ravel().tolist()))
        expected = json.dumps(report_to_dict(report), indent=2, allow_nan=False) + "\n"
        assert render_report(report) == expected
        chart = CoordinateChart(("x", "y"))
        metric = MetricField.from_strings(chart, [["1", "0"], ["0", "1"]])
        gen = MongeGenerator("big", chart, metric, parse("1.5e308*x*y", chart))
        live = classify(gen, [gen.surface_point((0.0, 0.0))])
        text = render_report(live)  # before report_to_dict reads the records
        (analysis,) = live.points
        assert analysis.error is None and math.isinf(sum(analysis.B.ravel().tolist()))
        assert text == json.dumps(report_to_dict(live), indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_of_B(self, bad):
        report = hand_report()
        report.points[0].B = np.array([[1.0, bad], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not JSON compliant"):
            render_report(report)

    def test_non_finite_sample_point(self):
        # a NaN or infinite coordinate is that point's error, recorded before
        # the domain check (y = -inf is outside it too), and the report
        # writes the number as null
        gen = catalog.builtin("hyperbolic2").generator
        good = gen.surface_point((0.5, 2.0))
        points = [
            SurfacePoint((math.nan, 1.0), 0.0),
            SurfacePoint((0.0, -math.inf), 0.0),
            SurfacePoint((0.5, 2.0), math.inf),
            good,
            SurfacePoint((math.inf, 1.0), None),
        ]
        report = classify(gen, points)
        errors = [a.error for a in report.points]
        assert errors == ["point is not finite"] * 3 + [None, "point is not finite"]
        doc = json.loads(render_report(report))  # rendering refuses nan and inf
        assert [(p["point"], p["x0"]) for p in doc["points"]] == [
            ([None, 1.0], 0.0),
            ([0.0, None], 0.0),
            ([0.5, 2.0], None),
            ([0.5, 2.0], good.x0),
            ([None, 1.0], None),
        ]
        (alone,) = report_to_dict(classify(gen, [good]))["points"]
        assert doc["points"][3] == dict(alone, index=3)

    def test_int_beyond_the_float_range_is_not_finite(self):
        # 10**400 in the base or as x0 once raised OverflowError from the
        # finiteness gate, and again from the report writer
        gen = catalog.builtin("hyperbolic2").generator
        good = gen.surface_point((0.5, 2.0))
        points = [SurfacePoint((10**400, 1.0), 0.0), SurfacePoint((0.5, 2.0), -(10**400)), good]
        report = classify(gen, points)
        assert [a.error for a in report.points] == ["point is not finite"] * 2 + [None]
        doc = json.loads(render_report(report))
        written = [(p["point"], p["x0"]) for p in doc["points"][:2]]
        assert written == [([None, 1.0], 0.0), ([0.5, 2.0], None)]

    def test_non_number_coordinate_is_an_error(self):
        # a str in the base or as x0 once raised TypeError from classify
        gen = catalog.builtin("hyperbolic2").generator
        good = gen.surface_point((0.5, 2.0))
        points = [SurfacePoint(("0.5", 2.0), 0.0), SurfacePoint((0.5, 2.0), "x0"), good]
        report = classify(gen, points)
        assert [a.error for a in report.points] == ["point is not a number"] * 2 + [None]
        doc = json.loads(render_report(report))
        written = [(p["point"], p["x0"]) for p in doc["points"][:2]]
        assert written == [([None, 2.0], 0.0), ([0.5, 2.0], None)]

    @pytest.mark.parametrize(
        "odd", [10**400, "abc", None, object()], ids=["int", "str", "None", "object"]
    )
    def test_point_record_writes_odd_coordinates_as_null(self, odd):
        # the writer itself once called math.isfinite on them
        failed = PointAnalysis(index=0, point=SurfacePoint((odd, 1.0), odd), error="by hand")
        report = dataclasses.replace(hand_report(), points=[failed])
        (record,) = json.loads(render_report(report))["points"]
        assert (record["point"], record["x0"], record["error"]) == ([None, 1.0], None, "by hand")

    def test_refused_numpy_numbers_are_written_as_python_numbers(self):
        # a refused point's record writes its base as given; NumPy scalars
        # and 0-d arrays there once made json raise TypeError
        gen = catalog.builtin("hyperbolic2").generator
        points = [
            SurfacePoint((np.float32(0.1), np.float32(-1.0)), 0.0),
            SurfacePoint((np.float32(1.0), "a"), None),
            SurfacePoint((0.1, -1.0), np.int64(3)),
            SurfacePoint((np.array(0.5), np.int64(-2)), np.array(1.5)),
            gen.surface_point((0.5, 1.0)),
        ]
        report = classify(gen, points)
        text = render_report(report)
        assert text == oracle(report_to_dict(report)) + "\n"
        written = [(p["point"], p["x0"], p["error"]) for p in json.loads(text)["points"][:4]]
        assert written == [
            ([float(np.float32(0.1)), -1.0], 0.0, "outside domain"),
            ([1.0, None], None, "point is not a number"),
            ([0.1, -1.0], 3, "outside domain"),
            ([0.5, -2], 1.5, "outside domain"),
        ]
        assert '"x0": 3,' in text and "-2\n" in text  # an int stays an int

    def test_cli_writes_no_report(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(hyperbolic2_doc()))
        out = tmp_path / "report.json"
        monkeypatch.setattr(cli, "classify", lambda *args: hand_report(rho=math.nan))
        assert cli.main(["classify", "--generator", str(path), "--out", str(out)]) == 1
        assert "ValueError" in capsys.readouterr().err
        assert not out.exists()


# hand-built reports, which json writes: they vary every leaf type and
# array shape a record may hold, several shapes to a report
def numbers(floats):
    return st.one_of(floats, floats.map(np.float64), st.integers(-(2**70), 2**70))


@st.composite
def point_analyses(draw, index, floats):
    d = draw(st.integers(1, 4))

    def maybe(strategy):
        return draw(st.one_of(st.none(), strategy))

    def array(shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(floats, min_size=size, max_size=size))).reshape(shape)

    return PointAnalysis(
        index=index,
        point=SurfacePoint(tuple(draw(st.lists(floats, min_size=d, max_size=d))), maybe(floats)),
        error=draw(st.one_of(st.none(), st.none(), STRINGS)),
        radical_rank=maybe(st.integers(0, d)),
        B=maybe(st.sampled_from([(d, d), (d * d,)]).map(array)),
        lightlike_defect=maybe(numbers(floats)),
        umbilic_rho=maybe(numbers(floats)),
        umbilic_residual=maybe(numbers(floats)),
        minimal_defect=maybe(numbers(floats)),
        integrability_defect=maybe(numbers(floats)),
        tau=maybe(st.sampled_from([(d,), (d, 1)]).map(array)),
        second_form_scale=maybe(numbers(floats)),
        is_lightlike=maybe(st.booleans()),
    )


@st.composite
def reports(draw, floats):
    count = draw(st.integers(1, 6))
    points = [draw(point_analyses(k, floats)) for k in range(count)]
    # repeat a record, so that two records share a shape
    points += [draw(st.sampled_from(points))]
    verdicts = draw(
        st.dictionaries(
            STRINGS,
            st.builds(Verdict, st.one_of(st.booleans(), st.none()), st.integers(0, 9), floats),
            max_size=2,
        )
    )
    return ClassificationReport(
        generator_name=draw(STRINGS),
        tolerances=Tolerances(),
        xi_scale=draw(floats),
        points=points,
        verdicts=verdicts,
        failed_fraction=draw(floats),
    )


class TestTemplates:
    @settings(max_examples=100, deadline=None)
    @given(reports(FLOATS))
    def test_matches_json_dumps(self, report):
        assert render_report(report) == oracle(report_to_dict(report)) + "\n"

    @settings(max_examples=100, deadline=None)
    @given(reports(st.one_of(FLOATS, FLOATS, NON_FINITE)))
    def test_refuses_what_json_refuses(self, report):
        try:
            want = oracle(report_to_dict(report))
        except ValueError as exc:  # the first non-finite number, in the same words
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                render_report(report)
        else:
            assert render_report(report) == want + "\n"

    @pytest.mark.parametrize("where", ["umbilic_rho", "B", "second_form_scale"])
    def test_non_finite_after_its_template_was_used(self, where):
        # the first record is finite, the second, of the same shape,
        # holds nan, and a verdict after both holds inf: json names nan
        report = hand_report(witness=math.inf)
        first = report.points[0]
        second = dataclasses.replace(first, index=1)
        report.points = [first, second]
        if where == "B":
            second.B = np.array([[1.0, 0.0], [0.0, math.nan]])
        else:
            setattr(second, where, math.nan)
        message = "^Out of range float values are not JSON compliant: nan$"
        with pytest.raises(ValueError, match=message):
            oracle(report_to_dict(report))
        with pytest.raises(ValueError, match=message):
            render_report(report)

    def test_report_with_no_points(self):
        # only a hand-built report has none: json writes it whole
        report = hand_report()
        report.points = []
        assert render_report(report) == oracle(report_to_dict(report)) + "\n"
        assert json.loads(render_report(report))["points"] == []

    @pytest.mark.parametrize(
        "field, value",
        [("second_form_scale", np.float64(3.0)), ("radical_rank", enum.IntEnum("Rank", "ONE").ONE)],
    )
    def test_subclass_leaf_record_written_by_json(self, field, value):
        # a leaf whose type is not exactly float, int, bool or None is
        # written by json, with its base type's repr: in a hand-built
        # report, and in one of classify's whose records were read
        report = self.alike_records(2)
        setattr(report.points[1], field, value)
        assert render_report(report) == oracle(report_to_dict(report)) + "\n"
        gen = catalog.builtin("hyperbolic2").generator
        live = classify(gen, [gen.surface_point((0.5, 1.0 + k)) for k in range(3)])
        setattr(live.points[1], field, value)
        assert render_report(live) == oracle(report_to_dict(live)) + "\n"

    def test_int_past_the_float_range(self):
        report = hand_report()
        report.points[0].second_form_scale = 10**400
        assert render_report(report) == oracle(report_to_dict(report)) + "\n"

    def test_first_refused_value_in_document_order(self):
        # a record leaf json refuses comes before a verdict's inf
        report = hand_report(witness=math.inf)
        report.points[0].second_form_scale = np.int64(1)
        message = "^Object of type int64 is not JSON serializable$"
        with pytest.raises(TypeError, match=message):
            oracle(report_to_dict(report))
        with pytest.raises(TypeError, match=message):
            render_report(report)

    @staticmethod
    def alike_records(d):
        """A report of three records alike but for their index and
        is_lightlike."""
        points = [
            PointAnalysis(
                index=k,
                point=SurfacePoint(tuple(0.5 + i for i in range(d)), 0.25),
                radical_rank=1,
                B=np.full((d, d), 0.125),
                lightlike_defect=0.0,
                umbilic_rho=0.5,
                umbilic_residual=0.0,
                minimal_defect=1e-17,
                tau=np.arange(d, dtype=float),
                second_form_scale=3.0,
                is_lightlike=k % 2 == 0,
            )
            for k in range(3)
        ]
        return ClassificationReport("by hand", Tolerances(), 1.0, points, {}, 0.0)

    def test_a_render_keeps_no_state(self):
        two = self.alike_records(2)
        fresh = render_report(two)
        assert fresh == oracle(report_to_dict(two)) + "\n"
        render_report(self.alike_records(3))
        assert render_report(two) == fresh

    @pytest.mark.parametrize(
        "field, shapes", [("B", [(2, 2), (4,), (1, 4)]), ("tau", [(2,), (2, 1), (1, 2)])]
    )
    def test_records_alike_but_for_an_array_shape(self, field, shapes):
        report = hand_report()
        first = dataclasses.replace(report.points[0], tau=np.array([0.25, 0.5]))
        values = np.arange(1.0, 1.0 + getattr(first, field).size)
        report.points = [
            dataclasses.replace(first, index=k, **{field: values.reshape(shape)})
            for k, shape in enumerate(shapes)
        ]
        assert render_report(report) == oracle(report_to_dict(report)) + "\n"

    def test_mark_in_a_header_string(self):
        # a header string that holds the placeholder's own text, in a
        # report classify made, whose records are written from its columns
        gen = catalog.builtin("hyperbolic2").generator
        points = [gen.surface_point((0.5, 1.0)), gen.surface_point((-0.5, 2.0))]
        for name in ("hyperbolic2", reportio._MARK, "a" + reportio._MARK + "b"):
            report = classify(gen, points)
            report.generator_name = name
            text = render_report(report)  # before report_to_dict reads the records
            assert text == oracle(report_to_dict(report)) + "\n"


def flat_line(d):
    """F = y*sqrt(1 + x) on x > -1 over d flat spacelike coordinates, as in
    _oracles.lightlike_line_fixtures: lightlike only at x = y = 0."""
    chart = CoordinateChart(("x", "y", "z", "w")[:d])
    rows = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
    return MongeGenerator(
        f"line{d}",
        chart,
        MetricField.from_strings(chart, rows),
        parse("y*sqrt(1 + x)", chart),
        (parse_constraint("x > -1", chart),),
    )


def live_shapes(report) -> set:
    """(is_lightlike, fit, screened, x0 present) of each live record."""
    return {
        (a.is_lightlike, a.umbilic_rho is not None, a.minimal_defect is not None, a.point.x0 is not None)
        for a in report.points
        if a.error is None
    }


class TestColumnWriter:
    # classify's reports, written from their columns, against json's text
    # of report_to_dict; render_report runs first, since report_to_dict
    # reads the records, and a report whose records were read is written
    # by json
    @staticmethod
    def written(gen, points):
        report = classify(gen, points)
        assert report._columns is not None  # no record was read
        text = render_report(report)
        assert text == oracle(report_to_dict(report)) + "\n"
        return report

    @pytest.mark.parametrize("name", ["line2", "line3", "line_txy", "line4"])
    def test_every_shape_with_errors_between(self, name):
        if name == "line4":
            gen, bases = flat_line(4), [(0.0, 0.0, 0.5, -0.5), (0.0, 0.0, -1.0, 2.0)]
        else:
            gen, bases, _ = lightlike_line_fixtures()[name]
        d, x = gen.dimension, gen.chart.names.index("x")
        off = tuple(0.25 * (i + 1) for i in range(d))
        outside = tuple(-2.0 if i == x else 0.0 for i in range(d))
        as_float64 = tuple(map(np.float64, off))
        points = [
            gen.surface_point(bases[0]),
            gen.surface_point(off),
            SurfacePoint(outside, 0.0),  # outside domain
            SurfacePoint(bases[-1], None),
            SurfacePoint(as_float64, np.float64(gen.surface_point(off).x0)),
            SurfacePoint(off[:-1], 0.0),  # one coordinate short
            gen.surface_point((-0.0,) * d),
            SurfacePoint(off, None),
            gen.surface_point(bases[-1]),
        ]
        report = self.written(gen, points)
        errors = [a.index for a in report.points if a.error is not None]
        assert errors == [2, 5]
        # lightlike and not, with and without x0; the screen with d >= 2
        assert live_shapes(report) == {
            (True, True, True, True),
            (True, True, True, False),
            (False, True, False, True),
            (False, True, False, False),
        }
        assert report.points[6].point.base == (-0.0,) * d
        assert all(math.copysign(1.0, v) == -1.0 for v in report.points[6].point.base)

    def test_one_dimensional_chart_carries_no_fit(self):
        chart = CoordinateChart(("x",))
        metric = MetricField.from_strings(chart, [["1"]])
        shapes = set()
        for source in ("x", "x^2"):
            gen = MongeGenerator("line", chart, metric, parse(source, chart), (parse_constraint("x > -1", chart),))
            points = [
                gen.surface_point((0.5,)),
                SurfacePoint((-2.0,), 0.0),
                SurfacePoint((0.25,), None),
                gen.surface_point((-0.0,)),
            ]
            shapes |= live_shapes(self.written(gen, points))
        assert shapes == {
            (True, False, False, True),
            (True, False, False, False),
            (False, False, False, True),
            (False, False, False, False),
        }

    def test_ill_posed_fit_rows(self):
        # dF (x) dF - g vanishes against 1 + max(|g|, |dF (x) dF|) where
        # g = 1e-13 I and dF is as small, lightlike at the origin
        chart = CoordinateChart(("x", "y"))
        metric = MetricField.from_strings(chart, [["1e-13", "0"], ["0", "1e-13"]])
        F = parse("3.1622776601683794e-07*x + 1e-9*x*y", chart)
        gen = MongeGenerator("tiny", chart, metric, F)
        points = [
            gen.surface_point((0.5, 0.25)),
            gen.surface_point((0.0, 0.0)),
            SurfacePoint((-0.0, 0.0), None),
            gen.surface_point((0.5, 0.25)),
        ]
        report = self.written(gen, points)
        assert live_shapes(report) == {
            (False, False, False, True),
            (True, False, True, True),
            (True, False, True, False),
        }


class TestHandOut:
    # a report classify made is written from its columns until its records
    # are first read; from then on json writes it
    @staticmethod
    def report():
        gen = catalog.builtin("hyperbolic3").generator
        bases = [(0.5, -0.25, 1.0), (0.0, 0.0, -1.0), (-0.5, 0.5, 2.0)]
        return classify(gen, [gen.surface_point(b) if b[2] > 0 else SurfacePoint(b, 0.0) for b in bases])

    def test_reading_the_records_keeps_the_bytes(self):
        report = self.report()
        first = render_report(report)
        points = report.points
        assert report.points is points  # built once, on the first read
        assert render_report(report) == first

    def test_an_edit_after_a_read_is_written(self):
        report = self.report()
        render_report(report)
        report.points[0].B = np.full((3, 3), math.nan)
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant: nan$"):
            render_report(report)

    def test_copy_renders_the_same_bytes(self):
        report = self.report()
        first = render_report(report)
        assert render_report(dataclasses.replace(report)) == first

    def test_points_set(self):
        report = self.report()
        report.points = report.points[:1]
        assert len(json.loads(render_report(report))["points"]) == 1
        assert render_report(report) == oracle(report_to_dict(report)) + "\n"


@st.composite
def record_cases(draw):
    """A generator on a chart of d = 1, 2 or 3 coordinates, with a
    symmetric metric (diagonal or not), F and an optional domain constraint
    drawn from random_smooth_expr or random_ast, a tolerance (None, or one
    so large that every point is lightlike), and up to 8 sample points:
    x0 = F(base) or None, np.float32 bases, short bases and non-finite
    coordinates among them.  g and F may be scaled by 1e-12 and 1e-6, which
    keeps g(dF, dF) of order 1 and puts dF (x) dF - g near the umbilic
    fit's floor, so that one report holds posed and ill-posed fits."""
    d = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chart = CoordinateChart(("x", "y", "z")[:d])

    def expr():
        if draw(st.booleans()):
            return random_smooth_expr(rng, chart, 2)
        return random_ast(rng, chart, 2)

    diagonal = draw(st.booleans())
    rows = [[Num(0.0)] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = expr()
        for j in range(i + 1, d):
            if not diagonal:
                rows[i][j] = rows[j][i] = expr()
    constraints = ()
    if draw(st.booleans()):
        constraints = (DomainConstraint(expr(), ">", Num(draw(st.sampled_from([-1.0, 0.0, 1.0])))),)
    F = expr()
    if draw(st.booleans()):
        rows = [[BinOp("*", Num(1e-12), entry) for entry in row] for row in rows]
        F = BinOp("*", Num(1e-6), F)
    gen = MongeGenerator("fuzz", chart, MetricField(chart, rows), F, constraints)
    points = []
    for _ in range(draw(st.sampled_from(range(9)))):
        base = random_box_point(rng, d)
        kind = draw(st.sampled_from(["x0", "none", "float32", "short", "nonfinite"]))
        if kind == "float32":
            base = [np.float32(x) for x in base]
        elif kind == "short":
            base = base[:-1]
        elif kind == "nonfinite":
            base[int(rng.integers(d))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        x0 = None
        if kind != "none":
            try:
                x0 = gen.surface_point(base).x0
            except (ValueError, EvalDomainError):
                x0 = float(rng.uniform(-2.0, 2.0))
        points.append(SurfacePoint(tuple(base), x0))
    return gen, points, draw(st.sampled_from([None, 1e9]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(record_cases())
def test_classify_reports_render_as_json_writes_them(case):
    # every record shape, with errors between live rows: classify is total,
    # render_report writes json's text of the report before and after its
    # records are read
    gen, points, tol = case
    try:
        report = classify(gen, points, tol)
    except EmptySampleError:
        assert not points
        return
    text = render_report(report)  # before report_to_dict reads the records
    assert text == oracle(report_to_dict(report)) + "\n"
    assert len(report.points) == len(points)
    assert render_report(report) == text
