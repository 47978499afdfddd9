"""Command-line driver tests: exit codes, output shape, determinism."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from mongelight import catalog, cli, mongecore
from mongelight.exprlang import render
from mongelight.reportio import SampleSet, save_generator

from _oracles import fd_gradient, local_scale, metric_evaluator, scalar_evaluator


@pytest.fixture
def hyperbolic2_file(tmp_path):
    entry = catalog.builtin("hyperbolic2")
    path = tmp_path / "hyperbolic2.json"
    save_generator(entry.generator, SampleSet(grid=entry.default_samples), path)
    return path


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.main([]) == 64
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 64

    def test_unknown_builtin(self, capsys):
        assert cli.main(["verify", "--builtin", "nope"]) == 64
        err = capsys.readouterr().err
        assert "hyperbolic2" in err  # valid names are listed

    def test_eval_requires_source(self, capsys):
        assert cli.main(["eval", "--point", "0,2"]) == 64

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0


class TestClassifyCommand:
    def test_writes_report(self, hyperbolic2_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(
            ["classify", "--generator", str(hyperbolic2_file), "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["generator"] == "hyperbolic2"
        assert doc["verdicts"]["degenerate"]["value"] is True

    def test_stdout_report(self, hyperbolic2_file, capsys):
        assert cli.main(["classify", "--generator", str(hyperbolic2_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdicts"]["totally_umbilical"]["value"] is True

    def test_missing_file(self, capsys):
        assert cli.main(["classify", "--generator", "missing.json"]) == 66

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        assert cli.main(["classify", "--generator", str(path)]) == 66

    def test_schema_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        assert cli.main(["classify", "--generator", str(path)]) == 66

    @pytest.mark.parametrize(
        "samples, parameters",
        [
            ('{"points": [[Infinity, 0.5]]}', "{}"),
            ('{"points": [[NaN, 0.5]]}', "{}"),
            ('{"points": [[1e400, 0.5]]}', "{}"),
            ('{"points": [["abc", 0.5]]}', "{}"),
            ('{"points": [[true, 0.5]]}', "{}"),
            ('{"ranges": [[-1, 1], [0.5, true]], "counts": [2, 2]}', "{}"),
            ('{"ranges": [[-1, 1], [0.5, Infinity]], "counts": [2, 2]}', "{}"),
            ('{"points": [[0.0, 0.5]]}', '{"R": "2"}'),
            ('{"points": [[0.0, 0.5]]}', '{"R": false}'),
            ('{"points": [[0.0, 0.5]]}', '{"R": -Infinity}'),
            ('{"ranges": [[-1, 1], [0.5, 4]], "counts": [true, 2]}', "{}"),
            ('{"ranges": [[-1, 1], [0.5, 4]], "counts": [2, 2.7]}', "{}"),
            ('{"ranges": [[-1, 1], [0.5, 4]], "counts": ["2", 2]}', "{}"),
        ],
    )
    def test_non_numeric_or_non_finite_number(self, tmp_path, capsys, samples, parameters):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"name": "n", "dimension": 2, "coordinates": ["x", "y"], '
            f'"parameters": {parameters}, "metric": [["1", "0"], ["0", "1"]], '
            f'"scalar_field": "x", "samples": {samples}}}'
        )
        out = tmp_path / "report.json"
        assert cli.main(["classify", "--generator", str(path), "--out", str(out)]) == 66
        assert not out.exists()

    VALID = {
        "name": "n",
        "dimension": 2,
        "coordinates": ["x", "y"],
        "parameters": {},
        "metric": [["1", "0"], ["0", "1"]],
        "scalar_field": "y",
        "domain": ["y > 0"],
        "samples": {"points": [[0, 1], [1, 2]]},
    }

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"metric": [["1", 0], ["0", "1"]]}, "metric[0][1]"),
            ({"metric": [["1e400", "0"], ["0", "1"]]}, "metric[0][0]"),
            ({"samples": {"points": []}}, "samples.points"),
            ({"samples": {"points": [[0, 1], [1]]}}, "samples.points[1]"),
            ({"samples": {"points": [[0, 10**400]]}}, "samples.points[0][1]"),
            ({"samples": {"ranges": [[-1, 1]], "counts": [2, 2]}}, "samples"),
            ({"samples": {"ranges": [[-1, 1], [1, 2]], "counts": [2]}}, "samples"),
            ({"samples": {"ranges": [[-1, 1], [1, 2]], "counts": [0, 2]}}, "samples"),
            (None, "<document>"),
            ({"parameters": []}, "parameters"),
            ({"coordinates": ["x", "1y"]}, "coordinates"),
            ({"domain": "y > 0"}, "domain"),
            ({"domain": [1]}, "domain[0]"),
            ({"domain": ["y"]}, "domain[0]"),
            # no grid point is inside the domain y > 0 (this exited 1)
            ({"samples": {"ranges": [[-1, 1], [-2, -1]], "counts": [2, 2]}}, "samples"),
        ],
    )
    def test_malformed_generator_names_the_field(self, tmp_path, capsys, changes, field):
        # None stands for a document that is a list, not an object
        doc = [self.VALID] if changes is None else {**self.VALID, **changes}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert cli.main(["classify", "--generator", str(path), "--out", str(out)]) == 66
        assert capsys.readouterr().err.startswith(f"mongelight: file error: {field}: ")
        assert not out.exists()

    def test_boolean_dimension(self, tmp_path, capsys):
        # true is not the dimension 1, though isinstance(True, int) holds
        path = tmp_path / "bad.json"
        path.write_text(
            '{"name": "n", "dimension": true, "coordinates": ["x"], "parameters": {}, '
            '"metric": [["1"]], "scalar_field": "x", "samples": {"points": [[0.5]]}}'
        )
        out = tmp_path / "report.json"
        assert cli.main(["classify", "--generator", str(path), "--out", str(out)]) == 66
        assert not out.exists()

    def test_partial_failures_exit_two(self, tmp_path, capsys):
        doc = {
            "name": "pinched",
            "dimension": 2,
            "coordinates": ["x", "y"],
            "parameters": {},
            "metric": [["x", "0"], ["0", "1"]],
            "scalar_field": "y",
            "domain": [],
            "samples": {"ranges": [[-1.0, 1.0], [-1.0, 1.0]], "counts": [3, 3]},
        }
        path = tmp_path / "pinched.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["classify", "--generator", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"]["degenerate"]["value"] == "indeterminate"

    def test_point_where_F_fails_is_recorded(self, tmp_path, capsys):
        # F = ln(y) cannot be evaluated at (0, -1): the run records the point
        # instead of aborting, and one failed point in three exits 2
        doc = {
            "name": "hyperbolic2",
            "dimension": 2,
            "coordinates": ["x", "y"],
            "parameters": {},
            "metric": [["1/y^2", "0"], ["0", "1/y^2"]],
            "scalar_field": "ln(y)",
            "domain": ["y > 0"],
            "samples": {"points": [[0, 2], [0, -1], [0.5, 1]]},
        }
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert cli.main(["classify", "--generator", str(path), "--out", str(out)]) == 2

        def reject(token):
            raise ValueError(f"non-finite number {token}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert [p["error"] for p in report["points"]] == [None, "outside domain", None]
        assert report["points"][1]["point"] == [0.0, -1.0] and report["points"][1]["x0"] is None

    def test_metric_that_fails_outside_the_domain(self, tmp_path, capsys):
        # the metric is asymmetric as written and cannot be evaluated at
        # (0, -1), outside the domain: loading evaluates no metric, and the
        # run records that point instead of aborting
        doc = {
            "name": "lnmix",
            "dimension": 2,
            "coordinates": ["x", "y"],
            "parameters": {},
            "metric": [["1", "ln(y)*0"], ["0*ln(y)", "1"]],
            "scalar_field": "ln(y)",
            "domain": ["y > 0"],
            "samples": {"points": [[0, 2], [0, -1], [0.5, 1]]},
        }
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert cli.main(["classify", "--generator", str(path), "--out", str(out)]) == 2

        def reject(token):
            raise ValueError(f"non-finite number {token}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert [p["error"] for p in report["points"]] == [None, "outside domain", None]
        assert all(p["B"] is not None for p in report["points"][::2])

    def test_deterministic_output(self, hyperbolic2_file, capsys):
        cli.main(["classify", "--generator", str(hyperbolic2_file)])
        first = capsys.readouterr().out
        cli.main(["classify", "--generator", str(hyperbolic2_file)])
        second = capsys.readouterr().out
        assert first == second

    def test_tolerance_env_override(self, hyperbolic2_file, capsys, monkeypatch):
        monkeypatch.setenv("TOLERANCE", "0.5")
        cli.main(["classify", "--generator", str(hyperbolic2_file)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerance"] == 0.5

    def test_tol_flag_beats_env(self, hyperbolic2_file, capsys, monkeypatch):
        monkeypatch.setenv("TOLERANCE", "0.5")
        cli.main(["classify", "--generator", str(hyperbolic2_file), "--tol", "1e-6"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerance"] == 1e-6

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-8", "abc"])
    def test_senseless_tol_is_usage_error(self, hyperbolic2_file, capsys, value):
        assert cli.main(["classify", "--generator", str(hyperbolic2_file), f"--tol={value}"]) == 64
        captured = capsys.readouterr()
        assert f"must be a finite positive number, got {value!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc"])
    @pytest.mark.parametrize("command", ["classify", "verify", "eval"])
    def test_senseless_tolerance_env_is_usage_error(
        self, hyperbolic2_file, capsys, monkeypatch, value, command
    ):
        monkeypatch.setenv("TOLERANCE", value)
        argv = {
            "classify": ["classify", "--generator", str(hyperbolic2_file)],
            "verify": ["verify", "--builtin", "hyperbolic2"],
            "eval": ["eval", "--builtin", "hyperbolic2", "--point", "0,2"],
        }[command]
        assert cli.main(argv) == 64
        err = capsys.readouterr().err
        assert f"(--tol or TOLERANCE) must be a finite positive number, got {value!r}" in err


class TestVerifyCommand:
    @pytest.mark.parametrize("name", [name for name, _ in catalog.list_builtins()])
    def test_all_builtins_pass(self, name, capsys):
        assert cli.main(["verify", "--builtin", name]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "degenerate: PASS" in out

    def test_umbilical_line(self, capsys):
        cli.main(["verify", "--builtin", "hyperbolic2"])
        out = capsys.readouterr().out
        assert "totally_umbilical: PASS" in out
        assert "umbilic_rho: PASS (1 within" in out

    def test_closed_forms_skip_failed_points_and_missing_values(self):
        # a failed point's numbers mean nothing, and a point that carries no
        # value (no umbilic fit, say) has nothing to compare
        entry = catalog.builtin("hyperbolic2")
        points = SampleSet(grid=entry.default_samples).materialize(entry.generator)
        report = mongecore.classify(entry.generator, points)
        failed, missing = report.points[:2]
        failed.error, failed.lightlike_defect, failed.umbilic_rho = "by hand", 1e9, 1e9
        missing.umbilic_rho = None
        checks = {name: (ok, text) for name, ok, text in cli._expected_checks(entry, report, 1e-7)}
        assert checks["lightlike_defect"][0] and checks["umbilic_rho"][0]
        assert checks["umbilic_rho"][1].startswith("1 within 1e-07 (worst ")

    def test_closed_forms_compiled_once_per_run(self, capsys, monkeypatch):
        compiled = []
        real = cli.compile_expr

        def counting(expr, params=None):
            compiled.append(render(expr))
            return real(expr, params)

        monkeypatch.setattr(cli, "compile_expr", counting)
        assert cli.main(["verify", "--builtin", "hyperbolic2"]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert compiled == ["0.0", "1.0", "-1.0"]  # lightlike defect, rho, minimal defect


class TestEvalCommand:
    def test_non_lightlike_point_warns_in_one_line(self, capsys):
        argv = ["eval", "--builtin", "nonlightlike_control", "--point", "0.1,0.2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning that leaves eval fails the run
            assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "mongelight eval: warning: second fundamental form at non-lightlike point"
            " (defect 3.000e+00)\n"
        )
        assert "B = [(-0, -0); (-0, -0)]" in captured.out.splitlines()

    def test_exterior_chart_point(self, capsys):
        rc = cli.main(["eval", "--builtin", "schwarzschild_tr", "--point", "0,2"])
        assert rc == 0
        out = capsys.readouterr().out
        xi_line = next(line for line in out.splitlines() if line.startswith("xi ="))
        assert xi_line == f"xi = (1, 0, {format(math.sqrt(0.5), '.17g')})"
        assert "minimal_defect" in out

    def test_generator_file_source(self, hyperbolic2_file, capsys):
        rc = cli.main(
            ["eval", "--generator", str(hyperbolic2_file), "--point", "0,2", "--show", "xi,B"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "xi = (1, 0, 2)" in out
        assert "B =" in out
        assert "W_1" not in out  # screen not requested

    @pytest.mark.parametrize("tol", ["1e-8", "0.5", "10"])
    def test_lightlike_gate_is_the_library_gate(self, tol, monkeypatch, capsys):
        # eval decides whether to print the screen data by mongecore's gate,
        # the one screen_frame_at and classify use, not by a copy of it
        calls = []

        def gate(defect, tolerance):
            calls.append((defect, tolerance))
            return mongecore._is_lightlike(defect, tolerance)

        monkeypatch.setattr(cli, "_is_lightlike", gate)
        gen = catalog.builtin("nonlightlike_control").generator
        argv = ["eval", "--builtin", gen.name, "--point", "0.5,1", "--tol", tol, "--show", "xi"]
        assert cli.main(argv) == 0
        defect = mongecore.lightlike_defect_at(gen, (0.5, 1.0))
        assert calls == [(defect, float(tol))]
        lightlike = mongecore._is_lightlike(defect, float(tol))
        assert ("minimal_defect" in capsys.readouterr().out) == lightlike
        assert lightlike == (tol == "10")

    @pytest.mark.parametrize(
        "name, point", [("hyperbolic3", "0.3,-0.2,2"), ("schwarzschild_tr", "0.5,3")]
    )
    def test_screen_basis_is_orthonormal_in_ker_dF(self, name, point, capsys):
        # each printed W_i = (0, w_i) has g(w_i, w_j) = sign_i delta_ij and dF(w_i) = 0
        assert cli.main(["eval", "--builtin", name, "--point", point, "--show", "screen"]) == 0
        rows, signs = [], []
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("W_"):
                match = re.fullmatch(r"W_(\d+) = \((.*)\)  sign ([+-]1)", line)
                assert int(match[1]) == len(rows) + 1
                rows.append([float(x) for x in match[2].split(", ")])
                signs.append(int(match[3]))
        gen = catalog.builtin(name).generator
        base = [float(x) for x in point.split(",")]
        W = np.array(rows)
        assert W.shape == (gen.dimension - 1, gen.dimension + 1)
        assert not W[:, 0].any()
        w = W[:, 1:]
        g = metric_evaluator(gen.metric, gen.chart)(base)
        dF = fd_gradient(scalar_evaluator(gen.scalar_field, gen.chart), base)
        scale = local_scale(g) * local_scale(w) ** 2
        assert np.max(np.abs(w @ g @ w.T - np.diag(signs))) < 1e-12 * scale
        assert np.max(np.abs(w @ dF)) < 1e-8 * local_scale(dF) * local_scale(w)

    def test_bad_point_string(self, capsys):
        assert cli.main(["eval", "--builtin", "hyperbolic2", "--point", "a,b"]) == 64

    @pytest.mark.parametrize("point", ["nan,1", "inf,1", "1,-inf"])
    def test_non_finite_point(self, point, capsys):
        # float() reads nan and inf; the point is refused before any analysis
        assert cli.main(["eval", "--builtin", "hyperbolic2", f"--point={point}"]) == 64
        captured = capsys.readouterr()
        assert captured.err == f"mongelight eval: error: bad --point {point!r}\n"
        assert captured.out == ""

    def test_failing_point_prints_nothing(self, capsys):
        # x0 = ln(y) exists at y = 1e-300, but the metric 1/y^2 does not
        assert cli.main(["eval", "--builtin", "hyperbolic2", "--point=1e200,1e-300"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "mongelight: division by zero in subexpression '1.0/y^2.0'\n"

    def test_wrong_point_arity(self, capsys):
        assert cli.main(["eval", "--builtin", "hyperbolic2", "--point", "1,2,3"]) == 64

    def test_unknown_show_token(self, capsys):
        assert (
            cli.main(
                ["eval", "--builtin", "hyperbolic2", "--point", "0,2", "--show", "bogus"]
            )
            == 64
        )

    def test_point_outside_domain(self, capsys):
        rc = cli.main(["eval", "--builtin", "schwarzschild_tr", "--point", "0,0.5"])
        assert rc == 1
        assert "domain" in capsys.readouterr().err

    def test_line_chart_umbilic_fit_not_applicable(self, tmp_path, capsys):
        # on a null curve dF (x) dF - g vanishes, so there is no fit to print
        path = tmp_path / "line.json"
        doc = {
            "name": "line",
            "dimension": 1,
            "coordinates": ["x"],
            "metric": [["1"]],
            "scalar_field": "x",
            "samples": {"points": [[0.5]]},
        }
        path.write_text(json.dumps(doc))
        assert cli.main(["eval", "--generator", str(path), "--point", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3:7] == [
            "lightlike_defect = 0",
            "radical_rank = 1",
            "umbilic_rho = n/a",
            "umbilic_residual = n/a",
        ]
        assert "xi = (1, 1)" in lines

    def test_seventeen_digit_floats(self, capsys):
        cli.main(["eval", "--builtin", "schwarzschild_tr", "--point", "0,2"])
        out = capsys.readouterr().out
        assert f"x0 = {format(2.295587149392638, '.17g')}" in out


class TestListBuiltins:
    def test_listing(self, capsys):
        assert cli.main(["list-builtins"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("hyperbolic2:")
        assert lines[2].startswith("schwarzschild_tr:")
