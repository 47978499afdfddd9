"""Command-line driver tests: exit codes, output shape, determinism."""

import json
import math

import pytest

from mongelight import catalog, cli
from mongelight.reportio import SampleSet, save_generator


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


class TestEvalCommand:
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

    def test_bad_point_string(self, capsys):
        assert cli.main(["eval", "--builtin", "hyperbolic2", "--point", "a,b"]) == 64

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
