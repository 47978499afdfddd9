"""Catalog regression backbone: expected verdicts and closed-form checks."""

import pytest

from mongelight import catalog, cli
from mongelight.exprlang import evaluate, parse
from mongelight.mongecore import MongeGenerator, classify
from mongelight.reportio import (
    SampleSet,
    generator_to_dict,
    grid_sample,
    load_generator,
)

ALL_NAMES = [name for name, _ in catalog.list_builtins()]


class TestListing:
    def test_names_present(self):
        assert "hyperbolic2" in ALL_NAMES
        assert "schwarzschild_tr" in ALL_NAMES

    def test_fixed_size(self):
        assert len(ALL_NAMES) == 6

    def test_stable_order(self):
        assert ALL_NAMES == [
            "hyperbolic2",
            "hyperbolic3",
            "schwarzschild_tr",
            "euclid_hyperplane",
            "euclid_cone",
            "nonlightlike_control",
        ]

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="hyperbolic2"):
            catalog.builtin("nope")

    def test_descriptions_nonempty(self):
        assert all(desc for _, desc in catalog.list_builtins())

    def test_listing_and_parser_build_no_generator(self, monkeypatch):
        built = []
        post_init = MongeGenerator.__post_init__

        def counted(gen):
            built.append(gen.name)
            post_init(gen)

        monkeypatch.setattr(MongeGenerator, "__post_init__", counted)
        cli.build_parser()
        listed = catalog.list_builtins()
        assert built == []
        for name, description in listed:
            assert catalog.builtin(name).description == description
        assert built == ALL_NAMES  # the probe sees each build


class TestExpectedValues:
    def test_hyperbolic2_rho_is_one(self):
        entry = catalog.builtin("hyperbolic2")
        expr = parse(entry.expected.umbilic_rho, entry.generator.chart)
        for base in ((0.0, 1.0), (1.0, 3.5), (-0.4, 0.7)):
            assert evaluate(expr, base) == 1.0

    def test_schwarzschild_rho_expression(self):
        entry = catalog.builtin("schwarzschild_tr")
        expr = parse(entry.expected.umbilic_rho, entry.generator.chart)
        value = evaluate(expr, [0.0, 2.0], entry.generator.params)
        assert value == pytest.approx(-0.17677669529663687, rel=1e-14)

    def test_control_defect_expression(self):
        entry = catalog.builtin("nonlightlike_control")
        expr = parse(entry.expected.lightlike_defect, entry.generator.chart)
        assert evaluate(expr, [0.0, 0.0]) == 3.0


@pytest.mark.parametrize("name", ALL_NAMES)
class TestRegressionBackbone:
    def test_expected_verdicts_reproduced(self, name):
        entry = catalog.builtin(name)
        points = grid_sample(entry.generator, entry.default_samples)
        report = classify(entry.generator, points)
        assert report.failed_fraction == 0.0
        assert report.verdicts["degenerate"].value is entry.expected.degenerate
        assert report.verdicts["totally_geodesic"].value is entry.expected.totally_geodesic
        assert report.verdicts["totally_umbilical"].value is entry.expected.totally_umbilical
        assert report.verdicts["minimal"].value is entry.expected.minimal

    def test_closed_forms_match_pointwise(self, name):
        entry = catalog.builtin(name)
        gen = entry.generator
        points = grid_sample(gen, entry.default_samples)
        report = classify(gen, points)
        checks = [
            (entry.expected.lightlike_defect, lambda a: a.lightlike_defect),
            (entry.expected.umbilic_rho, lambda a: a.umbilic_rho),
            (entry.expected.minimal_defect, lambda a: a.minimal_defect),
        ]
        for source, getter in checks:
            if source is None:
                continue
            expr = parse(source, gen.chart)
            for analysis in report.points:
                value = getter(analysis)
                if value is None:
                    continue
                want = evaluate(expr, analysis.point.base, gen.params)
                assert value == pytest.approx(want, rel=1e-7, abs=1e-7)

    def test_export_round_trip(self, name, tmp_path):
        entry = catalog.builtin(name)
        samples = SampleSet(grid=entry.default_samples)
        doc = generator_to_dict(entry.generator, samples)
        path = tmp_path / f"{name}.json"
        import json

        path.write_text(json.dumps(doc, indent=2))
        loaded, loaded_samples = load_generator(path)
        assert loaded.name == entry.generator.name
        assert loaded.chart == entry.generator.chart
        assert loaded.metric.components == entry.generator.metric.components
        assert loaded.scalar_field == entry.generator.scalar_field
        assert loaded.constraints == entry.generator.constraints
        assert loaded_samples.grid == entry.default_samples
        # and the loaded generator samples to the same surface points
        a = grid_sample(entry.generator, entry.default_samples)
        b = grid_sample(loaded, loaded_samples.grid)
        assert [p.base for p in a] == [p.base for p in b]
        assert [p.x0 for p in a] == [p.x0 for p in b]
