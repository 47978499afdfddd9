"""Generator-file ingestion, sample grids, and report JSON emission.

Generator files are JSON documents with human-writable expression strings:

    {
      "name": "hyperbolic2",
      "dimension": 2,
      "coordinates": ["x", "y"],
      "parameters": {},
      "metric": [["1/y^2", "0"], ["0", "1/y^2"]],
      "scalar_field": "ln(y)",
      "domain": ["y > 0"],
      "samples": {"ranges": [[-1, 1], [0.5, 4]], "counts": [5, 5]}
    }

``samples`` holds either per-coordinate ranges with counts (inclusive
endpoints; a count of 1 takes the lower endpoint) or an explicit
``"points"`` list.  Reports are emitted as deterministic JSON: fixed key
order and byte-identical output for identical inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .exprlang import (
    CoordinateChart,
    ExprError,
    parse,
    parse_constraint,
    render,
)
from .mongecore import (
    ClassificationReport,
    EmptySampleError,
    MongeGenerator,
    SurfacePoint,
)
from .semiriemann import MetricField, evaluate_matrix, local_scale

__all__ = [
    "GridSpec",
    "SampleSet",
    "GeneratorFileError",
    "grid_sample",
    "load_generator",
    "save_generator",
    "generator_to_dict",
    "report_to_dict",
    "render_report",
    "write_report",
]

POINTWISE_SYMMETRY_TOLERANCE = 1e-12


class GeneratorFileError(Exception):
    """Schema or expression problem in a generator file; names the field."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


@dataclass(frozen=True)
class GridSpec:
    """Per-coordinate [lo, hi] ranges and point counts (inclusive endpoints)."""

    ranges: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.ranges) != len(self.counts):
            raise ValueError("ranges and counts must align")
        if any(c < 1 for c in self.counts):
            raise ValueError("counts must be >= 1")


@dataclass(frozen=True)
class SampleSet:
    """Either a grid spec or an explicit list of base points."""

    grid: GridSpec | None = None
    points: tuple[tuple[float, ...], ...] | None = None

    def materialize(self, gen: MongeGenerator) -> list[SurfacePoint]:
        if self.grid is not None:
            return grid_sample(gen, self.grid)
        return [gen.surface_point(p) for p in self.points or ()]


def grid_sample(gen: MongeGenerator, spec: GridSpec) -> list[SurfacePoint]:
    """Cartesian grid over the spec, filtered by the generator's domain."""
    if len(spec.ranges) != gen.dimension:
        raise ValueError(
            f"grid has {len(spec.ranges)} axes for a {gen.dimension}-dimensional chart"
        )
    axes = [
        np.linspace(lo, hi, count)
        for (lo, hi), count in zip(spec.ranges, spec.counts)
    ]
    points = []
    for combo in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, gen.dimension):
        base = tuple(float(x) for x in combo)
        if gen.admissible(base):
            points.append(gen.surface_point(base))
    if not points:
        raise EmptySampleError("no grid point satisfies the domain constraints")
    return points


# ---------------------------------------------------------------------------
# Generator files


def _expect(data: dict, key: str, kind, path: str):
    if key not in data:
        raise GeneratorFileError(f"{path}{key}", "missing")
    value = data[key]
    if not isinstance(value, kind):
        raise GeneratorFileError(f"{path}{key}", f"expected {kind.__name__}")
    return value


def _number(value, path: str) -> float:
    """A finite JSON number as a float; bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GeneratorFileError(path, "expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):  # json reads 1e400 as inf
        raise GeneratorFileError(path, "expected a finite number")
    return number


def _reject_constant(token: str):
    raise GeneratorFileError("<document>", f"non-finite number {token}")


def _parse_expr(source, chart, path):
    if not isinstance(source, str):
        raise GeneratorFileError(path, "expected an expression string")
    try:
        return parse(source, chart)
    except ExprError as exc:
        raise GeneratorFileError(path, str(exc)) from exc


def _load_samples(data: Any, dimension: int) -> SampleSet:
    if not isinstance(data, dict):
        raise GeneratorFileError("samples", "expected an object")
    if "points" in data:
        raw = data["points"]
        if not isinstance(raw, list) or not raw:
            raise GeneratorFileError("samples.points", "expected a nonempty list")
        points = []
        for k, p in enumerate(raw):
            if not isinstance(p, list) or len(p) != dimension:
                raise GeneratorFileError(
                    f"samples.points[{k}]", f"expected {dimension} coordinates"
                )
            points.append(
                tuple(_number(x, f"samples.points[{k}][{i}]") for i, x in enumerate(p))
            )
        return SampleSet(points=tuple(points))
    ranges = _expect(data, "ranges", list, "samples.")
    counts = _expect(data, "counts", list, "samples.")
    if len(ranges) != dimension or len(counts) != dimension:
        raise GeneratorFileError("samples", f"need {dimension} ranges and counts")
    try:
        spec = GridSpec(
            tuple(
                (_number(lo, f"samples.ranges[{k}]"), _number(hi, f"samples.ranges[{k}]"))
                for k, (lo, hi) in enumerate(ranges)
            ),
            tuple(int(c) for c in counts),
        )
    except (TypeError, ValueError) as exc:
        raise GeneratorFileError("samples", str(exc)) from exc
    return SampleSet(grid=spec)


def _check_metric_symmetry(gen: MongeGenerator, samples: SampleSet):
    if gen.metric.is_structurally_symmetric():
        return
    # fall back to a pointwise check at the sample points
    points = samples.materialize(gen)
    for sp in points:
        g = evaluate_matrix(gen.metric, sp.base)
        if np.max(np.abs(g - g.T)) > POINTWISE_SYMMETRY_TOLERANCE * local_scale(g):
            raise GeneratorFileError(
                "metric", f"asymmetric at sample point {list(sp.base)}"
            )


def load_generator(path) -> tuple[MongeGenerator, SampleSet]:
    """Parse a generator file; all expressions are resolved against the chart."""
    text = Path(path).read_text()
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GeneratorFileError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GeneratorFileError("<document>", "expected a JSON object")

    name = _expect(data, "name", str, "")
    dimension = _expect(data, "dimension", int, "")
    coordinates = _expect(data, "coordinates", list, "")
    if len(coordinates) != dimension:
        raise GeneratorFileError("coordinates", f"expected {dimension} names")
    parameters = data.get("parameters", {})
    if not isinstance(parameters, dict):
        raise GeneratorFileError("parameters", "expected an object")
    try:
        chart = CoordinateChart(
            tuple(coordinates),
            {k: _number(v, f"parameters.{k}") for k, v in parameters.items()},
        )
    except (TypeError, ValueError) as exc:
        raise GeneratorFileError("coordinates", str(exc)) from exc

    metric_rows = _expect(data, "metric", list, "")
    if len(metric_rows) != dimension or any(
        not isinstance(row, list) or len(row) != dimension for row in metric_rows
    ):
        raise GeneratorFileError("metric", f"expected a {dimension}x{dimension} array")
    components = [
        [
            _parse_expr(metric_rows[i][j], chart, f"metric[{i}][{j}]")
            for j in range(dimension)
        ]
        for i in range(dimension)
    ]
    metric = MetricField(chart, components)

    scalar_field = _parse_expr(_expect(data, "scalar_field", str, ""), chart, "scalar_field")

    domain = data.get("domain", [])
    if not isinstance(domain, list):
        raise GeneratorFileError("domain", "expected a list of constraint strings")
    constraints = []
    for k, entry in enumerate(domain):
        if not isinstance(entry, str):
            raise GeneratorFileError(f"domain[{k}]", "expected a string")
        try:
            constraints.append(parse_constraint(entry, chart))
        except ExprError as exc:
            raise GeneratorFileError(f"domain[{k}]", str(exc)) from exc

    samples = _load_samples(_expect(data, "samples", dict, ""), dimension)
    gen = MongeGenerator(name, chart, metric, scalar_field, tuple(constraints))
    _check_metric_symmetry(gen, samples)
    return gen, samples


def generator_to_dict(gen: MongeGenerator, samples: SampleSet) -> dict:
    """Serializable form of a generator; round-trips through load_generator."""
    d = gen.dimension
    doc = {
        "name": gen.name,
        "dimension": d,
        "coordinates": list(gen.chart.names),
        "parameters": {k: float(v) for k, v in gen.chart.parameters.items()},
        "metric": [[render(gen.metric.components[i][j]) for j in range(d)] for i in range(d)],
        "scalar_field": render(gen.scalar_field),
        "domain": [
            f"{render(c.lhs)} {c.relation} {render(c.rhs)}" for c in gen.constraints
        ],
    }
    if samples.grid is not None:
        doc["samples"] = {
            "ranges": [[lo, hi] for lo, hi in samples.grid.ranges],
            "counts": list(samples.grid.counts),
        }
    else:
        doc["samples"] = {"points": [list(p) for p in samples.points or ()]}
    return doc


def save_generator(gen: MongeGenerator, samples: SampleSet, path):
    Path(path).write_text(json.dumps(generator_to_dict(gen, samples), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Reports


def _jsonify(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def report_to_dict(report: ClassificationReport) -> dict:
    """Fixed-key-order dict form of a classification report."""
    points = []
    for a in report.points:
        record = {
            "index": a.index,
            "point": list(a.point.base),
            "x0": a.point.x0,
            "error": a.error,
            "lightlike_defect": a.lightlike_defect,
            "is_lightlike": a.is_lightlike,
            "radical_rank": a.radical_rank,
            "B": a.B,
            "umbilic_rho": a.umbilic_rho,
            "umbilic_residual": a.umbilic_residual,
            "minimal_defect": a.minimal_defect,
            "integrability_defect": a.integrability_defect,
            "tau": a.tau,
            "scales": a.scales,
            "certificates": a.certificates,
        }
        points.append(_jsonify(record))
    verdicts = {
        name: {
            "value": v.value,
            "witness_index": v.witness_index,
            "witness_value": _jsonify(v.witness_value),
        }
        for name, v in report.verdicts.items()
    }
    return {
        "generator": report.generator_name,
        "tool_version": __version__,
        "tolerance": report.tolerances.base,
        "xi_scale": report.xi_scale,
        "note": report.note,
        "failed_fraction": report.failed_fraction,
        "points": points,
        "verdicts": verdicts,
    }


def render_report(report: ClassificationReport) -> str:
    """Deterministic strict JSON text: fixed key order, stable float
    formatting, and no NaN or Infinity."""
    return json.dumps(report_to_dict(report), indent=2, allow_nan=False) + "\n"


def write_report(report: ClassificationReport, path):
    Path(path).write_text(render_report(report))
