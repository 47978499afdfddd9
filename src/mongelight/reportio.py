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
order and byte-identical output for identical inputs, written by
``json.dumps(..., indent=2)``.  A report of format 2 (its ``"format"``
key) holds no free-form dict in a record: every record has the same fixed
keys, whose values are numbers, bools, null, the error string, and the
lists ``point``, ``B`` and ``tau``.  A record's shape is then its leaf
types and the shapes of ``B`` and ``tau``, and each point record is
filled into a template cut from json's text of that shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from . import __version__
from .exprlang import (
    CoordinateChart,
    EvalDomainError,
    ExprError,
    parse,
    parse_constraint,
    render,
)
from .mongecore import (
    ClassificationReport,
    EmptySampleError,
    MongeGenerator,
    PointAnalysis,
    SurfacePoint,
    _is_finite,
)
from .semiriemann import MetricField

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
]

# the most points a generator file's sample grid may hold; the loader refuses
# a larger grid before any of it is built
MAX_GRID_POINTS = 1_000_000


class GeneratorFileError(Exception):
    """Schema or expression problem in a generator file; names the field."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


@dataclass(frozen=True)
class GridSpec:
    """Per-coordinate [lo, hi] ranges and point counts (inclusive endpoints).
    Each count is an int, NumPy's included, that is not a bool; it is
    stored as an int.  Each bound is an int or float, NumPy's included,
    that is not a bool; it is stored as a float."""

    ranges: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.ranges) != len(self.counts):
            raise ValueError("ranges and counts must align")
        for c in self.counts:
            # np.linspace takes True as 1 and refuses 2.5 only when sampling
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                raise ValueError(f"count {c!r} is not a whole int")
        object.__setattr__(self, "counts", tuple(map(int, self.counts)))
        if any(c < 1 for c in self.counts):
            raise ValueError("counts must be >= 1")
        ranges = []
        for lo, hi in self.ranges:
            for bound in (lo, hi):
                # save_generator would write True as true, which load_generator refuses
                if isinstance(bound, bool) or not isinstance(bound, (int, float, np.integer, np.floating)):
                    raise ValueError(f"range bound {bound!r} is not a real number")
            # np.linspace fills a range whose span overflows with nan and inf
            if not (_is_finite(lo) and _is_finite(hi) and math.isfinite(float(hi) - float(lo))):
                raise ValueError(f"range [{lo!r}, {hi!r}] is not finite or its span overflows")
            ranges.append((float(lo), float(hi)))
        object.__setattr__(self, "ranges", tuple(ranges))


@dataclass(frozen=True)
class SampleSet:
    """Either a grid spec or a nonempty explicit list of base points, not
    both; anything else raises ValueError (save_generator would write a
    file that load_generator refuses, or drop the points)."""

    grid: GridSpec | None = None
    points: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.grid is not None and self.points is not None:
            raise ValueError("a sample set takes a grid or points, not both")
        if self.grid is None and (self.points is None or len(self.points) == 0):
            raise ValueError("a sample set needs a grid or a nonempty list of points")

    def materialize(self, gen: MongeGenerator) -> list[SurfacePoint]:
        if self.grid is not None:
            return grid_sample(gen, self.grid)
        return [_sample_point(gen, p) for p in self.points]


def _sample_point(gen: MongeGenerator, base) -> SurfacePoint:
    """The surface point over the floats the chart reads from ``base``,
    with x0 None where classify records the point's error: where the chart
    refuses the base (which is kept as given), or where F cannot be
    evaluated at its floats."""
    try:
        base = gen.chart.read(base)
        return SurfacePoint(base, gen._scalar(base))
    except (ValueError, EvalDomainError):
        return SurfacePoint(base, None)


def grid_sample(gen: MongeGenerator, spec: GridSpec) -> list[SurfacePoint]:
    """Cartesian grid over the spec, filtered by the generator's domain at
    its floats; each admitted grid point is read once, by the chart."""
    if len(spec.ranges) != gen.dimension:
        raise ValueError(
            f"grid has {len(spec.ranges)} axes for a {gen.dimension}-dimensional chart"
        )
    axes = [
        np.linspace(lo, hi, count)
        for (lo, hi), count in zip(spec.ranges, spec.counts)
    ]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, gen.dimension)
    points = [_sample_point(gen, base) for base in map(tuple, grid.tolist()) if gen._admits(base)]
    if not points:
        raise EmptySampleError("no grid point satisfies the domain constraints")
    return points


# ---------------------------------------------------------------------------
# Generator files


def _expect(data: dict, key: str, kind, path: str):
    if key not in data:
        raise GeneratorFileError(f"{path}{key}", "missing")
    value = data[key]
    # json reads true/false as bools, which are ints to isinstance
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
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


def _count(value, path: str) -> int:
    """A whole JSON number as an int; bools, fractions and strings are refused."""
    number = _number(value, path)
    if not number.is_integer():
        raise GeneratorFileError(path, "expected a whole number")
    return int(number)


def _reject_constant(token: str):
    raise GeneratorFileError("<document>", f"non-finite number {token}")


def _parse_expr(source, chart, path):
    if not isinstance(source, str):
        raise GeneratorFileError(path, "expected an expression string")
    try:
        return parse(source, chart)
    except ExprError as exc:
        raise GeneratorFileError(path, str(exc)) from exc


def _load_samples(data: dict, dimension: int) -> SampleSet:
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
            tuple(_count(c, f"samples.counts[{k}]") for k, c in enumerate(counts)),
        )
    except (TypeError, ValueError) as exc:
        raise GeneratorFileError("samples", str(exc)) from exc
    if math.prod(spec.counts) > MAX_GRID_POINTS:
        raise GeneratorFileError("samples.counts", f"grid has more than {MAX_GRID_POINTS} points")
    return SampleSet(grid=spec)


def _load_chart(coordinates: list, parameters: dict) -> CoordinateChart:
    """The chart, with an error in a coordinate named ``coordinates`` and an
    error in a parameter's name or value named by its key."""
    try:
        names = CoordinateChart(tuple(coordinates)).names
    except (TypeError, ValueError) as exc:
        raise GeneratorFileError("coordinates", str(exc)) from exc
    values = {}
    for key, value in parameters.items():
        values[key] = _number(value, f"parameters.{key}")
        try:  # a bad identifier, or one a coordinate already holds
            CoordinateChart(names, {key: values[key]})
        except ValueError as exc:
            raise GeneratorFileError(f"parameters.{key}", str(exc)) from exc
    return CoordinateChart(names, values)


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
    chart = _load_chart(coordinates, parameters)

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
        doc["samples"] = {"points": [list(p) for p in samples.points]}
    return doc


def save_generator(gen: MongeGenerator, samples: SampleSet, path):
    Path(path).write_text(json.dumps(generator_to_dict(gen, samples), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Reports


# the report format; a change to the fields of a report raises it
REPORT_FORMAT = 2


def _point_record(a: PointAnalysis) -> dict:
    """Fixed-key-order dict form of one point's analysis; the point is null
    where its base is not a sequence."""
    try:
        base = list(a.point.base)
    except TypeError:  # classify records "point is not a sequence"
        base = None
    x0 = a.point.x0
    if a.error is not None:  # classify records every non-finite point as failed
        if base is not None:
            base = [x if _is_finite(x) else None for x in base]
        x0 = x0 if _is_finite(x0) else None
    return {
        "index": a.index,
        "point": base,
        "x0": x0,
        "error": a.error,
        "lightlike_defect": a.lightlike_defect,
        "is_lightlike": a.is_lightlike,
        "radical_rank": a.radical_rank,
        "B": None if a.B is None else a.B.tolist(),
        "umbilic_rho": a.umbilic_rho,
        "umbilic_residual": a.umbilic_residual,
        "minimal_defect": a.minimal_defect,
        "integrability_defect": a.integrability_defect,
        "tau": None if a.tau is None else a.tau.tolist(),
        "second_form_scale": a.second_form_scale,
    }


def _report_dict(report: ClassificationReport, points: list) -> dict:
    verdicts = {
        name: {
            "value": v.value,
            "witness_index": v.witness_index,
            "witness_value": v.witness_value,
        }
        for name, v in report.verdicts.items()
    }
    return {
        "format": REPORT_FORMAT,
        "generator": report.generator_name,
        "tool_version": __version__,
        "tolerance": report.tolerances.base,
        "xi_scale": report.xi_scale,
        "note": report.note,
        "failed_fraction": report.failed_fraction,
        "points": points,
        "verdicts": verdicts,
    }


def report_to_dict(report: ClassificationReport) -> dict:
    """Fixed-key-order dict form of a classification report."""
    return _report_dict(report, [_point_record(a) for a in report.points])


def render_report(report: ClassificationReport) -> str:
    """Deterministic strict JSON text: fixed key order, stable float
    formatting, and no NaN or Infinity (a non-finite number raises
    ValueError).  The bytes equal
    ``json.dumps(report_to_dict(report), indent=2, allow_nan=False) + "\\n"``.

    Each point record is filled into a template cut from json's text of
    its shape (see ``_fill_records``).  A report the templates cannot
    write, such as one holding a non-finite number, is written by that
    ``json.dumps`` call whole, which raises its own error: ValueError for
    the first non-finite number in document order or for a circular tree,
    TypeError for an object it cannot write."""
    text = _fill_records(report)
    if text is None:
        text = json.dumps(report_to_dict(report), indent=2, allow_nan=False)
    return text + "\n"


# A leaf no report writes: json's text of it cuts a document into the
# pieces between its leaves.  A header string that holds this text too is
# caught by the piece count, and json writes that report whole.
_MARK = "\x00leaf\x00"
_NONE = type(None)
# the leaf types a template writes: %s writes a float or an int as json does,
# with its own __repr__, and a bool is fixed to json's text
_LEAVES = frozenset((float, int, bool, _NONE))
_isfinite = math.isfinite
_bool_text = {False: "false", True: "true"}.__getitem__


def _mark(o):
    """``o`` with every leaf but None replaced by ``_MARK``."""
    if type(o) is list:
        return [_mark(v) for v in o]
    return None if o is None else _MARK


def _cut(o, nl: str) -> list[str]:
    """json's text of ``o``, written after ``nl`` (see ``_dumps``), cut at
    each ``_MARK``."""
    return _dumps(o, nl).split(_escape(_MARK))


def _template(a: PointAnalysis, types: tuple, nl: str):
    """``(format, keep, bools)`` for the records shaped like ``a``, whose
    leaves, in document order, have the types ``types``; None unless each
    type is exactly float, int, bool or None.  ``format`` is json's text of
    the record with ``%s`` at each leaf but None (which json writes as
    null), ``keep`` picks those leaves (None when all are), and ``bools``
    lists the positions among them of the bools, which ``%s`` would write
    as Python does.  The record's keys are fixed literals, and no ``%`` is
    among them."""
    if not _LEAVES.issuperset(types):
        return None
    written = [t for t in types if t is not _NONE]
    bools = tuple(i for i, t in enumerate(written) if t is bool)
    record = {k: _mark(v) for k, v in _point_record(a).items()}
    keep = tuple(t is not _NONE for t in types) if _NONE in types else None
    return "%s".join(_cut(record, nl)), keep, bools


def _fill_records(report: ClassificationReport) -> str | None:
    """The report's text without its final line break, each point record
    filled into the template cut from json's text of its shape: one ``%``
    call per record in place of json's walk of its containers.  The shape
    is everything the layout reads: the leaf types in document order (so
    the dimension, which fields are None, and how numbers are written) and
    the shapes of ``B`` and ``tau``.  Floats and ints are written by
    ``%s``, which calls their ``__repr__``, as json does.  A record with an
    error or with a leaf of any other type (a subclass of float or int
    included) is written by json on its own.  The templates live for this
    one call.  One ``sum`` of a record's numbers shows them finite; each is
    tested on its own only where that sum is not (finite numbers may
    overflow it).

    None where a record holds a non-finite number, where the header or
    verdicts hold a value json refuses (json may meet a bad record first),
    or where a string there holds ``_MARK``: json then writes the whole
    report, or raises for its first bad value.  Records are written in
    document order, so an error one raises here is the report's first."""
    if not report.points:
        return None
    try:
        frame = _cut(_report_dict(report, [_MARK, _MARK]), "\n")
    except (TypeError, ValueError):
        return None
    if len(frame) != 3:
        return None
    head, sep, tail = frame
    nl = sep[sep.index("\n"):]  # the line break and indent of each record
    templates = {}
    records = []
    for a in report.points:
        B, tau = a.B, a.tau
        if (
            a.error is None
            and (B is None or type(B) is np.ndarray)
            and (tau is None or type(tau) is np.ndarray)
        ):
            point = a.point
            # the leaves of _point_record(a) but its None error, in its order
            values = (
                a.index,
                *point.base,
                point.x0,
                a.lightlike_defect,
                a.is_lightlike,
                a.radical_rank,
                *(() if B is None else B.ravel().tolist()),
                a.umbilic_rho,
                a.umbilic_residual,
                a.minimal_defect,
                a.integrability_defect,
                *(() if tau is None else tau.ravel().tolist()),
                a.second_form_scale,
            )
            types = tuple(map(type, values))
            key = (types, None if B is None else B.shape, None if tau is None else tau.shape)
            entry = templates.get(key, False)
            if entry is False:
                entry = templates[key] = _template(a, types, nl)
            if entry is not None:
                form, keep, bools = entry
                if keep is not None:
                    values = tuple(compress(values, keep))
                try:
                    finite = _isfinite(sum(values))
                except OverflowError:  # an int past the float range
                    finite = False
                if not finite and not _all_finite(values):
                    return None
                if bools:
                    values = list(values)
                    for i in bools:
                        values[i] = _bool_text(values[i])
                    values = tuple(values)
                records.append(form % values)
                continue
        records.append(_dumps(_point_record(a), nl))
    return head + sep.join(records) + tail


def _all_finite(values: tuple) -> bool:
    """Whether every number is finite; an int past the float range, which
    json writes, is not."""
    try:
        return all(map(_isfinite, values))
    except OverflowError:
        return False


_escape = json.encoder.encode_basestring_ascii


def _dumps(o, nl: str = "\n") -> str:
    """``json.dumps(o, indent=2, allow_nan=False)`` written after the line
    break and indent ``nl``: json escapes every line break inside a string,
    so each one in its text starts a line of the layout."""
    return json.dumps(o, indent=2, allow_nan=False).replace("\n", nl)
