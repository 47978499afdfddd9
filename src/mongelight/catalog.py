"""Built-in generators with default sample grids and expected verdicts.

These back the regression suite and the ``verify`` CLI subcommand: running
classify() on an entry's default samples must reproduce its expected
verdicts, and the closed-form check expressions (rho, minimal defect,
lightlike defect) must match the computed values pointwise.

Default grids keep a margin from coordinate singularities (the half-space
entries stay off their boundary, the exterior chart stays off r = R).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exprlang import CoordinateChart, parse, parse_constraint
from .mongecore import MongeGenerator
from .reportio import GridSpec
from .semiriemann import MetricField

__all__ = ["ExpectedVerdicts", "CatalogEntry", "builtin", "list_builtins"]


@dataclass(frozen=True)
class ExpectedVerdicts:
    """Verdicts plus closed-form check expressions in chart coordinates."""

    degenerate: bool
    totally_geodesic: bool
    totally_umbilical: bool
    minimal: bool | None
    lightlike_defect: str = "0"
    umbilic_rho: str | None = None
    minimal_defect: str | None = None


@dataclass
class CatalogEntry:
    generator: MongeGenerator
    default_samples: GridSpec
    expected: ExpectedVerdicts
    description: str


def _generator(name, names, metric_rows, scalar, domain=(), parameters=None):
    chart = CoordinateChart(tuple(names), parameters or {})
    metric = MetricField.from_strings(chart, metric_rows)
    constraints = tuple(parse_constraint(c, chart) for c in domain)
    return MongeGenerator(name, chart, metric, parse(scalar, chart), constraints)


def _hyperbolic2():
    gen = _generator(
        "hyperbolic2",
        ("x", "y"),
        [["1/y^2", "0"], ["0", "1/y^2"]],
        "ln(y)",
        domain=("y > 0",),
    )
    return (
        gen,
        GridSpec(((-1.0, 1.0), (0.5, 4.0)), (5, 5)),
        ExpectedVerdicts(
            degenerate=True,
            totally_geodesic=False,
            totally_umbilical=True,
            minimal=False,
            umbilic_rho="1",
            minimal_defect="-1",
        ),
    )


def _hyperbolic3():
    gen = _generator(
        "hyperbolic3",
        ("x", "y", "z"),
        [["1/z^2", "0", "0"], ["0", "1/z^2", "0"], ["0", "0", "1/z^2"]],
        "ln(z)",
        domain=("z > 0",),
    )
    return (
        gen,
        GridSpec(((-1.0, 1.0), (-1.0, 1.0), (0.5, 4.0)), (3, 3, 3)),
        ExpectedVerdicts(
            degenerate=True,
            totally_geodesic=False,
            totally_umbilical=True,
            minimal=False,
            umbilic_rho="1",
            minimal_defect="-2",
        ),
    )


def _schwarzschild_tr():
    gen = _generator(
        "schwarzschild_tr",
        ("t", "r"),
        [["-(1 - R/r)", "0"], ["0", "1/(1 - R/r)"]],
        "sqrt(r)*sqrt(r - R) + R*ln(sqrt(r) + sqrt(r - R))",
        domain=("r > R",),
        parameters={"R": 1.0},
    )
    return (
        gen,
        GridSpec(((0.0, 0.0), (1.5, 10.0)), (1, 20)),
        ExpectedVerdicts(
            degenerate=True,
            totally_geodesic=False,
            totally_umbilical=True,
            minimal=False,
            umbilic_rho="-R/(2*r^(3/2)*sqrt(r - R))",
            minimal_defect="R/(2*r^(3/2)*sqrt(r - R))",
        ),
    )


def _euclid_hyperplane():
    gen = _generator(
        "euclid_hyperplane",
        ("x", "y", "z"),
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "x",
    )
    return (
        gen,
        GridSpec(((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), (3, 3, 3)),
        ExpectedVerdicts(
            degenerate=True,
            totally_geodesic=True,
            totally_umbilical=True,
            minimal=True,
            umbilic_rho="0",
            minimal_defect="0",
        ),
    )


def _euclid_cone():
    gen = _generator(
        "euclid_cone",
        ("x", "y"),
        [["1", "0"], ["0", "1"]],
        "sqrt(x^2 + y^2)",
        domain=("x^2 + y^2 > 0",),
    )
    return (
        gen,
        GridSpec(((-2.5, 2.5), (-2.5, 2.5)), (5, 5)),
        ExpectedVerdicts(
            degenerate=True,
            totally_geodesic=False,
            totally_umbilical=True,
            minimal=False,
            umbilic_rho="-1/sqrt(x^2 + y^2)",
            minimal_defect="1/sqrt(x^2 + y^2)",
        ),
    )


def _nonlightlike_control():
    gen = _generator(
        "nonlightlike_control",
        ("x", "y"),
        [["1", "0"], ["0", "1"]],
        "2*x",
    )
    return (
        gen,
        GridSpec(((-1.0, 1.0), (-1.0, 1.0)), (3, 3)),
        ExpectedVerdicts(
            degenerate=False,
            totally_geodesic=True,
            totally_umbilical=True,
            minimal=None,
            lightlike_defect="3",
            umbilic_rho="0",
        ),
    )


# name -> (builder of (generator, default samples, expected verdicts), description)
_BUILDERS = {
    "hyperbolic2": (
        _hyperbolic2,
        "hyperbolic upper half-plane, F = ln(y); lightlike and umbilic",
    ),
    "hyperbolic3": (
        _hyperbolic3,
        "hyperbolic upper half-space, F = ln(z); integrable 2-dimensional screen",
    ),
    "schwarzschild_tr": (
        _schwarzschild_tr,
        "Lorentzian (t, r) exterior chart with parameter R; lightlike and umbilic",
    ),
    "euclid_hyperplane": (
        _euclid_hyperplane,
        "Euclidean base with linear F; totally geodesic null hyperplane",
    ),
    "euclid_cone": (
        _euclid_cone,
        "Euclidean distance function F = sqrt(x^2 + y^2); the light cone",
    ),
    "nonlightlike_control": (
        _nonlightlike_control,
        "non-lightlike control: |grad F|^2 = 4, constant lightlike defect 3",
    ),
}


def builtin(name: str) -> CatalogEntry:
    """A freshly constructed catalog entry by name."""
    try:
        builder, description = _BUILDERS[name]
    except KeyError:
        valid = ", ".join(_BUILDERS)
        raise ValueError(f"unknown builtin {name!r}; valid names: {valid}") from None
    return CatalogEntry(*builder(), description)


def list_builtins() -> list[tuple[str, str]]:
    """(name, description) pairs in stable catalog order; builds no generator."""
    return [(name, description) for name, (_, description) in _BUILDERS.items()]
