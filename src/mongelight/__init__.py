"""Lightlike geometry of graph hypersurfaces over semi-Riemannian bases.

Build a generator (coordinate chart, metric expressions, scalar field F),
take the graph x0 = F(p) inside the product space with metric
-dx0 (x) dx0 + g, and compute the induced null-geometry data: the tangent
null normal, the canonical screen and transversal section, the second
fundamental form, and the totally-geodesic / totally-umbilical / minimal
classification of the hypersurface on a sample set.
"""

__version__ = "0.1.0"

from .exprlang import (
    CoordinateChart,
    DomainConstraint,
    EvalDomainError,
    ExprError,
    ExprSyntaxError,
    evaluate,
    parse,
    parse_constraint,
    render,
)
from .semiriemann import (
    DegenerateMetricError,
    MetricField,
    OrthoFrame,
)
from .mongecore import (
    ClassificationReport,
    MongeGenerator,
    NotLightlikeWarning,
    PointAnalysis,
    SurfacePoint,
    Tolerances,
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
)
from .catalog import CatalogEntry, builtin, list_builtins
from .reportio import (
    GeneratorFileError,
    GridSpec,
    SampleSet,
    grid_sample,
    load_generator,
    render_report,
    save_generator,
)

__all__ = [
    "__version__",
    "CoordinateChart",
    "DomainConstraint",
    "ExprError",
    "ExprSyntaxError",
    "EvalDomainError",
    "parse",
    "parse_constraint",
    "render",
    "evaluate",
    "MetricField",
    "OrthoFrame",
    "DegenerateMetricError",
    "MongeGenerator",
    "SurfacePoint",
    "Tolerances",
    "PointAnalysis",
    "ClassificationReport",
    "NotLightlikeWarning",
    "ambient_metric_at",
    "normal_and_transversal_at",
    "lightlike_defect_at",
    "monge_frame_at",
    "second_fundamental_form_at",
    "umbilic_fit_at",
    "minimal_defect_at",
    "screen_frame_at",
    "gauss_decompose_at",
    "weingarten_at",
    "screen_integrability_defect_at",
    "classify",
    "CatalogEntry",
    "builtin",
    "list_builtins",
    "GridSpec",
    "SampleSet",
    "GeneratorFileError",
    "grid_sample",
    "load_generator",
    "save_generator",
    "render_report",
]
