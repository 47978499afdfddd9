"""Command-line driver.

Subcommands:
    classify       analyze a generator file, write a report JSON
    verify         regression-check a builtin against its expected verdicts
    eval           dump the induced objects at a single point
    list-builtins  show the catalog

Exit codes: 0 success, 1 computation error, 2 classify with more than 10%
failed points, 64 usage error, 66 unreadable/invalid input file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, catalog
from .exprlang import EvalDomainError, compile_expr, parse
from .mongecore import (
    ClassificationReport,
    EmptySampleError,
    NotLightlikeWarning,
    Tolerances,
    _is_lightlike,
    classify,
    lightlike_defect_at,
    minimal_defect_at,
    monge_frame_at,
    normal_and_transversal_at,
    screen_frame_at,
    second_fundamental_form_at,
    umbilic_fit_at,
    weingarten_at,
)
from .reportio import (
    GeneratorFileError,
    SampleSet,
    load_generator,
    render_report,
)

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_PARTIAL = 2
EXIT_USAGE = 64
EXIT_FILE = 66

DEFAULT_TOLERANCE = 1e-8
VERIFY_TOLERANCE = 1e-7

_SHOW_CHOICES = ("xi", "nxi", "frame", "B", "screen", "weingarten")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vector(v) -> str:
    return "(" + ", ".join(_fmt(x) for x in v) + ")"


def _fmt_matrix(m) -> str:
    return "[" + "; ".join(_fmt_vector(row) for row in np.asarray(m)) + "]"


def _tolerance(text: str) -> float:
    """A --tol or TOLERANCE value: a finite number > 0, as Tolerances requires."""
    try:
        return Tolerances(float(text)).base
    except ValueError:
        message = f"tolerance (--tol or TOLERANCE) must be a finite positive number, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mongelight",
        description="Lightlike geometry of graph hypersurfaces x0 = F(p).",
        epilog="The TOLERANCE environment variable overrides the default "
        f"tolerance ({DEFAULT_TOLERANCE:g}) when --tol is not given.",
    )
    parser.add_argument("--version", action="version", version=f"mongelight {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse runs a string default, here TOLERANCE, through type= as well
    tolerance = {"type": _tolerance, "default": os.environ.get("TOLERANCE") or DEFAULT_TOLERANCE}
    builtins = [name for name, _ in catalog.list_builtins()]

    p_classify = sub.add_parser("classify", help="classify a generator file")
    p_classify.add_argument("--generator", required=True, help="generator JSON file")
    p_classify.add_argument("--tol", **tolerance, help="relative tolerance")
    p_classify.add_argument("--out", default=None, help="report path (default: stdout)")

    p_verify = sub.add_parser("verify", help="regression-check a builtin")
    p_verify.add_argument("--builtin", required=True, choices=builtins)
    p_verify.add_argument("--tol", **tolerance)

    p_eval = sub.add_parser("eval", help="dump induced objects at one point")
    source = p_eval.add_mutually_exclusive_group(required=True)
    source.add_argument("--generator", help="generator JSON file")
    source.add_argument("--builtin", choices=builtins)
    p_eval.add_argument("--point", required=True, help="comma-separated base coordinates")
    p_eval.add_argument(
        "--show",
        default=",".join(_SHOW_CHOICES),
        help=f"comma list from {{{','.join(_SHOW_CHOICES)}}}",
    )
    p_eval.add_argument("--tol", **tolerance)

    sub.add_parser("list-builtins", help="list catalog entries")
    return parser


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_classify(args) -> int:
    gen, samples = load_generator(args.generator)
    try:
        points = samples.materialize(gen)
    except EmptySampleError as exc:  # the file's grid misses the domain
        raise GeneratorFileError("samples", str(exc)) from exc
    report = classify(gen, points, Tolerances(args.tol))
    text = render_report(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PARTIAL if report.failed_fraction > 0.10 else EXIT_OK


def _expected_checks(entry, report: ClassificationReport, tol: float) -> list[tuple[str, bool, str]]:
    expected = entry.expected
    checks = []

    def verdict(name, want):
        got = report.verdicts[name].value
        ok = got == want
        want_text = "n/a" if want is None else str(want).lower()
        checks.append((name, ok, f"expected {want_text}, got {str(got).lower()}"))

    verdict("degenerate", expected.degenerate)
    verdict("totally_geodesic", expected.totally_geodesic)
    verdict("totally_umbilical", expected.totally_umbilical)
    verdict("minimal", expected.minimal)

    def closed_form(label, expr_src, getter):
        if expr_src is None:
            return
        closed = None
        worst = 0.0
        for analysis in report.points:
            if analysis.error is not None:
                continue
            value = getter(analysis)
            if value is None:
                continue
            if closed is None:  # parsed and compiled once per run
                gen = entry.generator
                closed = compile_expr(parse(expr_src, gen.chart), gen.params)
            want = closed(analysis.point.base)
            worst = max(worst, abs(value - want) / (1.0 + abs(want)))
        ok = worst <= tol
        checks.append((label, ok, f"{expr_src} within {tol:g} (worst {worst:.3g})"))

    closed_form("lightlike_defect", expected.lightlike_defect, lambda a: a.lightlike_defect)
    closed_form("umbilic_rho", expected.umbilic_rho, lambda a: a.umbilic_rho)
    closed_form("minimal_defect", expected.minimal_defect, lambda a: a.minimal_defect)
    return checks


def _cmd_verify(args) -> int:
    entry = catalog.builtin(args.builtin)
    points = SampleSet(grid=entry.default_samples).materialize(entry.generator)
    report = classify(entry.generator, points, Tolerances(args.tol))
    tol = VERIFY_TOLERANCE
    failures = 0
    for name, ok, detail in _expected_checks(entry, report, tol):
        status = "PASS" if ok else "FAIL"
        print(f"{name}: {status} ({detail})")
        failures += 0 if ok else 1
    print(f"{args.builtin}: {'PASS' if failures == 0 else 'FAIL'} on {len(points)} points")
    return EXIT_OK if failures == 0 else EXIT_COMPUTATION


def _cmd_eval(args) -> int:
    if args.generator:
        gen, _ = load_generator(args.generator)
    else:
        gen = catalog.builtin(args.builtin).generator
    try:
        base = tuple(float(x) for x in args.point.split(","))
        if not all(map(math.isfinite, base)):  # float() also reads nan and inf
            raise ValueError(args.point)
    except ValueError:
        print(f"mongelight eval: error: bad --point {args.point!r}", file=sys.stderr)
        return EXIT_USAGE
    if len(base) != gen.dimension:
        print(
            f"mongelight eval: error: --point needs {gen.dimension} coordinates",
            file=sys.stderr,
        )
        return EXIT_USAGE
    show = [token for token in args.show.split(",") if token]
    unknown = [token for token in show if token not in _SHOW_CHOICES]
    if unknown:
        print(f"mongelight eval: error: unknown --show {unknown}", file=sys.stderr)
        return EXIT_USAGE

    if not gen.admissible(base):
        print(f"point {list(base)} violates the domain constraints", file=sys.stderr)
        return EXIT_COMPUTATION
    tol = args.tol
    sp = gen.surface_point(base)

    # every value is computed before anything is printed, so a function that
    # raises at this point leaves no partial output
    lines: list[str] = []
    out = lines.append
    out(f"generator: {gen.name}")
    out(f"point: {_fmt_vector(base)}")
    out(f"x0 = {_fmt(sp.x0)}")
    defect = lightlike_defect_at(gen, sp)
    out(f"lightlike_defect = {_fmt(defect)}")
    frame, induced, rank = monge_frame_at(gen, sp, tol)
    out(f"radical_rank = {rank}")
    # every 1 x 1 form is a multiple of dF (x) dF - g: the fit says nothing
    rho, residual = map(_fmt, umbilic_fit_at(gen, sp)) if gen.dimension >= 2 else ("n/a",) * 2
    out(f"umbilic_rho = {rho}")
    out(f"umbilic_residual = {residual}")
    xi, nxi = normal_and_transversal_at(gen, sp)
    if "xi" in show:
        out(f"xi = {_fmt_vector(xi)}")
    if "nxi" in show:
        out(f"N_xi = {_fmt_vector(nxi)}")
    if "frame" in show:
        for i, row in enumerate(frame):
            out(f"e_{i + 1} = {_fmt_vector(row)}")
        out(f"induced_g = {_fmt_matrix(induced)}")
    if "B" in show:
        # B at a non-lightlike point warns; eval says so in one line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NotLightlikeWarning)
            B = second_fundamental_form_at(gen, sp, tolerance=tol)
        for warning in caught:
            print(f"mongelight eval: warning: {warning.message}", file=sys.stderr)
        out(f"B = {_fmt_matrix(B)}")
    if _is_lightlike(defect, tol) and gen.dimension >= 2:
        out(f"minimal_defect = {_fmt(minimal_defect_at(gen, sp))}")
        if "screen" in show:
            screen = screen_frame_at(gen, sp, tol)
            for i, (row, sign) in enumerate(zip(screen.vectors, screen.signs)):
                out(f"W_{i + 1} = {_fmt_vector(row)}  sign {sign:+d}")
        if "weingarten" in show:
            for i in range(gen.dimension):
                a_vec, tau_i = weingarten_at(gen, sp, i, tolerance=tol)
                out(f"A_N e_{i + 1} = {_fmt_vector(a_vec)}  tau = {_fmt(tau_i)}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_list_builtins(args) -> int:
    for name, description in catalog.list_builtins():
        print(f"{name}: {description}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "classify": _cmd_classify,
        "verify": _cmd_verify,
        "eval": _cmd_eval,
        "list-builtins": _cmd_list_builtins,
    }
    try:
        return handlers[args.command](args)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"mongelight: file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except (GeneratorFileError, json.JSONDecodeError) as exc:
        print(f"mongelight: file error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except EvalDomainError as exc:
        print(f"mongelight: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    except Exception as exc:  # computation errors
        print(f"mongelight: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


if __name__ == "__main__":
    raise SystemExit(main())
