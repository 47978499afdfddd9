"""classify() runs every stage after the jets once over the stacked points;
a point's record must not depend on which other points share its stack.

Each case mixes points that analyse cleanly with points that fail at one
gate.  The failing points' messages are pinned as literals, so the order
in which the gates are checked cannot drift.
"""

import hashlib
import re

import numpy as np
import pytest

from mongelight import catalog, mongecore
from mongelight.exprlang import CoordinateChart, EvalDomainError, parse, parse_constraint, render
from mongelight.mongecore import (
    BRACKET_STEP,
    MongeGenerator,
    SurfacePoint,
    ambient_metric_at,
    classify,
    lightlike_defect_at,
    minimal_defect_at,
    screen_frame_at,
    screen_integrability_defect_at,
    umbilic_fit_at,
    weingarten_at,
)
from mongelight.reportio import grid_sample, render_report
from mongelight.semiriemann import DegenerateMetricError, MetricField, invert_metric

from _oracles import (
    lightlike_line_fixtures,
    local_scale,
    random_box_point,
    random_smooth_expr,
    reference_bracket_defect,
)

IDENTITY2 = [["1", "0"], ["0", "1"]]


def generator(name, names, rows, scalar, domain=()):
    chart = CoordinateChart(tuple(names))
    return MongeGenerator(
        name,
        chart,
        MetricField.from_strings(chart, rows),
        parse(scalar, chart),
        tuple(parse_constraint(c, chart) for c in domain),
    )


def diag3(g33):
    return [["1", "0", "0"], ["0", "1", "0"], ["0", "0", g33]]


def builtin_case(name, outside):
    entry = catalog.builtin(name)
    points = grid_sample(entry.generator, entry.default_samples)[:6]
    return entry.generator, [*points, SurfacePoint(outside, 0.0)], None


def drawn(gen, bases):
    return [gen.surface_point(b) for b in bases]


def make_cases():
    cases = {
        "hyperbolic3": builtin_case("hyperbolic3", (0.0, 0.0, -1.0)),
        "schwarzschild_tr": builtin_case("schwarzschild_tr", (0.0, 0.5)),
        "euclid_cone": builtin_case("euclid_cone", (0.0, 0.0)),
    }
    # a degenerate metric at the base point and at a bracket neighbour
    gen = generator("pinched", "xyz", diag3("1e4*(z - 1)^2"), "x")
    bases = [(0.0, 0.0, 1.0), (0.0, 0.0, 1 - 1e-5), (0.0, 0.0, 1 + 1e-5), (0.0, 0.0, 2.0)]
    cases["pinched"] = gen, drawn(gen, bases), None
    # both neighbours along z degenerate: +h is reported before -h
    gen = generator("twin", "xyz", diag3("1e20*(z - 1)^2*(z - 1.00002)^2"), "x")
    cases["twin"] = gen, drawn(gen, [(0.0, 0.0, 1.00001)]), None
    # neighbours along x and z degenerate: the lower axis is reported
    gen = generator("cross", "xyz", diag3("1e20*(x - 1)^2*(z - 1)^2"), "y")
    cases["cross"] = gen, drawn(gen, [(1 - 1e-5, 0.0, 1 - 1e-5)]), None
    # a neighbour leaves the domain of sqrt(z)
    gen = generator("root", "xyz", diag3("sqrt(z)"), "x", ("z > 0",))
    cases["root"] = gen, drawn(gen, [(0.0, 0.0, 5e-6), (0.0, 0.0, 1.0)]), None
    # the metric is degenerate where F's jets also fail: the inverse's gate
    # comes first
    gen = generator("metric_first", "xy", [["x", "0"], ["0", "1"]], "sqrt(x)")
    cases["metric_first"] = gen, drawn(gen, [(1e-320, 0.5), (1.0, 0.5)]), None
    # the +x neighbour of x = 0 fails in F, a later +y neighbour at y = 0
    # in the inverse's gate: the first neighbour is reported; at x = -0.5
    # only the +y neighbour fails
    rows = [["1", "0", "0"], ["0", "1e4*(y - 1e-5)^2", "0"], ["0", "0", "1"]]
    gen = generator("first_neighbour", "xyz", rows, "z + 0*sqrt(5e-6 - x)")
    bases = [(0.0, 0.0, 0.0), (-1.0, 1.0, 0.0), (-0.5, 0.0, 0.0)]
    cases["first_neighbour"] = gen, drawn(gen, bases), None
    # the jet's second derivative of sqrt divides by an underflowed 0
    gen = generator("sqrt", "xy", IDENTITY2, "sqrt(x)")
    cases["sqrt"] = gen, drawn(gen, [(1e-320, 0.5), (1.0, 0.5)]), None
    gen = generator("sqrt200", "xy", IDENTITY2, "sqrt(x)*1e200")
    cases["sqrt200"] = gen, drawn(gen, [(1e-250, 0.5)]), None
    # dF overflows; then dF stays finite but the Hessian overflows
    gen = generator("slope", "xy", IDENTITY2, "sqrt(x)*1e300")
    cases["slope"] = gen, drawn(gen, [(1e-100, 0.5)]), None
    gen = generator("curvature", "xy", IDENTITY2, "sqrt(x)*1e100")
    cases["curvature"] = gen, drawn(gen, [(1e-200, 0.5), (0.25, 0.5)]), None
    # finite jets whose reported numbers overflow
    gen = generator("exp", "xy", IDENTITY2, "exp(x)*1e300")
    cases["exp"] = gen, drawn(gen, [(-1.0, 1.0), (0.5, -1.0)]), None
    # both eliminated kernel vectors of dF = (1, 1/2, 1/2) are g-null
    rows = [["1", "0.5", "0.5"], ["0.5", "0.25", "1.25"], ["0.5", "1.25", "0.25"]]
    gen = generator("null_kernel", "xyz", rows, "x + 0.5*y + 0.5*z")
    cases["null_kernel"] = gen, drawn(gen, [(0.1, 0.2, 0.3)]), None
    # at z = 0 the kernel vectors e_z, e_w of the elimination basis are both
    # exactly null, yet g on ker dF is non-degenerate, as at z = 0.5
    rows = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "z^2", "1"]]
    rows.append(["0", "0", "1", "0"])
    gen = generator("null_pair", "xyzw", rows, "sqrt(x^2 + y^2)")
    bases = [(0.1, 0.2, 0.5, 0.4), (0.1, 0.2, 0.0, 0.4), (-0.3, 0.1, 2.0, -0.2)]
    cases["null_pair"] = gen, drawn(gen, bases), None
    # a loose tolerance lets the Weingarten and Gauss gates fail
    gen = generator("bowl", "xy", IDENTITY2, "x^2 + y^2")
    bases = [(0.9, 0.2), (0.8, -0.6), (-0.95, 0.3), (0.7, 0.7), (0.4, 0.3), (1.0, 0.0)]
    cases["bowl"] = gen, drawn(gen, bases), 0.9
    # the domain gate: x^0.5 has no second derivative at x = 0, where only
    # the one-point test admits the point; x = -1 fails x^0.5 and x = 800
    # overflows exp, each refused by both tests
    domain = ("x^0.5 >= 0", "exp(x) > 0")
    gen = generator("gate", "xy", IDENTITY2, "0.6*x + 0.8*y", domain)
    cases["gate"] = gen, drawn(gen, [(0.0, 0.5), (-1.0, 0.5), (800.0, 0.5), (0.3, 0.2)]), None
    return cases


CASES = make_cases()

# the error of every failing point, as the per-point analysis reported it
PINNED = {
    "hyperbolic3": {6: "outside domain"},
    "schwarzschild_tr": {6: "outside domain"},
    "euclid_cone": {6: "outside domain"},
    "pinched": {
        0: "metric degenerate at [0.0, 0.0, 1.0]",
        1: "metric degenerate at [0.0, 0.0, 1.0]",
        2: "metric degenerate at [0.0, 0.0, 1.0]",
    },
    "twin": {0: "metric degenerate at [0.0, 0.0, 1.0000200000000001]"},
    "cross": {0: "metric degenerate at [1.0, 0.0, 0.99999]"},
    "root": {0: "sqrt of non-positive value -5e-06 in subexpression 'sqrt(z)'"},
    "metric_first": {0: "metric degenerate at [1e-320, 0.5]"},
    "first_neighbour": {
        0: "sqrt of non-positive value -5e-06 in subexpression 'sqrt(5e-06-x)'",
        2: "metric degenerate at [-0.5, 1e-05, 0.0]",
    },
    "sqrt": {0: "float division by zero in subexpression 'sqrt(x)'"},
    "sqrt200": {0: "float division by zero in subexpression 'sqrt(x)'"},
    "slope": {0: "derivatives not finite at [1e-100, 0.5]"},
    "curvature": {0: "derivatives not finite at [1e-200, 0.5]"},
    "exp": {0: "lightlike_defect is not finite", 1: "lightlike_defect is not finite"},
    "null_kernel": {},
    "null_pair": {},
    "bowl": {
        1: "Weingarten tangent part pairs with xi (2.400e+00 > 0.9 * scale)",
        2: "Weingarten tangent part pairs with xi (2.821e+00 > 0.9 * scale)",
        3: "Gauss tangent part pairs with xi (2.920e+00 > 0.9 * scale)",
        5: "Weingarten tangent part pairs with xi (3.000e+00 > 0.9 * scale)",
    },
    "gate": {1: "outside domain", 2: "outside domain"},
}


# sha256 of each case's rendered report.  Recorded before classify kept its
# failed rows in one stack, then (null_kernel's and null_pair's) when the
# screen frame came from one eigendecomposition; the lightlike cases again
# when tau, the tangency certificates and the minimal defect became closed
# forms of the jets, after a field-wise comparison showed only those numbers
# moved, by a few ulps, and screen_nxi left the report; and the cases with a
# live point again when the certificates normality, xi_null, xi_nxi and
# nxi_nxi left the report (field-wise, every other field of every record,
# and the header and verdicts, kept their bits); and every case again for
# report format 2, when certificates and scales left the records and
# second_form_scale took scales.second_form's bits (field-wise, nothing
# else moved).  gate's was recorded while the domain was still tested point
# by point.  The failing points are
# exactly the rows a change to the stack's bookkeeping could disturb
REPORT_SHA256 = {
    "bowl": "5bf3c40c6e5fb56c8549e27887a45bb6f4ff6dc5f6601f6c25371b4b6416e363",
    "cross": "02c3917eefa00a077278f68ae9e3f6cc7325a4eec4069d873c1e236c13ad46cd",
    "curvature": "9a1b5a7cf91265fda62f37a695539f92127adef89023e1fc7bc2d6797552b305",
    "euclid_cone": "844db98b58ec98336e1c4723da138aab4f0630c6232094caebe852fb57e5d089",
    "exp": "ae5bb0ffb1af9aed5594358cfdfdd4e7cecfde6f1c46b39be8137ab134d7a310",
    "first_neighbour": "269c43935624a6082c0ca4252361b4425a05aa66c4279801fc775e4b357414ff",
    "gate": "d424f64e41e39122968d292dc4d9d7552dbfbd68c304db372b8a9d1950ba5eba",
    "hyperbolic3": "80ae835cf9505e04fc5e92503d662dcf18ae8235eb1dbac17f822d0b75d2c0e9",
    "metric_first": "c015e639b0d84a8ecc22f55a28d96b88da8edafe2947042c2acb30209c86ef7d",
    "null_kernel": "4780c57b647a9d42ec5b74f50e86fe37315c8d4b4447d54573f7628075c44446",
    "null_pair": "f7b06d25ef3662457988c00be3827a8947ef96107e04e3d8a6de634d636cc5f7",
    "pinched": "066ea59cb163eb5e095938f5ce0d5cfffecfbdc06e110b916ad2f94e86659eed",
    "root": "097937c55f5e90990e3894dd733656d7b16452e4a35360d27cbbdf49c0ae1698",
    "schwarzschild_tr": "3b46425013ea5c5f0f1c788c76d596070664b59900bc819aecfd198bf7913693",
    "slope": "54990ed703f44e2fbd8468230cf227d8cb1501be05a34dc5668d79acce9fe6ff",
    "sqrt": "dbaa22f6977f820098f9f406b6b1ca3434048d314e6f9fab1a685e69d56dabe9",
    "sqrt200": "66d84ebcf7d592cb632ec36bab99cd8f7c999288d55e8f328d3b257e90624771",
    "twin": "e9b577cc6570066366b3a2e2389a7884de4ad49fd70773747d595c13f2175e0d",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(name):
    gen, points, tol = CASES[name]
    digest = hashlib.sha256(render_report(classify(gen, points, tol)).encode()).hexdigest()
    assert digest == REPORT_SHA256[name]


# benchmark-shaped batches of seeded points from the default boxes, each
# evaluated as one stack; sha256 of the reports recorded before F's jets ran
# on stacks, and again for the closed-form tau, tangency certificates and
# minimal defect (field-wise, only those moved, and screen_nxi went), and
# when normality, xi_null, xi_nxi and nxi_nxi went, and for report format 2
# (field-wise, nothing else moved either time)
SEEDED_SHA256 = {
    "hyperbolic3": (64, "e534b86a931b288ace7d49b1c36033e5ee9ec8ba6ca769f89e0ce99619ca2fdd"),
    "schwarzschild_tr": (100, "3e532f27decbbaa063103112b9e1942021e9dbc9341b1bd4c1091b3f7bf346a8"),
}


def seeded_case(name):
    """The builtin's generator and its SEEDED_SHA256 batch of points."""
    count, _ = SEEDED_SHA256[name]
    entry = catalog.builtin(name)
    lo, hi = np.array(entry.default_samples.ranges, dtype=float).T
    draws = lo + (hi - lo) * np.random.default_rng(count).random((count, len(lo)))
    return entry.generator, [entry.generator.surface_point(b) for b in draws.tolist()]


@pytest.mark.parametrize("name", sorted(SEEDED_SHA256))
def test_seeded_batch_bytes_pinned(name):
    gen, points = seeded_case(name)
    digest = hashlib.sha256(render_report(classify(gen, points)).encode()).hexdigest()
    assert digest == SEEDED_SHA256[name][1]


def bits(value):
    """A form of a record field that compares equal only bit for bit."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, SurfacePoint):
        return tuple(bits(x) for x in value.base), bits(value.x0)
    return type(value).__name__, value


def record_bits(analysis):
    """Every field of a record but its position in the batch."""
    return {k: bits(v) for k, v in vars(analysis).items() if k != "index"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_errors_pinned(name):
    gen, points, tol = CASES[name]
    errors = {a.index: a.error for a in classify(gen, points, tol).points if a.error}
    assert errors == PINNED[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_independent_of_batch(name):
    gen, points, tol = CASES[name]
    whole = [record_bits(a) for a in classify(gen, points, tol).points]
    for k, point in enumerate(points):
        (alone,) = classify(gen, [point], tol).points
        assert record_bits(alone) == whole[k]
    order = np.random.default_rng(len(points)).permutation(len(points))
    permuted = classify(gen, [points[k] for k in order], tol).points
    for k, analysis in zip(order, permuted):
        assert record_bits(analysis) == whole[k]


def test_public_functions_raise_the_first_error():
    # a stack of one keeps the first-error order of classify's records
    gen, points, _ = CASES["metric_first"]
    with pytest.raises(DegenerateMetricError, match=r"^metric degenerate at \[1e-320, 0.5\]$"):
        lightlike_defect_at(gen, points[0])
    gen, points, _ = CASES["first_neighbour"]
    with pytest.raises(EvalDomainError, match=r"^sqrt of non-positive value -5e-06 "):
        screen_integrability_defect_at(gen, points[0])
    with pytest.raises(DegenerateMetricError, match=r"^metric degenerate at \[-0.5, 1e-05, 0.0\]$"):
        screen_integrability_defect_at(gen, points[2])


# the cases, and the lightlike lines, whose tau and bracket do not vanish
PUBLIC_CASES = dict(CASES)
for name, (gen, bases, _) in lightlike_line_fixtures().items():
    PUBLIC_CASES[name] = gen, drawn(gen, bases), None


@pytest.mark.parametrize("name", sorted(PUBLIC_CASES))
def test_public_functions_read_the_same_numbers(name):
    gen, points, tol = PUBLIC_CASES[name]
    tolerance = 1e-8 if tol is None else tol
    for a in classify(gen, points, tol).points:
        if a.error is not None:
            continue
        # the public functions run under classify's errstate, so the overflows
        # of intermediate products (the curvature case's umbilic fit) are quiet
        assert bits(lightlike_defect_at(gen, a.point)) == bits(a.lightlike_defect)
        if a.umbilic_rho is not None:
            assert bits(umbilic_fit_at(gen, a.point)[0]) == bits(a.umbilic_rho)
        if a.minimal_defect is not None:
            assert bits(minimal_defect_at(gen, a.point)) == bits(a.minimal_defect)
            defect = screen_integrability_defect_at(gen, a.point)
            assert bits(defect) == bits(a.integrability_defect)
        if a.tau is not None:
            tau = [
                weingarten_at(gen, a.point, i, tolerance=tolerance)[1]
                for i in range(gen.dimension)
            ]
            assert bits(np.array(tau)) == bits(a.tau)


@pytest.mark.parametrize("name", ["null_kernel", "null_pair"])
def test_null_elimination_bases_analyse_cleanly(name):
    # every elimination vector of ker dF may be g-null while g on ker dF is
    # non-degenerate; the frame must not depend on that basis
    gen, points, tol = CASES[name]
    for sp in points:
        screen = screen_frame_at(gen, sp)
        W, gbar = screen.vectors, ambient_metric_at(gen, sp)
        gram = W @ gbar @ W.T
        assert np.max(np.abs(gram - np.diag(screen.signs))) < 1e-12 * local_scale(gbar, W)
    if name == "null_pair":  # the z = 0 point has its z = 0.5 neighbour's geometry
        first, zero, _ = classify(gen, points, tol).points
        assert bits(zero.minimal_defect) == bits(first.minimal_defect)


# The bracket's neighbours take their point's verified inverse where their
# metric is bit-identical to the point's; the reference inverts every one.
# A tolerance above 1 makes every point lightlike, so that classify runs the
# bracket at each point that passes its earlier gates.
EVERY_POINT_LIGHTLIKE = 1e9


def assert_bracket_matches_reference(gen, points, tol=None):
    """classify's bracket defects and neighbour errors, and those of
    screen_integrability_defect_at, equal the reference's bit for bit."""
    for a in classify(gen, points, tol).points:
        defect, error = reference_bracket_defect(gen, a.point.base)
        if error is None:
            assert a.error is None
            assert bits(a.integrability_defect) == bits(defect)
            assert bits(screen_integrability_defect_at(gen, a.point)) == bits(defect)
        else:
            assert a.error == error
            with pytest.raises(Exception, match=f"^{re.escape(error)}$"):
                screen_integrability_defect_at(gen, a.point)


def subset_generator(seed, d):
    """A generator on d coordinates whose metric reads a seeded random
    subset of them (none, some or all), non-degenerate on the box [0.6,
    1.9]^d of random_box_point, and whose F has a linear part in every
    coordinate."""
    rng = np.random.default_rng(seed)
    names = "xyzw"[:d]
    chart = CoordinateChart(tuple(names))
    read = sorted(rng.choice(d, size=int(rng.integers(0, d + 1)), replace=False).tolist())

    def term():
        if not read:
            return f"{rng.uniform(0.3, 2.0):.3f}"
        return render(random_smooth_expr(rng, CoordinateChart(tuple(names[i] for i in read)), 2))

    # a diagonal of magnitude >= 1/2 and off-diagonal entries of at most
    # 0.05 keep g non-degenerate; the first diagonal entry may be timelike
    rows = [[None] * d for _ in range(d)]
    for i in range(d):
        sign = "-" if i == 0 and rng.random() < 0.5 else ""
        rows[i][i] = f"{sign}(1.5 + sin({term()}))"
        for j in range(i + 1, d):
            rows[i][j] = rows[j][i] = f"0.05*sin({term()})"
    slope = " + ".join(f"{0.1 * (i + 1):g}*{name}" for i, name in enumerate(names))
    scalar = f"{render(random_smooth_expr(rng, chart, 3))} + {slope}"
    gen = generator(f"subset{seed}", names, rows, scalar)
    return gen, drawn(gen, [tuple(random_box_point(rng, d)) for _ in range(5)])


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("seed", range(6))
def test_bracket_on_a_metric_of_some_coordinates_matches_reference(seed, d):
    gen, points = subset_generator(100 * d + seed, d)
    assert_bracket_matches_reference(gen, points, EVERY_POINT_LIGHTLIKE)


def test_bracket_errors_name_the_first_neighbour_as_the_reference_does():
    gen, points, tol = CASES["first_neighbour"]
    assert_bracket_matches_reference(gen, points, tol)


def inverted_bases(monkeypatch) -> list:
    """The base points of each invert_metric call classify makes from now on."""
    calls = []

    def recording(g, bases):
        calls.append([tuple(b) for b in bases])
        return invert_metric(g, bases)

    monkeypatch.setattr(mongecore, "invert_metric", recording)
    return calls


def test_hyperbolic3_inverts_only_the_z_neighbours(monkeypatch):
    # g = diag(1, 1, 1) / z^2 reads z only: the x and y neighbours, 2/3 of
    # them, reuse their point's inverse
    gen, points = seeded_case("hyperbolic3")
    calls = inverted_bases(monkeypatch)
    report = classify(gen, points)
    bracketed = [a.point.base for a in report.points if a.integrability_defect is not None]
    assert len(bracketed) == len(points)
    h = BRACKET_STEP
    assert calls[1:] == [[(x, y, z + step) for x, y, z in bracketed for step in (h, -h)]]


def test_a_neighbour_whose_zero_changes_sign_is_inverted(monkeypatch):
    # 0*x is -0.0 at x < 0 and 0.0 at x > 0, a g that == calls equal but
    # whose bits differ: the +x neighbour of a point with -h < x < 0 is
    # inverted, every other neighbour reuses its point's inverse
    rows = [["1", "0*x", "0"], ["0*x", "1", "0"], ["0", "0", "2 + z"]]
    gen = generator("signed_zero", "xyz", rows, "x*y + 0.5*z^2")
    h = BRACKET_STEP
    points = drawn(gen, [(-h / 2, 0.3, 0.2), (0.5, 0.3, 0.2)])
    assert_bracket_matches_reference(gen, points, EVERY_POINT_LIGHTLIKE)
    calls = inverted_bases(monkeypatch)
    classify(gen, points, EVERY_POINT_LIGHTLIKE)
    (x, y, z), _ = (p.base for p in points)
    z_neighbours = [(x, y, z + step) for x, y, z in (p.base for p in points) for step in (h, -h)]
    assert calls[1:] == [[(x + h, y, z), *z_neighbours]]
