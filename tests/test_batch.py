"""classify() runs every stage after the jets once over the stacked points;
a point's record must not depend on which other points share its stack.

Each case mixes points that analyse cleanly with points that fail at one
gate.  The failing points' messages are pinned as literals, so the order
in which the gates are checked cannot drift.
"""

import hashlib

import numpy as np
import pytest

from mongelight import catalog
from mongelight.exprlang import CoordinateChart, EvalDomainError, parse, parse_constraint
from mongelight.mongecore import (
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
from mongelight.semiriemann import DegenerateMetricError, MetricField, local_scale

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
}


# sha256 of each case's rendered report, recorded before classify kept its
# failed rows in one stack (null_kernel's and null_pair's since the screen
# frame came from one eigendecomposition); the failing points are exactly
# the rows a change to the stack's bookkeeping could disturb
REPORT_SHA256 = {
    "bowl": "62c3651f7dbfe716f4ea6d3e97a749e4d1622ff843ba65e7b7611b0e65815bab",
    "cross": "b1271a9d0d0462ee470767a9a7389a3acbd76ff23b6d63b31c69a378c4afd33b",
    "curvature": "cc5fcee62942167ffa74897b8a22d7a1d551ae3bc7e766e4974d8f1ef0b6af04",
    "euclid_cone": "b9267942b4d2353be22d32a739b431db790e6e8ea665b254c658100626a9434e",
    "exp": "45fcdf50608855bbf089933b4ae739bb31fdf2f6e00378ddec6d7f0ae50e0263",
    "first_neighbour": "1f2068eb752bbd85337e6bca36ac55cf0ba66756bc764f03299d5e861aa6ede3",
    "hyperbolic3": "8ade1705b82f80ce8e52b7e6e2b7671ccbbfb77d11288d34524b7077cda4778e",
    "metric_first": "d8d5839c4d844657c1399fde67c3b551120564ad5875e171096b6b34d960676c",
    "null_kernel": "6326fbdceb316994d2dc3ce80a18b46992fb0fc042d5813f6e6ab878c539e1ad",
    "null_pair": "bb6b202fb160012b20e54fd6fd715e15439d18d80cc90cc0dca6aced1ace4edd",
    "pinched": "fe6f8c3f968123bd326273c9539defd9b4d852ea863a696551b4231fbb605034",
    "root": "4ab2708e6b5c2610a504b448e692084cb58e1fa194807dc19fe9d5ec8a9ce554",
    "schwarzschild_tr": "aea340d13c233360e850162b0c0a55b5332c2e622e92914e25b28ac4756f9c7e",
    "slope": "542d76763b18cb279187e6052241bda5bb070858d24829a6b2ffc1a9b4c83613",
    "sqrt": "4977f2673b7105ffe977ab4d9f248b811013c83eb005646fa899f41e9250ff75",
    "sqrt200": "194836396c46f02196c549f101b179511194ac43ad600201bec7a49f06149935",
    "twin": "a716fe1cab9028924977a510b2d7757bc46c8ee40802f105999e3d4fe1309cac",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_pinned(name):
    gen, points, tol = CASES[name]
    digest = hashlib.sha256(render_report(classify(gen, points, tol)).encode()).hexdigest()
    assert digest == REPORT_SHA256[name]


# benchmark-shaped batches of seeded points from the default boxes, each
# evaluated as one stack; sha256 of the reports recorded before F's jets ran
# on stacks
SEEDED_SHA256 = {
    "hyperbolic3": (64, "9efa69b50bf3cbb9eb57ad820b110c44f8defd6f89888d1be6d2a069ed7131f4"),
    "schwarzschild_tr": (100, "0a6b3524786d1448c98fe2d09ea6c54cbefd0845a5721d15b86a51b39460ae1a"),
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
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_public_functions_read_the_same_numbers(name):
    gen, points, tol = CASES[name]
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
