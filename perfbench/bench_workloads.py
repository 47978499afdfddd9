"""The four workloads of the mongelight benchmark and their correctness gates.

Every workload is a closed loop: one client, one request at a time, in one
process (the ``cli`` workload adds one child interpreter per request).
Inputs are drawn uniformly from each builtin's default sample box with a
NumPy generator seeded from ``--seed``; the fixed grids are never used, so
no change can win by exploiting grid structure.

A request's timer covers only the program's work.  Output checks run after
the timer stops; each failed check counts the request as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import mongelight as ml
from mongelight import catalog, cli

# Closed forms must match within the tolerance ``mongelight verify`` uses;
# point queries pass the CLI's default tolerance.
CLOSED_FORM_TOLERANCE = 1e-7
EVAL_TOLERANCE = 1e-8

# Points per request: as many as an 8x8x8 grid (d = 3) or a 20x20 grid (d = 2).
GRID3D = {"hyperbolic3": 512}
GRID2D = {"hyperbolic2": 400, "schwarzschild_tr": 400, "euclid_cone": 400}
# Distinct input sets per builtin; requests cycle through them so a cache
# keyed on the input cannot carry results from one request to the next.
INPUT_SETS = 2
# Query mix, repeated QUERY_REPEATS times per cycle; the 3:1 mix keeps the
# median inside the d = 3 mode.
QUERY_MIX = ("hyperbolic3", "hyperbolic3", "hyperbolic3", "schwarzschild_tr")
QUERY_REPEATS = 25
CLI_BUILTINS = tuple(name for name, _ in catalog.list_builtins())
CLI_CLASSIFY_POINTS = 25
CLI_TIMEOUT_S = 60.0

VERDICTS = ("degenerate", "totally_geodesic", "totally_umbilical", "minimal")
CLOSED_FORMS = ("lightlike_defect", "umbilic_rho", "minimal_defect")


# Machine-speed probe: a fixed kernel shaped like the library's hot path
# (second-order jet products on small NumPy arrays, then a 3x3 inverse and
# contraction) that never touches mongelight, so no change to the library
# moves it.  The host shares its cores with other tenants and its speed
# drifts by up to 2x over seconds; the probe runs before and after every
# cycle and each request time is rescaled to the speed at which the probe
# takes PROBE_REFERENCE_S (about its median on a 2-vCPU Xeon host), so that
# runs taken at different moments compare.
PROBE_ROUNDS = 270
PROBE_REFERENCE_S = 0.010
_PROBE_MATRIX = np.array([[2.0, 0.1, 0.0], [0.1, 3.0, 0.2], [0.0, 0.2, 1.5]])


def _jet_mul(a, b):
    (av, ag, ah), (bv, bg, bh) = a, b
    cross = np.outer(ag, bg)
    return av * bv, ag * bv + bg * av, ah * bv + bh * av + cross + cross.T


def probe_seconds() -> float:
    t0 = time.perf_counter()
    x = (1.5, np.ones(3), np.zeros((3, 3)))
    y = (0.5, np.arange(3.0), np.eye(3))
    acc = 0.0
    for i in range(PROBE_ROUNDS):
        v, g, h = _jet_mul(_jet_mul(x, y), y)
        inv = np.linalg.inv(_PROBE_MATRIX + (i * 1e-9) * h)
        acc += v + float(np.einsum("ij,j->i", inv, g)[0])
    return time.perf_counter() - t0


def timed_by_probe(work):
    """Run ``work()`` between two probes; return (result, speed factor)."""
    before = probe_seconds()
    result = work()
    after = probe_seconds()
    return result, 2.0 * PROBE_REFERENCE_S / (before + after)


class Stats:
    """Timed requests and check outcomes of one phase of a run.

    ``latencies`` hold request times already rescaled to reference speed;
    ``raw`` holds them as the clock read them.
    """

    def __init__(self, tracer=None):
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.tracer = tracer

    def begin(self):
        if self.tracer is not None:
            self.tracer.request += 1

    def record(self, seconds: float | None, points: int, errors: list[str]):
        """One attempted operation; ``seconds`` is None for an untimed one."""
        self.attempted += 1
        if seconds is not None:
            self.raw.append(seconds)
            self.points += points
        if errors:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(errors[:3])

    def rescale(self, factor: float):
        """Rescale the requests recorded since the last call by ``factor``."""
        self.latencies.extend(x * factor for x in self.raw[len(self.latencies):])

    def absorb(self, other: "Stats"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages[: max(0, 20 - len(self.messages))])

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def expected_for(name: str):
    """The catalog's expected verdicts and closed forms for a builtin."""
    return catalog.builtin(name).expected


class Expectation:
    """A builtin's expected verdicts, with its closed forms parsed once."""

    def __init__(self, name: str):
        entry = catalog.builtin(name)
        expected = expected_for(name)
        self.name = name
        self.params = entry.generator.params
        self.verdicts = {v: getattr(expected, v) for v in VERDICTS}
        self.forms = {}
        for key in CLOSED_FORMS:
            source = getattr(expected, key)
            if source is not None:
                self.forms[key] = ml.parse(source, entry.generator.chart)

    def point_errors(self, base, values: dict) -> list[str]:
        errors = []
        for key, expr in self.forms.items():
            got = values.get(key)
            want = ml.evaluate(expr, tuple(base), self.params)
            if got is None or not abs(got - want) <= CLOSED_FORM_TOLERANCE * (1.0 + abs(want)):
                errors.append(f"{self.name} {key} at {list(base)}: got {got!r}, want {want!r}")
        return errors

    def report_errors(self, text: str) -> list[str]:
        """Strict-JSON, verdict and per-point closed-form checks of a report."""
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            return [f"{self.name}: report is not strict JSON: {exc}"]
        errors = []
        for verdict, want in self.verdicts.items():
            got = doc["verdicts"][verdict]["value"]
            if got != want:
                errors.append(f"{self.name}: verdict {verdict} is {got!r}, expected {want!r}")
        for point in doc["points"]:
            if point["error"] is not None:
                errors.append(f"{self.name}: point {point['point']} failed: {point['error']}")
            else:
                errors.extend(self.point_errors(point["point"], point))
        return errors


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def sample_box(name: str) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of the builtin's default sample box."""
    ranges = catalog.builtin(name).default_samples.ranges
    return np.array([r[0] for r in ranges]), np.array([r[1] for r in ranges])


def sample_bases(box, count: int, rng: np.random.Generator) -> list[tuple[float, ...]]:
    """``count`` points drawn uniformly from ``box``."""
    lo, hi = box
    draws = lo + (hi - lo) * rng.random((count, len(lo)))
    return [tuple(float(x) for x in row) for row in draws]


# ---------------------------------------------------------------------------
# grid3d, grid2d


class GridWorkload:
    """classify + render_report of seeded sample sets, a fresh generator per request."""

    def __init__(self, seed: int, sizes: dict[str, int], workdir: Path):
        rng = np.random.default_rng(seed)
        self.expect = {name: Expectation(name) for name in sizes}
        self.inputs = []
        for _ in range(INPUT_SETS):
            for name, count in sizes.items():
                gen = catalog.builtin(name).generator
                bases = sample_bases(sample_box(name), count, rng)
                points = [gen.surface_point(b) for b in bases]
                self.inputs.append((name, points))
        self.reference: dict[int, str] = {}
        self.cursor = 0
        self.cycle_len = len(sizes)

    def _request(self, k: int, stats: Stats) -> tuple[str, float]:
        name, points = self.inputs[k]
        stats.begin()
        t0 = time.perf_counter()
        report = ml.classify(catalog.builtin(name).generator, points)
        text = ml.render_report(report)
        return text, time.perf_counter() - t0

    def gate(self, stats: Stats):
        """Warm-up: every input once, untimed, fully checked."""
        for k, (name, _) in enumerate(self.inputs):
            text, _ = self._request(k, stats)
            self.reference[k] = text
            stats.record(None, 0, self.expect[name].report_errors(text))

    def cycle(self, stats: Stats):
        for _ in range(self.cycle_len):
            k = self.cursor
            self.cursor = (k + 1) % len(self.inputs)
            text, seconds = self._request(k, stats)
            same = text == self.reference[k]
            errors = [] if same else [f"{self.inputs[k][0]}: report bytes differ on a repeated input"]
            stats.record(seconds, len(self.inputs[k][1]), errors)

    trace_cycle = cycle


# ---------------------------------------------------------------------------
# point_queries


class PointQueries:
    """The calls ``mongelight eval`` makes, at a fresh point per query."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.entries = {name: catalog.builtin(name) for name in QUERY_MIX}
        self.expect = {name: Expectation(name) for name in QUERY_MIX}
        self.boxes = {name: sample_box(name) for name in QUERY_MIX}
        self.pending = self._draw()

    def _draw(self):
        return [
            (name, sample_bases(self.boxes[name], 1, self.rng)[0])
            for _ in range(QUERY_REPEATS)
            for name in QUERY_MIX
        ]

    def _query(self, name: str, base, stats: Stats):
        gen = self.entries[name].generator
        stats.begin()
        t0 = time.perf_counter()
        if not gen.admissible(base):
            raise ValueError(f"{name}: drawn point {list(base)} is outside the domain")
        sp = gen.surface_point(base)
        defect = ml.lightlike_defect_at(gen, sp)
        frame, induced, rank = ml.monge_frame_at(gen, sp, EVAL_TOLERANCE)
        rho, residual = ml.umbilic_fit_at(gen, sp)
        xi, nxi = ml.normal_and_transversal_at(gen, sp)
        B = ml.second_fundamental_form_at(gen, sp, tolerance=EVAL_TOLERANCE)
        minimal = ml.minimal_defect_at(gen, sp)
        screen = ml.screen_frame_at(gen, sp, EVAL_TOLERANCE)
        shape = [
            ml.weingarten_at(gen, sp, i, tolerance=EVAL_TOLERANCE) for i in range(gen.dimension)
        ]
        seconds = time.perf_counter() - t0
        arrays = [frame, induced, xi, nxi, B, screen.vectors]
        arrays += [np.append(a_vec, tau) for a_vec, tau in shape]
        values = {"lightlike_defect": defect, "umbilic_rho": rho, "minimal_defect": minimal}
        errors = self.expect[name].point_errors(base, values)
        if rank != 1:
            errors.append(f"{name}: radical rank {rank} at {list(base)}, expected 1")
        if not all(np.all(np.isfinite(a)) for a in arrays) or not math.isfinite(residual):
            errors.append(f"{name}: non-finite output at {list(base)}")
        return seconds, errors

    def _run(self, stats: Stats, timed: bool):
        batch, self.pending = self.pending, self._draw()
        for name, base in batch:
            try:
                seconds, errors = self._query(name, base, stats)
            except Exception as exc:  # a failed query is counted, the loop goes on
                seconds, errors = None, [f"{name} at {list(base)}: {type(exc).__name__}: {exc}"]
            stats.record(seconds if timed else None, 1, errors)

    def gate(self, stats: Stats):
        self._run(stats, timed=False)

    def cycle(self, stats: Stats):
        self._run(stats, timed=True)

    trace_cycle = cycle


# ---------------------------------------------------------------------------
# cli


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("TOLERANCE", None)
    return env


def import_wall(src: Path) -> float:
    """Wall time of a fresh interpreter that only imports mongelight."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import mongelight"],
        env=child_env(src),
        check=True,
        timeout=CLI_TIMEOUT_S,
    )
    return time.perf_counter() - t0


class CliWorkload:
    """Sequential ``mongelight eval``, ``verify`` and ``classify`` calls, one
    fresh interpreter each, cycling over the six builtins."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.src = Path(ml.__file__).resolve().parent.parent
        self.env = child_env(self.src)
        self.workdir = workdir
        self.expect = {name: Expectation(name) for name in CLI_BUILTINS}
        self.boxes = {name: sample_box(name) for name in CLI_BUILTINS}
        self.verify_points = {}
        self.files = {}
        for name in CLI_BUILTINS:
            entry = catalog.builtin(name)
            self.verify_points[name] = len(ml.grid_sample(entry.generator, entry.default_samples))
            bases = sample_bases(self.boxes[name], CLI_CLASSIFY_POINTS, self.rng)
            path = workdir / f"{name}.json"
            ml.save_generator(entry.generator, ml.SampleSet(points=tuple(bases)), path)
            self.files[name] = path
        self.reference: dict[str, str] = {}
        self.cursor = 0

    def _calls(self, names):
        """(kind, builtin, argv, points, extra) per builtin, with fresh eval points."""
        calls = []
        for name in names:
            base = sample_bases(self.boxes[name], 1, self.rng)[0]
            point = ",".join(repr(x) for x in base)
            calls.append(("eval", name, ["eval", "--builtin", name, f"--point={point}"], 1, base))
            calls.append(("verify", name, ["verify", "--builtin", name], self.verify_points[name], None))
            out = self.workdir / f"{name}.report.json"
            argv = ["classify", "--generator", str(self.files[name]), "--out", str(out)]
            calls.append(("classify", name, argv, CLI_CLASSIFY_POINTS, out))
        return calls

    def _check(self, kind, name, code, stdout, extra, full: bool) -> list[str]:
        if code != 0:
            return [f"mongelight {kind} --builtin {name} exited {code}"]
        if kind == "eval":
            values = {}
            for line in stdout.splitlines():
                key, sep, value = line.partition(" = ")
                if sep and key in CLOSED_FORMS:
                    values[key] = float(value)
            return self.expect[name].point_errors(extra, values)
        if kind == "verify":
            lines = stdout.strip().splitlines()
            ok = bool(lines) and lines[-1].startswith(f"{name}: PASS")
            return [] if ok else [f"mongelight verify --builtin {name} did not print PASS"]
        text = Path(extra).read_text()
        if full or name not in self.reference:
            self.reference[name] = text
            return self.expect[name].report_errors(text)
        if text != self.reference[name]:
            return [f"{name}: classify report bytes differ on a repeated input"]
        return []

    def _subprocess_calls(self, names, stats: Stats, timed: bool, full: bool):
        """Run the calls on ``names``; return their wall times by kind."""
        walls = {"eval": [], "verify": [], "classify": []}
        for kind, name, argv, points, extra in self._calls(names):
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "mongelight.cli", *argv],
                    env=self.env,
                    capture_output=True,
                    text=True,
                    timeout=CLI_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                stats.record(None, 0, [f"mongelight {kind} --builtin {name} timed out"])
                continue
            seconds = time.perf_counter() - t0
            walls[kind].append(seconds)
            errors = self._check(kind, name, proc.returncode, proc.stdout, extra, full)
            if errors and proc.stderr:
                errors.append(proc.stderr.strip().splitlines()[-1])
            stats.record(seconds if timed else None, points, errors)
        return walls

    def gate(self, stats: Stats):
        self._subprocess_calls(CLI_BUILTINS, stats, timed=False, full=True)

    def cycle(self, stats: Stats):
        """The three calls on the next builtin in turn."""
        name = CLI_BUILTINS[self.cursor]
        self.cursor = (self.cursor + 1) % len(CLI_BUILTINS)
        self._subprocess_calls([name], stats, timed=True, full=False)

    def subprocess_walls(self, stats: Stats) -> dict[str, list[float]]:
        """Wall times of import-only children and of one call of each kind per builtin."""
        imports = [import_wall(self.src) for _ in range(3)]
        walls = self._subprocess_calls(CLI_BUILTINS, stats, timed=False, full=False)
        return {"import": imports, **walls}

    def trace_cycle(self, stats: Stats):
        """Every builtin's calls through ``cli.main`` in this process, so layers can be traced."""
        for kind, name, argv, points, _ in self._calls(CLI_BUILTINS):
            sink = io.StringIO()
            stats.begin()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            seconds = time.perf_counter() - t0
            errors = [] if code == 0 else [f"in-process mongelight {kind} --builtin {name} exited {code}"]
            stats.record(seconds, points, errors)


WORKLOADS = {
    "grid3d": lambda seed, workdir: GridWorkload(seed, GRID3D, workdir),
    "grid2d": lambda seed, workdir: GridWorkload(seed, GRID2D, workdir),
    "point_queries": PointQueries,
    "cli": CliWorkload,
}
