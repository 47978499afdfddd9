"""Outside-in tracing of mongelight's public functions.

The tracer replaces each target function in every ``mongelight`` module
namespace that binds it (``from .exprlang import evaluate`` makes
``mongecore.evaluate`` a second binding of the same object), so calls made
from inside the library are seen as well as calls made by the benchmark.
Nothing inside the library is edited.  Each call records one span: name,
start, end, parent span and request id.  Spans stay in memory in flat
arrays and are written out when the run ends.

``evaluate`` is reported under two names: ``exprlang.evaluate`` when the
point holds plain floats, ``autodiff.jet_evaluate`` otherwise, because the
cost of forward-mode differentiation lives inside jet evaluation.

A target missing from the library (a later refactor may delete it) is
reported with zero calls.
"""

from __future__ import annotations

import sys
import time
from array import array

TARGETS = {
    "exprlang": ("evaluate", "check_domain", "parse"),
    "semiriemann": (
        "metric_jets_at",
        "invert_metric",
        "christoffel_from_partials",
        "orthonormalize",
    ),
    "mongecore": (
        "classify",
        "normal_and_transversal_at",
        "monge_frame_at",
        "second_fundamental_form_at",
        "umbilic_fit_at",
        "kernel_frame_at",
        "minimal_defect_at",
        "screen_frame_at",
        "weingarten_at",
        "gauss_decompose_at",
        "screen_integrability_defect_at",
    ),
    "reportio": ("grid_sample", "render_report", "load_generator"),
    "catalog": ("builtin",),
}
JET_EVALUATE = "autodiff.jet_evaluate"


def layer_names() -> list[str]:
    """Every reported layer, in a stable order."""
    names = []
    for module, functions in TARGETS.items():
        for function in functions:
            names.append(f"{module}.{function}")
            if (module, function) == ("exprlang", "evaluate"):
                names.append(JET_EVALUATE)
    return names


def _is_plain(point) -> bool:
    return all(isinstance(x, (float, int)) for x in point)


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` restores them."""

    def __init__(self):
        self.names = layer_names()
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request_id = array("i")
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, jet_name: str | None = None):
        plain_id = self._ids[name]
        jet_id = self._ids[jet_name] if jet_name else plain_id
        name_id, start, end = self.name_id, self.start, self.end
        parent, request_id, stack = self.parent, self.request_id, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            kind = plain_id
            if jet_name is not None and len(args) > 1 and not _is_plain(args[1]):
                kind = jet_id
            name_id.append(kind)
            parent.append(stack[-1] if stack else -1)
            request_id.append(self.request)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        import mongelight  # noqa: F401  (the package imports its submodules)

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "mongelight" or key.startswith("mongelight.")]
        for module_name, functions in TARGETS.items():
            home = sys.modules.get(f"mongelight.{module_name}")
            for function in functions:
                original = getattr(home, function, None) if home else None
                if original is None:
                    continue
                jet = JET_EVALUATE if (module_name, function) == ("exprlang", "evaluate") else None
                wrapper = self._wrap(original, f"{module_name}.{function}", jet)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per layer: (calls, self seconds), self = duration minus child spans."""
        n = len(self.start)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for k in range(n):
            i = self.name_id[k]
            calls[i] += 1
            self_s[i] += self.end[k] - self.start[k] - child[k]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def write(self, path):
        """Spans as CSV: name,start_s,end_s,parent,request (parent -1 = root)."""
        lines = ["name,start_s,end_s,parent,request"]
        names = self.names
        for k in range(len(self.start)):
            lines.append(
                f"{names[self.name_id[k]]},{self.start[k]!r},{self.end[k]!r},"
                f"{self.parent[k]},{self.request_id[k]}"
            )
        path.write_text("\n".join(lines) + "\n")
