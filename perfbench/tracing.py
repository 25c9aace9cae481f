"""Per-layer tracing of `crd`, installed from outside the library.

Every public function of a traced module is replaced by a timing wrapper at
every binding that names it: the defining module, each module that did
`from .x import f`, and the verify suite table. Each call records its count,
its self time (duration minus the time of traced calls it made) and, above
the projective layer, a span (id, parent id, name, start, end) kept in memory.
Projective primitives run about a million times per verify call, so they are
counted and timed but keep no span.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time

LAYERS = ("projective", "polygon", "continuants", "lax", "dynamics", "sampling",
          "poisson", "special", "verify", "cli")
# Inline arithmetic that its callers' self time should keep.
UNTRACED = {"projective.det2", "projective.is_inf_value"}
SUITE_NAMES = ("conservation", "lax", "monodromy", "bianchi", "poisson", "exceptional",
               "appendix", "rigidity", "perimeter")


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, self seconds, total seconds]
        self.spans = []  # (id, parent id or None, name, start, end)
        self.points = 0  # ProjectivePoint constructions
        self._stack = []  # [child seconds, span id] of the open calls
        self._ids = itertools.count()

    def wrap(self, name: str, fn, keep_span: bool):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stat[0] += 1
                stat[1] += took - frame[0]
                stat[2] += took
                if parent is not None:
                    parent[0] += took
                if keep_span:
                    spans.append((frame[1], parent and parent[1], name, start, end))

        return traced

    def install(self):
        """Wrap every traced function of the currently imported `crd`."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"crd.{layer}"]
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn) or name in UNTRACED
                        or fn.__module__ != module.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                wrapped[fn] = self.wrap(name, fn, keep_span=layer != "projective")
        for module_name, module in list(sys.modules.items()):
            if module_name == "crd" or module_name.startswith("crd."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        setattr(module, attr, wrapped[value])
        suites = sys.modules["crd.verify"].SUITES
        for key, fn in suites.items():
            suites[key] = wrapped.get(fn, fn)

        polygon = sys.modules["crd.polygon"].TwistedPolygon
        polygon.separation = self.wrap("polygon.separation", polygon.separation, keep_span=True)
        point = sys.modules["crd.projective"].ProjectivePoint
        post_init = point.__post_init__

        def counted(obj):
            self.points += 1
            post_init(obj)

        point.__post_init__ = counted

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self_s(self, layer: str) -> float:
        return sum(s[1] for name, s in self.stats.items() if name.split(".")[0] == layer)

    def child_calls(self, child: str, parent: str) -> int:
        """Spans of `child` whose direct traced parent is `parent`."""
        names = {sid: name for sid, _, name, _, _ in self.spans}
        return sum(1 for _, pid, name, _, _ in self.spans
                   if name == child and names.get(pid) == parent)


def layer_metrics(tracer: Tracer, rounds: int, overhead: float, probe: float) -> dict:
    """The per-layer metrics, counts and seconds per round (one pass over the
    inputs); `probe` is the failed-step count of the untraced probe orbit."""
    steps = tracer.calls("dynamics.step")
    m = {}

    def count(key, value):
        m[key] = (value / rounds, "count")

    def seconds(key, value):
        m[key] = (value / rounds, "s")

    def per_step(key, value):
        m[key] = (value / steps if steps else 0.0, "1/step")

    count("projective.ProjectivePoint.calls", tracer.points)
    per_step("projective.ProjectivePoint.per_step", tracer.points)
    for f in ("chordal", "cross_ratio", "loxodromic_matrix", "classify"):
        count(f"projective.{f}.calls", tracer.calls(f"projective.{f}"))
        seconds(f"projective.{f}.self_s", tracer.self_s(f"projective.{f}"))
    seconds("projective.self_s", tracer.layer_self_s("projective"))

    count("polygon.separation.calls", tracer.calls("polygon.separation"))
    seconds("polygon.separation.self_s", tracer.self_s("polygon.separation"))
    per_step("polygon.separation.per_step", tracer.calls("polygon.separation"))
    for f in ("cross_ratios", "apply_moebius"):
        seconds(f"polygon.{f}.self_s", tracer.self_s(f"polygon.{f}"))
    seconds("polygon.self_s", tracer.layer_self_s("polygon"))

    for f in ("renormalizing_map", "alpha_related", "step", "relation_residual"):
        count(f"dynamics.{f}.calls", tracer.calls(f"dynamics.{f}"))
        seconds(f"dynamics.{f}.self_s", tracer.self_s(f"dynamics.{f}"))
    per_step("dynamics.regauge.per_step", tracer.calls("dynamics.renormalizing_map"))
    for f in ("orbit_conservation_report", "run_renormalized"):
        seconds(f"dynamics.{f}.self_s", tracer.self_s(f"dynamics.{f}"))
    seconds("dynamics.self_s", tracer.layer_self_s("dynamics"))
    m["dynamics.steps_over_tol.probe"] = (probe, "count")

    count("lax.g_coefficients.calls", tracer.calls("lax.g_coefficients"))
    for f in ("g_coefficients", "lax_matrix", "ijk", "axis"):
        seconds(f"lax.{f}.self_s", tracer.self_s(f"lax.{f}"))
    seconds("lax.self_s", tracer.layer_self_s("lax"))

    count("continuants.trace_coefficients.calls", tracer.calls("continuants.trace_coefficients"))
    seconds("continuants.trace_coefficients.self_s", tracer.self_s("continuants.trace_coefficients"))
    seconds("continuants.self_s", tracer.layer_self_s("continuants"))

    for f in ("orbit_ready_polygon", "well_conditioned_orbit_report"):
        count(f"sampling.{f}.calls", tracer.calls(f"sampling.{f}"))
        seconds(f"sampling.{f}.self_s", tracer.self_s(f"sampling.{f}"))
    # results the samplers returned over the draws they made (rejected draws are waste)
    kept = tracer.calls("sampling.orbit_ready_polygon") + tracer.calls("sampling.well_conditioned_orbit_report")
    drawn = (tracer.child_calls("sampling.random_closed_polygon", "sampling.orbit_ready_polygon")
             + tracer.child_calls("dynamics.orbit_conservation_report",
                                  "sampling.well_conditioned_orbit_report"))
    m["sampling.accept_ratio"] = (kept / drawn if drawn else 0.0, "ratio")

    for f in ("jacobi_residual", "involution_report"):
        seconds(f"poisson.{f}.self_s", tracer.self_s(f"poisson.{f}"))
    seconds("poisson.self_s", tracer.layer_self_s("poisson"))
    seconds("special.self_s", tracer.layer_self_s("special"))
    for suite in SUITE_NAMES:
        seconds(f"verify.suite_{suite}.s", tracer.total_s(f"verify.suite_{suite}"))
    seconds("cli.self_s", tracer.layer_self_s("cli"))
    m["trace.overhead"] = (overhead, "ratio")
    return m
